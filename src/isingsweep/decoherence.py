"""Bath-induced excitation amplitudes of the swept chain.

For a weak coupling lam to an environment entering through transverse
field fluctuations, the excitation amplitude of the pair channel
s = (k, -k) at bath frequency omega is the oscillatory time integral

    A = -i lam int_0^T M_k(t) exp{i [-omega t + int_0^t 2 epsilon_k dt']} dt

with M_k the pair matrix element.  Everything here is evaluated in the
sweep variable g, where the phase derivative has the closed form
(-omega + 2 epsilon_k(g)) / (dg/dt)(g); this makes the cost independent
of the run time T and uniform across schedules.

Provided evaluations: the numeric integral, the two-saddle
stationary-phase approximation with a validity flag, and the rigorous
phase-free upper bound lam * int |M| dt.  Every integral, numeric
amplitude, channel norm int |M_k / (dg/dt)| dg or accumulated phase,
goes through one routine that integrates a list of them, on any mix of
schedules, in one batched quadrature call.  The omega-independent norm
is integrated once per channel, before the amplitudes: each amplitude's
relative budget is floored at 1e-13 of it, which keeps amplitudes that
cancel to nearly nothing from chasing an unreachable relative budget.
On top of these sit the bath-averaged total excitation probability and
the log-log scaling fit used for exponent checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    ChainSpec,
    CouplingConstant,
    _check_channel,
    channel_momenta,
    mode_epsilon,
    mode_epsilon_dg,
    pair_element,
    pair_matrix_element,
)
from .quadrature import QuadratureError, oscillatory_batch
from .schedules import Schedule, _velocity

__all__ = [
    "BathSpectrum",
    "SaddlePointAmplitude",
    "TotalExcitationResult",
    "ScalingFit",
    "amplitude_numeric",
    "amplitude_saddle_point",
    "amplitude_bound",
    "saddle_points",
    "accumulated_phase",
    "total_excitation_probability",
    "scaling_fit",
]

_COLD_BATH_EDGE = 2.0  # initial single-particle energy; support beyond it is suspect


@dataclass(frozen=True)
class BathSpectrum:
    """Spectral function f(omega) of the environment plus coupling.

    Three parametric families; f is normalized to unit weight over its
    support and assumed independent of the excited channel and of the
    system size.
    """

    kind: str
    params: dict
    coupling: CouplingConstant
    normalization: float = 1.0

    @classmethod
    def monochromatic(cls, omega0: float, coupling: CouplingConstant) -> "BathSpectrum":
        cls._warn_if_hot(omega0)
        return cls(kind="monochromatic", params={"omega0": float(omega0)}, coupling=coupling)

    @classmethod
    def ohmic(cls, omega_c: float, coupling: CouplingConstant,
              support_max: float | None = None) -> "BathSpectrum":
        if not omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {omega_c}")
        hi = float(support_max) if support_max is not None else 8.0 * omega_c
        cls._warn_if_hot(hi)
        x = hi / omega_c
        z = float(omega_c**2 * (-np.expm1(-x) - x * np.exp(-x)))  # int_0^hi w e^(-w/omega_c) dw
        return cls(kind="ohmic", params={"omega_c": float(omega_c), "support_max": hi},
                   coupling=coupling, normalization=1.0 / z)

    @classmethod
    def flat(cls, omega_min: float, omega_max: float, coupling: CouplingConstant) -> "BathSpectrum":
        if not omega_max > omega_min:
            raise ValueError("need omega_max > omega_min")
        cls._warn_if_hot(omega_max)
        return cls(kind="flat", params={"omega_min": float(omega_min),
                                        "omega_max": float(omega_max)},
                   coupling=coupling, normalization=1.0 / (omega_max - omega_min))

    @staticmethod
    def _warn_if_hot(omega_edge: float) -> None:
        if omega_edge >= _COLD_BATH_EDGE:
            warnings.warn(
                f"bath support reaches omega={omega_edge} >= {_COLD_BATH_EDGE}; "
                "the environment should be cold enough to prepare the initial "
                "ground state",
                stacklevel=3,
            )

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.kind == "monochromatic":
            raise ValueError("monochromatic bath has no density; use quadrature()")
        if self.kind == "ohmic":
            wc = self.params["omega_c"]
            out = self.normalization * omega * np.exp(-omega / wc)
            return np.where((omega > 0) & (omega <= self.params["support_max"]), out, 0.0)
        lo, hi = self.params["omega_min"], self.params["omega_max"]
        return np.where((omega >= lo) & (omega <= hi), self.normalization, 0.0)

    def quadrature(self, n_nodes: int = 33):
        """Nodes and weights with f folded in: int f(w) A(w) dw ~ sum W_i A(w_i)."""
        if self.kind == "monochromatic":
            return np.array([self.params["omega0"]]), np.array([1.0])
        if self.kind == "ohmic":
            lo, hi = 0.0, self.params["support_max"]
        else:
            lo, hi = self.params["omega_min"], self.params["omega_max"]
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        weights = 0.5 * (hi - lo) * w * self.density(nodes)
        return nodes, weights


@dataclass(frozen=True)
class SaddlePointAmplitude:
    value: complex
    valid: bool
    g_minus: float
    g_plus: float
    next_order_ratio: float


# Batched integrals, v = dg/dt: the amplitude int M_k/v e^{i Phi} dg, the channel
# norm int |M_k/v| dg and the phase int Phi' dg, Phi' = (-omega + 2 eps_k)/v; the
# (rtol, atol, breaks) of norms and phases (amplitudes: rtol, 1e-13 of the norm).
AMPLITUDE, NORM, PHASE = "amplitude", "norm", "phase"
_BUDGETS = {NORM: (1e-11, 0.0, (0.5,)), PHASE: (1e-13, 1e-9, (0.5,))}


def _integrand(terms):
    """The map (g, owner) -> (f, Phi') of ``terms``, each (schedule, ka, omega, kind, g_upper)."""
    rate, s, c, power = np.array([t[0].velocity_terms for t in terms], dtype=float).T
    ka, omega = np.array([t[1:3] for t in terms], dtype=float).T
    kind = np.array([t[3] for t in terms])

    def pair(g, owner):
        row = owner[:, None]
        vel = _velocity(rate[row], s[row], c[row], power[row], g)
        eps = mode_epsilon(ka[row], g)
        m = pair_element(ka[row], g, eps * vel)  # M_k / v = i m
        f = 1j * m
        dphi = (-omega[row] + 2.0 * eps) / vel
        norm, phase = kind[owner] == NORM, kind[owner] == PHASE  # rows overwritten in place
        f[norm] = np.abs(m[norm])
        f[phase] = dphi[phase]
        dphi[norm | phase] = 0.0
        return f, dphi

    return pair


def _batch(terms, rtol=0.0, norms=None):
    """Per term a result or its :class:`QuadratureError`, from one quadrature batch;
    an amplitude's channel norm is ``norms[schedule, ka, g_upper]``."""
    if not terms:
        return []
    rel, floor, points = zip(*[_BUDGETS.get(t[3]) or (rtol, 1e-13 * norms[t[0], t[1], t[4]], ())
                               for t in terms])
    return oscillatory_batch(_integrand(terms), 0.0, [t[4] for t in terms], rtol=rel, atol=floor,
                             points=points)


def _values(outcomes):
    """The values of ``outcomes``; the first failure raises its :class:`QuadratureError`."""
    for res in outcomes:
        if isinstance(res, QuadratureError):
            raise res
    return np.array([res.value for res in outcomes], dtype=complex)


def _channel_norms(schedule, channels, g_upper=1.0):
    """{(schedule, ka, g_upper): int_0^g_upper |M_k / (dg/dt)| dg} of the distinct ``channels``."""
    keys = [(schedule, ka, g_upper) for ka in dict.fromkeys(channels)]
    return dict(zip(keys, _values(_batch([(sc, ka, 0.0, NORM, g) for sc, ka, g in keys])).real))


def amplitude_numeric(spec: ChainSpec, schedule: Schedule, k, omega,
                      lam: float, rtol: float = 1e-6, g_upper: float = 1.0):
    """Numeric excitation amplitude of channel (k, -k) at frequency omega.

    Exactly linear in lam.  ``k`` and ``omega`` broadcast against each
    other; scalars give a complex number, arrays a complex array of
    their broadcast shape, all amplitudes integrated together.
    ``g_upper`` < 1 evaluates the partial sweep up to g(t) = g_upper,
    which is what the composite-bath oracle compares against (the full
    sweep ends in a degenerate manifold where per-channel projections
    are ill-defined).  Each integral is good to ``rtol`` relative,
    floored at 1e-13 of the channel norm; the first one that fails
    raises its :class:`QuadratureError`.
    """
    if not 0.0 < g_upper <= 1.0:
        raise ValueError(f"g_upper must be in (0, 1], got {g_upper}")
    k, omega = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(omega, dtype=float))
    ka = [_check_channel(spec, x) for x in k.ravel().tolist()]
    terms = [(schedule, x, w, AMPLITUDE, g_upper) for x, w in zip(ka, omega.ravel().tolist())]
    values = -1j * lam * _values(_batch(terms, rtol, _channel_norms(schedule, ka, g_upper)))
    return values.reshape(k.shape) if k.ndim else complex(values[0])


def saddle_points(spec: ChainSpec, k: float, omega: float) -> tuple[float, float]:
    """Roots g_-, g_+ of the energy conservation 2 epsilon_k(g) = omega.

    Closed form of the exact dispersion, not the small-frequency
    expansion.  With s = |sin(ka/2)|, c = cos(ka/2) and q = omega/4 the
    condition reads (1 - 2g)^2 = x^2 = (q^2 - s^2)/c^2, so
    g_-+ = (1 -+ x)/2.  q^2 - s^2 is (q - s)(q + s) when s < c and
    c^2 - (1 - q^2) otherwise, and g_- = (1 - q^2) / (2 c^2 (1 + x)):
    no step cancels, and omega = 4 gives the sweep ends (0, 1) exactly.
    Requires 2 epsilon_min < omega <= 4.
    """
    ka = _check_channel(spec, k)
    s, c, q = abs(np.sin(ka / 2.0)), np.cos(ka / 2.0), omega / 4.0
    if omega > 4.0:
        raise ValueError(f"omega={omega} exceeds the maximum channel gap 4")
    if not q > s:
        raise ValueError(
            f"omega={omega} is at or below the minimum channel gap "
            f"{2.0 * mode_epsilon(ka, 0.5):.6g}; no real saddle points"
        )
    p = (1.0 - q) * (1.0 + q)
    x = np.sqrt(max((q - s) * (q + s) if s < c else c * c - p, 0.0)) / c
    g_minus = float(min(0.5, p / (2.0 * c * c * (1.0 + x))))
    return g_minus, 1.0 - g_minus


def accumulated_phase(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                      g: float) -> float:
    """Phase -omega t(g) + int_0^t 2 epsilon dt' evaluated at sweep value g in [0, 1]."""
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must be in [0, 1], got {g}")
    term = (schedule, _check_channel(spec, k), omega, PHASE, g)
    return float(_values(_batch([term]))[0].real) if g else 0.0


def amplitude_saddle_point(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                           lam: float) -> SaddlePointAmplitude:
    """Two-saddle stationary-phase amplitude with a validity flag.

    The flag is false when the next-order expansion parameter
    (dg/dt)(t_*) / (omega sqrt(omega^2 - 4 k^2)) exceeds 0.1 or when a
    saddle sits within a few Fresnel widths of the sweep boundaries.
    """
    ka = _check_channel(spec, k)
    if not omega > 2.0 * abs(ka):
        raise ValueError(
            f"saddle-point approximation needs omega > 2|ka| = {2 * abs(ka):.6g}, "
            f"got omega={omega}; use amplitude_numeric or amplitude_bound"
        )
    g_lo, g_hi = saddle_points(spec, k, omega)
    disc = omega * np.sqrt(omega**2 - 4.0 * ka * ka)

    total = 0.0j
    valid = True
    worst_ratio = 0.0
    for g_star in (g_lo, g_hi):
        vel = float(schedule.velocity_of_g(g_star))
        ratio = vel / disc
        worst_ratio = max(worst_ratio, ratio)
        ddphi_t = 2.0 * float(mode_epsilon_dg(ka, g_star)) * vel  # d^2 Phi / dt^2
        if ddphi_t == 0.0:
            valid = False
            continue
        phi_star = accumulated_phase(spec, schedule, k, omega, g_star)
        m_star = pair_matrix_element(ka, g_star)
        total += m_star * np.sqrt(2.0 * np.pi / abs(ddphi_t)) * np.exp(
            1j * (phi_star + np.sign(ddphi_t) * np.pi / 4.0)
        )
        # Fresnel width of the saddle in g; the interior formula needs
        # the stationary region well inside the sweep.
        width_g = vel * np.sqrt(2.0 * np.pi / abs(ddphi_t))
        if g_star - 3.0 * width_g < 0.0 or g_star + 3.0 * width_g > 1.0:
            valid = False
    if worst_ratio > 0.1:
        valid = False
    return SaddlePointAmplitude(
        value=-1j * lam * total, valid=valid,
        g_minus=g_lo, g_plus=g_hi, next_order_ratio=worst_ratio,
    )


def amplitude_bound(spec: ChainSpec, schedule: Schedule, k: float, lam: float) -> float:
    """Rigorous bound lam * int_0^T |M_k(t)| dt, for every frequency (all phases dropped)."""
    (norm,) = _channel_norms(schedule, [_check_channel(spec, k)]).values()
    return float(lam * norm)


@dataclass
class TotalExcitationResult:
    p_total: float
    channel_amplitudes: dict = field(default_factory=dict)  # k -> complex
    methods: dict = field(default_factory=dict)             # k -> tuple of method names
    warnings: list = field(default_factory=list)
    panels: int = 0        # summed over the numeric terms
    evaluations: int = 0   # summed over the numeric terms
    levin_solves: int = 0  # summed over the numeric terms
    levels: int = 0        # bisection levels of the deepest numeric term


def total_excitation_probability(spec: ChainSpec, schedule: Schedule, bath: BathSpectrum,
                                 n_omega: int = 33, rtol: float = 1e-5) -> TotalExcitationResult:
    """P = sum_{k>0} |int f(omega) A_k^omega domega|^2 over all channels.

    Every (channel, frequency) amplitude with nonzero weight is one
    integral of a single batched quadrature call, each with the budget
    of :func:`amplitude_numeric`.  A term whose integral fails falls
    back to the phase-free bound, recorded per term as ``"bound"``.
    P > 1 signals breakdown of first-order response and is reported,
    not clipped.
    """
    lam = bath.coupling.lam
    nodes, weights = bath.quadrature(n_omega)
    ks = channel_momenta(spec).tolist()
    live = weights != 0.0
    terms = [(schedule, k, w, AMPLITUDE, 1.0) for k in ks for w in nodes[live].tolist()]
    norms = _channel_norms(schedule, ks)
    result = TotalExcitationResult(p_total=0.0)
    values = np.empty(len(terms), dtype=complex)
    methods = []
    for i, (term, res) in enumerate(zip(terms, _batch(terms, rtol, norms))):
        if isinstance(res, QuadratureError):
            values[i] = lam * norms[schedule, term[1], 1.0]
            methods.append("bound")
            continue
        values[i] = -1j * lam * res.value
        methods.append("numeric")
        result.panels += res.panels
        result.evaluations += res.evaluations
        result.levin_solves += res.levin_solves
        result.levels = max(result.levels, res.levels)
    amplitudes = values.reshape(len(ks), int(live.sum())) @ weights[live]
    methods = iter(methods)
    for k, acc in zip(ks, amplitudes):
        result.channel_amplitudes[k] = complex(acc)
        result.methods[k] = tuple(next(methods) if w else "skipped" for w in live)
    result.p_total = float(np.sum(np.abs(amplitudes) ** 2))
    if result.p_total > 1.0:
        result.warnings.append(
            f"P_total={result.p_total:.3g} exceeds 1: first-order response theory has broken down"
        )
    return result


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    stderr: float
    n_points: int


def scaling_fit(x, y) -> ScalingFit:
    """Least-squares slope of log y against log x with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError(f"need at least 4 data points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("scaling fit requires strictly positive data")
    coeffs, cov = np.polyfit(np.log(x), np.log(y), 1, cov=True)
    return ScalingFit(exponent=float(coeffs[0]), stderr=float(np.sqrt(cov[0, 0])),
                      n_points=int(x.size))
