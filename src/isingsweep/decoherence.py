"""Bath-induced excitation amplitudes of the swept chain.

For a weak coupling lam to an environment entering through transverse
field fluctuations, the excitation amplitude of the pair channel
s = (k, -k) at bath frequency omega is the oscillatory time integral

    A = -i lam int_0^T M_k(t) exp{i [-omega t + int_0^t 2 epsilon_k dt']} dt

with M_k the pair matrix element.  Everything here is evaluated in the
sweep variable g, where the phase derivative has the closed form
(-omega + 2 epsilon_k(g)) / (dg/dt)(g); this makes the cost independent
of the run time T and uniform across schedules.  Each integral then runs
over its channel's own variable w in [0, 1], with
g = (1 - (s/c) sinh(E (1 - 2w))) / 2, s = sin(ka/2), c = cos(ka/2) and
E = asinh(c/s).  Its Jacobian dg/dw = E epsilon_k / (2c) cancels the
1/epsilon_k of M_k = 4i g sin(ka) / epsilon_k, which peaks at the avoided
crossing g = 1/2 with width s ~ pi/2n: in g the quadrature would bisect
deeper as n grows, in w the peak is gone.

epsilon_k and the dg/dt of every schedule kind depend on 1 - 2g only
through its square, so Phi' is even about the crossing w = 1/2, and
g(1 - w) = 1 - g(w).  Every integral over the whole sweep is therefore
folded: it runs over w in [1/2, 1] only, each panel carrying its mirror
image as a second term (one Levin solve for both), and an amplitude is
that times exp(i Phi(1/2)).  The crossing phase
Phi(1/2) = Phi_eps(1/2) - omega T/2, since t(1/2) = T/2 for every kind,
with Phi_eps(1/2) = int_0^{1/2} 2 epsilon_k / (dg/dt) dg one smooth
phase integral per channel; and a phase past the crossing follows from
Phi(1 - g) = 2 Phi(1/2) - Phi(g).  Partial sweeps, and phases up to a
point, run from w = 0 unfolded.

Provided evaluations: the numeric integral, the two-saddle
stationary-phase approximation with a validity flag, and the rigorous
phase-free upper bound lam * int |M| dt.  Every integral, numeric
amplitude, channel norm int |M_k / (dg/dt)| dg or accumulated phase,
goes through one pass routine, here and in the experiment tables: it
integrates each distinct term of a list once, on any mix of schedules,
in one batched quadrature call (only the bath-averaged sum, which falls
back per term, reads the raw outcomes).  The omega-independent norm
and crossing phase are integrated once per channel, before the
amplitudes: each amplitude's relative budget is floored at 1e-13 of
the norm, which keeps amplitudes that cancel to nearly nothing from
chasing an unreachable relative budget.
On top of these sit the bath-averaged total excitation probability and
the log-log scaling fit used for exponent checks.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chain import (
    ChainSpec,
    CouplingConstant,
    _check_channel,
    channel_momenta,
    check_number,
    mode_epsilon,
    mode_epsilon_dg,
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
_OMEGA_NODES = 33  # Gauss-Legendre nodes over a continuous bath's support
_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # one per node count
# The bath kinds, each with its parameters and their lower bounds.  Every
# parameter is a finite number above its bound; an ohmic bath's support_max
# may be left out (or None), and then is 8 omega_c.
_BATH_PARAMS = {"monochromatic": {"omega0": -math.inf},
                "ohmic": {"omega_c": 0.0, "support_max": 0.0},
                "flat": {"omega_min": -math.inf, "omega_max": -math.inf}}


def _bath_bounds(kind, name: str = "kind") -> dict:
    """The parameter bounds of bath ``kind``; a ValueError naming ``name`` for anything else."""
    if not isinstance(kind, str) or kind not in _BATH_PARAMS:  # a dict or list is no kind
        raise ValueError(f"{name}: must be one of {tuple(_BATH_PARAMS)}, got {kind!r}")
    return _BATH_PARAMS[kind]


def _check_bath(kind, params: dict) -> None:
    """Raise ValueError unless ``params`` are the parameters of a ``kind`` bath, each in range.

    The message starts with the name at fault, so that a caller can
    prefix where the name came from.
    """
    bounds = _bath_bounds(kind)
    for key, least in bounds.items():
        val = params.get(key)
        if key == "support_max" and val is None:
            continue
        if key not in params:
            raise ValueError(f"{key}: required for a {kind} bath")
        check_number(key, val, least)
    for key in params:
        if key not in bounds:
            raise ValueError(f"{key}: unknown parameter for a {kind} bath")
    if kind == "flat" and not params["omega_max"] > params["omega_min"]:
        raise ValueError(f"omega_max: must exceed omega_min = {params['omega_min']!r}, "
                         f"got {params['omega_max']!r}")


@dataclass(frozen=True)
class BathSpectrum:
    """Spectral function f(omega) of the environment plus coupling.

    ``kind`` and ``params`` are one of the families of ``_BATH_PARAMS``:
    a line at ``omega0``, the ohmic omega e^(-omega/omega_c) on
    (0, support_max], or a flat density on [omega_min, omega_max].  f is
    normalized to unit weight over its support and assumed independent
    of the excited channel and of the system size.  A support that
    reaches the initial single-particle energy 2 warns.
    """

    kind: str
    params: dict
    coupling: CouplingConstant
    normalization: float = field(init=False)

    def __post_init__(self):
        _check_bath(self.kind, self.params)
        p = {key: float(val) for key, val in self.params.items() if val is not None}
        norm = 1.0
        if self.kind == "ohmic":
            wc = p["omega_c"]
            x = p.setdefault("support_max", 8.0 * wc) / wc
            norm = 1.0 / float(wc**2 * (-np.expm1(-x) - x * np.exp(-x)))  # int_0^hi w e^(-w/wc) dw
        elif self.kind == "flat":
            norm = 1.0 / (p["omega_max"] - p["omega_min"])
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "normalization", norm)
        edge = self.support[1]
        if edge >= _COLD_BATH_EDGE:
            warnings.warn(
                f"bath support reaches omega={edge} >= {_COLD_BATH_EDGE}; "
                "the environment should be cold enough to prepare the initial "
                "ground state",
                stacklevel=3,  # past the __init__ that dataclass generates
            )

    @property
    def support(self) -> tuple[float, float]:
        """The edges of f's support; a line's are both its frequency."""
        p = self.params
        if self.kind == "monochromatic":
            return p["omega0"], p["omega0"]
        if self.kind == "ohmic":
            return 0.0, p["support_max"]
        return p["omega_min"], p["omega_max"]

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.kind == "monochromatic":
            raise ValueError("monochromatic bath has no density; use quadrature()")
        lo, hi = self.support
        if self.kind == "ohmic":
            out = self.normalization * omega * np.exp(-omega / self.params["omega_c"])
            return np.where((omega > lo) & (omega <= hi), out, 0.0)
        return np.where((omega >= lo) & (omega <= hi), self.normalization, 0.0)

    def quadrature(self, n_nodes: int = _OMEGA_NODES):
        """Nodes and weights with f folded in: int f(w) A(w) dw ~ sum W_i A(w_i)."""
        if self.kind == "monochromatic":
            return np.array([self.params["omega0"]]), np.array([1.0])
        lo, hi = self.support
        x, w = _leggauss(n_nodes)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        weights = 0.5 * (hi - lo) * w * self.density(nodes)
        return nodes, weights


@dataclass(frozen=True)
class SaddlePointAmplitude:
    value: complex
    valid: bool
    g_minus: float
    g_plus: float


# Batched integrals, v = dg/dt: the amplitude int M_k/v e^{i Phi} dg, the channel
# norm int |M_k/v| dg and the phase int Phi' dg, Phi' = (-omega + 2 eps_k)/v, each
# in its channel variable w; the (rtol, atol, breaks in w) of norms and phases
# (amplitudes: rtol, 1e-13 of the norm).
AMPLITUDE, NORM, PHASE = "amplitude", "norm", "phase"
_BUDGETS = {NORM: (1e-11, 0.0, (0.5,)), PHASE: (1e-13, 1e-9, (0.5,))}


def _channel_constants(ka):
    """s = sin(ka/2), c = cos(ka/2) and E = asinh(c/s) of each channel ``ka``."""
    s, c = np.sin(0.5 * ka), np.cos(0.5 * ka)
    return s, c, np.arcsinh(c / s)


def _channel_variable(ka, g):
    """w(g) = (1 - asinh(c (1 - 2g) / s) / E) / 2 of channel ``ka``.

    Written as asinh(4c g (1 - g) / (eps_k/2 + |1 - 2g|)) / 2E, mirrored
    about w = 1/2 for g > 1/2, which is the same by asinh(a) - asinh(b)
    = asinh(a sqrt(1 + b^2) - b sqrt(1 + a^2)) but keeps the relative
    accuracy of a small g; 0, 1/2 and 1 at g = 0, 1/2 and 1 exactly.
    """
    s, c, e = _channel_constants(np.asarray(ka, dtype=float))
    g = np.asarray(g, dtype=float)
    x = 1.0 - 2.0 * g
    half_eps = np.sqrt(s * s + (c * x) ** 2)
    near = np.arcsinh(4.0 * c * g * (1.0 - g) / (half_eps + np.abs(x))) / (2.0 * e)
    return np.where(x >= 0.0, near, 1.0 - near)


def _sweep_value(e, w):
    """The inverse of :func:`_channel_variable`, g = (1 - sinh(u) / sinh(E)) / 2 with
    u = E (1 - 2w) and sinh E = c/s, and cosh u.

    g is evaluated as sinh(E w) cosh(E (1 - w)) / sinh E, which keeps the
    relative accuracy of a small g and is 0 and 1 at w = 0 and 1 exactly.
    """
    return np.sinh(e * w) * np.cosh(e * (1.0 - w)) / np.sinh(e), np.cosh(e * (1.0 - 2.0 * w))


def _integrand(terms, fold=False):
    """The map (w, owner) -> (f, Phi') of ``terms``, each (schedule, ka, omega, kind, g_upper),
    in each channel's variable w; with ``fold``, a full sweep's term is folded.

    With u = E (1 - 2w) the sweep value is g = (1 - (s/c) sinh u) / 2,
    so eps_k = 2 s cosh u and dg/dw = E eps_k / (2c).  This Jacobian
    cancels the 1/eps_k of the pair element 4 g sin(ka) / eps_k, whose
    peak of width s at the avoided crossing g = 1/2 would otherwise set
    the panel count: M_k/v dg = 4i E s g / v dw.  A norm integrates the
    modulus 4 E s g / v, a phase Phi' dg/dw.

    eps_k and the v of every schedule kind depend on 1 - 2g only through
    its square, and g(1 - w) = 1 - g(w), so Phi' is even about the
    crossing w = 1/2 and the mirror image of each integrand is its own
    with g replaced by 1 - g.  A folded term is integrated over
    [1/2, 1] only, with that mirror image as the map's third array h:
    the quadrature's int f e^{i Psi} + h e^{-i Psi}, Psi = Phi - Phi(1/2),
    is the integral over [0, 1] times e^{-i Phi(1/2)} (for norms and
    phases, whose Phi is 0, the integral itself).  1 - g is exact for
    g >= 1/2.  The rows of other terms get h = 0.
    """
    rate, s0, c0, power = np.array([t[0].velocity_terms for t in terms], dtype=float).T
    ka, omega = np.array([t[1:3] for t in terms], dtype=float).T
    kind = np.array([t[3] for t in terms])
    folded = fold & (np.array([t[4] for t in terms]) == 1.0)
    mixed, mirrored = (kind != AMPLITUDE).any(), folded.any()
    s, c, e = _channel_constants(ka)
    lead, jac = 4.0 * e * s, e * s / c  # M_k dg/dw = 4i E s g, dg/dw = (E s / c) cosh u

    def pair(w, owner):
        row = owner[:, None]
        g, cosh = _sweep_value(e[row], w)
        x = (s / c)[row] * np.sinh(e[row] * (1.0 - 2.0 * w))  # 1 - 2g, free of cancellation
        vel = _velocity(rate[row], s0[row], c0[row], power[row], x)
        scale = lead[row] / vel
        m = scale * g  # M_k / v dg/dw = i m
        f = 1j * m
        dphi = (4.0 * s[row] * cosh - omega[row]) * (jac[row] * cosh) / vel  # 2 eps_k = 4 s cosh u
        if mirrored:
            back = scale * (1.0 - g)  # m at 1 - w
            h = 1j * back
        if mixed:  # norm and phase rows are overwritten in place
            norm, phase = kind[owner] == NORM, kind[owner] == PHASE
            f[norm] = m[norm]
            f[phase] = dphi[phase]
            if mirrored:
                h[norm] = back[norm]
                h[phase] = dphi[phase]
            dphi[norm | phase] = 0.0
        if not mirrored:
            return f, dphi
        h[~folded[owner]] = 0.0
        return f, dphi, h

    return pair


def _crossing(schedule, ka):
    """The PHASE term of the crossing phase Phi_eps(1/2) = int_0^{1/2} 2 eps_k / v dg."""
    return (schedule, ka, 0.0, PHASE, 0.5)


def _channel_terms(schedule, ka, g_upper=1.0) -> list:
    """The terms an amplitude of channel ``ka`` needs before its own: its channel norm and,
    over the whole sweep, its crossing phase."""
    norm = (schedule, ka, 0.0, NORM, g_upper)
    return [norm, _crossing(schedule, ka)] if g_upper == 1.0 else [norm]


def _crossing_phase(phi_eps, schedule, omega) -> float:
    """Phi(1/2) = Phi_eps(1/2) - omega T/2 at frequency ``omega``, from the crossing phase
    ``phi_eps``: t(1/2) = T/2 for every schedule kind, whose dg/dt is even about the
    crossing."""
    return phi_eps - 0.5 * omega * schedule.total_time


def _batch(terms, rtol=0.0, channels=None):
    """Per term a result or its :class:`QuadratureError`, from one quadrature batch;
    an amplitude's channel norm is ``channels[schedule, ka, g_upper]``.

    A term whose upper limit is g = 1 is folded about the crossing (see
    :func:`_integrand`); a folded amplitude's value is multiplied by
    e^{i Phi(1/2)}, with the crossing phase ``channels[schedule, ka]``.
    """
    if not terms:
        return []
    rel, floor, points = zip(*[_BUDGETS.get(t[3]) or (rtol, 1e-13 * channels[t[0], t[1], t[4]], ())
                               for t in terms])
    folded = [t[4] == 1.0 for t in terms]
    lower = [0.5 if fo else 0.0 for fo in folded]  # the crossing is w = 1/2
    upper = _channel_variable([t[1] for t in terms], [t[4] for t in terms])
    outcomes = oscillatory_batch(_integrand(terms, fold=True), lower, upper.tolist(), rtol=rel,
                                 atol=floor, points=points)
    for (sched, ka, omega, kind, _), fo, res in zip(terms, folded, outcomes):
        if fo and kind == AMPLITUDE and not isinstance(res, QuadratureError):
            res.value *= cmath.exp(1j * _crossing_phase(channels[sched, ka], sched, omega))
    return outcomes


def _totals(outcomes) -> dict:
    """Panels, evaluations and Levin solves summed over the converged ``outcomes``, and the
    bisection levels of the deepest one, under their diagnostics keys."""
    done = [res for res in outcomes if not isinstance(res, QuadratureError)]
    return {"quadrature_panels": sum(res.panels for res in done),
            "quadrature_evaluations": sum(res.evaluations for res in done),
            "quadrature_levin_solves": sum(res.levin_solves for res in done),
            "quadrature_levels": max((res.levels for res in done), default=0)}


def _pass(terms, rtol=0.0, channels=None, passes=None):
    """The value of each of ``terms``, in order, and the channel values, from one quadrature
    batch of the distinct terms.

    The channel values are each NORM keyed (schedule, ka, g_upper) and
    each crossing phase (:func:`_crossing`) keyed (schedule, ka); an
    amplitude reads both from ``channels``.  Each distinct term is
    integrated once, in first-occurrence order.  The batch's integrals
    and counts are recorded in ``passes``, when given, as its next pass;
    then the first failure raises its :class:`QuadratureError`.
    """
    distinct = list(dict.fromkeys(terms))
    outcomes = _batch(distinct, rtol, channels)
    if passes is not None:
        passes[f"pass_{len(passes) + 1}"] = {"integrals": len(outcomes), **_totals(outcomes)}
    for res in outcomes:
        if isinstance(res, QuadratureError):
            raise res
    value = {term: res.value for term, res in zip(distinct, outcomes)}
    found = {}
    for term, v in value.items():
        if term[3] == NORM:
            found[term[0], term[1], term[4]] = float(v.real)
        elif term == _crossing(*term[:2]):
            found[term[0], term[1]] = float(v.real)
    return np.array([value[term] for term in terms], dtype=complex), found


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
    check_number("lam", lam, 0.0, inclusive=True)
    for w in np.asarray(omega, dtype=object).ravel().tolist():  # as given: no bool cast to 1.0
        check_number("omega", w, -math.inf)
    if not 0.0 < g_upper <= 1.0:
        raise ValueError(f"g_upper must be in (0, 1], got {g_upper}")
    k, omega = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(omega, dtype=float))
    ka = [_check_channel(spec, x) for x in k.ravel().tolist()]
    terms = [(schedule, x, w, AMPLITUDE, g_upper) for x, w in zip(ka, omega.ravel().tolist())]
    _, channels = _pass([t for x in ka for t in _channel_terms(schedule, x, g_upper)])
    values = -1j * lam * _pass(terms, rtol, channels)[0]
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
    check_number("omega", omega, -math.inf)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must be in [0, 1], got {g}")
    term = (schedule, _check_channel(spec, k), omega, PHASE, g)
    return float(_pass([term])[0][0].real) if g else 0.0


def _saddle(spec: ChainSpec, schedule: Schedule, k: float, omega: float):
    """The PHASE terms of :func:`amplitude_saddle_point`, and the map from their values and
    lam to its result.

    The terms are the accumulated phase at g_- (at g = 0 the phase is 0
    and needs none) and the crossing phase: Phi' is even about the
    crossing, so Phi(g_+) = Phi(1 - g_-) = 2 Phi(1/2) - Phi(g_-).  Split
    at the phases, the one saddle formula serves a caller that
    integrates the terms of many amplitudes in one batch of its own, as
    the amplitude table does.
    """
    check_number("omega", omega, -math.inf)
    ka = _check_channel(spec, k)
    if not omega > 2.0 * abs(ka):
        raise ValueError(
            f"saddle-point approximation needs omega > 2|ka| = {2 * abs(ka):.6g}, "
            f"got omega={omega}; use amplitude_numeric or amplitude_bound"
        )
    g_stars = saddle_points(spec, k, omega)
    vels = [float(schedule.velocity_of_g(g)) for g in g_stars]
    ddphi = [2.0 * float(mode_epsilon_dg(ka, g)) * v for g, v in zip(g_stars, vels)]  # d^2 Phi/dt^2
    worst_ratio = max(0.0, *(v / (omega * np.sqrt(omega**2 - 4.0 * ka * ka)) for v in vels))
    terms = [(schedule, ka, omega, PHASE, g_stars[0])] if g_stars[0] else []
    terms.append(_crossing(schedule, ka))

    def amplitude(phases, lam) -> SaddlePointAmplitude:
        *low, crossing = phases
        phi_minus = low[0] if low else 0.0
        phi_half = _crossing_phase(crossing, schedule, omega)
        total, valid = 0.0j, 0.0 not in ddphi and not worst_ratio > 0.1
        for g_star, vel, ddphi_t, phi_star in zip(g_stars, vels, ddphi,
                                                  (phi_minus, 2.0 * phi_half - phi_minus)):
            if ddphi_t == 0.0:
                continue
            width = np.sqrt(2.0 * np.pi / abs(ddphi_t))
            total += pair_matrix_element(ka, g_star) * width * np.exp(
                1j * (phi_star + np.sign(ddphi_t) * np.pi / 4.0))
            # Fresnel width of the saddle in g; the interior formula needs
            # the stationary region well inside the sweep.
            width_g = vel * width
            if g_star - 3.0 * width_g < 0.0 or g_star + 3.0 * width_g > 1.0:
                valid = False
        return SaddlePointAmplitude(-1j * lam * total, valid, *g_stars)

    return terms, amplitude


def amplitude_saddle_point(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                           lam: float) -> SaddlePointAmplitude:
    """Two-saddle stationary-phase amplitude with a validity flag, its phases in one
    quadrature batch.

    The flag is false when the next-order expansion parameter
    (dg/dt)(t_*) / (omega sqrt(omega^2 - 4 k^2)) exceeds 0.1 or when a
    saddle sits within a few Fresnel widths of the sweep boundaries.
    """
    check_number("lam", lam, 0.0, inclusive=True)
    terms, amplitude = _saddle(spec, schedule, k, omega)
    return amplitude(_pass(terms)[0].real.tolist(), lam)


def amplitude_bound(spec: ChainSpec, schedule: Schedule, k: float, lam: float) -> float:
    """Rigorous bound lam * int_0^T |M_k(t)| dt, for every frequency (all phases dropped)."""
    check_number("lam", lam, 0.0, inclusive=True)
    term = (schedule, _check_channel(spec, k), 0.0, NORM, 1.0)
    return float(lam * _pass([term])[0][0].real)


@dataclass
class TotalExcitationResult:
    p_total: float
    channel_amplitudes: dict = field(default_factory=dict)  # k -> complex
    methods: dict = field(default_factory=dict)             # k -> tuple of method names
    warnings: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # _totals of the numeric terms


def total_excitation_probability(spec: ChainSpec, schedule: Schedule, bath: BathSpectrum,
                                 n_omega: int = _OMEGA_NODES,
                                 rtol: float = 1e-5) -> TotalExcitationResult:
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
    _, channels = _pass([t for k in ks for t in _channel_terms(schedule, k)])
    outcomes = _batch(terms, rtol, channels)
    result = TotalExcitationResult(p_total=0.0, counts=_totals(outcomes))
    failed = [isinstance(res, QuadratureError) for res in outcomes]
    values = np.array([lam * channels[schedule, term[1], 1.0] if bad else -1j * lam * res.value
                       for term, res, bad in zip(terms, outcomes, failed)], dtype=complex)
    methods = iter("bound" if bad else "numeric" for bad in failed)
    amplitudes = values.reshape(len(ks), int(live.sum())) @ weights[live]
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
    """Least-squares slope Sxy/Sxx of log y against log x, on the centred logs, with its
    standard error sqrt(SSR / (n - 2) / Sxx)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError(f"need at least 4 data points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("scaling fit requires strictly positive data")
    dx, dy = (v - v.mean() for v in (np.log(x), np.log(y)))
    sxx, slope = dx @ dx, dx @ dy / (dx @ dx)
    resid = dy - slope * dx
    return ScalingFit(float(slope), float(np.sqrt(resid @ resid / (x.size - 2) / sxx)), x.size)
