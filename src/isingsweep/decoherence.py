"""Bath-induced excitation amplitudes of the swept chain.

For a weak coupling lam to an environment entering through transverse
field fluctuations, the excitation amplitude of the pair channel
s = (k, -k) at bath frequency omega is the oscillatory time integral

    A = -i lam int_0^T M_k(t) exp{i [-omega t + int_0^t 2 epsilon_k dt']} dt

with M_k the pair matrix element.  Everything here is evaluated in the
sweep variable g, where the phase derivative has the closed form
(-omega + 2 epsilon_k(g)) / (dg/dt)(g); this makes the cost independent
of the run time T and uniform across schedules.

Provided evaluations: the numeric integral (panel-adaptive oscillatory
quadrature), the two-saddle stationary-phase approximation with a
validity flag, the rigorous phase-free upper bound lam * int |M| dt,
and the sub-gap exponential suppression estimate.  On top of these sit
the bath-averaged total excitation probability and the log-log scaling
fit used for exponent checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .chain import (
    ChainSpec,
    CouplingConstant,
    _check_on_grid,
    mode_epsilon,
    mode_epsilon_dg,
    momentum_grid,
    pair_matrix_element,
)
from .quadrature import QuadratureError, oscillatory_integral
from .schedules import LinearSchedule, Schedule

__all__ = [
    "BathSpectrum",
    "SpectralAmplitude",
    "SaddlePointAmplitude",
    "TotalExcitationResult",
    "ScalingFit",
    "amplitude_numeric",
    "amplitude_saddle_point",
    "amplitude_bound",
    "amplitude_suppressed_estimate",
    "evaluate_channel",
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
        z, _ = quad(lambda w: w * np.exp(-w / omega_c), 0.0, hi)
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
        x, w = roots_legendre(n_nodes)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        weights = 0.5 * (hi - lo) * w * self.density(nodes)
        return nodes, weights


@dataclass(frozen=True)
class SpectralAmplitude:
    """One channel/frequency amplitude with the method that produced it.

    The bath-averaged amplitude of a channel is the frequency integral
    of these values against the spectral function; that decomposition
    is what :func:`total_excitation_probability` assembles.
    """

    k: float
    omega: float
    value: complex
    method: str  # numeric | saddle-point | bound | suppressed


@dataclass(frozen=True)
class SaddlePointAmplitude:
    value: complex
    valid: bool
    g_minus: float
    g_plus: float
    next_order_ratio: float


def _channel_ka(spec: ChainSpec, k: float) -> float:
    k = _check_on_grid(spec, k)
    if k <= 0:
        raise ValueError(f"pair channels are labelled by positive k, got {k}")
    return k * spec.a


def _element_over_velocity(spec, schedule, ka):
    def f(g):
        return pair_matrix_element(ka, g) / schedule.velocity_of_g(g)

    return f


def _phase_derivative(spec, schedule, ka, omega):
    def dphi(g):
        return (-omega + 2.0 * mode_epsilon(ka, g)) / schedule.velocity_of_g(g)

    return dphi


def amplitude_numeric(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                      lam: float, rtol: float = 1e-6, g_upper: float = 1.0) -> complex:
    """Numeric excitation amplitude of channel (k, -k) at frequency omega.

    Exactly linear in lam.  ``g_upper`` < 1 evaluates the partial sweep
    up to g(t) = g_upper, which is what the composite-bath oracle
    compares against (the full sweep ends in a degenerate manifold
    where per-channel projections are ill-defined).
    """
    ka = _channel_ka(spec, k)
    if not 0.0 < g_upper <= 1.0:
        raise ValueError(f"g_upper must be in (0, 1], got {g_upper}")
    if float(np.max(np.abs(schedule.velocity_of_g(np.linspace(0.0, g_upper, 257))))) == 0.0:
        # frozen sweep: constant matrix element and phase rate, closed form
        g0 = float(schedule.g_of_t(0.0))
        m0 = pair_matrix_element(ka, g0)
        rate = -omega + 2.0 * float(mode_epsilon(ka, g0))
        T = schedule.total_time
        if rate == 0.0:
            return -1j * lam * m0 * T
        return -1j * lam * m0 * (np.exp(1j * rate * T) - 1.0) / (1j * rate)
    f = _element_over_velocity(spec, schedule, ka)
    dphi = _phase_derivative(spec, schedule, ka, omega)
    ref, _ = quad(lambda g: abs(f(g)), 0.0, g_upper, points=[0.5] if g_upper > 0.5 else None,
                  limit=200)
    if ref == 0.0:
        return 0.0j
    floor = 1e-13 * ref
    tol = rtol * ref
    value = None
    for _ in range(4):
        res = oscillatory_integral(f, dphi, 0.0, g_upper, abs_tol=tol)
        value = res.value
        converged = tol <= max(rtol * abs(value), floor) * 1.000001
        tol = max(rtol * abs(value), floor)
        if converged:
            break
    return -1j * lam * value


def saddle_points(spec: ChainSpec, k: float, omega: float) -> tuple[float, float]:
    """Roots g_-, g_+ of the energy conservation 2 epsilon_k(g) = omega.

    Solved by bracketed root finding on the exact dispersion, not the
    small-frequency expansion.  Requires 2 epsilon_min < omega <= 4.
    """
    ka = _channel_ka(spec, k)

    def fgap(g):
        return 2.0 * mode_epsilon(ka, g) - omega

    if omega > 4.0:
        raise ValueError(f"omega={omega} exceeds the maximum channel gap 4")
    if fgap(0.5) >= 0.0:
        raise ValueError(
            f"omega={omega} is at or below the minimum channel gap "
            f"{2.0 * mode_epsilon(ka, 0.5):.6g}; no real saddle points"
        )
    g_minus = 0.0 if fgap(0.0) <= 0.0 else brentq(fgap, 0.0, 0.5, xtol=1e-14)
    g_plus = 1.0 if fgap(1.0) <= 0.0 else brentq(fgap, 0.5, 1.0, xtol=1e-14)
    return float(g_minus), float(g_plus)


def accumulated_phase(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                      g: float) -> float:
    """Phase -omega t(g) + int_0^t 2 epsilon dt' evaluated at sweep value g."""
    ka = _channel_ka(spec, k)
    dphi = _phase_derivative(spec, schedule, ka, omega)
    val, _ = quad(dphi, 0.0, g, points=[0.5] if g > 0.5 else None,
                  limit=400, epsabs=1e-9, epsrel=1e-13)
    return float(val)


def amplitude_saddle_point(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                           lam: float) -> SaddlePointAmplitude:
    """Two-saddle stationary-phase amplitude with a validity flag.

    The flag is false when the next-order expansion parameter
    g_dot(t_*) / (omega sqrt(omega^2 - 4 k^2 a^2)) exceeds 0.1 or when a
    saddle sits within a few Fresnel widths of the sweep boundaries.
    """
    ka = _channel_ka(spec, k)
    if not omega > 2.0 * abs(ka):
        raise ValueError(
            f"saddle-point approximation needs omega > 2|ka| = {2 * abs(ka):.6g}, "
            f"got omega={omega}; use the bound or the sub-gap estimate"
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


def amplitude_bound(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                    lam: float) -> float:
    """Rigorous bound lam * int_0^T |M_k(t)| dt (all phases dropped).

    Independent of omega; ``omega`` is accepted so that the regime
    tables can treat all four evaluations uniformly.
    """
    ka = _channel_ka(spec, k)
    del omega

    def integrand(g):
        return abs(pair_matrix_element(ka, g)) / schedule.velocity_of_g(g)

    val, _ = quad(integrand, 0.0, 1.0, points=[0.5], limit=400, epsrel=1e-11)
    return float(lam * val)


def amplitude_suppressed_estimate(spec: ChainSpec, schedule: Schedule, k: float,
                                  omega: float, lam: float) -> float:
    """Order-of-magnitude sub-gap estimate lam * exp(-T (ka)^2 / 2).

    Valid reading: for omega below the channel's minimum gap the
    amplitude decays exponentially in T.  The exponent constant here is
    the coarse analytic one for the constant-speed sweep; the sharp
    decay rate of the integral is smaller (see the suppression tests).
    Only derived for the linear schedule; other kinds raise.
    """
    ka = _channel_ka(spec, k)
    if not omega < 2.0 * abs(ka):
        raise ValueError(
            f"sub-gap estimate needs omega < 2|ka| = {2 * abs(ka):.6g}, got {omega}"
        )
    if not isinstance(schedule, LinearSchedule):
        raise NotImplementedError(
            "sub-gap suppression exponent not derived for schedule kind "
            f"{schedule.kind!r}; only the constant-speed sweep is supported"
        )
    return float(lam * np.exp(-schedule.total_time * ka * ka / 2.0))


def evaluate_channel(spec: ChainSpec, schedule: Schedule, k: float, omega: float,
                     lam: float, rtol: float = 1e-6) -> SpectralAmplitude:
    """Per-channel amplitude with the producing method recorded.

    Numeric quadrature wherever it converges; the phase-free bound as a
    magnitude-only fallback otherwise.
    """
    try:
        value = amplitude_numeric(spec, schedule, k, omega, lam, rtol=rtol)
        method = "numeric"
    except QuadratureError:
        value = complex(amplitude_bound(spec, schedule, k, omega, lam))
        method = "bound"
    return SpectralAmplitude(k=float(k), omega=float(omega), value=value, method=method)


@dataclass
class TotalExcitationResult:
    p_total: float
    channel_amplitudes: dict = field(default_factory=dict)  # k -> complex
    methods: dict = field(default_factory=dict)             # k -> tuple of method names
    warnings: list = field(default_factory=list)


def total_excitation_probability(spec: ChainSpec, schedule: Schedule, bath: BathSpectrum,
                                 n_omega: int = 33, rtol: float = 1e-5) -> TotalExcitationResult:
    """P = sum_{k>0} |int f(omega) A_k^omega domega|^2 over all channels.

    Per-frequency amplitudes are numeric wherever the quadrature
    converges, falling back to the phase-free bound (recorded per term).
    P > 1 signals breakdown of first-order response and is reported,
    not clipped.
    """
    lam = bath.coupling.lam
    nodes, weights = bath.quadrature(n_omega)
    kpos = momentum_grid(spec)
    kpos = kpos[kpos > 0]
    result = TotalExcitationResult(p_total=0.0)
    total = 0.0
    for k in kpos:
        acc = 0.0j
        methods = []
        for omega_i, weight in zip(nodes, weights):
            if weight == 0.0:
                methods.append("skipped")
                continue
            term = evaluate_channel(spec, schedule, float(k), float(omega_i), lam, rtol=rtol)
            methods.append(term.method)
            acc += weight * term.value
        result.channel_amplitudes[float(k)] = acc
        result.methods[float(k)] = tuple(methods)
        total += abs(acc) ** 2
    result.p_total = total
    if total > 1.0:
        result.warnings.append(
            f"P_total={total:.3g} exceeds 1: first-order response theory has broken down"
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
