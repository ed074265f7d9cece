"""Sweep schedules g(t) and the step-wise spatial interpolation path.

Three homogeneous schedule kinds drive the uniform sweep, all one
class, ``Schedule(kind, T, spec)``: constant speed (g = t/T) and two
gap-adapted kinds with dg/dt proportional to the fundamental gap or its
square (the local adiabatic schedule of Roland and Cerf, PRA 65, 042308
(2002)), normalized so g(T) = 1.  With the
fundamental gap DeltaE = 4 sqrt(s^2 + c^2 x^2), s = sin(pi/2n),
c = cos(pi/2n) and x = 1 - 2g, the integral
I_p(g) = int_0^g DeltaE^-p dg' = C t(g) of dg/dt = C DeltaE^p has the
closed forms

    p = 1:  (asinh(c/s) - asinh(c x/s)) / (8 c)
    p = 2:  (atan(c/s) - atan(c x/s)) / (32 s c)

so g(t) (the inverse of t(g) = I_p(g) / C) and the norm J_p = I_p(1)
are exact; the velocity is reported from the defining rate equation,
one formula for every kind (p = 0 is the constant-speed sweep).

The step-wise path replaces transverse-field terms by ferromagnetic
bonds one site at a time on an open chain: step 1 turns the fields on
sites 1 and 2 into the first bond, every later step j converts the
field on site j+1 into bond (j, j+1).  Within a step the weights
interpolate linearly; consecutive steps share their boundary weights
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, mode_epsilon

__all__ = [
    "Schedule",
    "stepwise_weights",
    "runtime_for_adiabaticity",
]

# the schedule kinds, each with its power p of dg/dt = C DeltaE^p
_POWERS = {"linear": 0, "gap-adapted-1": 1, "gap-adapted-2": 2}
# phi and its inverse per power: I_p(g) is linear in phi(c x / s)
_PHI = {1: (np.arcsinh, np.sinh), 2: (np.arctan, np.tan)}


def _gap_sin_cos(spec: ChainSpec) -> tuple[float, float]:
    """s = sin(ka/2) and c = cos(ka/2) of the lowest momentum, ka = pi/n."""
    half = 0.5 * spec.smallest_momentum
    return float(np.sin(half)), float(np.cos(half))


def _check_total_time(total_time) -> float:
    """``total_time`` as a float, if it is positive and finite."""
    if not 0.0 < total_time < np.inf:
        raise ValueError(f"total_time must be positive and finite, got {total_time}")
    return float(total_time)


def _norm_integral(spec: ChainSpec, power: int) -> float:
    """J_p = int_0^1 DeltaE^-p dg in closed form (I_p at x = -1)."""
    s, c = _gap_sin_cos(spec)
    if power == 1:
        return float(np.arcsinh(c / s) / (4.0 * c))
    return float(np.arctan(c / s) / (16.0 * s * c))


def _velocity(rate, s, c, power, g):
    """dg/dt = rate * (4 sqrt(s^2 + c^2 (1 - 2g)^2))^power, power 0, 1 or 2, as exact
    products: arrays of the four numbers, one row per schedule, give each its own."""
    one = np.ones_like(g)  # an array: np.where is twice as slow with a scalar
    if not np.any(power):  # constant speed only: no gap to evaluate
        return rate * one
    gap = 4.0 * np.sqrt(s * s + ((1.0 - 2.0 * g) * c) ** 2)
    return rate * (np.where(power > 0, gap, one) * np.where(power > 1, gap, one))


class Schedule:
    """Homogeneous sweep g(t) with dg/dt = C * DeltaE(g)^p, C fixed by g(T) = 1.

    ``kind`` names the power: "linear" (p = 0, g = t/T), "gap-adapted-1"
    or "gap-adapted-2".  A gap-adapted kind needs ``spec``: DeltaE is the
    fundamental gap of its lowest momentum pair, so the sweep slows down
    near the critical point g = 1/2.  With phi(x) = asinh(c x/s) (p = 1)
    or atan(c x/s) (p = 2), the integral I_p(g) is proportional to
    phi(1) - phi(1 - 2g); hence t(g) = T (1 - phi(x)/phi(1)) / 2 and its
    inverse x = (s/c) phi^-1(phi(1) (1 - 2t/T)), both exact.
    """

    def __init__(self, kind: str, total_time: float, spec: ChainSpec | None = None):
        if kind not in _POWERS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        power = _POWERS[kind]
        if power and spec is None:
            raise ValueError(f"{kind} needs a ChainSpec for the fundamental gap")
        self.kind = kind
        self.total_time = _check_total_time(total_time)
        if not power:
            self.velocity_terms = (1.0 / self.total_time, 0.0, 1.0, 0)  # (rate, s, c, power)
            return
        s, c = _gap_sin_cos(spec)
        self.velocity_terms = (_norm_integral(spec, power) / self.total_time, s, c, power)
        phi, self._phi_inverse = _PHI[power]
        self._phi_edge = phi(c / s)

    def g_of_t(self, t):
        """g(t), t in [0, T]: t/T for p = 0, the closed-form inverse of t(g) otherwise."""
        t = self._check_time(t)
        _, s, c, power = self.velocity_terms
        if not power:
            return t / self.total_time
        x = s / c * self._phi_inverse(self._phi_edge * (1.0 - 2.0 * t / self.total_time))
        return np.clip(0.5 * (1.0 - x), 0.0, 1.0)

    def velocity_of_g(self, g):
        """dg/dt as a function of g (closed form, exact)."""
        return _velocity(*self.velocity_terms, np.asarray(g))

    def _check_time(self, t):
        T, slop = self.total_time, 1e-12 * self.total_time
        if isinstance(t, float):  # one time: no array round trip; NaN passes as below
            if t < -slop or t > T + slop:
                raise ValueError(f"t outside [0, {T}]")
            return min(max(t, 0.0), T)
        t = np.asarray(t, dtype=float)
        if np.any(t < -slop) or np.any(t > T + slop):
            raise ValueError(f"t outside [0, {T}]")
        return np.clip(t, 0.0, T)


def stepwise_weights(n: int, step, s) -> tuple[np.ndarray, np.ndarray]:
    """Transverse weights h_j and open-chain bond weights J_j along the step-wise path.

    Defines H = -sum_j h_j sigma^x_j - sum_j J_j sigma^z_j sigma^z_{j+1}
    with n-1 bonds and no closing bond.  Bond j grows as s during step j
    and is 1 after it; each field is one minus the bond on its left, site 1
    sharing bond 1 with site 2.  ``step`` (1..n-1) and ``s`` (0..1)
    broadcast; h and J gain a last axis of n sites and n-1 bonds.
    """
    step = np.asarray(step)[..., None]
    bond = np.arange(n - 1)
    J = np.where(bond < step - 1, 1.0, np.asarray(s, dtype=float)[..., None] * (bond == step - 1))
    return 1.0 - np.concatenate((J[..., :1], J), axis=-1), J


# kept only because bench/make_reference.py imports them
@dataclass(frozen=True)
class StepWisePath:
    """One point of the step-wise spatial sweep: step index and local parameter."""

    n: int
    step: int
    s: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 1 <= self.step <= self.n - 1:
            raise ValueError(f"step must be in 1..{self.n - 1}, got {self.step}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {self.s}")


def stepwise_hamiltonian_weights(path: StepWisePath) -> tuple[np.ndarray, np.ndarray]:
    """The weights ``(h, J)`` of :func:`stepwise_weights` at one path point."""
    return stepwise_weights(path.n, path.step, path.s)


def runtime_for_adiabaticity(kind: str, n: int, epsilon_adiab: float) -> float:
    """Run time T keeping the lowest channel's adiabaticity ratio below a target.

    The per-mode ratio |<s|dH/dt|0>| / DeltaE_s0^2 equals
    (dg/dt) |sin(k)| / epsilon_k^3; for all three kinds it peaks at
    the critical point, giving the closed forms

        T = 2^p * J_p * sin(pi/n) / (epsilon_min^(3-p) * epsilon_adiab)

    with p = 0, 1, 2 for linear / gap-adapted-1 / gap-adapted-2,
    J_p = int_0^1 DeltaE^-p dg and epsilon_min = 2 sin(pi/(2n)).
    Asymptotically T = O(n^2), O(n log n), O(n) over 1/epsilon_adiab.
    """
    if kind not in _POWERS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    if not epsilon_adiab > 0:
        raise ValueError(f"epsilon_adiab must be positive, got {epsilon_adiab}")
    spec = ChainSpec(n)
    p = _POWERS[kind]
    norm = _norm_integral(spec, p) if p else 1.0
    eps_min = mode_epsilon(np.pi / n, 0.5)
    return float(2.0**p * norm * np.sin(np.pi / n) * eps_min ** (p - 3) / epsilon_adiab)
