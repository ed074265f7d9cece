"""Sweep schedules g(t) and the step-wise spatial interpolation path.

Three homogeneous schedule kinds drive the uniform sweep: constant
speed (g = t/T) and two gap-adapted kinds with dg/dt proportional to
the fundamental gap or its square, normalized so g(T) = 1.  With the
fundamental gap DeltaE = 4 sqrt(s^2 + c^2 x^2), s = sin(pi/2n),
c = cos(pi/2n) and x = 1 - 2g, the integral
I_p(g) = int_0^g DeltaE^-p dg' = C t(g) of dg/dt = C DeltaE^p has the
closed forms

    p = 1:  (asinh(c/s) - asinh(c x/s)) / (8 c)
    p = 2:  (atan(c/s) - atan(c x/s)) / (32 s c)

so t(g), its inverse g(t) and the norm J_p = I_p(1) are exact; the
velocity is reported from the defining rate equation.

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

from .chain import ChainSpec, fundamental_gap, mode_epsilon

__all__ = [
    "Schedule",
    "LinearSchedule",
    "GapAdaptedSchedule",
    "StepWisePath",
    "StepWiseSweep",
    "make_schedule",
    "schedule_from_dict",
    "stepwise_hamiltonian_weights",
    "runtime_for_adiabaticity",
]

_POWERS = {"linear": 0, "gap-adapted-1": 1, "gap-adapted-2": 2}
# phi and its inverse per power: I_p(g) is linear in phi(c x / s)
_PHI = {1: (np.arcsinh, np.sinh), 2: (np.arctan, np.tan)}


def _gap_sin_cos(spec: ChainSpec) -> tuple[float, float]:
    """s = sin(ka/2) and c = cos(ka/2) of the lowest momentum, ka = pi/n."""
    half = 0.5 * spec.smallest_momentum * spec.a
    return float(np.sin(half)), float(np.cos(half))


def _norm_integral(spec: ChainSpec, power: int) -> float:
    """J_p = int_0^1 DeltaE^-p dg in closed form (I_p at x = -1)."""
    s, c = _gap_sin_cos(spec)
    if power == 1:
        return float(np.arcsinh(c / s) / (4.0 * c))
    return float(np.arctan(c / s) / (16.0 * s * c))


class Schedule:
    """Common interface of the homogeneous g(t) schedules."""

    kind: str
    total_time: float
    spec: ChainSpec | None

    def g_of_t(self, t):
        raise NotImplementedError

    def g_dot(self, t):
        raise NotImplementedError

    def velocity_of_g(self, g):
        """dg/dt as a function of g (closed form, exact)."""
        raise NotImplementedError

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        slop = 1e-12 * self.total_time
        if np.any(t < -slop) or np.any(t > self.total_time + slop):
            raise ValueError(f"t outside [0, {self.total_time}]")
        return np.clip(t, 0.0, self.total_time)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "total_time": self.total_time}
        if self.spec is not None:
            d["n"] = self.spec.n
            d["a"] = self.spec.a
        return d


class LinearSchedule(Schedule):
    """Constant-speed interpolation g(t) = t/T."""

    kind = "linear"

    def __init__(self, total_time: float, spec: ChainSpec | None = None):
        if not total_time > 0:
            raise ValueError(f"total_time must be positive, got {total_time}")
        self.total_time = float(total_time)
        self.spec = spec

    def g_of_t(self, t):
        return self._check_time(t) / self.total_time

    def g_dot(self, t):
        self._check_time(t)
        return np.broadcast_to(1.0 / self.total_time, np.shape(t)).copy() if np.ndim(t) else 1.0 / self.total_time

    def velocity_of_g(self, g):
        return np.broadcast_to(1.0 / self.total_time, np.shape(g)).copy() if np.ndim(g) else 1.0 / self.total_time

    def time_of_g(self, g):
        return np.asarray(g) * self.total_time


class GapAdaptedSchedule(Schedule):
    """Schedule with dg/dt = C * DeltaE(g)^power, C fixed by g(T) = 1.

    DeltaE is the fundamental gap of the lowest momentum pair, so the
    sweep slows down near the critical point g = 1/2.  With
    phi(x) = asinh(c x/s) (power 1) or atan(c x/s) (power 2), the
    integral I_p(g) is proportional to phi(1) - phi(1 - 2g); hence
    t(g) = T (1 - phi(x)/phi(1)) / 2 and its inverse
    x = (s/c) phi^-1(phi(1) (1 - 2t/T)), both exact.
    """

    def __init__(self, spec: ChainSpec, total_time: float, power: int):
        if power not in (1, 2):
            raise ValueError(f"power must be 1 or 2, got {power}")
        if not total_time > 0:
            raise ValueError(f"total_time must be positive, got {total_time}")
        self.kind = f"gap-adapted-{power}"
        self.spec = spec
        self.total_time = float(total_time)
        self.power = power
        self.rate_constant = _norm_integral(spec, power) / self.total_time
        s, c = _gap_sin_cos(spec)
        self._s_over_c = s / c
        self._phi, self._phi_inverse = _PHI[power]
        self._phi_edge = self._phi(c / s)

    def g_of_t(self, t):
        u = 1.0 - 2.0 * self._check_time(t) / self.total_time
        x = self._s_over_c * self._phi_inverse(self._phi_edge * u)
        return np.clip(0.5 * (1.0 - x), 0.0, 1.0)

    def g_dot(self, t):
        return self.velocity_of_g(self.g_of_t(t))

    def velocity_of_g(self, g):
        return self.rate_constant * fundamental_gap(self.spec, np.asarray(g)) ** self.power

    def time_of_g(self, g):
        x = 1.0 - 2.0 * np.clip(np.asarray(g, dtype=float), 0.0, 1.0)
        u = self._phi(x / self._s_over_c) / self._phi_edge
        return np.clip(0.5 * self.total_time * (1.0 - u), 0.0, self.total_time)


def make_schedule(kind: str, total_time: float, spec: ChainSpec | None = None) -> Schedule:
    """Build a homogeneous schedule by kind name."""
    if kind == "linear":
        return LinearSchedule(total_time, spec)
    if kind in ("gap-adapted-1", "gap-adapted-2"):
        if spec is None:
            raise ValueError(f"{kind} needs a ChainSpec for the fundamental gap")
        return GapAdaptedSchedule(spec, total_time, power=_POWERS[kind])
    raise ValueError(f"unknown schedule kind {kind!r}")


def schedule_from_dict(d: dict):
    """Rebuild a schedule (or step-wise sweep) from its JSON description.

    Unknown keys, such as the ``resolution`` older versions wrote, are
    ignored.
    """
    kind = d["kind"]
    if kind == "step-wise":
        return StepWiseSweep(int(d["n"]), float(d["total_time"]))
    spec = None
    if d.get("n") is not None:
        spec = ChainSpec(int(d["n"]), float(d.get("a", 1.0)))
    return make_schedule(kind, float(d["total_time"]), spec)


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
    """Transverse weights h_j and open-chain bond weights J_j at a path point.

    Defines H = -sum_j h_j sigma^x_j - sum_j J_j sigma^z_j sigma^z_{j+1}
    with n-1 bonds and no closing bond.  Step 1 fades the fields on
    sites 1 and 2 together while bond 1 grows; step j >= 2 fades the
    field on site j+1 while bond j grows.
    """
    n, step, s = path.n, path.step, path.s
    h = np.ones(n)
    J = np.zeros(n - 1)
    if step == 1:
        h[0] = h[1] = 1.0 - s
        J[0] = s
    else:
        h[:step] = 0.0
        h[step] = 1.0 - s
        J[: step - 1] = 1.0
        J[step - 1] = s
    return h, J


class StepWiseSweep:
    """Step-wise path traversed in time: equal duration per step, linear in s."""

    kind = "step-wise"

    def __init__(self, n: int, total_time: float):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not total_time > 0:
            raise ValueError(f"total_time must be positive, got {total_time}")
        self.n = int(n)
        self.total_time = float(total_time)
        self.n_steps = self.n - 1

    def path_at(self, t: float) -> StepWisePath:
        if not 0.0 <= t <= self.total_time * (1 + 1e-12):
            raise ValueError(f"t outside [0, {self.total_time}]")
        frac = min(t / self.total_time, 1.0) * self.n_steps
        step = min(int(frac), self.n_steps - 1)
        return StepWisePath(self.n, step + 1, frac - step)

    def weights_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return stepwise_hamiltonian_weights(self.path_at(t))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "total_time": self.total_time, "n": self.n}


def runtime_for_adiabaticity(kind: str, n: int, epsilon_adiab: float, a: float = 1.0) -> float:
    """Run time T keeping the lowest channel's adiabaticity ratio below a target.

    The per-mode ratio |<s|dH/dt|0>| / DeltaE_s0^2 equals
    g_dot * |sin(k a)| / epsilon_k^3; for all three kinds it peaks at
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
    spec = ChainSpec(n, a)
    p = _POWERS[kind]
    norm = _norm_integral(spec, p) if p else 1.0
    eps_min = mode_epsilon(np.pi / n, 0.5)
    return float(2.0**p * norm * np.sin(np.pi / n) * eps_min ** (p - 3) / epsilon_adiab)
