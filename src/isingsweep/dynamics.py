"""Time evolution of the Bogoliubov mode coefficients.

Each positive grid momentum k evolves independently as a two-component
complex pair (u_k, v_k) with |u|^2 + |v|^2 = 1.  The module provides
the closed-form adiabatic solution, numerical integration of the mode
equations of motion, all pairs in one solve under the shared g(t),

    i du/dt = -alpha u + beta v,      i dv/dt = alpha v + beta u,

and the overlap-based excitation probability of each (k, -k) channel.

Phase convention: the closed-form pair carries exp(-i Theta) with
Theta = int_0^t epsilon dt' (:func:`adiabatic_phase`); integrating the
equations above from the g = 0 ground state produces the conjugate
global phase exp(+i Theta) on the same branch.  The two agree up to
this overall phase, which is what the overlap diagnostic measures, and
every probability computed here is insensitive to it, so the solve
carries (u, v) only.

On the physical grid beta vanishes only at g = 0 (where alpha > 0), so
the positive branch normalization never degenerates; no branch
continuation is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .chain import ChainSpec, channel_momenta, mode_alpha, mode_beta, mode_epsilon
from .quadrature import smooth_integral
from .schedules import Schedule

__all__ = [
    "BogoliubovState",
    "ModeTrajectory",
    "instantaneous_pair",
    "adiabatic_phase",
    "adiabatic_solution",
    "integrate_modes",
    "excitation_probability",
    "adiabatic_overlap",
]

MIN_RTOL = 1e-12  # smallest tolerance integrate_modes accepts


@dataclass
class BogoliubovState:
    """Snapshot of all positive-momentum pairs at one time."""

    t: float
    g: float
    k: np.ndarray
    u: np.ndarray
    v: np.ndarray


def instantaneous_pair(k, g, theta=0.0):
    """Positive-branch pair (u, v) at fixed g with phase exp(-i theta).

    u = (alpha + epsilon) e^{-i theta} / N,  v = -beta e^{-i theta} / N,
    N = sqrt(2 epsilon^2 + 2 alpha epsilon); exactly normalized since
    N^2 = (alpha + epsilon)^2 + beta^2.
    """
    a = mode_alpha(k, g)
    b = mode_beta(k, g)
    e = mode_epsilon(k, g)
    norm = np.sqrt(2.0 * e * e + 2.0 * a * e)
    phase = np.exp(-1j * np.asarray(theta))
    return (a + e) * phase / norm, -b * phase / norm


def adiabatic_phase(k: float, schedule: Schedule, t: float) -> float:
    """Theta = int_0^t epsilon_k dt' = int_0^g(t) epsilon_k / (dg/dt) dg."""
    return smooth_integral(lambda g: mode_epsilon(k, g) / schedule.velocity_of_g(g),
                           0.0, float(schedule.g_of_t(t)), rtol=1e-11, atol=1e-11,
                           points=(0.5,))


def adiabatic_solution(k: float, schedule: Schedule, t: float):
    """Closed-form adiabatic (u_k, v_k) at time t."""
    theta = adiabatic_phase(k, schedule, t)
    g = float(schedule.g_of_t(t))
    u, v = instantaneous_pair(k, g, theta)
    return complex(u), complex(v)


@dataclass
class ModeTrajectory:
    """Integrated (u, v) for every positive momentum on a common time grid."""

    k: np.ndarray          # positive momenta, ascending
    t: np.ndarray
    g: np.ndarray
    u: np.ndarray          # shape (n_modes, n_times)
    v: np.ndarray
    p: np.ndarray          # excitation probability per mode and time
    max_norm_drift: float

    def state_at(self, index: int) -> BogoliubovState:
        return BogoliubovState(
            t=float(self.t[index]), g=float(self.g[index]), k=self.k,
            u=self.u[:, index].copy(), v=self.v[:, index].copy(),
        )

    def final_state(self) -> BogoliubovState:
        return self.state_at(len(self.t) - 1)


def _integrate_pairs(schedule, ka, t_grid, rtol):
    """u, v of shape (len(ka), len(t_grid)) from one solve over the stacked [u, v]."""

    def rhs(t, y):
        g = float(schedule.g_of_t(t))
        a = mode_alpha(ka, g)
        b = mode_beta(ka, g)
        u, v = y.reshape(2, -1)
        return np.concatenate([
            1j * (a * u - b * v),   # i du/dt = -alpha u + beta v
            -1j * (a * v + b * u),  # i dv/dt =  alpha v + beta u
        ])

    # The requested tolerance bounds the delivered norm drift (<= 10*rtol);
    # run the integrator tighter so accumulated error stays inside that.
    sol = solve_ivp(
        rhs, (float(t_grid[0]), float(t_grid[-1])),
        np.repeat([1.0 + 0.0j, 0.0j], len(ka)),
        method="DOP853", rtol=rtol / 20.0, atol=rtol / 200.0, t_eval=t_grid,
    )
    if not sol.success:
        raise RuntimeError(f"mode integration failed near t={sol.t[-1]:.6g}: {sol.message}")
    return sol.y.reshape(2, len(ka), -1)


def integrate_modes(spec: ChainSpec, schedule: Schedule, t_grid, rtol: float = 1e-10) -> ModeTrajectory:
    """Numerically integrate every positive mode from the g=0 ground state.

    All modes advance in one solve and share its step sizes.  Norm drift
    beyond 10*rtol indicates integrator failure and is reported on the
    trajectory.
    """
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol must be >= {MIN_RTOL}, got {rtol}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 (initial condition is the g=0 ground state)")
    kpos = channel_momenta(spec)
    g_grid = np.asarray(schedule.g_of_t(t_grid), dtype=float)
    u, v = _integrate_pairs(schedule, kpos, t_grid, rtol)

    ug, vg = instantaneous_pair(kpos[:, None], g_grid[None, :])
    p = np.abs(ug * v - vg * u) ** 2
    drift = float(np.max(np.abs(1.0 - np.abs(u) ** 2 - np.abs(v) ** 2)))
    return ModeTrajectory(
        k=kpos, t=t_grid, g=g_grid, u=u, v=v,
        p=np.clip(p, 0.0, None), max_norm_drift=drift,
    )


def excitation_probability(state: BogoliubovState, g: float) -> dict:
    """Per-channel probability p_k = |u_gs v - v_gs u|^2 at sweep value g.

    (u_gs, v_gs) is the instantaneous positive-branch pair with zero
    phase; p_k is 0 for the instantaneous ground state and 1 for the
    excited pair, and is invariant under the global phase of (u, v).
    """
    ug, vg = instantaneous_pair(state.k, g)
    p = np.abs(ug * state.v - vg * state.u) ** 2
    return {float(k): float(pk) for k, pk in zip(state.k, p)}


def adiabatic_overlap(schedule: Schedule, state: BogoliubovState) -> np.ndarray:
    """Per-mode overlap |u* u_ad + v* v_ad| with the closed-form solution.

    Equals 1 exactly when the integrated pair matches the adiabatic
    branch up to a global phase.  The closed-form phase exp(-i Theta) is
    common to u_ad and v_ad and drops out of the modulus.
    """
    u_ad, v_ad = instantaneous_pair(state.k, float(schedule.g_of_t(state.t)))
    return np.abs(np.conj(state.u) * u_ad + np.conj(state.v) * v_ad)
