"""Time evolution of the Bogoliubov mode coefficients.

Each positive grid momentum k evolves independently as a two-component
complex pair (u_k, v_k) with |u|^2 + |v|^2 = 1.  The module provides
the closed-form adiabatic solution, full numerical integration of the
mode equations of motion

    i du/dt = -alpha u + beta v,      i dv/dt = alpha v + beta u,

and the overlap-based excitation probability of each (k, -k) channel.

Phase convention: the closed-form pair carries exp(-i Theta) with
Theta = int_0^t epsilon dt'; integrating the equations above from the
g = 0 ground state produces the conjugate global phase exp(+i Theta)
on the same branch.  The two agree up to this overall phase, which is
what the overlap diagnostic measures, and every probability computed
here is insensitive to it.

On the physical grid beta vanishes only at g = 0 (where alpha > 0), so
the positive branch normalization never degenerates; no branch
continuation is required.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .chain import ChainSpec, mode_alpha, mode_beta, mode_epsilon, momentum_grid
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
    theta: np.ndarray  # accumulated dynamical phase int_0^t epsilon dt'

    def norm_error(self) -> float:
        return float(np.max(np.abs(1.0 - np.abs(self.u) ** 2 - np.abs(self.v) ** 2)))


def instantaneous_pair(spec: ChainSpec, k, g, theta=0.0):
    """Positive-branch pair (u, v) at fixed g with phase exp(-i theta).

    u = (alpha + epsilon) e^{-i theta} / N,  v = -beta e^{-i theta} / N,
    N = sqrt(2 epsilon^2 + 2 alpha epsilon); exactly normalized since
    N^2 = (alpha + epsilon)^2 + beta^2.
    """
    ka = np.asarray(k) * spec.a
    a = mode_alpha(ka, g)
    b = mode_beta(ka, g)
    e = mode_epsilon(ka, g)
    norm = np.sqrt(2.0 * e * e + 2.0 * a * e)
    phase = np.exp(-1j * np.asarray(theta))
    return (a + e) * phase / norm, -b * phase / norm


def adiabatic_phase(spec: ChainSpec, k: float, schedule: Schedule, t: float) -> float:
    """Theta = int_0^t epsilon_k(g(t')) dt' by adaptive quadrature."""
    if t == 0.0:
        return 0.0
    ka = k * spec.a
    val, _ = quad(
        lambda tt: mode_epsilon(ka, schedule.g_of_t(tt)),
        0.0, t, epsabs=1e-11, epsrel=1e-11, limit=400,
    )
    return float(val)


def adiabatic_solution(spec: ChainSpec, k: float, schedule: Schedule, t: float):
    """Closed-form adiabatic (u_k, v_k) at time t."""
    theta = adiabatic_phase(spec, k, schedule, t)
    g = float(schedule.g_of_t(t))
    u, v = instantaneous_pair(spec, k, g, theta)
    return complex(u), complex(v)


@dataclass
class ModeTrajectory:
    """Integrated (u, v) for every positive momentum on a common time grid."""

    spec: ChainSpec
    k: np.ndarray          # positive momenta, ascending
    t: np.ndarray
    g: np.ndarray
    u: np.ndarray          # shape (n_modes, n_times)
    v: np.ndarray
    theta: np.ndarray
    p: np.ndarray          # excitation probability per mode and time
    max_norm_drift: float

    def state_at(self, index: int) -> BogoliubovState:
        return BogoliubovState(
            t=float(self.t[index]), g=float(self.g[index]), k=self.k,
            u=self.u[:, index].copy(), v=self.v[:, index].copy(),
            theta=self.theta[:, index].real.copy(),
        )

    def final_state(self) -> BogoliubovState:
        return self.state_at(len(self.t) - 1)

    def to_csv(self, path) -> None:
        """Long-format export: one row per (time, mode)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "g", "k", "re_u", "im_u", "re_v", "im_v", "p_k"])
            for ti in range(len(self.t)):
                for ki in range(len(self.k)):
                    u, v = self.u[ki, ti], self.v[ki, ti]
                    w.writerow([
                        format(self.t[ti], ".17g"), format(self.g[ti], ".17g"),
                        format(self.k[ki], ".17g"),
                        format(u.real, ".17g"), format(u.imag, ".17g"),
                        format(v.real, ".17g"), format(v.imag, ".17g"),
                        format(self.p[ki, ti], ".17g"),
                    ])


def _integrate_single_mode(spec, schedule, ka, t_grid, rtol):
    def rhs(t, y):
        g = float(schedule.g_of_t(t))
        a = mode_alpha(ka, g)
        b = mode_beta(ka, g)
        u, v, _ = y
        return [
            1j * (a * u - b * v),        # i du/dt = -alpha u + beta v
            -1j * (a * v + b * u),       # i dv/dt =  alpha v + beta u
            mode_epsilon(ka, g) + 0.0j,  # Theta accumulates epsilon
        ]

    # The requested tolerance bounds the delivered norm drift (<= 10*rtol);
    # run the integrator tighter so accumulated error stays inside that.
    sol = solve_ivp(
        rhs, (float(t_grid[0]), float(t_grid[-1])),
        [1.0 + 0.0j, 0.0j, 0.0j],
        method="DOP853", rtol=rtol / 20.0, atol=rtol / 200.0, t_eval=t_grid,
    )
    if not sol.success:
        raise RuntimeError(
            f"mode integration failed for ka={ka:.6g} near t={sol.t[-1]:.6g}: {sol.message}"
        )
    return sol.y


def integrate_modes(spec: ChainSpec, schedule: Schedule, t_grid, rtol: float = 1e-10) -> ModeTrajectory:
    """Numerically integrate every positive mode from the g=0 ground state.

    Modes are independent; results do not depend on integration order.
    Norm drift beyond 10*rtol indicates integrator failure and is
    reported on the trajectory.
    """
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol must be >= {MIN_RTOL}, got {rtol}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 (initial condition is the g=0 ground state)")
    kpos = momentum_grid(spec)
    kpos = kpos[kpos > 0]
    g_grid = np.asarray(schedule.g_of_t(t_grid), dtype=float)

    u = np.empty((len(kpos), len(t_grid)), dtype=complex)
    v = np.empty_like(u)
    theta = np.empty_like(u)
    for i, k in enumerate(kpos):
        y = _integrate_single_mode(spec, schedule, k * spec.a, t_grid, rtol)
        u[i], v[i], theta[i] = y[0], y[1], y[2]

    ug, vg = instantaneous_pair(spec, kpos[:, None], g_grid[None, :])
    p = np.abs(ug * v - vg * u) ** 2
    drift = float(np.max(np.abs(1.0 - np.abs(u) ** 2 - np.abs(v) ** 2)))
    return ModeTrajectory(
        spec=spec, k=kpos, t=t_grid, g=g_grid, u=u, v=v, theta=theta,
        p=np.clip(p, 0.0, None), max_norm_drift=drift,
    )


def excitation_probability(state: BogoliubovState, spec: ChainSpec, g: float) -> dict:
    """Per-channel probability p_k = |u_gs v - v_gs u|^2 at sweep value g.

    (u_gs, v_gs) is the instantaneous positive-branch pair with zero
    phase; p_k is 0 for the instantaneous ground state and 1 for the
    excited pair, and is invariant under the global phase of (u, v).
    """
    ug, vg = instantaneous_pair(spec, state.k, g)
    p = np.abs(ug * state.v - vg * state.u) ** 2
    return {float(k): float(pk) for k, pk in zip(state.k, p)}


def adiabatic_overlap(spec: ChainSpec, schedule: Schedule, state: BogoliubovState) -> np.ndarray:
    """Per-mode overlap |u* u_ad + v* v_ad| with the closed-form solution.

    Equals 1 exactly when the integrated pair matches the adiabatic
    branch up to a global phase.
    """
    out = np.empty(len(state.k))
    for i, k in enumerate(state.k):
        u_ad, v_ad = adiabatic_solution(spec, float(k), schedule, state.t)
        out[i] = abs(np.conj(state.u[i]) * u_ad + np.conj(state.v[i]) * v_ad)
    return out
