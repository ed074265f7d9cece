"""Time evolution of the Bogoliubov mode coefficients.

Each positive grid momentum k evolves independently as a two-component
complex pair (u_k, v_k) with |u|^2 + |v|^2 = 1 under the shared g(t),

    i du/dt = -alpha u + beta v,      i dv/dt = alpha v + beta u,

that is i d/dt (u, v) = H_k (u, v) with H_k = beta sigma_x - alpha sigma_z,
an su(2) generator.  The module integrates these equations for all
pairs at once; the trajectory carries the excitation probability of
each (k, -k) channel at every output time and, through
:func:`adiabatic_overlap`, its overlap with the instantaneous pair.

The numerical solution uses sixth-order Magnus steps (Blanes, Casas,
Oteo and Ros, Phys. Rep. 470, 151 (2009)): g is sampled at three
Gauss-Legendre nodes per step, the Magnus exponent with its two nested
commutators is a vector in su(2) (a commutator is twice a cross
product), and its exponential is the exact SU(2) rotation
exp(-i c.sigma) = cos|c| - i sin|c| c.sigma/|c|.  H_k has no sigma_y
part, so only the commutators reach y, and components that are
identically zero are never computed.  Every step is unitary, so the
norm is conserved to rounding whatever the step size.
The steps of one output interval are multiplied together by pairwise
reduction, and the interval products are applied in order over the
time grid.  The number of steps per interval starts at one and doubles
until two successive solves agree within the requested tolerance.

The solve fixes (u, v) up to a global phase that nothing here sees.

On the physical grid beta vanishes only at g = 0 (where alpha > 0), so
the positive branch normalization never degenerates; no branch
continuation is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, channel_momenta, check_number, mode_alpha, mode_beta, mode_epsilon
from .schedules import Schedule

__all__ = [
    "ModeTrajectory",
    "instantaneous_pair",
    "integrate_modes",
    "adiabatic_overlap",
]

MIN_RTOL = 1e-12  # smallest tolerance integrate_modes accepts
MAX_STEPS = 2 ** 20  # Magnus steps per mode over the whole grid before a solve gives up
_BLOCK = 2 ** 11  # (mode, step) pairs whose propagators are built at once; bounds memory
# Gauss-Legendre nodes of a step, as fractions of its length
_NODES = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])


def instantaneous_pair(k, g):
    """Positive-branch ground-state pair (u, v) at fixed g, with zero phase.

    u = (alpha + epsilon) / N,  v = -beta / N,
    N = sqrt(2 epsilon^2 + 2 alpha epsilon); exactly normalized since
    N^2 = (alpha + epsilon)^2 + beta^2.
    """
    a = mode_alpha(k, g)
    b = mode_beta(k, g)
    e = mode_epsilon(k, g)
    inv_norm = 1.0 / np.sqrt(2.0 * e * e + 2.0 * a * e)
    return (a + e) * inv_norm, -b * inv_norm


def _excited_fraction(k, g, u, v):
    """|u_gs v - v_gs u|^2 against the zero-phase instantaneous pair at g."""
    ug, vg = instantaneous_pair(k, g)
    return np.abs(ug * v - vg * u) ** 2


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
    magnus_steps: int      # Magnus steps per output interval of the returned solve
    doubling_delta: float  # max |du|, |dv| between it and the solve with half the steps


def _compose(p1, q1, p0, q0):
    """The SU(2) pair of U1 U0, with U = [[p, -q*], [q, p*]]."""
    return p1 * p0 - np.conj(q1) * q0, q1 * p0 + np.conj(p1) * q0


def _step_propagators(schedule, ka, t0, h):
    """SU(2) pairs (p, q) of the Magnus-6 steps [t0, t0 + h], shape (len(ka),) + t0.shape.

    d(u, v)/dt = A (u, v) with A = -i a.sigma, a = (beta, 0, -alpha), taken
    at the three nodes as a1, a2, a3.  Every su(2) element -i x.sigma is
    carried as its vector x, and the commutator
    [-i x.sigma, -i y.sigma] = -i (2 x cross y).sigma becomes
    [x, y] = 2 x cross y.  The sixth-order exponent -i w.sigma is

        x1 = h a2,  x2 = (sqrt(15)/3) h (a3 - a1),  x3 = (10/3) h (a3 - 2 a2 + a1)
        c1 = [x1, x2],  c2 = -[x1, 2 x3 + c1] / 60
        w = x1 + x3/12 + [-20 x1 - x3 + c1, x2 + c2] / 240.

    No a has a y component, so x1, x2 and x3 lie in the x-z plane and c1
    along y.  The products are written out on the other components, in
    the order of the vector formulas: no array of zeros is multiplied,
    and every result is the same to the last bit.
    """
    g = np.asarray(schedule.g_of_t(t0[..., None] + h[..., None] * _NODES), dtype=float)
    k = np.reshape(ka, (-1,) + (1,) * g.ndim)
    alpha, beta = mode_alpha(k, g), mode_beta(k, g)
    b1, b2, b3 = (beta[..., i] for i in range(3))     # x components of a1, a2, a3
    z1, z2, z3 = (-alpha[..., i] for i in range(3))   # z components
    r = np.sqrt(15.0) / 3.0 * h
    s = 10.0 / 3.0 * h
    x1x, x1z = h * b2, h * z2
    x2x, x2z = r * (b3 - b1), r * (z3 - z1)
    x3x, x3z = s * (b3 - 2.0 * b2 + b1), s * (z3 - 2.0 * z2 + z1)
    c1y = 2.0 * (x1z * x2x - x1x * x2z)
    c2y = (x1x * (2.0 * x3z) - x1z * (2.0 * x3x)) / 30.0
    lx, lz = -20.0 * x1x - x3x, -20.0 * x1z - x3z  # left = -20 x1 - x3 + c1 = (lx, c1y, lz)
    rx, rz = x2x + x1z * c1y / 30.0, x2z - x1x * c1y / 30.0  # right = x2 + c2 = (rx, c2y, rz)
    wx = x1x + x3x / 12.0 + (c1y * rz - lz * c2y) / 120.0
    wy = (lz * rx - lx * rz) / 120.0
    wz = x1z + x3z / 12.0 + (lx * c2y - c1y * rx) / 120.0
    # exp(-i w.sigma) = cos|w| - i sin|w| w.sigma/|w|; sinc keeps |w| = 0 finite
    theta = np.sqrt(wx * wx + wy * wy + wz * wz)
    sinc = np.sinc(theta / np.pi)
    return np.cos(theta) - 1j * (sinc * wz), sinc * (wy - 1j * wx)


def _reduce(p, q):
    """Product over the last axis (length a power of 2), later steps to the left."""
    while p.shape[-1] > 1:
        p, q = _compose(p[..., 1::2], q[..., 1::2], p[..., 0::2], q[..., 0::2])
    return p[..., 0], q[..., 0]


def _solve(schedule, ka, t_grid, m):
    """u, v of shape (len(ka), len(t_grid)) with m Magnus steps per output interval.

    The propagators of at most _BLOCK (mode, step) pairs are built at
    once: a call covers ``per`` intervals with ``chunk`` steps each, and
    an interval longer than one call is multiplied together over
    ``m // chunk`` calls.
    """
    ka = np.asarray(ka, dtype=float)
    width = max(1, _BLOCK // len(ka))
    chunk = min(m, 1 << (width.bit_length() - 1))
    per = max(1, width // m)
    starts, dt = t_grid[:-1], np.diff(t_grid)
    n_int = len(dt)
    P = np.empty((len(ka), n_int), dtype=complex)
    Q = np.empty_like(P)
    for j0 in range(0, n_int, per):
        h = dt[j0:j0 + per, None] / m
        p = q = None
        for c in range(0, m, chunk):
            t0 = starts[j0:j0 + per, None] + (c + np.arange(chunk)) * h
            ps, qs = _reduce(*_step_propagators(schedule, ka, t0, np.broadcast_to(h, t0.shape)))
            p, q = (ps, qs) if p is None else _compose(ps, qs, p, q)
        P[:, j0:j0 + per], Q[:, j0:j0 + per] = p, q

    # prefix products U_j ... U_0 in log2(n_int) rounds; their first column
    # is the state (u, v) at t_{j+1}, starting from (1, 0) at t_0
    d = 1
    while d < n_int:
        P[:, d:], Q[:, d:] = _compose(P[:, d:], Q[:, d:], P[:, :-d], Q[:, :-d])
        d *= 2
    start = np.ones((len(ka), 1), dtype=complex)
    return np.hstack([start, P]), np.hstack([np.zeros_like(start), Q])


def _integrate_pairs(schedule, ka, t_grid, rtol):
    """u, v of shape (len(ka), len(t_grid)), Magnus steps per interval, last doubling delta.

    Doubles the steps per interval, from one, until two successive solves
    agree within rtol in max |du|, |dv| over every mode and output time,
    and returns the finer solve.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    m = 1
    u, v = _solve(schedule, ka, t_grid, m)
    delta = np.full(len(t_grid), np.inf)
    while 2 * m * (len(t_grid) - 1) <= MAX_STEPS:
        u2, v2 = _solve(schedule, ka, t_grid, 2 * m)
        delta = np.maximum(np.abs(u2 - u), np.abs(v2 - v)).max(axis=0)
        m, u, v = 2 * m, u2, v2
        if np.all(delta <= rtol):
            return u, v, m, float(delta.max())
        if np.isnan(delta).any():
            break  # more steps cannot mend a NaN from the schedule or the coefficients
    if np.isnan(delta).any():
        j, reason = int(np.argmax(np.isnan(delta))), "a non-finite value"
    else:
        j = 1 + int(np.argmax(delta[1:] > rtol))
        reason = f"no agreement within {MAX_STEPS} Magnus steps per mode"
    raise RuntimeError(
        f"mode integration failed on t in [{t_grid[j - 1]:.6g}, {t_grid[j]:.6g}]: {reason}; "
        f"last max |du|, |dv| = {delta[j]:.3g} at {m} steps per interval")


def integrate_modes(spec: ChainSpec, schedule: Schedule, t_grid, rtol: float = 1e-10) -> ModeTrajectory:
    """Numerically integrate every positive mode from the g=0 ground state.

    All modes advance together by sixth-order Magnus steps with exact
    SU(2) exponentials, the same number of equal steps in every interval
    of ``t_grid``.  That number doubles, from one, until two successive
    solves differ by at most ``rtol`` in every |u| and |v| component at
    every grid time; the finer solve is returned.  The difference is about
    the coarser solve's error, and each doubling shrinks the error 64-fold,
    so rtol bounds the returned error at about rtol/64: well inside the
    10*rtol that callers check the norm drift against, and the drift
    itself stays at rounding level because each step is unitary.

    ``t_grid`` must start at 0, increase strictly and end at or before
    ``schedule.total_time``.  A solve whose doubling meets a non-finite
    value, or would need more than MAX_STEPS steps per mode, raises
    RuntimeError naming the output interval and the last delta.
    """
    check_number("rtol", rtol, MIN_RTOL, inclusive=True)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError(f"t_grid must hold at least 2 times, got shape {t_grid.shape}")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 (initial condition is the g=0 ground state)")
    if not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid[-1] > schedule.total_time:
        raise ValueError(f"t_grid ends at {t_grid[-1]}, past the schedule's total_time "
                         f"{schedule.total_time}")
    kpos = channel_momenta(spec)
    g_grid = np.asarray(schedule.g_of_t(t_grid), dtype=float)
    u, v, steps, delta = _integrate_pairs(schedule, kpos, t_grid, rtol)

    p = _excited_fraction(kpos[:, None], g_grid[None, :], u, v)
    drift = float(np.max(np.abs(1.0 - np.abs(u) ** 2 - np.abs(v) ** 2)))
    return ModeTrajectory(
        k=kpos, t=t_grid, g=g_grid, u=u, v=v,
        p=np.clip(p, 0.0, None), max_norm_drift=drift,
        magnus_steps=steps, doubling_delta=delta,
    )


def adiabatic_overlap(traj: ModeTrajectory) -> np.ndarray:
    """Overlap |u* u_ad + v* v_ad| of each mode with the instantaneous pair, shape (modes, times).

    Equals 1 exactly when the integrated pair follows the adiabatic
    branch up to a global phase, which drops out of the modulus.
    """
    u_ad, v_ad = instantaneous_pair(traj.k[:, None], traj.g[None, :])
    return np.abs(np.conj(traj.u) * u_ad + np.conj(traj.v) * v_ad)
