import numpy as np
import pytest
from scipy.integrate import solve_ivp

from isingsweep import dynamics
from isingsweep.chain import ChainSpec, channel_momenta, mode_alpha, mode_beta, momentum_grid
from isingsweep.dynamics import (
    _integrate_pairs,
    _solve,
    adiabatic_overlap,
    instantaneous_pair,
    integrate_modes,
)
from isingsweep.oracle import (
    embed_sector_vector,
    schrodinger_evolve,
    uniform_hamiltonian,
    uniform_path,
)
from isingsweep.schedules import (
    Schedule,
    runtime_for_adiabaticity,
)


class FrozenSchedule(Schedule):
    """g held constant; for decoupled-mode sanity checks."""

    kind = "frozen"

    def __init__(self, g0, total_time):
        self.g0 = g0
        self.total_time = total_time
        self.spec = None

    def g_of_t(self, t):
        return self.g0 * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.g0

    def velocity_of_g(self, g):
        return 0.0


class NaNAfterSchedule(Schedule):
    """Linear sweep whose g(t) turns NaN past t_bad, as a broken schedule would."""

    def __init__(self, total_time, t_bad):
        super().__init__("linear", total_time)
        self.t_bad = t_bad

    def g_of_t(self, t):
        g = np.asarray(super().g_of_t(t), dtype=float)
        return np.where(np.asarray(t) > self.t_bad, np.nan, g)


def test_initial_condition_is_polarized_ground_state():
    u, v = instantaneous_pair(channel_momenta(ChainSpec(8)), 0.0)
    np.testing.assert_allclose(u, 1.0, atol=1e-14)
    np.testing.assert_allclose(v, 0.0, atol=1e-14)


def test_closed_form_normalized_everywhere():
    spec = ChainSpec(8)
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = rng.choice(momentum_grid(spec))
        g = rng.uniform(0, 1)
        u, v = instantaneous_pair(k, g)
        assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_pair_amplitude_at_critical_point_n2():
    # ka = pi/2 at the critical point: alpha=1, beta=1, eps=sqrt(2),
    # giving |v|^2 = 1/(4 + 2 sqrt(2))
    u, v = instantaneous_pair(np.pi / 2, 0.5)
    assert abs(v) ** 2 == pytest.approx(1.0 / (4.0 + 2.0 * np.sqrt(2.0)), rel=1e-14)
    assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_frozen_field_mode_decouples():
    # at g = 0 the pairing term vanishes: u picks up exp(i alpha t) only
    sched = FrozenSchedule(0.0, 5.0)
    ka = np.pi / 4
    t_grid = np.linspace(0.0, 5.0, 11)
    u, v, _, _ = _integrate_pairs(sched, [ka], t_grid, rtol=1e-11)
    expected = np.exp(1j * mode_alpha(ka, 0.0) * t_grid)
    np.testing.assert_allclose(u[0], expected, atol=1e-9)
    np.testing.assert_allclose(v[0], 0.0, atol=1e-12)


def test_excitation_probability_limits():
    spec = ChainSpec(8)
    kpos = channel_momenta(spec)
    g = 0.37
    ug, vg = instantaneous_pair(kpos, g)
    assert dynamics._excited_fraction(kpos, g, ug, vg).max() < 1e-28
    # orthogonal (excited) pair has probability one
    p = dynamics._excited_fraction(kpos, g, -np.conj(vg), np.conj(ug))
    np.testing.assert_allclose(p, 1.0, atol=1e-14)


def test_norm_conservation_and_adiabatic_limit():
    spec = ChainSpec(6)
    sched = Schedule("linear", 400.0)
    t_grid = np.linspace(0.0, 400.0, 9)
    traj = integrate_modes(spec, sched, t_grid, rtol=1e-10)
    assert traj.max_norm_drift <= 10 * 1e-10
    # very slow sweep: final excitation probabilities vanish
    assert traj.p[:, -1].max() < 1e-4


@pytest.mark.parametrize("rtol", [1e-10, 1e-8])
@pytest.mark.parametrize("n", [6, 16])
def test_shared_step_control_meets_rtol_per_mode(n, rtol):
    # every mode, not just the stacked state as a whole, is within 10*rtol
    # of a tight solve
    spec = ChainSpec(n)
    sched = Schedule("linear", 20.0)
    t_grid = np.linspace(0.0, 20.0, 9)
    traj = integrate_modes(spec, sched, t_grid, rtol=rtol)
    ref = integrate_modes(spec, sched, t_grid, rtol=1e-12)
    for name in ("u", "v", "p"):
        err = np.abs(getattr(traj, name) - getattr(ref, name)).max(axis=1)
        assert np.all(err <= 10 * rtol), (name, err)


def test_negative_momentum_gives_same_probability():
    spec = ChainSpec(6)
    sched = Schedule("linear", 15.0)
    t_grid = np.linspace(0.0, 15.0, 4)
    k = channel_momenta(spec)[0]
    u, v, _, _ = _integrate_pairs(sched, [k, -k], t_grid, rtol=1e-11)
    ug, vg = instantaneous_pair(k, 1.0)
    p_pos = abs(ug * v[0, -1] - vg * u[0, -1]) ** 2
    ugm, vgm = instantaneous_pair(-k, 1.0)
    p_neg = abs(ugm * v[1, -1] - vgm * u[1, -1]) ** 2
    assert p_pos == pytest.approx(p_neg, rel=1e-9)


def test_total_excitation_matches_dense_evolution_n4():
    # sum over channels against the full many-body excited population
    n, T = 4, 30.0
    spec = ChainSpec(n)
    sched = Schedule("linear", T)
    t_grid = np.linspace(0.0, T, 7)
    traj = integrate_modes(spec, sched, t_grid, rtol=1e-12)

    w0, V0 = np.linalg.eigh(uniform_hamiltonian(n, 0.0, sector="even").matrix)
    psi0 = embed_sector_vector(V0[:, 0], n, "even").astype(complex)
    tt, states = schrodinger_evolve(uniform_path(n, sched), psi0, T,
                                    rtol=1e-12, t_eval=t_grid)
    for i in (3, 5, 6):
        g = float(sched.g_of_t(t_grid[i]))
        wg, Vg = np.linalg.eigh(uniform_hamiltonian(n, g, sector="even").matrix)
        gs = embed_sector_vector(Vg[:, 0], n, "even")
        p_dense = 1.0 - abs(np.vdot(gs, states[:, i])) ** 2
        p_modes = traj.p[:, i].sum()
        assert abs(p_dense - p_modes) < 1e-6


def test_landau_zener_decay_of_lowest_mode():
    # ln p_k is affine in T (ka)^2 with the two-level sweep rate constant
    spec = ChainSpec(8)
    k1 = np.pi / 8
    s, c = np.sin(k1 / 2), np.cos(k1 / 2)
    Ts = np.array([20.0, 30.0, 40.0, 55.0, 70.0])
    ps = []
    for T in Ts:
        traj = integrate_modes(spec, Schedule("linear", T), np.linspace(0, T, 3), rtol=1e-11)
        assert traj.k[0] == k1 and traj.g[-1] == 1.0
        ps.append(traj.p[0, -1])
    slope, _ = np.polyfit(Ts * k1**2, np.log(ps), 1)
    assert slope == pytest.approx(-np.pi * s**2 / (c * k1**2), rel=0.15)


def test_adiabatic_overlap_near_unity():
    spec = ChainSpec(4)
    T = 600.0
    sched = Schedule("linear", T)
    traj = integrate_modes(spec, sched, np.linspace(0.0, T, 5), rtol=1e-11)
    ov = adiabatic_overlap(traj)
    assert ov.shape == traj.u.shape
    assert np.all(ov[:, -1] >= 1 - 1e-3)


def test_magnus_step_is_sixth_order():
    # halving the step cuts the error 64-fold; a wrong commutator
    # coefficient leaves a second-order method (4-fold)
    spec = ChainSpec(6)
    sched = Schedule("linear", 20.0)
    ka = channel_momenta(spec)
    t_grid = np.linspace(0.0, 20.0, 5)
    u_ref, v_ref = _solve(sched, ka, t_grid, 1024)
    err = [max(np.abs(u - u_ref).max(), np.abs(v - v_ref).max())
           for u, v in (_solve(sched, ka, t_grid, m) for m in (16, 32))]
    assert 50.0 < err[0] / err[1] < 80.0, err



def _cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _general_step_propagators(schedule, ka, t0, h):
    """The Magnus-6 step on general 3-vectors: the docstring formulas, zero components included."""
    g = np.asarray(schedule.g_of_t(t0[..., None] + h[..., None] * dynamics._NODES), dtype=float)
    k = np.reshape(ka, (-1,) + (1,) * g.ndim)
    alpha, beta = mode_alpha(k, g), mode_beta(k, g)
    a1, a2, a3 = ((beta[..., i], 0.0, -alpha[..., i]) for i in range(3))
    r = np.sqrt(15.0) / 3.0 * h
    s = 10.0 / 3.0 * h
    x1 = tuple(h * b for b in a2)
    x2 = tuple(r * (c - a) for a, c in zip(a1, a3))
    x3 = tuple(s * (c - 2.0 * b + a) for a, b, c in zip(a1, a2, a3))
    c1 = tuple(2.0 * z for z in _cross(x1, x2))
    c2 = tuple(-z / 30.0 for z in _cross(x1, tuple(2.0 * a + b for a, b in zip(x3, c1))))
    left = tuple(-20.0 * a - b + c for a, b, c in zip(x1, x3, c1))
    right = tuple(a + b for a, b in zip(x2, c2))
    wx, wy, wz = (a + b / 12.0 + z / 120.0
                  for a, b, z in zip(x1, x3, _cross(left, right)))
    theta = np.sqrt(wx * wx + wy * wy + wz * wz)
    sinc = np.sinc(theta / np.pi)
    return np.cos(theta) - 1j * (sinc * wz), sinc * (wy - 1j * wx)


@pytest.mark.parametrize("kind", ["linear", "gap-adapted-1", "gap-adapted-2"])
def test_xz_magnus_step_matches_general_vector_step(kind):
    # the kernel keeps only the components that are not identically zero;
    # every product it keeps must round as in the general 3-vector form
    rng = np.random.default_rng(11)
    spec = ChainSpec(12)
    sched = Schedule(kind, 40.0, spec)
    ka = channel_momenta(spec)
    for scale in (1e-3, 0.3, 5.0):
        t0 = rng.uniform(0.0, 30.0, (4, 9))
        h = scale * rng.uniform(0.1, 1.0, t0.shape)
        p, q = dynamics._step_propagators(sched, ka, t0, h)
        p_ref, q_ref = _general_step_propagators(sched, ka, t0, h)
        assert p.shape == q.shape == (len(ka),) + t0.shape
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref), (kind, scale)


def _dop853_reference(g_of_t, ka, t_grid):
    """The same mode equations by DOP853 at rtol 1e-12, coefficients written out here."""
    c2, s1 = np.cos(ka / 2.0) ** 2, np.sin(ka)

    def rhs(t, y):
        g = float(g_of_t(t))
        a, b = 2.0 - 4.0 * g * c2, 2.0 * g * s1
        u, v = y[:len(ka)], y[len(ka):]
        return np.concatenate([1j * (a * u - b * v), -1j * (a * v + b * u)])

    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), np.repeat([1.0 + 0.0j, 0.0j], len(ka)),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_grid)
    assert sol.success
    return sol.y[:len(ka)], sol.y[len(ka):]


@pytest.mark.parametrize("n, kind, eps_adiab, points, coarser", [
    (16, "gap-adapted-2", 0.25, 401, None),  # the dynamics benchmark's n = 16 solve
    (4, "linear", 1e-3, 5, 8),               # criterion 8's long linear sweep
])
def test_magnus_matches_independent_dop853(n, kind, eps_adiab, points, coarser):
    rtol = 1e-10
    spec = ChainSpec(n)
    sched = Schedule(kind, runtime_for_adiabaticity(kind, n, eps_adiab), spec)
    t_grid = np.linspace(0.0, sched.total_time, points)
    traj = integrate_modes(spec, sched, t_grid, rtol=rtol)
    T = sched.total_time
    u_ref, v_ref = _dop853_reference((lambda t: t / T) if kind == "linear" else sched.g_of_t,
                                     traj.k, t_grid)
    err = max(np.abs(traj.u - u_ref).max(), np.abs(traj.v - v_ref).max())
    assert err <= 10 * rtol
    assert traj.max_norm_drift <= 1e-13
    assert traj.doubling_delta <= rtol
    if coarser:
        # the comparison tells a too-coarse discretization apart
        u, v = _solve(sched, traj.k, t_grid, traj.magnus_steps // coarser)
        assert max(np.abs(u - u_ref).max(), np.abs(v - v_ref).max()) > 10 * rtol


@pytest.mark.parametrize("t_grid, match", [
    ([0.0], "at least 2"),
    ([0.0, 2.0, 1.0, 3.0], "strictly increasing"),
    ([0.0, 1.0, 1.0, 3.0], "strictly increasing"),
    ([0.0, 5.0, 10.5], "past"),
])
def test_t_grid_rejected(t_grid, match):
    spec = ChainSpec(4)
    with pytest.raises(ValueError, match=f"t_grid.*{match}"):
        integrate_modes(spec, Schedule("linear", 10.0), t_grid)


def test_nan_schedule_fails_at_once():
    # doubling cannot mend a NaN: the first doubling fails, naming the interval
    spec = ChainSpec(4)
    t_grid = np.linspace(0.0, 10.0, 11)
    with pytest.raises(RuntimeError, match=r"\[6, 7\]: a non-finite value.* at 2 steps"):
        integrate_modes(spec, NaNAfterSchedule(10.0, t_bad=6.5), t_grid)


def test_step_cap_fails_with_last_delta(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 8)
    spec = ChainSpec(4)
    with pytest.raises(RuntimeError, match=r"no agreement within 8 Magnus steps.* = [0-9.e-]+ at 4 steps"):
        integrate_modes(spec, Schedule("linear", 20.0), np.linspace(0.0, 20.0, 3), rtol=1e-12)
