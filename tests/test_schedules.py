import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from isingsweep.chain import ChainSpec, fundamental_gap
from isingsweep.oracle import stepwise_path
from isingsweep.schedules import (
    Schedule,
    StepWisePath,
    _velocity,
    runtime_for_adiabaticity,
    stepwise_hamiltonian_weights,
    stepwise_weights,
)


def test_linear_basics():
    sched = Schedule("linear", 100.0)
    assert sched.g_of_t(50.0) == 0.5
    assert sched.velocity_of_g(0.1) == pytest.approx(1 / 100)
    assert Schedule("linear", 200.0).velocity_of_g(0.165) == pytest.approx(1 / 200)
    with pytest.raises(ValueError, match="outside"):
        sched.g_of_t(101.0)
    with pytest.raises(ValueError, match="outside"):
        sched.g_of_t(-1.0)


@pytest.mark.parametrize("total_time", [float("inf"), float("nan"), 0.0, -5.0])
def test_total_time_must_be_positive_and_finite(total_time):
    spec = ChainSpec(8)
    for build in (lambda: Schedule("linear", total_time),
                  lambda: Schedule("linear", total_time, spec),
                  lambda: Schedule("gap-adapted-2", total_time, spec),
                  lambda: Schedule("gap-adapted-1", total_time, spec),
                  lambda: stepwise_path(5, total_time)):
        with pytest.raises(ValueError, match="total_time"):
            build()
    # the kind is checked first: an unknown one, or a gap-adapted one without
    # the chain whose gap it follows, fails whatever the time
    for kind, args, match in (("cubic", (), r"^kind: must be one of \(.*\), got 'cubic'$"),
                              ("gap-adapted", (spec,), "^kind: must be one of "),
                              ({}, (spec,), r"^kind: must be one of .*, got \{\}$"),
                              ("gap-adapted-1", (), "gap-adapted-1 needs a ChainSpec"),
                              ("gap-adapted-2", (None,), "gap-adapted-2 needs a ChainSpec")):
        with pytest.raises(ValueError, match=match):
            Schedule(kind, total_time, *args)


@pytest.mark.parametrize("kind", ["gap-adapted-1", "gap-adapted-2"])
def test_adapted_endpoints_and_monotonicity(kind):
    spec = ChainSpec(8)
    sched = Schedule(kind, 60.0, spec)
    assert abs(sched.g_of_t(0.0)) <= 1e-9
    assert abs(sched.g_of_t(60.0) - 1.0) <= 1e-9
    t = np.linspace(0.0, 60.0, 10_000)
    g = sched.g_of_t(t)
    assert np.all(np.diff(g) >= -1e-15)


def test_adapted_ode_vs_inverse_quadrature_oracle():
    # independent route: T/2 = (1/c) * int_0^g dg'/DeltaE(g') solved for g
    spec = ChainSpec(8)
    T = 80.0
    sched = Schedule("gap-adapted-1", T, spec)

    def time_of(g):
        val = quad(lambda x: fundamental_gap(spec, x) ** -1, 0.0, g,
                   points=[0.5] if g > 0.5 else None, limit=200, epsrel=1e-13)[0]
        return val / sched.velocity_terms[0]

    g_oracle = brentq(lambda g: time_of(g) - T / 2, 1e-12, 1.0, xtol=1e-13)
    assert abs(float(sched.g_of_t(T / 2)) - g_oracle) < 1e-8


@pytest.mark.parametrize("n", [8, 32, 64, 128])
@pytest.mark.parametrize("kind", ["gap-adapted-1", "gap-adapted-2"])
def test_closed_form_vs_independent_references(kind, n):
    spec = ChainSpec(n)
    p = int(kind[-1])
    T = runtime_for_adiabaticity(kind, n, 0.25)
    sched = Schedule(kind, T, spec)
    # norm: adaptive quadrature of DeltaE^-p over the whole sweep
    norm = quad(lambda g: fundamental_gap(spec, g) ** -p, 0.0, 1.0, points=[0.5],
                limit=200, epsabs=0.0, epsrel=1e-13)[0]
    assert sched.velocity_terms[0] * T == pytest.approx(norm, rel=1e-12, abs=0.0)
    # g(t): a tight ODE solve of the rate equation, sampled densely enough
    # that an interpolated g(t) would show its error between nodes
    t = np.linspace(0.0, T, 4 * 8192 + 1)
    ode = solve_ivp(lambda _, y: sched.velocity_terms[0] * fundamental_gap(spec, y[0]) ** p,
                    (0.0, T), [0.0], method="DOP853", rtol=1e-13, atol=1e-16, t_eval=t)
    assert ode.success
    g = sched.g_of_t(t)
    assert np.max(np.abs(g - ode.y[0])) < 1e-9


def test_g_dot_matches_finite_difference():
    # dg/dt = velocity_of_g(g(t)): the closed-form velocity agrees with g(t)
    t = np.linspace(0.05, 0.95, 41) * 50.0
    h = 50.0 * 1e-6
    for kind in ("linear", "gap-adapted-1", "gap-adapted-2"):
        sched = Schedule(kind, 50.0, ChainSpec(8))
        fd = (sched.g_of_t(t + h) - sched.g_of_t(t - h)) / (2 * h)
        gd = sched.velocity_of_g(sched.g_of_t(t))
        assert np.max(np.abs(fd - gd) / np.abs(gd)) < 1e-6, kind


def test_velocity_terms_give_each_schedule_in_one_batch():
    # one vectorized expression over the (rate, s, c, power) of several
    # schedules gives every schedule's own dg/dt, bitwise, and that is
    # C * DeltaE^p with DeltaE the fundamental gap (p = 0: 1/T)
    spec = ChainSpec(16)
    scheds = [Schedule("linear", 50.0), Schedule("gap-adapted-1", 50.0, spec),
              Schedule("gap-adapted-2", 80.0, spec)]
    g = np.linspace(0.0, 1.0, 11)
    rate, s, c, power = np.array([x.velocity_terms for x in scheds], dtype=float).T[..., None]
    batch = _velocity(rate, s, c, power, 1.0 - 2.0 * g)  # it takes x = 1 - 2g
    for row, sched in zip(batch, scheds):
        assert np.array_equal(row, sched.velocity_of_g(g))
        assert row[3] == sched.velocity_of_g(g[3])
    assert np.all(batch[0] == 1.0 / 50.0)
    for sched, p in zip(scheds[1:], (1, 2)):
        np.testing.assert_allclose(sched.velocity_of_g(g),
                                   sched.velocity_terms[0] * fundamental_gap(spec, g) ** p,
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("kind", ["linear", "gap-adapted-2"])
def test_time_check_edges_scalar_and_array(kind):
    # within 1e-12 T of [0, T] a time is clipped, beyond it rejected;
    # NaN passes through; a float and a 1-element array agree bitwise
    sched = Schedule(kind, 70.0, ChainSpec(8))
    T = sched.total_time
    slop = 1e-12 * T
    for t, clipped in ((-0.5 * slop, 0.0), (T + 0.5 * slop, T), (0.0, 0.0), (T, T)):
        assert sched._check_time(t) == clipped
        assert sched._check_time(np.array([t])).tolist() == [clipped]
    for t in np.linspace(0.0, T, 7).tolist():
        assert sched.g_of_t(t) == sched.g_of_t(np.array([t]))[0]
    for t in (-2.0 * slop, T + 2.0 * slop):
        with pytest.raises(ValueError, match="outside"):
            sched._check_time(t)
        with pytest.raises(ValueError, match="outside"):
            sched._check_time(np.array([0.5 * T, t]))
    assert np.isnan(sched._check_time(float("nan")))
    assert np.isnan(sched._check_time(np.array([0.0, np.nan]))[1])
    assert np.isnan(sched.g_of_t(float("nan")))


def test_adapted_slowest_at_critical_point():
    spec = ChainSpec(8)
    sched = Schedule("gap-adapted-1", 50.0, spec)
    g = np.linspace(0.0, 1.0, 201)
    v = sched.velocity_of_g(g)
    assert g[np.argmin(v)] == pytest.approx(0.5, abs=1e-9)
    # speed ratio between critical point and start equals the gap ratio squared for power 2
    s2 = Schedule("gap-adapted-2", 50.0, spec)
    ratio = s2.velocity_of_g(0.5) / s2.velocity_of_g(0.0)
    assert ratio == pytest.approx((fundamental_gap(spec, 0.5) / fundamental_gap(spec, 0.0)) ** 2,
                                  rel=1e-12)


def test_rate_constant_stable_under_doubling():
    # doubling n with T proportional to n keeps the normalized rate
    # constant of the quadratic-gap schedule fixed (the velocity at the
    # critical point itself scales with the shrinking gap squared)
    c16 = Schedule("gap-adapted-2", 16.0, ChainSpec(16)).velocity_terms[0]
    c32 = Schedule("gap-adapted-2", 32.0, ChainSpec(32)).velocity_terms[0]
    assert c32 / c16 == pytest.approx(1.0, rel=0.05)


def test_runtime_scaling_laws():
    t_lin = [runtime_for_adiabaticity("linear", n, 0.1) for n in (32, 64, 128)]
    assert t_lin[1] / t_lin[0] == pytest.approx(4.0, rel=0.05)
    assert t_lin[2] / t_lin[1] == pytest.approx(4.0, rel=0.03)
    t_ad2 = [runtime_for_adiabaticity("gap-adapted-2", n, 0.1) for n in (32, 64, 128)]
    assert t_ad2[1] / t_ad2[0] == pytest.approx(2.0, rel=0.05)
    assert t_ad2[2] / t_ad2[1] == pytest.approx(2.0, rel=0.03)
    t_ad1 = [runtime_for_adiabaticity("gap-adapted-1", n, 0.1) for n in (32, 64, 128)]
    assert 2.0 < t_ad1[1] / t_ad1[0] < 4.0  # n log n sits between
    # halving the target doubles the run time exactly
    assert runtime_for_adiabaticity("linear", 16, 0.05) == pytest.approx(
        2 * runtime_for_adiabaticity("linear", 16, 0.1), rel=1e-12)
    with pytest.raises(ValueError, match="kind"):
        runtime_for_adiabaticity("cubic", 8, 0.1)
    with pytest.raises(ValueError, match="^kind: "):  # not a TypeError from the lookup
        runtime_for_adiabaticity(["linear"], 8, 0.1)


def test_stepwise_weights_sequence():
    h, J = stepwise_weights(6, 1, 0.0)
    np.testing.assert_allclose(h, np.ones(6))
    np.testing.assert_allclose(J, np.zeros(5))
    h, J = stepwise_weights(6, 1, 1.0)
    np.testing.assert_allclose(h, [0, 0, 1, 1, 1, 1])
    np.testing.assert_allclose(J, [1, 0, 0, 0, 0])
    h, J = stepwise_weights(6, 2, 0.5)
    np.testing.assert_allclose(h, [0, 0, 0.5, 1, 1, 1])
    np.testing.assert_allclose(J, [1, 0.5, 0, 0, 0])


def test_stepwise_weights_continuous_across_steps():
    for n in (4, 6, 10):
        for step in range(1, n - 1):
            h1, J1 = stepwise_weights(n, step, 1.0)
            h2, J2 = stepwise_weights(n, step + 1, 0.0)
            np.testing.assert_array_equal(h1, h2)
            np.testing.assert_array_equal(J1, J2)


def test_stepwise_weights_broadcast_match_each_point():
    # one call over every (step, s) of a size holds, bit for bit, the
    # weights of each path point, s = 0 and 1 included, as a point alone
    # and as the StepWisePath that the benchmark's reference script reads
    svals = np.linspace(0.0, 1.0, 50)
    for n in range(2, 13):
        steps = np.arange(1, n)
        h, J = stepwise_weights(n, steps[:, None], svals)
        assert h.shape == (n - 1, 50, n) and J.shape == (n - 1, 50, n - 1)
        for i, step in enumerate(steps.tolist()):
            for j, s in enumerate(svals.tolist()):
                for h1, J1 in (stepwise_weights(n, step, s),
                               stepwise_hamiltonian_weights(StepWisePath(n, step, s))):
                    assert h[i, j].tobytes() == h1.tobytes()
                    assert J[i, j].tobytes() == J1.tobytes()


def test_stepwise_path_validation():
    with pytest.raises(ValueError, match="step"):
        StepWisePath(6, 6, 0.5)
    with pytest.raises(ValueError, match="step"):
        StepWisePath(6, 0, 0.5)
    with pytest.raises(ValueError, match="s must"):
        StepWisePath(6, 1, 1.5)


def _same_weights(got, want):
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _step_and_s(n, total_time, t):
    """(step, s) of time t <= T on the step-wise sweep: the reference for stepwise_path."""
    frac = min(t / total_time, 1.0) * (n - 1)
    step = min(int(frac), n - 2)
    return step + 1, frac - step


def test_stepwise_sweep_time_parameterization():
    # equal time per step, linear in s; the end of a step is the start of
    # the next, and a time past T clamps to T
    weights = stepwise_path(5, 40.0).weights
    for t, (step, s) in ((10.0, (2, 0.0)), (5.0, (1, 0.5)), (40.0, (4, 1.0)),
                         (40.0 * (1 + 1e-13), (4, 1.0))):
        assert _same_weights(weights(t), stepwise_weights(5, step, s)), t
    for bad in (lambda: weights(-1.0), lambda: weights(float("nan")),
                lambda: stepwise_path(1, 40.0)):
        with pytest.raises(ValueError):
            bad()
    # a bad total_time is test_total_time_must_be_positive_and_finite's case
    # random times against the reference map, bit for bit
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        for T in (1.0, 37.3):
            weights = stepwise_path(n, T).weights
            for t in rng.uniform(0.0, T, 40).tolist() + [T]:
                want = stepwise_weights(n, *_step_and_s(n, T, t))
                assert _same_weights(weights(t), want), (n, T, t)

