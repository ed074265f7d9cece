import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from isingsweep.chain import ChainSpec, fundamental_gap
from isingsweep.schedules import (
    GapAdaptedSchedule,
    LinearSchedule,
    StepWisePath,
    StepWiseSweep,
    make_schedule,
    runtime_for_adiabaticity,
    schedule_from_dict,
    stepwise_hamiltonian_weights,
)


def test_linear_basics():
    sched = LinearSchedule(100.0)
    assert sched.g_of_t(50.0) == 0.5
    assert sched.g_dot(10.0) == pytest.approx(1 / 100)
    assert LinearSchedule(200.0).g_dot(33.0) == pytest.approx(1 / 200)
    with pytest.raises(ValueError, match="outside"):
        sched.g_of_t(101.0)
    with pytest.raises(ValueError, match="outside"):
        sched.g_of_t(-1.0)


@pytest.mark.parametrize("kind", ["gap-adapted-1", "gap-adapted-2"])
def test_adapted_endpoints_and_monotonicity(kind):
    spec = ChainSpec(8)
    sched = make_schedule(kind, 60.0, spec)
    assert abs(sched.g_of_t(0.0)) <= 1e-9
    assert abs(sched.g_of_t(60.0) - 1.0) <= 1e-9
    t = np.linspace(0.0, 60.0, 10_000)
    g = sched.g_of_t(t)
    assert np.all(np.diff(g) >= -1e-15)


def test_adapted_ode_vs_inverse_quadrature_oracle():
    # independent route: T/2 = (1/c) * int_0^g dg'/DeltaE(g') solved for g
    spec = ChainSpec(8)
    T = 80.0
    sched = GapAdaptedSchedule(spec, T, power=1)

    def time_of(g):
        val = quad(lambda x: fundamental_gap(spec, x) ** -1, 0.0, g,
                   points=[0.5] if g > 0.5 else None, limit=200, epsrel=1e-13)[0]
        return val / sched.rate_constant

    g_oracle = brentq(lambda g: time_of(g) - T / 2, 1e-12, 1.0, xtol=1e-13)
    assert abs(float(sched.g_of_t(T / 2)) - g_oracle) < 1e-8


@pytest.mark.parametrize("n", [8, 32, 64, 128])
@pytest.mark.parametrize("kind", ["gap-adapted-1", "gap-adapted-2"])
def test_closed_form_vs_independent_references(kind, n):
    spec = ChainSpec(n)
    p = int(kind[-1])
    T = runtime_for_adiabaticity(kind, n, 0.25)
    sched = make_schedule(kind, T, spec)
    # norm: adaptive quadrature of DeltaE^-p over the whole sweep
    norm = quad(lambda g: fundamental_gap(spec, g) ** -p, 0.0, 1.0, points=[0.5],
                limit=200, epsabs=0.0, epsrel=1e-13)[0]
    assert sched.rate_constant * T == pytest.approx(norm, rel=1e-12, abs=0.0)
    # g(t): a tight ODE solve of the rate equation, sampled densely enough
    # that an interpolated g(t) would show its error between nodes
    t = np.linspace(0.0, T, 4 * 8192 + 1)
    ode = solve_ivp(lambda _, y: sched.rate_constant * fundamental_gap(spec, y[0]) ** p,
                    (0.0, T), [0.0], method="DOP853", rtol=1e-13, atol=1e-16, t_eval=t)
    assert ode.success
    g = sched.g_of_t(t)
    assert np.max(np.abs(g - ode.y[0])) < 1e-9
    assert np.max(np.abs(sched.time_of_g(g) - t)) < 1e-12 * T


def test_g_dot_matches_finite_difference():
    spec = ChainSpec(8)
    sched = GapAdaptedSchedule(spec, 50.0, power=2)
    t = np.linspace(0.05, 0.95, 41) * 50.0
    h = 50.0 * 1e-6
    fd = (sched.g_of_t(t + h) - sched.g_of_t(t - h)) / (2 * h)
    gd = sched.g_dot(t)
    assert np.max(np.abs(fd - gd) / np.abs(gd)) < 1e-6


def test_adapted_slowest_at_critical_point():
    spec = ChainSpec(8)
    sched = GapAdaptedSchedule(spec, 50.0, power=1)
    g = np.linspace(0.0, 1.0, 201)
    v = sched.velocity_of_g(g)
    assert g[np.argmin(v)] == pytest.approx(0.5, abs=1e-9)
    # speed ratio between critical point and start equals the gap ratio squared for power 2
    s2 = GapAdaptedSchedule(spec, 50.0, power=2)
    ratio = s2.velocity_of_g(0.5) / s2.velocity_of_g(0.0)
    assert ratio == pytest.approx((fundamental_gap(spec, 0.5) / fundamental_gap(spec, 0.0)) ** 2,
                                  rel=1e-12)


def test_rate_constant_stable_under_doubling():
    # doubling n with T proportional to n keeps the normalized rate
    # constant of the quadratic-gap schedule fixed (the velocity at the
    # critical point itself scales with the shrinking gap squared)
    c16 = GapAdaptedSchedule(ChainSpec(16), 16.0, power=2).rate_constant
    c32 = GapAdaptedSchedule(ChainSpec(32), 32.0, power=2).rate_constant
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


def test_stepwise_weights_sequence():
    h, J = stepwise_hamiltonian_weights(StepWisePath(6, 1, 0.0))
    np.testing.assert_allclose(h, np.ones(6))
    np.testing.assert_allclose(J, np.zeros(5))
    h, J = stepwise_hamiltonian_weights(StepWisePath(6, 1, 1.0))
    np.testing.assert_allclose(h, [0, 0, 1, 1, 1, 1])
    np.testing.assert_allclose(J, [1, 0, 0, 0, 0])
    h, J = stepwise_hamiltonian_weights(StepWisePath(6, 2, 0.5))
    np.testing.assert_allclose(h, [0, 0, 0.5, 1, 1, 1])
    np.testing.assert_allclose(J, [1, 0.5, 0, 0, 0])


def test_stepwise_weights_continuous_across_steps():
    for n in (4, 6, 10):
        for step in range(1, n - 1):
            h1, J1 = stepwise_hamiltonian_weights(StepWisePath(n, step, 1.0))
            h2, J2 = stepwise_hamiltonian_weights(StepWisePath(n, step + 1, 0.0))
            np.testing.assert_array_equal(h1, h2)
            np.testing.assert_array_equal(J1, J2)


def test_stepwise_path_validation():
    with pytest.raises(ValueError, match="step"):
        StepWisePath(6, 6, 0.5)
    with pytest.raises(ValueError, match="step"):
        StepWisePath(6, 0, 0.5)
    with pytest.raises(ValueError, match="s must"):
        StepWisePath(6, 1, 1.5)


def test_stepwise_sweep_time_parameterization():
    sweep = StepWiseSweep(5, 40.0)
    assert sweep.n_steps == 4
    p = sweep.path_at(10.0)  # end of step 1
    assert (p.step, p.s) == (2, pytest.approx(0.0))
    p = sweep.path_at(5.0)
    assert (p.step, p.s) == (1, pytest.approx(0.5))
    assert sweep.path_at(40.0).step == 4


def test_schedule_serialization_round_trip():
    spec = ChainSpec(8)
    for sched in (LinearSchedule(30.0, spec), GapAdaptedSchedule(spec, 30.0, 2),
                  StepWiseSweep(6, 12.0)):
        clone = schedule_from_dict(sched.to_dict())
        assert clone.to_dict() == sched.to_dict()
        if not isinstance(sched, StepWiseSweep):
            t = np.linspace(0, 30.0, 7)
            np.testing.assert_array_equal(clone.g_of_t(t), sched.g_of_t(t))
    # older descriptions carry a tabulation "resolution"; it is ignored
    legacy = dict(GapAdaptedSchedule(spec, 30.0, 1).to_dict(), resolution=8193)
    clone = schedule_from_dict(legacy)
    assert clone.to_dict() == {"kind": "gap-adapted-1", "total_time": 30.0, "n": 8, "a": 1.0}
