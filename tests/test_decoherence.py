import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from isingsweep import decoherence
from isingsweep.chain import ChainSpec, CouplingConstant, channel_momenta, mode_epsilon
from isingsweep.decoherence import (
    BathSpectrum,
    amplitude_bound,
    amplitude_numeric,
    amplitude_saddle_point,
    accumulated_phase,
    saddle_points,
    scaling_fit,
    total_excitation_probability,
)
from isingsweep.quadrature import QuadratureError, oscillatory_integral
from isingsweep.schedules import _POWERS, Schedule, runtime_for_adiabaticity


@pytest.fixture(scope="module")
def chain8():
    return ChainSpec(8)


def test_linearity_in_coupling(chain8):
    sched = Schedule("linear", 60.0)
    a1 = amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 1e-3)
    a2 = amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 2e-3)
    assert a2 == 2 * a1  # exactly linear
    assert amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 0.0) == 0


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), True, False,
                                 "1e-3", -1e-3])
def test_amplitudes_reject_bad_coupling(chain8, lam):
    # lam = 0 is a legal coupling (the amplitude is 0); anything but a finite
    # number >= 0 is named by every amplitude entry point
    sched = Schedule("linear", 60.0)
    calls = (lambda: amplitude_numeric(chain8, sched, np.pi / 8, 0.8, lam),
             lambda: amplitude_saddle_point(chain8, sched, np.pi / 8, 4.0, lam),
             lambda: amplitude_bound(chain8, sched, np.pi / 8, lam))
    for call in calls:
        with pytest.raises(ValueError, match=r"^lam: must be a finite number >= 0.0, got "):
            call()


class FrozenSchedule(Schedule):
    """g pinned at a constant: a sweep that never moves."""

    kind = "frozen"
    velocity_terms = (0.0, 0.0, 1.0, 0)  # dg/dt = 0

    def __init__(self, g0, total_time):
        self.g0 = g0
        self.total_time = total_time

    def g_of_t(self, t):
        return self.g0 * np.ones_like(np.asarray(t, float)) if np.ndim(t) else self.g0


def test_zero_velocity_schedule_fails_quadrature(chain8):
    # dg/dt = 0 puts every node of the integral in the sweep variable at
    # infinity; the quadrature gives up instead of returning a number
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(QuadratureError):
        amplitude_numeric(chain8, FrozenSchedule(0.4, 25.0), np.pi / 8, 0.8, 1e-3)


def test_array_amplitudes_match_scalar_calls(chain8, monkeypatch):
    # 4 channels x 3 frequencies, including the sub-gap omega = 0.3 of
    # k = pi/8: one batch of the 4 channel norms, one of the 12 amplitudes,
    # every value that of its scalar call
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    ks = channel_momenta(chain8)
    omegas = np.array([0.3, 0.8, 1.5])
    scalar = [[amplitude_numeric(chain8, sched, k, w, 1e-3) for w in omegas] for k in ks]
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    grid = amplitude_numeric(chain8, sched, ks[:, None], omegas, 1e-3)
    assert calls == [4, 12]
    assert grid.shape == (4, 3) and grid.dtype == complex
    assert all(isinstance(a, complex) for row in scalar for a in row)
    assert np.all(np.abs(grid - scalar) <= 1e-12 * np.abs(scalar))


def test_pass_integrates_each_distinct_term_once(chain8, monkeypatch):
    # [t1, t2, t1] is one batch of 2 rows in first-occurrence order, and a value per term;
    # passes records the batch as its next pass, with its distinct integrals
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    k1, k2 = channel_momenta(chain8)[:2].tolist()
    t1 = (sched, k1, 0.8, decoherence.PHASE, 0.7)
    t2 = (sched, k2, 0.0, decoherence.NORM, 1.0)
    (v1,), (v2,) = (decoherence._pass([t])[0] for t in (t1, t2))
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append((list(args[1]), kwargs["rtol"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    passes = {"pass_1": {}}
    values, norms = decoherence._pass([t1, t2, t1], passes=passes)
    assert calls == [([0.0, 0.5], (1e-13, 1e-11))]  # the whole-sweep norm is folded
    assert values.tolist() == [v1, v2, v1]
    assert norms == {(sched, k2, 1.0): v2.real}
    assert list(passes) == ["pass_1", "pass_2"] and passes["pass_2"]["integrals"] == 2
    assert passes["pass_2"]["quadrature_panels"] > 0


def test_pass_keys_norms_by_schedule_channel_and_upper_limit(chain8):
    # each distinct NORM term once, keyed (schedule, ka, g_upper) in first-occurrence
    # order; a partial sweep's norm is below the whole one's
    sched, longer = Schedule("linear", 30.0), Schedule("linear", 60.0)
    k1, k2 = channel_momenta(chain8)[:2].tolist()
    keys = [(sched, k1, 1.0), (sched, k1, 0.9), (longer, k1, 1.0), (sched, k2, 0.9)]
    terms = [(sc, k, 0.0, decoherence.NORM, g) for sc, k, g in keys]
    phase = (sched, k2, 0.8, decoherence.PHASE, 0.7)
    values, norms = decoherence._pass(terms + [phase] + terms[::-1])
    assert list(norms) == keys
    assert [norms[key] for key in keys] == values[:4].real.tolist() == values[:4:-1].real.tolist()
    assert norms[sched, k1, 1.0] == amplitude_bound(chain8, sched, k1, 1.0)
    assert norms[sched, k1, 0.9] < norms[sched, k1, 1.0]
    assert norms[longer, k1, 1.0] == pytest.approx(2.0 * norms[sched, k1, 1.0], rel=1e-12)


def test_pass_raises_its_first_failure_after_recording(chain8, monkeypatch):
    sched = Schedule("linear", 30.0)
    ks = channel_momenta(chain8).tolist()
    inner = decoherence.oscillatory_batch

    def two_fail(*args, **kwargs):
        outcomes = inner(*args, **kwargs)
        outcomes[1], outcomes[3] = QuadratureError("first"), QuadratureError("second")
        return outcomes

    monkeypatch.setattr(decoherence, "oscillatory_batch", two_fail)
    passes = {}
    with pytest.raises(QuadratureError, match="first"):
        decoherence._pass([(sched, k, 0.0, decoherence.NORM, 1.0) for k in ks], passes=passes)
    assert passes["pass_1"]["integrals"] == len(ks)


def test_amplitude_requires_positive_grid_momentum(chain8):
    sched = Schedule("linear", 10.0)
    with pytest.raises(ValueError, match="positive"):
        amplitude_numeric(chain8, sched, -np.pi / 8, 0.5, 1e-3)
    with pytest.raises(ValueError, match="grid"):
        amplitude_numeric(chain8, sched, 0.2, 0.5, 1e-3)


def test_bound_dominates_numeric_random_tuples(chain8):
    rng = np.random.default_rng(11)
    kpos = channel_momenta(chain8)
    for _ in range(40):
        k = float(rng.choice(kpos))
        omega = float(rng.uniform(-0.5, 3.0))
        T = float(rng.uniform(5.0, 150.0))
        sched = Schedule("linear", T)
        a = abs(amplitude_numeric(chain8, sched, k, omega, 1e-3))
        b = amplitude_bound(chain8, sched, k, 1e-3)
        assert a <= b * (1 + 1e-9)


def test_saddle_points_exact_root_vs_small_frequency_expansion(chain8):
    # lowest mode of n = 64: ka small, expansion error is O(omega^2)
    spec = ChainSpec(64)
    k = np.pi / 64
    omega = 0.5
    g_lo, g_hi = saddle_points(spec, k, omega)
    approx = np.sqrt(omega**2 - 4 * k**2) / 8
    assert g_hi - 0.5 == pytest.approx(approx, abs=1e-3)
    assert 0.5 - g_lo == pytest.approx(approx, abs=1e-3)
    assert 2 * mode_epsilon(k, g_hi) == pytest.approx(omega, abs=1e-12)


# every channel of n = 8 and 64, and the n = 1024 channel where, one
# float above the minimum gap, g_- rounds to just above 1/2 unless clipped
@pytest.mark.parametrize("n,k", [(n, float(k)) for n in (8, 64)
                                 for k in channel_momenta(ChainSpec(n))]
                         + [(1024, 569 * np.pi / 1024)])
def test_saddle_points_solve_energy_conservation(n, k):
    low = 4.0 * np.sin(k / 2.0)
    for omega in (np.nextafter(low, 5.0), low + 1e-6, 0.5 * (low + 4.0), 4.0 - 1e-9, 4.0):
        g_lo, g_hi = saddle_points(ChainSpec(n), k, omega)
        assert 0.0 <= g_lo <= 0.5 <= g_hi <= 1.0, omega
        for g in (g_lo, g_hi):
            assert abs(2.0 * mode_epsilon(k, g) - omega) <= 1e-13, (omega, g)
    assert (g_lo, g_hi) == (0.0, 1.0)  # omega = 4 is the gap at the sweep ends only


def test_saddle_point_requires_supercritical_frequency(chain8):
    sched = Schedule("linear", 50.0)
    with pytest.raises(ValueError, match=r"needs omega > 2\|ka\| = .*; "
                                         r"use amplitude_numeric or amplitude_bound$"):
        amplitude_saddle_point(chain8, sched, np.pi / 8, 0.5, 1e-3)  # < 2|ka|
    with pytest.raises(ValueError, match="gap"):
        saddle_points(chain8, np.pi / 8, 5.0)


def test_saddle_boundary_flagged_invalid(chain8):
    sched = Schedule("linear", 50.0)
    sp = amplitude_saddle_point(chain8, sched, np.pi / 8, 4.0, 1e-3)
    assert not sp.valid
    assert sp.g_minus == 0.0 and sp.g_plus == 1.0


def test_saddle_matches_numeric_when_valid():
    spec = ChainSpec(32)
    T = 900.0
    sched = Schedule("linear", T)
    k = np.pi / 32
    for omega in (0.6, 1.0, 1.5):
        sp = amplitude_saddle_point(spec, sched, k, omega, 1e-3)
        assert sp.valid
        a = amplitude_numeric(spec, sched, k, omega, 1e-3)
        assert 0.8 <= abs(sp.value) / abs(a) <= 1.25


def test_saddle_self_consistency_over_sizes():
    # fixed ka*n and omega across an n-sweep: the stationary-phase value
    # tracks the numeric integral within 20% wherever it declares itself
    # valid (interference sampled at the nominal run time)
    omega, lam = 1.3, 1e-3
    checked = 0
    for n in (8, 16, 32, 64, 128):
        spec = ChainSpec(n)
        k = np.pi / n
        T = 0.4 * n**2
        sched = Schedule("linear", T)
        sp = amplitude_saddle_point(spec, sched, k, omega, lam)
        if not sp.valid:
            continue
        a = abs(amplitude_numeric(spec, sched, k, omega, lam))
        assert abs(sp.value) == pytest.approx(a, rel=0.2)
        checked += 1
    assert checked >= 4


def test_channel_between_minimum_gap_and_2k(chain8):
    # omega = 2.3 lies between the minimum gap 4 sin(3pi/16) = 2.2223 of
    # k = 3pi/8 and 2k = 2.356: the channel resonates at two real saddles,
    # so it is not sub-gap, and the saddle formula (omega > 2|ka|) is out
    # of its domain too
    k, sched = 3 * np.pi / 8, Schedule("linear", 100.0)
    g_lo, g_hi = saddle_points(chain8, k, 2.3)
    assert 0.0 < g_lo < 0.5 < g_hi < 1.0
    assert abs(amplitude_numeric(chain8, sched, k, 2.3, 1e-3)) > 1e-2
    with pytest.raises(ValueError, match="saddle-point approximation needs"):
        amplitude_saddle_point(chain8, sched, k, 2.3, 1e-3)


def test_negative_frequency_strongly_suppressed(chain8):
    sched = Schedule("linear", 120.0)
    k = np.pi / 8
    a_neg = abs(amplitude_numeric(chain8, sched, k, -0.3, 1e-3))
    bound = amplitude_bound(chain8, sched, k, 1e-3)
    assert a_neg * 10 <= bound


def test_accumulated_phase_consistency(chain8):
    # d(phase)/dg integrates the closed form: cross-check against a
    # two-piece split of the interval
    sched = Schedule("linear", 37.0)
    k, omega = np.pi / 8, 0.9
    full = accumulated_phase(chain8, sched, k, omega, 1.0)
    split = (accumulated_phase(chain8, sched, k, omega, 0.4)
             + (accumulated_phase(chain8, sched, k, omega, 1.0)
                - accumulated_phase(chain8, sched, k, omega, 0.4)))
    assert full == pytest.approx(split, abs=1e-9)
    # linear schedule: phase at g=1 equals T*(-omega + 2*int eps dg)
    val = quad(lambda g: 2 * mode_epsilon(k, g), 0, 1, limit=200)[0]
    assert full == pytest.approx(37.0 * (-omega + val), rel=1e-9)
    # g outside the sweep is rejected by name, not integrated past its end
    # or passed on as an empty interval
    for g in (1.5, -0.2):
        with pytest.raises(ValueError, match=r"g must be in \[0, 1\]"):
            accumulated_phase(chain8, Schedule("linear", 20.0), k, 1.0, g)


def test_bath_spectrum_families():
    lam = CouplingConstant(0.01)
    mono = BathSpectrum("monochromatic", {"omega0": 0.7}, lam)
    nodes, weights = mono.quadrature()
    assert nodes.tolist() == [0.7] and weights.tolist() == [1.0]
    # a hot bath warns at the caller of each constructor
    for make in (lambda: BathSpectrum("monochromatic", {"omega0": 2.5}, lam),
                 lambda: BathSpectrum("ohmic", {"omega_c": 0.5, "support_max": 2.5}, lam),
                 lambda: BathSpectrum("flat", {"omega_min": 0.2, "omega_max": 2.5}, lam)):
        with pytest.warns(UserWarning, match="cold") as seen:
            make()
        assert [w.filename for w in seen] == [__file__]
    ohmic = BathSpectrum("ohmic", {"omega_c": 0.3, "support_max": 1.9}, lam)
    nodes, weights = ohmic.quadrature()
    assert abs(np.sum(weights) - 1.0) < 1e-8  # unit normalization
    assert np.all(ohmic.density(nodes) >= 0)
    flat = BathSpectrum("flat", {"omega_min": 0.2, "omega_max": 0.8}, lam)
    assert flat.density(0.5) == pytest.approx(1.0 / 0.6)
    assert flat.density(1.0) == 0.0
    # the 33-node Gauss-Legendre rule is exact through degree 65
    nodes, weights = flat.quadrature()
    exact = (0.8 ** 66 - 0.2 ** 66) / 66 / 0.6
    assert np.sum(weights * nodes ** 65) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError, match="omega_max"):
        BathSpectrum("flat", {"omega_min": 0.8, "omega_max": 0.2}, lam)
    with pytest.raises(ValueError, match="^kind: must be one of "):
        BathSpectrum("lorentzian", {"omega0": 0.5}, lam)


def test_total_probability_quadratic_in_coupling():
    spec = ChainSpec(8)
    sched = Schedule("linear", 30.0)
    r1 = total_excitation_probability(
        spec, sched, BathSpectrum("monochromatic", {"omega0": 0.8}, CouplingConstant(1e-3)))
    r2 = total_excitation_probability(
        spec, sched, BathSpectrum("monochromatic", {"omega0": 0.8}, CouplingConstant(2e-3)))
    assert r2.p_total == pytest.approx(4 * r1.p_total, rel=1e-12)


def test_total_probability_subgap_bath_negligible():
    # below every channel gap only the off-resonant dressing term
    # survives (no energy-conserving transitions): tiny in absolute
    # terms and far below a resonant bath at the same coupling
    spec = ChainSpec(8)
    sched = Schedule("linear", 250.0)  # adiabatic
    sub = total_excitation_probability(
        spec, sched, BathSpectrum("monochromatic", {"omega0": 0.05}, CouplingConstant(1e-3)))
    res = total_excitation_probability(
        spec, sched, BathSpectrum("monochromatic", {"omega0": 0.9}, CouplingConstant(1e-3)))
    assert sub.p_total < 1e-6
    assert sub.p_total * 100 < res.p_total


def test_total_probability_breakdown_reported():
    spec = ChainSpec(16)
    T = 600.0
    sched = Schedule("linear", T)
    with pytest.warns(UserWarning, match="large"):
        coupling = CouplingConstant(0.9)
    bath = BathSpectrum("monochromatic", {"omega0": 0.9}, coupling)
    res = total_excitation_probability(spec, sched, bath)
    assert res.p_total > 1.0
    assert any("broken down" in w for w in res.warnings)


def test_total_probability_raises_a_failed_amplitude(monkeypatch):
    # one (k, omega) term fails its integral: the bath sum raises that failure,
    # as every other entry point does, and substitutes nothing for it
    spec = ChainSpec(8)
    sched = Schedule("linear", 30.0)
    bath = BathSpectrum("ohmic", {"omega_c": 0.5, "support_max": 1.9}, CouplingConstant(0.01))
    inner = decoherence.oscillatory_batch

    def one_fails(*args, **kwargs):
        outcomes = inner(*args, **kwargs)
        if len(outcomes) > spec.n:  # the amplitudes, not the channel norms and crossing phases
            outcomes[5] = QuadratureError("forced")
        return outcomes

    monkeypatch.setattr(decoherence, "oscillatory_batch", one_fails)
    with pytest.raises(QuadratureError, match="^forced$"):
        total_excitation_probability(spec, sched, bath)


def test_total_probability_skips_zero_weight_nodes():
    # an ohmic density that underflows on every node leaves no term to integrate
    spec = ChainSpec(8)
    bath = BathSpectrum("ohmic", {"omega_c": 1e-6, "support_max": 1.9}, CouplingConstant(0.01))
    assert not bath.quadrature()[1].any()
    res = total_excitation_probability(spec, Schedule("linear", 30.0), bath)
    assert res.p_total == 0.0 and res.counts["quadrature_panels"] == 0


def test_scaling_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = scaling_fit(x, 3.7 / x)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-3)
    assert fit.stderr < 1e-3
    with pytest.raises(ValueError, match="4 data"):
        scaling_fit([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError, match="positive"):
        scaling_fit([1, 2, 3, 4], [1, -2, 3, 4])
    # data that would give a NaN exponent (with a RuntimeWarning for inf or
    # equal x) or numpy's matmul message is named instead
    nan, inf = float("nan"), float("inf")
    bad = [([1, 2, 3, 4], [1, nan, 3, 4], r"^y: must be finite"),
           ([1, 2, 3, 4], [1, inf, 3, 4], r"^y: must be finite"),
           ([1, 2, inf, 4], [1, 2, 3, 4], r"^x: must be finite"),
           ([1, 2, 3, 4], [1, 2, 3], r"^y: 3 values for 4 values of x"),
           ([2, 2, 2, 2], [1, 2, 3, 4], r"^x: needs two distinct values")]
    for bx, by, message in bad:
        with pytest.raises(ValueError, match=message):
            scaling_fit(bx, by)


def test_scaling_fit_matches_polyfit_and_exact_fit():
    x = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    y = 0.3 * x**1.7 * np.exp(np.random.default_rng(3).normal(scale=0.05, size=x.size))
    fit = scaling_fit(x, y)
    coeffs, cov = np.polyfit(np.log(x), np.log(y), 1, cov=True)
    assert fit.exponent == pytest.approx(coeffs[0], rel=1e-12)
    assert fit.stderr == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)
    # the same fit of the same logs in exact rational arithmetic
    lx, ly = ([Fraction(v) for v in np.log(d).tolist()] for d in (x, y))
    dx = [v - sum(lx) / x.size for v in lx]
    dy = [v - sum(ly) / x.size for v in ly]
    sxx = sum(a * a for a in dx)
    slope = sum(a * b for a, b in zip(dx, dy)) / sxx
    ssr = sum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    assert fit.exponent == pytest.approx(float(slope), rel=1e-14)
    assert fit.stderr == pytest.approx(math.sqrt(ssr / (x.size - 2) / sxx), rel=1e-13)


@pytest.mark.parametrize("n", [8, 64])
def test_accumulated_phase_linear_closed_form(n):
    # Linear sweep: Phi(g) = T (-omega g + int_0^g 2 eps dg'), and with
    # x = 1 - 2g, int_0^g 2 eps dg' = 2 (F(1) - F(x)) for the elementary
    # antiderivative F of sqrt(s^2 + c^2 x^2).
    spec = ChainSpec(n)
    T, omega = 53.0 * n, 0.9
    sched = Schedule("linear", T)
    for k in (np.pi / n, 5 * np.pi / n):
        s, c = np.sin(k / 2), np.cos(k / 2)

        def F(x):
            return 0.5 * (x * np.sqrt(s * s + c * c * x * x) + s * s / c * np.arcsinh(c * x / s))

        for g in (0.3, 0.5, 0.7, 1.0):
            exact = T * (-omega * g + 2.0 * (F(1.0) - F(1.0 - 2.0 * g)))
            assert accumulated_phase(spec, sched, k, omega, g) == pytest.approx(exact, rel=1e-12)


def test_bound_norm_is_the_numeric_reference(chain8, monkeypatch):
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    k, lam, rtol = 3 * np.pi / 8, 1e-3, 1e-6
    budgets = []
    inner = decoherence.oscillatory_batch

    def spy(*args, **kwargs):
        budgets.append((kwargs["rtol"], kwargs["atol"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", spy)
    amplitude_numeric(chain8, sched, k, 0.7, lam, rtol=rtol)
    norm = amplitude_bound(chain8, sched, k, lam) / lam
    # the channel norm, the amplitude, then the norm of amplitude_bound
    assert [b[0] for b in budgets] == [(1e-11,), (rtol,), (1e-11,)]
    (atol,) = budgets[1][1]
    assert atol == pytest.approx(1e-13 * norm, rel=1e-15)
    assert norm == pytest.approx(quad(
        lambda g: 4 * g * np.sin(k) / mode_epsilon(k, g) / sched.velocity_of_g(g),
        0.0, 1.0, points=[0.5], epsrel=1e-13, limit=400)[0], rel=1e-11)


def test_bound_grows_as_run_time():
    # dg/dt is proportional to 1/T for every kind, so the channel norm is
    # proportional to T; the scaling table rescales its longer sweeps' norms by it
    for kind in _POWERS:
        for n in (8, 64, 128):
            spec = ChainSpec(n)
            T = runtime_for_adiabaticity(kind, n, 0.25)
            for k in (np.pi / n, (n - 1) * np.pi / n):
                base = amplitude_bound(spec, Schedule(kind, T, spec), k, 1.0)
                for kappa in (1.5, 3.0, 1.0 + np.pi / 37.3):
                    longer = amplitude_bound(spec, Schedule(kind, kappa * T, spec), k, 1.0)
                    assert longer == pytest.approx(kappa * base, rel=1e-14, abs=0.0), \
                        (kind, n, k, kappa)


@pytest.mark.parametrize("omega", [0.3, 0.8, 1.5])
def test_amplitude_numeric_is_one_integral(chain8, monkeypatch, omega):
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append((list(args[1]), list(args[2]), kwargs["rtol"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    amplitude_numeric(chain8, sched, np.pi / 8, omega, 1e-3)
    amplitude_numeric(chain8, sched, np.pi / 8, omega, 1e-3, g_upper=0.9)
    # per call its channel norm (rtol 1e-11), then its one amplitude (rtol 1e-6).  Over
    # the whole sweep both are folded onto w in [1/2, 1], and the amplitude takes its
    # crossing phase from its own integral; a partial sweep runs from w = 0 up to the
    # channel variable w of g_upper
    w = float(decoherence._channel_variable(np.pi / 8, 0.9))
    assert 0.9 < w < 1.0
    assert calls == [([0.5], [1.0], (1e-11,)), ([0.5], [1.0], (1e-6,)),
                     ([0.0], [w], (1e-11,)), ([0.0], [w], (1e-6,))]


@pytest.mark.parametrize("n", [8, 64, 256])
def test_linear_channel_norm_closed_form(n):
    # T int_0^g_u 4 g sin(ka) / eps_k dg with x = 1 - 2g and c^2 (1 - x^2) = 4 c^2 g (1 - g)
    # cancellation free: T s (asinh(c/s) - asinh(c x_u/s) - 4 c g_u (1 - g_u) / (1 + eps_k/2)),
    # which is 2 T sin(ka/2) asinh(cot(ka/2)) over the whole sweep; the partial sweeps
    # also check the channel variable of the upper limit
    spec, T = ChainSpec(n), 7.3 * n
    sched = Schedule("linear", T)
    ks = channel_momenta(spec)
    s, c = np.sin(ks / 2.0), np.cos(ks / 2.0)
    full = 2.0 * T * s * np.arcsinh(1.0 / np.tan(ks / 2.0))
    bounds = np.array([amplitude_bound(spec, sched, k, 1.0) for k in ks.tolist()])
    assert np.abs(bounds / full - 1.0).max() <= 1e-13
    for g_u in (1.0, 0.9, 0.3):
        _, norms = decoherence._pass([(sched, k, 0.0, decoherence.NORM, g_u) for k in ks.tolist()])
        x = 1.0 - 2.0 * g_u
        closed = T * s * (np.arcsinh(c / s) - np.arcsinh(c * x / s)
                          - 4.0 * c * g_u * (1.0 - g_u) / (1.0 + np.sqrt(s * s + (c * x) ** 2)))
        got = np.array([norms[sched, k, g_u] for k in ks.tolist()])
        assert np.abs(got / closed - 1.0).max() <= 1e-13, g_u


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_channel_variable_round_trip(n):
    # at the lowest and highest channels: g(w(g)) = g to 1e-15, and relatively for a
    # small g; w(g) exact at g = 0, 1/2 and 1, g(w) at w = 0 and 1; w(g(w)) = w to 1e-15
    # up to the conditioning of g as a double: 4 ulps of g at the crossing move w by
    # 4.4e-16 dw/dg = 4.4e-16 c / (s E) (1.2e-14 at the lowest channel of n = 256)
    w = g = np.linspace(0.0, 1.0, 10001)
    tiny = np.array([1e-300, 1e-17, 1e-12, 1e-9])
    ends = [0.0, 0.5, 1.0]
    for ka in (np.pi / n, (n - 1) * np.pi / n):
        s, c, e = decoherence._channel_constants(ka)
        assert decoherence._channel_variable(ka, ends).tolist() == ends
        back, _ = decoherence._sweep_value(e, decoherence._channel_variable(ka, g))
        assert np.abs(back - g).max() <= 1e-15
        back, _ = decoherence._sweep_value(e, decoherence._channel_variable(ka, tiny))
        assert np.abs(back / tiny - 1.0).max() <= 1e-15
        g_w, _ = decoherence._sweep_value(e, w)
        assert (g_w[0], g_w[-1]) == (0.0, 1.0)
        assert np.abs(decoherence._channel_variable(ka, g_w) - w).max() <= max(
            1e-15, 4.4e-16 * c / (s * e))


@pytest.mark.parametrize("g_upper", [1e-9, 1e-12, 1e-17])
def test_amplitude_over_a_short_partial_sweep(chain8, g_upper):
    # over g <= g_upper, M_k = 2 g sin(ka) (1 + O(g)) and the phase is O(T g), so
    # A = -i lam T sin(ka) g_upper^2 to about 1e-7: the channel variable of a small
    # upper limit, and the sweep value near w = 0, keep their relative accuracy
    sched, k, lam = Schedule("linear", 10.0), 3 * np.pi / 8, 1e-3
    value = amplitude_numeric(chain8, sched, k, 0.8, lam, g_upper=g_upper)
    assert value == pytest.approx(-1j * lam * 10.0 * np.sin(k) * g_upper**2, rel=1e-6)
    # omega one ulp below 4 puts g_- within 1e-15 of the sweep start
    sp = amplitude_saddle_point(chain8, sched, k, np.nextafter(4.0, 0.0), lam)
    assert 0.0 < sp.g_minus < 1e-14 and np.isfinite(sp.value)


def test_subgap_amplitude_meets_relative_budget(chain8):
    # omega = 0.3 lies below the channel's minimum gap 4 sin(k/2) = 0.78,
    # where the integral cancels to about 2e-3 of the phase-free bound
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    k, omega, rtol = np.pi / 8, 0.3, 1e-6
    integrand = decoherence._integrand([(sched, k, omega, decoherence.AMPLITUDE, 1.0)])
    pair = lambda g: integrand(g, np.zeros(len(g), dtype=int))
    res = oscillatory_integral(pair, 0.0, 1.0, rtol=rtol)
    tight = oscillatory_integral(pair, 0.0, 1.0, rtol=1e-12).value
    assert abs(tight) < 3e-3 * amplitude_bound(chain8, sched, k, 1.0)
    assert res.error <= rtol * abs(res.value)
    assert abs(res.value - tight) <= rtol * abs(tight)
    value = amplitude_numeric(chain8, sched, k, omega, 1.0, rtol=rtol)
    assert abs(value + 1j * tight) <= rtol * abs(tight)


def test_channel_norm_computed_once_per_channel(monkeypatch):
    spec = ChainSpec(8)
    sched = Schedule("linear", 30.0)
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append(kwargs["rtol"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    bath = BathSpectrum("ohmic", {"omega_c": 0.5, "support_max": 1.9}, CouplingConstant(0.01))
    res = total_excitation_probability(spec, sched, bath)
    assert res.counts["integrals"] == 33 * spec.n // 2
    # one batch of the n/2 channel norms (rtol 1e-11), one of the amplitudes (rtol 1e-5),
    # each taking its crossing phase from its own folded integral
    assert calls == [(1e-11,) * (spec.n // 2), (1e-5,) * (33 * spec.n // 2)]


@pytest.mark.parametrize("x", [0.5, 3.8, 8.0, 40.0])
def test_ohmic_normalization_closed_form(x):
    omega_c = 0.04
    bath = BathSpectrum("ohmic", {"omega_c": omega_c, "support_max": x * omega_c},
                        CouplingConstant(0.01))
    z = quad(lambda w: w * np.exp(-w / omega_c), 0.0, x * omega_c, epsabs=0.0, epsrel=1e-13,
             limit=200)[0]
    assert 1.0 / bath.normalization == pytest.approx(z, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind, n, j, omega", [("gap-adapted-2", 2048, 5, 3.5),
                                               ("gap-adapted-1", 2048, 23, 1.3),
                                               ("gap-adapted-2", 1024, 103, 2.5)])
def test_gap_adapted_phase_converges_at_large_n(kind, n, j, omega):
    # the velocity takes x = 1 - 2g, which the channel variable gives without
    # cancellation: formed from g, it carried noise at the crossing's s^-p peak
    # of 1/v that the phase budget (rtol 1e-13) could not meet at n >= 1024
    spec = ChainSpec(n)
    sched = Schedule(kind, runtime_for_adiabaticity(kind, n, 0.25), spec)
    k = j * np.pi / n
    g_plus = saddle_points(spec, k, omega)[1]
    ref = sum(quad(lambda g: (2 * mode_epsilon(k, g) - omega) / sched.velocity_of_g(g), a, b,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in ((0.0, 0.5), (0.5, g_plus)))
    assert accumulated_phase(spec, sched, k, omega, g_plus) == pytest.approx(ref, rel=1e-12, abs=0)


def _t_grid_amplitude(sched, ka, omega, lam, points=2**20):
    """-i lam int_0^T M_k e^{i phi} dt, phi(t) = int_0^t (2 eps_k - omega) dt', on one
    uniform grid in t through ``g_of_t``, independent of the quadrature.

    The phase is a cumulative trapezoid, and the trapezoid sums on every
    first, second and fourth point are combined by Romberg, error O(h^6).
    With 2^19 or 2^21 points in place of 2^20 the results below move by
    at most 1e-10 (n = 1024) and 3.1e-8 (n = 2048) relative.
    """
    t = np.linspace(0.0, sched.total_time, points + 1)
    s, c = np.sin(0.5 * ka), np.cos(0.5 * ka)
    g = sched.g_of_t(t)
    eps = 2.0 * np.sqrt(s * s + (c * (1.0 - 2.0 * g)) ** 2)
    rate, amp = 2.0 * eps - omega, 4.0 * g * np.sin(ka) / eps  # M_k = i amp
    sums = []
    for stride in (4, 2, 1):
        h = t[stride]
        r, a = rate[::stride], amp[::stride]
        y = a * np.exp(1j * np.concatenate(([0.0], np.cumsum(0.5 * h * (r[1:] + r[:-1])))))
        sums.append(h * (y.sum() - 0.5 * (y[0] + y[-1])))
    once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(sums, sums[1:])]
    return lam * (16.0 * once[1] - once[0]) / 15.0


@pytest.mark.parametrize("n, j, omega, lam, rtol, budget", [
    (1024, 40, 2.5, 1.0, 1e-10, 1e-7),   # k = 81 pi/1024: |A| = 0.952894
    (2048, 2, 3.5, 1e-3, 1e-6, 1e-6),    # rows k#2 and k#3 of the n = 2048 amplitude table
    (2048, 3, 3.5, 1e-3, 1e-6, 1e-6)])
def test_gap_adapted_amplitude_above_the_lowest_channel(n, j, omega, lam, rtol, budget):
    # above k#0 the gap-adapted 1/v peak of width s_0 at the crossing is narrow in the
    # channel variable; a Levin panel that misses it in its phase increment shifts every
    # panel right of it, and only the phase check sees it: without the check these read
    # |A| = 0.4897 and 8e-5 off
    spec = ChainSpec(n)
    sched = Schedule("gap-adapted-2", runtime_for_adiabaticity("gap-adapted-2", n, 0.25), spec)
    k = (2 * j + 1) * np.pi / n
    ref = _t_grid_amplitude(sched, k, omega, lam)
    got = amplitude_numeric(spec, sched, k, omega, lam, rtol=rtol)
    assert abs(got - ref) <= budget * abs(ref)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), -float("inf"), True, "0.8"])
def test_amplitudes_reject_bad_frequency(chain8, omega):
    # every frequency is judged by name before any quadrature: NaN or inf would
    # bisect to the panel cap, and True would be integrated as omega = 1
    sched = Schedule("linear", 60.0)
    calls = (lambda: amplitude_numeric(chain8, sched, np.pi / 8, omega, 1e-3),
             lambda: amplitude_numeric(chain8, sched, np.pi / 8, [0.8, omega], 1e-3),
             lambda: amplitude_saddle_point(chain8, sched, np.pi / 8, omega, 1e-3),
             lambda: accumulated_phase(chain8, sched, np.pi / 8, omega, 0.7),
             lambda: saddle_points(chain8, np.pi / 8, omega))
    for call in calls:
        with pytest.raises(ValueError, match=r"^omega: must be a finite number > -inf, got "):
            call()


@pytest.mark.parametrize("g", [float("nan"), float("inf"), -float("inf"), True, "0.9"])
def test_sweep_ends_reject_non_numbers(chain8, g):
    # True would integrate the whole sweep (or give the phase at g = 1) and a
    # string would raise a TypeError; both are named like NaN and inf
    sched = Schedule("linear", 60.0)
    with pytest.raises(ValueError, match=r"^g_upper: must be a finite number > -inf, got "):
        amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 1e-3, g_upper=g)
    with pytest.raises(ValueError, match=r"^g: must be a finite number > -inf, got "):
        accumulated_phase(chain8, sched, np.pi / 8, 0.8, g)


@pytest.mark.parametrize("kind", list(_POWERS))
@pytest.mark.parametrize("n", [8, 64, 2048])
def test_folded_sweep_matches_unfolded_integral(kind, n):
    # A full sweep is integrated over w in [1/2, 1] only, with the mirrored term and the
    # crossing phase; against the unfolded integrand over [0, 1] at rtol 1e-11 (with the
    # amplitudes' floor), for omega below, inside and above the channel band
    spec = ChainSpec(n)
    sched, k = Schedule(kind, 20.0, spec), np.pi / n
    norm_term = (sched, k, 0.0, decoherence.NORM, 1.0)
    solo = lambda term: lambda w: decoherence._integrand([term])(w, np.zeros(len(w), dtype=int))
    norm = oscillatory_integral(solo(norm_term), 0.0, 1.0, rtol=1e-11).value.real
    assert abs(amplitude_bound(spec, sched, k, 1.0) - norm) <= 1e-12 * norm
    for omega in (-0.5, 1.3, 4.5):
        assert (omega < 4.0 * np.sin(k / 2.0), omega > 4.0) == (omega == -0.5, omega == 4.5)
        term = (sched, k, omega, decoherence.AMPLITUDE, 1.0)
        ref = -1j * oscillatory_integral(solo(term), 0.0, 1.0, rtol=1e-11, atol=1e-13 * norm).value
        got = amplitude_numeric(spec, sched, k, omega, 1.0, rtol=1e-11)
        assert abs(got - ref) <= 1e-10 * abs(ref), omega


@pytest.mark.parametrize("kind", list(_POWERS))
@pytest.mark.parametrize("n", [8, 64, 2048])
def test_phase_past_the_crossing_from_its_mirror(kind, n):
    # the saddle formula integrates the phase to g_- and the crossing phase only:
    # Phi(g_+) = 2 Phi(1/2) - Phi(g_-), against the direct integral to g_+
    spec = ChainSpec(n)
    sched, k, omega = Schedule(kind, runtime_for_adiabaticity(kind, n, 0.25), spec), np.pi / n, 1.3
    g_minus, g_plus = saddle_points(spec, k, omega)
    terms, _ = decoherence._saddle(spec, sched, k, omega)
    assert terms == [(sched, k, omega, decoherence.PHASE, g_minus), decoherence._crossing(sched, k)]
    phi_minus, phi_eps = decoherence._pass(terms)[0].real.tolist()
    assert phi_minus == accumulated_phase(spec, sched, k, omega, g_minus)
    mirror = 2.0 * decoherence._crossing_phase(phi_eps, sched, omega) - phi_minus
    direct = accumulated_phase(spec, sched, k, omega, g_plus)
    assert mirror == pytest.approx(direct, rel=1e-12, abs=0.0)
    # and the whole sweep's phase, folded, is twice the crossing phase
    assert accumulated_phase(spec, sched, k, omega, 1.0) == pytest.approx(
        2.0 * decoherence._crossing_phase(phi_eps, sched, omega), rel=1e-12, abs=0.0)
    # a partial-sweep norm and a phase past the crossing, over w in [0, w(0.9)] with the
    # crossing w = 1/2 inside, each start as one panel: every evaluated panel but that
    # one is half of a split one
    partial = [(sched, k, 0.0, decoherence.NORM, 0.9), (sched, k, omega, decoherence.PHASE, 0.9)]
    passes = {}
    decoherence._pass(partial, passes=passes)
    counts = passes["pass_1"]
    assert counts["quadrature_evaluations"] == 33 * (2 * counts["quadrature_panels"] - 2)
