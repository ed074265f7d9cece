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
from isingsweep.schedules import Schedule


@pytest.fixture(scope="module")
def chain8():
    return ChainSpec(8)


def test_linearity_in_coupling(chain8):
    sched = Schedule("linear", 60.0)
    a1 = amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 1e-3)
    a2 = amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 2e-3)
    assert a2 == 2 * a1  # exactly linear
    assert amplitude_numeric(chain8, sched, np.pi / 8, 0.8, 0.0) == 0


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
    # k = pi/8: one batch of the 4 channel norms, one of the 12
    # amplitudes, every value that of its scalar call
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
    mono = BathSpectrum.monochromatic(0.7, lam)
    nodes, weights = mono.quadrature()
    assert nodes.tolist() == [0.7] and weights.tolist() == [1.0]
    with pytest.warns(UserWarning, match="cold"):
        BathSpectrum.monochromatic(2.5, lam)
    ohmic = BathSpectrum.ohmic(0.3, lam, support_max=1.9)
    nodes, weights = ohmic.quadrature(41)
    assert abs(np.sum(weights) - 1.0) < 1e-8  # unit normalization
    assert np.all(ohmic.density(nodes) >= 0)
    flat = BathSpectrum.flat(0.2, 0.8, lam)
    assert flat.density(0.5) == pytest.approx(1.0 / 0.6)
    assert flat.density(1.0) == 0.0
    # an m-node Gauss-Legendre rule is exact through degree 2m - 1
    for m in (5, 33):
        nodes, weights = flat.quadrature(m)
        exact = (0.8 ** (2 * m) - 0.2 ** (2 * m)) / (2 * m) / 0.6
        assert np.sum(weights * nodes ** (2 * m - 1)) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError, match="omega_max"):
        BathSpectrum.flat(0.8, 0.2, lam)


def test_total_probability_quadratic_in_coupling():
    spec = ChainSpec(8)
    sched = Schedule("linear", 30.0)
    r1 = total_excitation_probability(
        spec, sched, BathSpectrum.monochromatic(0.8, CouplingConstant(1e-3)))
    r2 = total_excitation_probability(
        spec, sched, BathSpectrum.monochromatic(0.8, CouplingConstant(2e-3)))
    assert r2.p_total == pytest.approx(4 * r1.p_total, rel=1e-12)
    assert set(r1.methods[next(iter(r1.methods))]) == {"numeric"}


def test_total_probability_subgap_bath_negligible():
    # below every channel gap only the off-resonant dressing term
    # survives (no energy-conserving transitions): tiny in absolute
    # terms and far below a resonant bath at the same coupling
    spec = ChainSpec(8)
    sched = Schedule("linear", 250.0)  # adiabatic
    sub = total_excitation_probability(
        spec, sched, BathSpectrum.monochromatic(0.05, CouplingConstant(1e-3)))
    res = total_excitation_probability(
        spec, sched, BathSpectrum.monochromatic(0.9, CouplingConstant(1e-3)))
    assert sub.p_total < 1e-6
    assert sub.p_total * 100 < res.p_total


def test_total_probability_breakdown_reported():
    spec = ChainSpec(16)
    T = 600.0
    sched = Schedule("linear", T)
    with pytest.warns(UserWarning, match="large"):
        coupling = CouplingConstant(0.9)
    bath = BathSpectrum.monochromatic(0.9, coupling)
    res = total_excitation_probability(spec, sched, bath)
    assert res.p_total > 1.0
    assert any("broken down" in w for w in res.warnings)


def test_total_probability_bound_fallback_per_term(monkeypatch):
    # exactly one (k, omega) term fails its integral: it alone takes the
    # phase-free bound, and every other term stays numeric
    spec = ChainSpec(8)
    sched = Schedule("linear", 30.0)
    bath = BathSpectrum.ohmic(0.5, CouplingConstant(0.01), support_max=1.9)
    nodes, weights = bath.quadrature()
    clean = total_excitation_probability(spec, sched, bath)
    k0, *others = channel_momenta(spec)
    numeric = amplitude_numeric(spec, sched, k0, nodes[5], 0.01, rtol=1e-5)
    bound = amplitude_bound(spec, sched, k0, 0.01)
    inner = decoherence.oscillatory_batch

    def one_fails(*args, **kwargs):
        outcomes = inner(*args, **kwargs)
        if len(outcomes) > spec.n // 2:  # the amplitudes, not the channel norms
            outcomes[5] = QuadratureError("forced")
        return outcomes

    monkeypatch.setattr(decoherence, "oscillatory_batch", one_fails)
    res = total_excitation_probability(spec, sched, bath)
    assert res.methods[k0] == ("numeric",) * 5 + ("bound",) + ("numeric",) * 27
    assert all(res.methods[k] == ("numeric",) * 33 for k in others)
    assert all(res.channel_amplitudes[k] == clean.channel_amplitudes[k] for k in others)
    shift = res.channel_amplitudes[k0] - clean.channel_amplitudes[k0]
    assert shift == pytest.approx(weights[5] * (bound - numeric), rel=1e-9)
    assert np.isfinite(res.p_total) and res.p_total > clean.p_total
    assert res.panels < clean.panels and res.evaluations < clean.evaluations


def test_total_probability_skips_zero_weight_nodes():
    # an ohmic density that underflows on every node leaves no term to integrate
    spec = ChainSpec(8)
    bath = BathSpectrum.ohmic(1e-6, CouplingConstant(0.01), support_max=1.9)
    assert not bath.quadrature()[1].any()
    res = total_excitation_probability(spec, Schedule("linear", 30.0), bath)
    assert res.p_total == 0.0 and res.panels == 0
    assert all(m == ("skipped",) * 33 for m in res.methods.values())


def test_scaling_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = scaling_fit(x, 3.7 / x)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-3)
    assert fit.stderr < 1e-3
    with pytest.raises(ValueError, match="4 data"):
        scaling_fit([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError, match="positive"):
        scaling_fit([1, 2, 3, 4], [1, -2, 3, 4])


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


@pytest.mark.parametrize("omega", [0.3, 0.8, 1.5])
def test_amplitude_numeric_is_one_integral(chain8, monkeypatch, omega):
    sched = Schedule("gap-adapted-2", 80.0, chain8)
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append((args[1], list(args[2]), kwargs["points"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    amplitude_numeric(chain8, sched, np.pi / 8, omega, 1e-3)
    amplitude_numeric(chain8, sched, np.pi / 8, omega, 1e-3, g_upper=0.9)
    # per call its channel norm (break at g = 1/2), then its one amplitude
    assert calls == [(0.0, [1.0], ((0.5,),)), (0.0, [1.0], ((),)),
                     (0.0, [0.9], ((0.5,),)), (0.0, [0.9], ((),))]


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
        calls.append(kwargs["points"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    bath = BathSpectrum.ohmic(0.5, CouplingConstant(0.01), support_max=1.9)
    res = total_excitation_probability(spec, sched, bath)
    assert sum(len(m) for m in res.methods.values()) == 33 * spec.n // 2
    # one batch of the n/2 channel norms (break at g = 1/2), one of the amplitudes
    assert calls == [((0.5,),) * (spec.n // 2), ((),) * (33 * spec.n // 2)]


@pytest.mark.parametrize("x", [0.5, 3.8, 8.0, 40.0])
def test_ohmic_normalization_closed_form(x):
    omega_c = 0.04
    bath = BathSpectrum.ohmic(omega_c, CouplingConstant(0.01), support_max=x * omega_c)
    z = quad(lambda w: w * np.exp(-w / omega_c), 0.0, x * omega_c, epsabs=0.0, epsrel=1e-13,
             limit=200)[0]
    assert 1.0 / bath.normalization == pytest.approx(z, rel=1e-14, abs=0.0)
