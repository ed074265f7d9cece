import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad
from scipy.special import erf, fresnel

from isingsweep import decoherence, quadrature
from isingsweep.chain import ChainSpec, channel_momenta, fundamental_gap
from isingsweep.experiments import ExperimentConfig
from isingsweep.quadrature import (
    QuadratureError,
    _panel_setup,
    oscillatory_batch,
    oscillatory_integral,
)
from isingsweep.schedules import Schedule, _norm_integral


def _pair(amp, dphase):
    return lambda x: (amp(x), dphase(x))


def _brute(amp, phase, a, b):
    re = quad(lambda x: (amp(x) * np.cos(phase(x))).real, a, b, limit=2000,
              epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda x: (amp(x) * np.sin(phase(x))).real, a, b, limit=2000,
              epsabs=1e-13, epsrel=1e-12)[0]
    return re + 1j * im


def test_fresnel_closed_form():
    # int_0^1 exp(i lam x^2) dx against the Fresnel integrals
    for lam in (30.0, 500.0, 20000.0):
        res = oscillatory_integral(_pair(np.ones_like, lambda x: 2 * lam * x), 0.0, 1.0,
                                   rtol=0.0, atol=1e-11)
        s, c = fresnel(np.sqrt(2 * lam / np.pi))
        exact = np.sqrt(np.pi / (2 * lam)) * (c + 1j * s)
        assert abs(res.value - exact) <= res.error <= 1e-11


@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
@pytest.mark.parametrize("lam", [30.0, 500.0, 20000.0])
def test_relative_budget_fresnel(lam, rtol):
    res = oscillatory_integral(_pair(np.ones_like, lambda x: 2 * lam * x), 0.0, 1.0, rtol=rtol)
    s, c = fresnel(np.sqrt(2 * lam / np.pi))
    exact = np.sqrt(np.pi / (2 * lam)) * (c + 1j * s)
    assert abs(res.value - exact) <= res.error <= rtol * abs(res.value)
    assert abs(res.value - exact) <= rtol * abs(exact)


def _chirp_closed_form(lam):
    """int_0^1 (1 + x) exp(a x^2 + b x) dx, a = i lam, b = -1 - 0.7 i lam, by the complex erf."""
    a, b = 1j * lam, -1.0 - 0.7j * lam
    r = np.sqrt(-a)
    gauss = (np.sqrt(np.pi) / (2 * r) * np.exp(-b * b / (4 * a))
             * (erf(r - b / (2 * r)) - erf(-b / (2 * r))))  # int_0^1 exp(a x^2 + b x) dx
    return gauss + (np.expm1(a + b) - b * gauss) / (2 * a)  # plus int_0^1 x exp(...) dx


def test_amplitude_modulated_chirp_vs_quad():
    amp = lambda x: (1 + x) * np.exp(-x)
    lam = 300.0
    phase = lambda x: lam * (x**2 - 0.7 * x)
    dphase = lambda x: lam * (2 * x - 0.7)
    res = oscillatory_integral(_pair(amp, dphase), 0.0, 1.0, rtol=0.0, atol=1e-10)
    exact = _brute(amp, phase, 0.0, 1.0)
    assert abs(res.value - exact) < 5e-10
    assert abs(res.value - _chirp_closed_form(lam)) <= res.error <= 1e-10


def test_interior_stationary_point():
    # stationary point at x = 0.35 inside the domain; the reference
    # phase must vanish at x = 0 to match the integrator's convention
    lam = 2000.0
    res = oscillatory_integral(_pair(lambda x: np.cos(x) + 0j, lambda x: lam * (x - 0.35)),
                               0.0, 1.0, rtol=0.0, atol=1e-10)
    exact = _brute(lambda x: np.cos(x),
                   lambda x: 0.5 * lam * ((x - 0.35) ** 2 - 0.35**2), 0.0, 1.0)
    assert abs(res.value - exact) < 1e-9


def test_one_integrand_call_per_level():
    lam = 2000.0
    shapes = []

    def pair(x):
        shapes.append(x.shape)
        return np.cos(x) + 0j, lam * (x - 0.35)

    res = oscillatory_integral(pair, 0.0, 1.0, rtol=1e-10, points=(0.35,))
    assert shapes[0] == (2, 33)  # the break point splits the first level
    assert 1 < len(shapes) <= quadrature._LEVELS
    assert all(len(shape) == 2 and shape[1] == 33 for shape in shapes)
    assert res.evaluations == sum(rows * cols for rows, cols in shapes)
    exact = _brute(lambda x: np.cos(x),
                   lambda x: 0.5 * lam * ((x - 0.35) ** 2 - 0.35**2), 0.0, 1.0)
    assert abs(res.value - exact) <= 1e-10 * abs(exact)


def test_no_oscillation_reduces_to_plain_quadrature():
    res = oscillatory_integral(_pair(lambda x: x**3 + 0j, np.zeros_like), 0.0, 2.0,
                               rtol=0.0, atol=1e-12)
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.panels == 1


@settings(max_examples=12, deadline=None)
@given(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
    st.floats(10.0, 400.0),
    st.floats(0.1, 2.0),
)
def test_random_polynomial_amplitude_vs_quad(coeffs, rate, curve):
    c0, c1, c2 = coeffs
    amp = lambda x: c0 + c1 * x + c2 * x**2 + 0j
    dphase = lambda x: rate * (1.0 + curve * x)
    phase = lambda x: rate * (x + 0.5 * curve * x**2)
    res = oscillatory_integral(_pair(amp, dphase), 0.0, 1.0, rtol=0.0, atol=1e-9)
    exact = _brute(lambda x: amp(x).real, phase, 0.0, 1.0)
    assert abs(res.value - exact) <= 2e-9


def test_invalid_inputs():
    flat = _pair(np.ones_like, np.ones_like)
    with pytest.raises(ValueError, match="interval"):
        oscillatory_integral(flat, 1.0, 0.0, rtol=0.0, atol=1e-8)
    with pytest.raises(ValueError, match="one of them positive"):
        oscillatory_integral(flat, 0.0, 1.0, rtol=0.0, atol=0.0)
    pair = lambda nodes, owner: (np.ones_like(nodes), np.zeros_like(nodes))
    # one break-point sequence or relative budget short of the two integrals
    with pytest.raises(ValueError, match=r"points: 1 values for 2 upper limits"):
        oscillatory_batch(pair, 0.0, [1.0, 2.0], 1e-8, [0.0, 0.0], points=[(0.5,)])
    with pytest.raises(ValueError, match=r"rtol: 3 values for 2 upper limits"):
        oscillatory_batch(pair, 0.0, [1.0, 2.0], [1e-8] * 3, [0.0, 0.0])
    with pytest.raises(ValueError, match=r"atol: 1 values for 2 upper limits"):
        oscillatory_batch(pair, 0.0, [1.0, 2.0], 1e-8, [0.0])


def test_levin_stacks_match_one_at_a_time_solves():
    # 70 rows make stacks of 32, 32 and 6 in one workspace.  Row 40's step
    # hw = 2^600 i makes i hw Phi' = -2^600 Phi': its diagonal overflows to
    # +inf except the last entry, which cancels D's exactly, so elimination
    # meets an exact zero pivot and the whole middle stack reads NaN.
    rng = np.random.default_rng(7)
    x, _, diff, tail = _panel_setup(32)
    f = rng.normal(size=(70, x.size)) + 1j * rng.normal(size=(70, x.size))
    dphi = rng.uniform(20.0, 80.0, size=(70, x.size))
    phi = np.cumsum(dphi, axis=1) / x.size
    hw = rng.uniform(0.1, 1.0, size=70).astype(complex)
    hw[40] = 2.0**600 * 1j
    dphi[40] = -(2.0**600)
    dphi[40, -1] = diff[-1, -1].real / 2.0**600
    rows = np.arange(70)
    with np.errstate(over="ignore"):
        value, err = quadrature._levin(f, dphi, phi, hw, rows)
    assert quadrature._CHUNK == 32
    assert np.isnan(value[32:64]).all() and np.isnan(err[32:64]).all()
    for stack in slice(0, 32), slice(64, 70):
        # each system solved on its own, the panel ends taken as the kernel takes them
        p = np.array([np.linalg.solve(diff + 1j * np.diag(hw[j] * dphi[j]), hw[j] * f[j])
                      for j in rows[stack]])
        assert np.array_equal(value[stack], p[:, -1] * np.exp(1j * phi[stack, -1]) - p[:, 0])
        assert np.array_equal(err[stack], quadrature._TAIL_FACTOR * np.abs(p @ tail.T).sum(axis=1))


def test_nonconvergence_reports_diagnostics():
    # discontinuous amplitude cannot be resolved to an absurd budget
    amp = lambda x: np.where(x > 0.5, 1.0, 0.0) + 0j
    with pytest.raises(QuadratureError, match="panel"):
        oscillatory_integral(_pair(amp, lambda x: 400 * np.ones_like(x)), 0.0, 1.0,
                             rtol=0.0, atol=1e-15)


def test_batch_matches_solo_calls():
    # 4 channels x 3 frequencies at n = 8 with upper limits 1.0 and 0.9;
    # omega = 0.3 lies below the gap of k = pi/8, where the integral
    # cancels to about 2e-3 of the phase-free bound
    spec = ChainSpec(8)
    sched = Schedule("gap-adapted-2", 80.0, spec)
    ka = np.repeat(channel_momenta(spec), 3)
    omega = np.tile([0.3, 0.8, 1.5], 4)
    upper = np.where(np.arange(ka.size) % 2, 0.9, 1.0)
    _, norms = decoherence._pass([(sched, k, 0.0, decoherence.NORM, u) for k, u in zip(ka, upper)])
    norm = np.array([norms[sched, k, u] for k, u in zip(ka, upper)])
    integrand = decoherence._integrand([(sched, k, w, decoherence.AMPLITUDE, u)
                                        for k, w, u in zip(ka, omega, upper)])
    calls = []

    def pair(g, owner):
        calls.append((g.copy(), owner.copy()))
        return integrand(g, owner)

    batch = oscillatory_batch(pair, 0.0, upper, rtol=1e-6, atol=1e-13 * norm)
    solo = [oscillatory_integral(lambda g: integrand(g, np.full(len(g), j)), 0.0,
                                 upper[j], rtol=1e-6, atol=1e-13 * norm[j])
            for j in range(ka.size)]
    assert abs(solo[0].value) < 3e-3 * norm[0]
    for got, ref in zip(batch, solo):
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
        assert (got.panels, got.evaluations) == (ref.panels, ref.evaluations)
        assert got.levels == ref.levels
    assert len(calls) == max(res.levels for res in batch)
    for g, owner in calls:
        assert owner.shape == (g.shape[0],) and np.all(np.diff(owner) >= 0)
        assert np.all(g >= 0.0) and np.all(g <= upper[owner, None] + 1e-15)  # rows stay in range
    assert sum(g.size for g, _ in calls) == sum(res.evaluations for res in batch)


def test_batch_mixed_budgets_and_points_match_solo_calls():
    # channel norms, phases and amplitudes on two schedules in one batch,
    # each with its own rtol, atol and break points, as the decoherence
    # layer gives them: every integral keeps the tree of its solo call
    spec = ChainSpec(8)
    terms, rtol, atol, points = [], [], [], []
    for sched in (Schedule("gap-adapted-2", 80.0, spec), Schedule("linear", 30.0)):
        for k in channel_momenta(spec)[:2]:
            terms += [(sched, k, 0.0, decoherence.NORM, 1.0),
                      (sched, k, 0.8, decoherence.PHASE, 0.7),
                      (sched, k, 0.8, decoherence.AMPLITUDE, 0.9)]
            rtol += [1e-11, 1e-13, 1e-6]
            atol += [0.0, 1e-9, 1e-12]
            points += [(0.5,), (0.5,), ()]
    integrand = decoherence._integrand(terms)
    upper = [t[4] for t in terms]
    rows = []

    def pair(g, owner):
        rows.append(np.bincount(owner, minlength=len(terms)))
        return integrand(g, owner)

    batch = oscillatory_batch(pair, 0.0, upper, rtol, atol, points)
    assert rows[0].tolist() == [2, 2, 1] * 4  # g = 1/2 splits the norms and phases only
    for j, got in enumerate(batch):
        ref = oscillatory_integral(lambda g: integrand(g, np.full(len(g), j)), 0.0, upper[j],
                                   rtol[j], atol[j], points[j])
        assert (got.panels, got.evaluations, got.levels) == (ref.panels, ref.evaluations,
                                                             ref.levels), j
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value), j
    with pytest.raises(ValueError, match="rtol"):
        oscillatory_batch(pair, 0.0, upper[:2], [1e-6, -1.0], [0.0, 0.0])


def test_batch_sums_phase_within_each_integral():
    # a neighbour with a phase of order 1e5 must not cost the other
    # integral digits: each cumulative phase is summed over its own leaves
    def pair(x, owner):
        big = owner[:, None] == 0
        f = np.where(big, np.cos(50 * x), np.exp(x)) + 0j
        return f, np.where(big, 1e5 * (1 + x), 300.0 * (x - 0.35))

    batch = oscillatory_batch(pair, 0.0, [1.0, 1.0], rtol=1e-9, atol=[0.0, 0.0])
    for j, got in enumerate(batch):
        ref = oscillatory_integral(lambda x: pair(x, np.full(len(x), j)), 0.0, 1.0, rtol=1e-9)
        assert got.levels > 1 and got.panels == ref.panels
        assert abs(got.value - ref.value) <= 1e-13 * abs(ref.value)


def test_batch_reports_failure_per_integral():
    # the jump cannot meet atol = 1e-15; its neighbours converge and are returned
    def pair(x, owner):
        f = np.where(owner[:, None] == 1, np.where(x > 0.5, 1.0, 0.0), np.cos(x)) + 0j
        return f, 400.0 * np.ones_like(x)

    out = oscillatory_batch(pair, 0.0, [1.0] * 3, rtol=0.0, atol=[1e-10, 1e-15, 1e-10])
    with pytest.raises(QuadratureError) as solo:
        oscillatory_integral(lambda x: pair(x, np.ones(len(x), dtype=int)), 0.0, 1.0,
                             rtol=0.0, atol=1e-15)
    assert isinstance(out[1], QuadratureError) and str(out[1]) == str(solo.value)
    ref = oscillatory_integral(lambda x: pair(x, np.zeros(len(x), dtype=int)), 0.0, 1.0,
                               rtol=0.0, atol=1e-10)
    for res in (out[0], out[2]):
        assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)
        assert (res.panels, res.evaluations) == (ref.panels, ref.evaluations)


def _clenshaw_curtis_weights(order):
    """Closed-form Clenshaw-Curtis weights for an even order (Trefethen, clencurt)."""
    theta = np.pi * np.arange(order + 1) / order
    w = np.empty(order + 1)
    w[0] = w[-1] = 1.0 / (order**2 - 1)
    v = np.ones(order - 1)
    for k in range(1, order // 2):
        v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k**2 - 1)
    v -= np.cos(order * theta[1:-1]) / (order**2 - 1)
    w[1:-1] = 2.0 * v / order
    return w


@pytest.mark.parametrize("order", [16, 32])
def test_antiderivative_matrix_and_weights(order):
    x, q, *_ = _panel_setup(order)
    for j in range(order + 1):
        t_j = np.zeros(order + 1)
        t_j[j] = 1.0
        exact = cheb.chebval(x, cheb.chebint(t_j, lbnd=-1.0))
        assert np.abs(q @ cheb.chebval(x, t_j) - exact).max() < 1e-13
    assert q[-1].sum() == pytest.approx(2.0, abs=1e-14)
    # the weights are symmetric, so the ascending node order does not matter
    assert np.abs(q[-1] - _clenshaw_curtis_weights(order)).max() < 1e-14


def test_singular_levin_system_bisects_or_raises(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    # Moderate phase: bisection reaches panels short enough for Clenshaw-Curtis.
    res = oscillatory_integral(_pair(np.ones_like, lambda x: 50 * np.ones_like(x)), 0.0, 1.0,
                               rtol=0.0, atol=1e-12)
    assert res.value == pytest.approx((np.exp(50j) - 1) / 50j, abs=1e-12)
    # Phase too fast for Clenshaw-Curtis even at the deepest bisection.
    amp = lambda x: np.where(x > 0.5, 1.0, 0.0) + 0j
    with pytest.raises(QuadratureError, match="panel"):
        oscillatory_integral(_pair(amp, lambda x: 1e16 * np.ones_like(x)), 0.0, 1.0,
                             rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("n", [8, 32, 128])
def test_smooth_integral_gap_norm_closed_form(power, n):
    # int_0^1 DeltaE^-p dg peaks sharply at g = 1/2 for large n
    spec = ChainSpec(n)
    res = oscillatory_integral(_pair(lambda g: fundamental_gap(spec, g) ** -power, np.zeros_like),
                               0.0, 1.0, rtol=1e-12, points=(0.5,))
    assert res.value.real == pytest.approx(_norm_integral(spec, power), rel=1e-11, abs=0.0)


def test_smooth_integral_one_call_per_level():
    spec = ChainSpec(128)
    shapes = []

    def f(g):
        shapes.append(g.shape)
        return fundamental_gap(spec, g) ** -2

    oscillatory_integral(_pair(f, np.zeros_like), 0.0, 1.0, rtol=1e-11, points=(0.5,))
    assert 1 < len(shapes) <= quadrature._LEVELS
    assert all(len(shape) == 2 and shape[1] == 33 for shape in shapes)
    assert shapes[0] == (2, 33)  # the break point splits the first level
    res = oscillatory_integral(_pair(np.cos, np.zeros_like), 0.0, 1.0, rtol=1e-13)
    assert res.value.real == pytest.approx(np.sin(1.0), abs=1e-15)


def test_smooth_integral_rejects_non_integrable():
    with pytest.raises(QuadratureError, match="did not converge"):
        oscillatory_integral(_pair(lambda g: 1.0 / np.abs(g - 0.3), np.zeros_like), 0.0, 1.0,
                             rtol=1e-10)
    # a jump keeps one panel per level open until the level cap
    calls = []

    def step(g):
        calls.append(g.shape[0])
        return np.where(g > 1.0 / 3.0, 1.0, 0.0)

    with pytest.raises(QuadratureError, match="2 panels open"):
        oscillatory_integral(_pair(step, np.zeros_like), 0.0, 1.0, rtol=1e-10)
    assert len(calls) == quadrature._LEVELS and max(calls) <= 2
    with pytest.raises(ValueError, match="reversed"):
        oscillatory_integral(_pair(np.cos, np.zeros_like), 1.0, 0.0, rtol=1e-10)


def _nested_estimates(f, dphi, phi, hw):
    """Reference estimator, independent of the Chebyshev tail: every panel
    against its nested order-16 rule, a Levin panel through a second,
    order-16 collocation solve on the nested nodes."""
    fast = np.ptp(phi, axis=1) > quadrature._CC_PHASE_LIMIT
    stationary = fast & (dphi.min(axis=1) < 0.0) & (dphi.max(axis=1) > 0.0)
    fast &= ~stationary
    values = []
    for order in (32, 16):
        _, q, diff, _ = _panel_setup(order)
        f_o, dphi_o = f[:, ::32 // order], dphi[:, ::32 // order]
        phi_o = hw[:, None] * (dphi_o @ q.T)
        value = hw * ((f_o * np.exp(1j * phi_o)) @ q[-1])
        mats = diff / hw[fast, None, None] + 1j * np.eye(order + 1) * dphi_o[fast, None, :]
        p = np.linalg.solve(mats, f_o[fast, :, None])[..., 0]
        value[fast] = p[:, -1] * np.exp(1j * phi_o[fast, -1]) - p[:, 0]
        values.append(value)
    err = np.abs(values[0] - values[1])
    values[0][stationary], err[stationary] = 0.0, np.inf
    return values[0], err, fast


def _bath_amplitudes(n, rtol):
    """Results of the bath-averaged sum's amplitude integrals (linear sweep, ohmic bath) and
    their absolute floors."""
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [n], "coupling": 1e-2, "bath_kind": "ohmic",
        "bath_params": {"omega_c": 0.5, "support_max": 1.9}})
    sched = cfg.schedule_for(n)
    nodes, _ = cfg.bath().quadrature(33)
    ks = channel_momenta(ChainSpec(n)).tolist()
    _, norms = decoherence._pass([(sched, k, 0.0, decoherence.NORM, 1.0) for k in ks])
    terms = [(sched, k, w, decoherence.AMPLITUDE, 1.0) for k in ks for w in nodes.tolist()]
    floor = np.repeat([1e-13 * norms[sched, k, 1.0] for k in ks], nodes.size)
    return decoherence._batch(terms, rtol, norms), floor


@pytest.mark.parametrize("n", [8, 16])
def test_tail_estimate_against_nested_reference(n, monkeypatch):
    # every rtol 1e-6 amplitude is within 1e-3 of its budget of an rtol
    # 1e-11 solve judged by the independent nested order-16 estimate
    results, floor = _bath_amplitudes(n, 1e-6)
    got = np.array([res.value for res in results])
    monkeypatch.setattr(quadrature, "_estimates", _nested_estimates)
    ref = np.array([res.value for res in _bath_amplitudes(n, 1e-11)[0]])
    assert np.all(np.abs(got - ref) <= 1e-3 * np.maximum(1e-6 * np.abs(ref), floor))


def test_one_levin_solve_per_fast_panel(monkeypatch):
    # the Levin rows are the only linear systems: 33 square, one per
    # fast-oscillating panel evaluated, and counted in the results
    sizes = []
    solve = np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    results, _ = _bath_amplitudes(16, 1e-6)
    assert sizes and all(s[1:] == (33, 33) and s[0] <= quadrature._CHUNK for s in sizes)
    solves = sum(res.levin_solves for res in results)
    assert sum(s[0] for s in sizes) == solves
    assert 0 < solves <= sum(res.evaluations for res in results) // 33
