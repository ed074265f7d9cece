import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad
from scipy.special import fresnel

from isingsweep.quadrature import QuadratureError, _panel_setup, oscillatory_integral


def _brute(amp, phase, a, b):
    re = quad(lambda x: (amp(x) * np.cos(phase(x))).real, a, b, limit=2000,
              epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda x: (amp(x) * np.sin(phase(x))).real, a, b, limit=2000,
              epsabs=1e-13, epsrel=1e-12)[0]
    return re + 1j * im


def test_fresnel_closed_form():
    # int_0^1 exp(i lam x^2) dx against the Fresnel integrals
    for lam in (30.0, 500.0, 20000.0):
        res = oscillatory_integral(np.ones_like, lambda x: 2 * lam * x, 0.0, 1.0, 1e-11)
        s, c = fresnel(np.sqrt(2 * lam / np.pi))
        exact = np.sqrt(np.pi / (2 * lam)) * (c + 1j * s)
        assert abs(res.value - exact) < 1e-9


def test_amplitude_modulated_chirp_vs_quad():
    amp = lambda x: (1 + x) * np.exp(-x)
    lam = 300.0
    phase = lambda x: lam * (x**2 - 0.7 * x)
    dphase = lambda x: lam * (2 * x - 0.7)
    res = oscillatory_integral(amp, dphase, 0.0, 1.0, 1e-10)
    exact = _brute(amp, phase, 0.0, 1.0)
    assert abs(res.value - exact) < 5e-10
    assert res.error < 1e-9


def test_interior_stationary_point():
    # stationary point at x = 0.35 inside the domain; the reference
    # phase must vanish at x = 0 to match the integrator's convention
    lam = 2000.0
    res = oscillatory_integral(
        lambda x: np.cos(x) + 0j, lambda x: lam * (x - 0.35), 0.0, 1.0, 1e-10)
    exact = _brute(lambda x: np.cos(x),
                   lambda x: 0.5 * lam * ((x - 0.35) ** 2 - 0.35**2), 0.0, 1.0)
    assert abs(res.value - exact) < 1e-9


def test_no_oscillation_reduces_to_plain_quadrature():
    res = oscillatory_integral(lambda x: x**3 + 0j, lambda x: np.zeros_like(x), 0.0, 2.0, 1e-12)
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.panels == 1


def test_phase_continuity_with_phase_left():
    # shifting the global phase rotates the result exactly
    r0 = oscillatory_integral(np.ones_like, lambda x: 50 * np.ones_like(x), 0.0, 1.0, 1e-12)
    r1 = oscillatory_integral(np.ones_like, lambda x: 50 * np.ones_like(x), 0.0, 1.0, 1e-12,
                              phase_left=np.pi / 3)
    assert r1.value == pytest.approx(r0.value * np.exp(1j * np.pi / 3), abs=1e-12)


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
    res = oscillatory_integral(amp, dphase, 0.0, 1.0, 1e-9)
    exact = _brute(lambda x: amp(x).real, phase, 0.0, 1.0)
    assert abs(res.value - exact) <= 2e-9


def test_invalid_inputs():
    with pytest.raises(ValueError, match="interval"):
        oscillatory_integral(np.ones_like, np.ones_like, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError, match="abs_tol"):
        oscillatory_integral(np.ones_like, np.ones_like, 0.0, 1.0, 0.0)


def test_nonconvergence_reports_diagnostics():
    # discontinuous amplitude cannot be resolved to an absurd budget
    amp = lambda x: np.where(x > 0.5, 1.0, 0.0) + 0j
    with pytest.raises(QuadratureError, match="panel"):
        oscillatory_integral(amp, lambda x: 400 * np.ones_like(x), 0.0, 1.0, 1e-15)


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
    x, q, _ = _panel_setup(order)
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
    res = oscillatory_integral(np.ones_like, lambda x: 50 * np.ones_like(x), 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx((np.exp(50j) - 1) / 50j, abs=1e-12)
    # Phase too fast for Clenshaw-Curtis even at the deepest bisection.
    amp = lambda x: np.where(x > 0.5, 1.0, 0.0) + 0j
    with pytest.raises(QuadratureError, match="panel"):
        oscillatory_integral(amp, lambda x: 1e16 * np.ones_like(x), 0.0, 1.0, 1e-8)
