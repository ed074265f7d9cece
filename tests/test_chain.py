import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingsweep.chain import (
    ChainSpec,
    CouplingConstant,
    channel_momenta,
    excitation_matrix_element,
    fundamental_gap,
    ground_energy,
    mode_alpha,
    mode_beta,
    mode_epsilon,
    momentum_grid,
    pair_matrix_element,
)


def test_momentum_grid_n4():
    np.testing.assert_allclose(momentum_grid(ChainSpec(4)),
                               np.pi * np.array([-3, -1, 1, 3]) / 4)


def test_momentum_grid_n2():
    np.testing.assert_allclose(momentum_grid(ChainSpec(2)), [-np.pi / 2, np.pi / 2])


def test_momentum_grid_n8():
    k = momentum_grid(ChainSpec(8))
    assert len(k) == 8
    assert min(k[k > 0]) == pytest.approx(np.pi / 8, abs=1e-15)


@given(st.integers(min_value=1, max_value=64))
def test_grid_symmetric_and_bounded(half_n):
    spec = ChainSpec(2 * half_n)
    k = momentum_grid(spec)
    assert len(k) == spec.n
    np.testing.assert_allclose(np.sort(-k), k, atol=1e-14)
    assert np.all(np.abs(k) < np.pi)
    np.testing.assert_array_equal(channel_momenta(spec), np.sort(k[k > 0]))


def test_spec_validation():
    with pytest.raises(ValueError, match="even"):
        ChainSpec(5)
    with pytest.raises(ValueError, match=">= 2"):
        ChainSpec(0)


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingConstant(0.0)
    with pytest.warns(UserWarning, match="large") as seen:
        CouplingConstant(0.5)
    assert [w.filename for w in seen] == [__file__]  # the caller, not the dataclass __init__
    CouplingConstant(0.01)


def test_mode_coefficients_endpoints():
    spec = ChainSpec(8)
    for k in momentum_grid(spec):
        assert mode_epsilon(k, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert mode_epsilon(k, 1.0) == pytest.approx(2.0, abs=1e-14)
        assert mode_alpha(k, 1.0) == pytest.approx(2 - 4 * np.cos(k / 2) ** 2)
        assert mode_beta(k, 1.0) == pytest.approx(2 * np.sin(k))


def test_epsilon_minimum_value():
    # minimum over g sits at the critical point with value 2|sin(ka/2)|
    assert mode_epsilon(np.pi / 4, 0.5) == pytest.approx(2 * np.sin(np.pi / 8), rel=1e-15)


@given(st.integers(0, 40), st.floats(0.0, 1.0))
def test_epsilon_alpha_beta_identity(m, g):
    ka = np.pi * (2 * m + 1) / 128
    e = mode_epsilon(ka, g)
    assert e**2 == pytest.approx(mode_alpha(ka, g) ** 2 + mode_beta(ka, g) ** 2, rel=1e-12)
    assert e >= 2 * abs(np.sin(ka / 2)) - 1e-12


def test_fundamental_gap_examples():
    assert fundamental_gap(ChainSpec(4), 0.5) == pytest.approx(4 * np.sin(np.pi / 8), rel=1e-14)
    assert fundamental_gap(ChainSpec(4), 0.0) == pytest.approx(4.0)
    # O(1/n) closing at criticality
    gaps = [fundamental_gap(ChainSpec(n), 0.5) for n in (16, 32, 64, 128)]
    ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
    assert all(abs(r - 2.0) < 0.02 for r in ratios)


def test_ground_energy_trivial():
    assert ground_energy(ChainSpec(4), 0.0) == pytest.approx(-4.0, abs=1e-14)
    assert ground_energy(ChainSpec(4), 1.0) == pytest.approx(-4.0, abs=1e-14)


def test_matrix_element_values():
    spec = ChainSpec(4)
    assert excitation_matrix_element(spec, np.pi / 4, 0.0) == 0
    # magnitude at the critical point, frozen from dense diagonalization
    m = excitation_matrix_element(spec, np.pi / 4, 0.5)
    assert abs(m) == pytest.approx(1.8477590650225735, rel=1e-12)
    assert m.real == 0.0  # purely imaginary in this convention
    # the array form agrees with the checked scalar one to rounding (scalar
    # and array complex division may differ in the last bit)
    g = np.linspace(0.0, 1.0, 9)
    kpos = np.pi * np.array([1, 3]) / 4
    expected = [[excitation_matrix_element(spec, k, x) for x in g] for k in kpos]
    np.testing.assert_allclose(pair_matrix_element(kpos[:, None], g[None, :]), expected,
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_matrix_element_sign_under_k_flip():
    spec = ChainSpec(8)
    k = np.pi / 8
    with pytest.raises(ValueError, match="positive"):
        excitation_matrix_element(spec, -k, 0.5)
    # oddness of sin(ka): the -k element differs by sign only
    assert mode_beta(-k, 0.7) == pytest.approx(-mode_beta(k, 0.7))


def test_matrix_element_requires_grid_momentum():
    with pytest.raises(ValueError, match="grid"):
        excitation_matrix_element(ChainSpec(8), 0.3, 0.5)
