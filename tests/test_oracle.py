import numpy as np
import pytest

from isingsweep import oracle
from isingsweep.chain import (
    ChainSpec,
    channel_momenta,
    even_sector_gap,
    ground_energy,
    mode_epsilon,
    momentum_grid,
)
from isingsweep.dynamics import instantaneous_pair
from isingsweep.oracle import (
    CompositeBosonPath,
    SweepPath,
    build_hamiltonian,
    even_gap,
    even_sector_matrix,
    embed_sector_vector,
    parity_commutator_max,
    schrodinger_evolve,
    sigma_x_apply,
    sigma_x_elements,
    stepwise_gap_profile,
    stepwise_path,
    uniform_hamiltonian,
    uniform_min_even_gap,
    uniform_path,
)
from isingsweep.schedules import Schedule, stepwise_weights


def _levels(n, g, sector="full"):
    return np.linalg.eigvalsh(uniform_hamiltonian(n, g, sector=sector).matrix)


def test_two_independent_spins():
    np.testing.assert_allclose(_levels(2, 0.0), [-2, 0, 0, 2], atol=1e-14)


def test_classical_ferromagnet_ground_doublet():
    w = _levels(4, 1.0)
    assert w[0] == pytest.approx(-4.0, abs=1e-14)
    assert w[1] == pytest.approx(-4.0, abs=1e-14)
    # parity doublet split below round-off
    assert abs(_levels(4, 1.0, "even")[0] - _levels(4, 1.0, "odd")[0]) <= 1e-10


def test_parity_commutes_and_sectors_partition():
    for n, g in [(4, 0.3), (6, 0.5)]:
        assert parity_commutator_max(uniform_hamiltonian(n, g)) <= 1e-12
        we, wo = _levels(n, g, "even"), _levels(n, g, "odd")
        assert len(we) == len(wo) == 2 ** (n - 1)
        full = np.sort(np.concatenate([we, wo]))
        np.testing.assert_allclose(full, _levels(n, g), atol=1e-10)
    # a block has no complement map of its own to check
    with pytest.raises(ValueError, match="full matrix, got the even block"):
        parity_commutator_max(uniform_hamiltonian(4, 0.3, sector="even"))


def test_memory_guard():
    with pytest.raises(ValueError, match="cap"):
        build_hamiltonian(16, np.ones(16), np.ones(16))
    # the message sizes the block the call would build
    for sector, size in (("even", r"32768 x 32768, would need 8\.0"),
                         ("full", r"65536 x 65536, would need 32\.0")):
        with pytest.raises(ValueError, match=f"the {sector} Hamiltonian, {size} GiB"):
            build_hamiltonian(16, np.ones(16), np.ones(16), sector=sector)
    with pytest.raises(ValueError, match="sector must be full/even/odd"):
        build_hamiltonian(4, np.ones(4), np.ones(4), sector="both")


def test_weight_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(4, np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(4, np.ones(4), np.ones(2), periodic=False)
    # an open chain has n - 1 bonds: a fourth bond is rejected, not dropped
    with pytest.raises(ValueError, match=r"^J must have shape \(3,\)"):
        build_hamiltonian(4, np.ones(4), np.ones(4), periodic=False)
    with pytest.raises(ValueError, match=r"^J must have shape \(3,\)"):
        even_gap(4, np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match=r"^h must have shape \(4,\)"):
        even_gap(4, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match=r"^J must have shape \(4,\)"):
        even_sector_matrix(4, np.ones(4), np.ones(3), periodic=True)
    with pytest.raises(ValueError, match=r"^h must have shape \(4,\)"):
        SweepPath(4, lambda t: (np.ones(5), np.ones(4)), periodic=True)
    with pytest.raises(ValueError, match=r"^J must have shape \(3,\)"):
        SweepPath(4, lambda t: (np.ones(4), np.ones(4)), periodic=False)


def test_ground_energy_matches_fermionic():
    for n in (2, 4, 8):
        spec = ChainSpec(n)
        for g in (0.0, 0.3, 0.5, 0.9):
            w = _levels(n, g, "even")
            assert abs(w[0] - ground_energy(spec, g)) <= 1e-10
    w12 = _levels(12, 0.5, "even")
    assert abs(w12[0] - ground_energy(ChainSpec(12), 0.5)) <= 1e-10


def test_full_spectrum_contains_pair_and_composite_levels():
    n, g = 6, 0.4
    spec = ChainSpec(n)
    w = _levels(n, g)
    e0 = ground_energy(spec, g)
    kpos = channel_momenta(spec)
    eps = mode_epsilon(kpos, g)
    # two-quasiparticle pairs (k, -k)
    for e in eps:
        assert np.min(np.abs(w - (e0 + 2 * e))) <= 1e-10
    # four-quasiparticle combination (k1, -k1, k2, -k2)
    assert np.min(np.abs(w - (e0 + 2 * eps[0] + 2 * eps[1]))) <= 1e-10


def test_polarized_expectation_at_g0():
    n = 5  # odd chains are fine for the dense oracle itself
    H = build_hamiltonian(n, np.ones(n), np.zeros(n))
    w, V = np.linalg.eigh(H.matrix)
    val = V[:, 0] @ sigma_x_apply(n, V[:, 0])
    assert val == pytest.approx(n, abs=1e-12)


def test_matrix_elements_match_pair_formula():
    n, g = 8, 0.5
    spec = ChainSpec(n)
    w, elems = sigma_x_elements(uniform_hamiltonian(n, g, sector="even"))
    kpos = channel_momenta(spec)
    matched = np.zeros(len(w), dtype=bool)
    for k in kpos:
        e = mode_epsilon(k, g)
        sel = np.abs(w - (w[0] + 2 * e)) <= 1e-8
        assert sel.any()
        matched |= sel
        m_dense = np.sqrt(np.sum(np.abs(elems[sel]) ** 2))
        assert m_dense == pytest.approx(4 * g * abs(np.sin(k)) / e, abs=1e-8)
    matched[0] = True
    assert np.max(np.abs(elems[~matched])) <= 1e-10


def test_constant_hamiltonian_evolution_is_a_phase():
    n = 3
    H = build_hamiltonian(n, np.ones(n), 0.5 * np.ones(n))
    w, V = np.linalg.eigh(H.matrix)

    class Static:
        def __init__(self):
            self.n = n
            self.dim = 2**n

        def apply(self, t, psi):
            return H.matrix @ psi

    T = 3.7
    psi = schrodinger_evolve(Static(), V[:, 0].astype(complex), T, rtol=1e-12)
    np.testing.assert_allclose(psi, np.exp(-1j * w[0] * T) * V[:, 0], atol=1e-9)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_uniform_sweep_adiabatic_limit():
    n, T = 4, 400.0
    sched = Schedule("linear", T)
    w0, V0 = np.linalg.eigh(uniform_hamiltonian(n, 0.0, sector="even").matrix)
    psi0 = embed_sector_vector(V0[:, 0], n, "even").astype(complex)
    psi = schrodinger_evolve(uniform_path(n, sched), psi0, T, rtol=1e-10)
    assert abs(np.linalg.norm(psi) - 1.0) <= 10 * 1e-10  # unitarity
    wf, Vf = np.linalg.eigh(uniform_hamiltonian(n, 1.0, sector="even").matrix)
    gs = embed_sector_vector(Vf[:, 0], n, "even")
    assert abs(np.vdot(gs, psi)) ** 2 >= 1 - 1e-4


def test_stepwise_evolution_stays_even_and_adiabatic():
    n = 4
    path = stepwise_path(n, 120.0)
    w0, V0 = np.linalg.eigh(build_hamiltonian(n, np.ones(n), np.zeros(n - 1), periodic=False,
                                              sector="even").matrix)
    psi0 = embed_sector_vector(V0[:, 0], n, "even").astype(complex)
    psi = schrodinger_evolve(path, psi0, 120.0, rtol=1e-10)
    Hf = build_hamiltonian(n, np.zeros(n), np.ones(n - 1), periodic=False, sector="even")
    wf, Vf = np.linalg.eigh(Hf.matrix)
    gs = embed_sector_vector(Vf[:, 0], n, "even")
    assert abs(np.vdot(gs, psi)) ** 2 >= 1 - 1e-3


def test_matrix_free_paths_match_dense_hamiltonian():
    # the uniform ring and the step-wise open chain, each applied to a
    # vector and to a 3-column boson block
    rng = np.random.default_rng(3)
    sched = Schedule("linear", 10.0)
    cases = [(uniform_path(n, sched), True,
              lambda t, n=n: (np.full(n, 1.0 - t / 10.0), np.full(n, t / 10.0)))
             for n in (4, 5)]
    cases += [(path, False, path.weights) for path in (stepwise_path(n, 10.0) for n in (4, 6))]
    for path, periodic, weights in cases:
        for t in (0.0, 1.3, 4.9, 7.5, 10.0):
            H = build_hamiltonian(path.n, *weights(t), periodic).matrix
            for shape in ((path.dim,), (path.dim, 3)):
                psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                np.testing.assert_allclose(path.apply(t, psi), H @ psi, rtol=0, atol=1e-13)


def test_even_sector_matrix_matches_slicing():
    # each parity block, built directly, is bit for bit the slice
    # <r|H|c> +- <r|H|~c> of the full matrix, n = 2 included, where both
    # flips of a representative land on one column
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for periodic in (True, False):
            h = rng.uniform(-1.5, 1.5, n)
            J = rng.uniform(-1.5, 1.5, n if periodic else n - 1)
            full = build_hamiltonian(n, h, J, periodic).matrix
            reps = np.arange(2 ** (n - 1))
            creps = reps ^ (2**n - 1)
            for sector, sign in (("even", 1.0), ("odd", -1.0)):
                block = build_hamiltonian(n, h, J, periodic, sector=sector)
                assert block.sector == sector
                sliced = full[np.ix_(reps, reps)] + sign * full[np.ix_(reps, creps)]
                np.testing.assert_array_equal(block.matrix, sliced, err_msg=(n, periodic, sector))
            np.testing.assert_array_equal(even_sector_matrix(n, h, J, periodic),
                                          build_hamiltonian(n, h, J, periodic, "even").matrix)


def test_sigma_x_elements_match_full_space_lift():
    # lifting only the ground state gives the elements of lifting every level
    for n, g in [(2, 0.5), (4, 0.3), (6, 0.8)]:
        for sector in ("even", "odd"):
            H = uniform_hamiltonian(n, g, sector=sector)
            w, elems = sigma_x_elements(H)
            ref_w, V = np.linalg.eigh(H.matrix)
            lifted = embed_sector_vector(V, n, sector)
            np.testing.assert_array_equal(w, ref_w)
            np.testing.assert_allclose(elems, lifted.T @ sigma_x_apply(n, lifted[:, 0]),
                                       rtol=0, atol=1e-13)
    # a vector lifts from a parity block only; "full" is no block to lift from
    for sector in ("full", "evn"):
        with pytest.raises(ValueError, match=f"sector must be even or odd, got '{sector}'"):
            embed_sector_vector(np.ones(2), 2, sector)


def test_even_sector_gap_matches_dense():
    rng = np.random.default_rng(7)
    for n in range(2, 11):
        for periodic in (False, True):
            nb = n if periodic else n - 1
            for draw in range(6):
                h = rng.uniform(-1.5, 1.5, n)
                J = rng.uniform(-1.5, 1.5, nb)
                if draw == 1:
                    h *= 1e-7
                elif draw == 2:
                    h[rng.integers(n)] = 0.0
                elif draw == 3:
                    J[rng.integers(nb)] = 0.0
                assert abs(even_sector_gap(h, J, periodic)
                           - even_gap(n, h, J, periodic)) <= 1e-12, (n, periodic, draw)
    for n in range(4, 11):
        for step in range(1, n):
            for s in np.linspace(0.0, 1.0, 50):
                h, J = stepwise_weights(n, step, float(s))
                assert abs(even_sector_gap(h, J) - even_gap(n, h, J)) <= 1e-12, (n, step, s)
    with pytest.raises(ValueError, match="shape"):
        even_sector_gap(np.ones(4), np.ones(4), periodic=False)


def test_even_sector_gap_stacked_matches_one_at_a_time():
    # m chains in one call: an array of m gaps, each bitwise that of its
    # own call, which returns a float
    rng = np.random.default_rng(3)
    for n, periodic in [(2, False), (5, True), (8, False), (12, True)]:
        h = rng.uniform(-1.0, 1.0, (7, n))
        J = rng.uniform(-1.0, 1.0, (7, n if periodic else n - 1))
        stacked = even_sector_gap(h, J, periodic)
        single = [even_sector_gap(a, b, periodic) for a, b in zip(h, J)]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (7,)
        assert all(isinstance(x, float) for x in single)
        assert stacked.tolist() == single
    with pytest.raises(ValueError, match="J"):
        even_sector_gap(np.ones((3, 4)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="J"):
        even_sector_gap(np.ones((3, 4)), np.ones(3))
    with pytest.raises(ValueError, match="h"):
        even_sector_gap(np.ones((2, 3, 4)), np.ones((2, 3, 3)))
    with pytest.raises(ValueError, match="h"):
        even_sector_gap(np.ones((3, 1)), np.ones((3, 0)))


def test_stepwise_gap_profile_small_n():
    prof = stepwise_gap_profile(4)
    assert prof.gaps.shape == (3, 50)
    # frozen from the dense scan; the front-localized minimum
    assert prof.min_gap == pytest.approx(1.414508, abs=1e-5)
    # the free-fermion gap has no size cap; the minimum stays size-independent
    for n in (16, 32):
        assert stepwise_gap_profile(n).min_gap == pytest.approx(1.4145080368296699, abs=1e-12)


def test_stepwise_gap_profile_matches_each_point(monkeypatch):
    # the broadcast weights of a size and one stacked gap call give, bit
    # for bit, the gap of every path point on its own
    calls = []

    def spy(h, J, periodic=False):
        calls.append(np.shape(h))
        return even_sector_gap(h, J, periodic)

    monkeypatch.setattr(oracle, "even_sector_gap", spy)
    for n in range(4, 13):
        calls.clear()
        prof = stepwise_gap_profile(n)
        assert calls == [((n - 1) * 50, n)], n
        single = [[even_sector_gap(*stepwise_weights(n, step, s))
                   for s in prof.s_values.tolist()] for step in prof.steps.tolist()]
        assert prof.gaps.tolist() == single, n


def test_uniform_min_even_gap_matches_fundamental_gap():
    # the free-fermion even-sector gap read off the g grid is the
    # (pi/n, -pi/n) pair gap at g = 1/2, 4 sin(pi/2n)
    for n in (4, 6, 8, 10, 12, 16, 32, 64):
        assert uniform_min_even_gap(n) == pytest.approx(4 * np.sin(np.pi / (2 * n)), rel=1e-12), n


def test_composite_boson_path_dimensions_and_projection():
    path = CompositeBosonPath(uniform_path(4, Schedule("linear", 10.0)), omega0=1.0, lam=1e-3,
                              n_quanta=2)
    assert path.dim == 16 * 3
    sys_state = np.zeros(16, dtype=complex)
    sys_state[3] = 1.0
    psi = path.boson_state(sys_state, occupancy=1)
    assert psi[3 * 3 + 1] == 1.0  # row-major (system, boson) layout
    assert path.project(psi, sys_state, 1) == pytest.approx(1.0)
    assert path.project(psi, sys_state, 0) == 0.0


def test_pair_occupations_match_dense_ground_state():
    # the transverse-field expectation of the dense ground state equals
    # n - 2 sum_k |v_k|^2, pinning the closed-form pair amplitudes;
    # at (n=2, g=1/2, ka=pi/2) this is 2 - 4/(4 + 2 sqrt(2)) = sqrt(2)
    for n, g in [(2, 0.5), (4, 0.3), (4, 0.5), (6, 0.8)]:
        spec = ChainSpec(n)
        w, V = np.linalg.eigh(uniform_hamiltonian(n, g, sector="even").matrix)
        gs = embed_sector_vector(V[:, 0], n, "even")
        x_dense = gs @ sigma_x_apply(n, gs)
        _, v = instantaneous_pair(momentum_grid(spec), g)
        assert x_dense == pytest.approx(n - 2 * np.sum(np.abs(v) ** 2), abs=1e-10)
    assert 2 - 4 / (4 + 2 * np.sqrt(2)) == pytest.approx(np.sqrt(2), rel=1e-15)
