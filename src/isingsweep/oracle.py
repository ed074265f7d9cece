"""Brute-force many-body computations on the full 2^n Hilbert space.

Ground truth for every fermionic formula: dense spectra with bit-flip
parity resolution, transverse-field matrix elements, time-dependent
Schroedinger evolution, and the even-sector gap profile of the
step-wise sweep.

Every spin Hamiltonian here (the dense matrix or parity block of
:func:`build_hamiltonian` and the matrix-free time-dependent
:class:`SweepPath`) comes from one shape check on the fields ``h`` and
bond weights ``J`` and one table of the sigma^z sigma^z diagonal of
every bond.  The even and odd blocks (2^(n-1) square) are built
directly in the sector basis; only ``sector="full"`` builds the 2^n
matrix.  A path is the uniform
sweep (:func:`uniform_path`) or the step-wise one (:func:`stepwise_path`);
:class:`CompositeBosonPath` couples either to one boson mode, the dense
check of the response amplitudes.

The step-wise gap profile is a closed form: along that path the
free-fermion matrix Z of :func:`isingsweep.chain.even_sector_gap` is a
2 x 2 block and unit columns on the first step and has orthogonal
columns on every later one, so its singular values are known.
:func:`even_gap` diagonalizes the dense 2^(n-1) even sector; the tests
hold the closed form against both.

Basis conventions: computational sigma^z basis, site j <-> bit j,
bit value 0 means sigma^z = +1.  The global bit-flip parity operator
is the product of all sigma^x, i.e. index complement.  Hamiltonians
are H = -sum_j h_j sigma^x_j - sum_b J_b sigma^z sigma^z, real
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import check_number
from .schedules import Schedule, _check_total_time, stepwise_weights

__all__ = [
    "DenseHamiltonian",
    "EvolutionError",
    "build_hamiltonian",
    "uniform_hamiltonian",
    "parity_commutator_max",
    "embed_sector_vector",
    "sigma_x_apply",
    "sigma_x_elements",
    "SweepPath",
    "uniform_path",
    "stepwise_path",
    "CompositeBosonPath",
    "schrodinger_evolve",
    "even_sector_matrix",
    "even_gap",
    "stepwise_gap_profile",
]

_DENSE_CAP = 14
_EVOLVE_CAP = 12
_N_QUANTA = 2  # most boson quanta a CompositeBosonPath holds
# sign of the complement |~r> in a block's basis state (|r> +- |~r>)/sqrt(2)
_SECTOR_SIGN = {"full": 1.0, "even": 1.0, "odd": -1.0}


class EvolutionError(RuntimeError):
    pass


@dataclass
class DenseHamiltonian:
    """Dense spin Hamiltonian of an n-site chain, or one of its parity blocks."""

    n: int
    matrix: np.ndarray = field(repr=False)
    sector: str = "full"


def _check_weights(n: int, h, J, periodic: bool):
    """``(h, J)`` as float vectors: one field per site, one weight per bond."""
    h = np.asarray(h, dtype=float)
    J = np.asarray(J, dtype=float)
    nb = n if periodic else n - 1
    if h.shape != (n,):
        raise ValueError(f"h must have shape ({n},), got {h.shape}")
    if J.shape != (nb,):
        raise ValueError(f"J must have shape ({nb},), got {J.shape}")
    return h, J


def _bond_table(n: int, periodic: bool) -> np.ndarray:
    """sigma^z_j sigma^z_j' diagonal of every bond (j, j+1 mod n), shape (bonds, 2^n)."""
    z = 1.0 - 2.0 * ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1)
    j = np.arange(n if periodic else n - 1)
    return z[j] * z[(j + 1) % n]


def _flips(n: int) -> np.ndarray:
    """Index of sigma^x_j |i>, shape (n, 2^n): row j is i ^ 2^j."""
    return np.arange(1 << n) ^ (1 << np.arange(n))[:, None]


def build_hamiltonian(n: int, h, J, periodic: bool = True,
                      sector: str = "full") -> DenseHamiltonian:
    """Dense H = -sum h_j sigma^x_j - sum J_b sigma^z sigma^z.

    ``sector="full"`` builds the 2^n x 2^n matrix; ``"even"`` or ``"odd"``
    builds that bit-flip parity block (2^(n-1) square) in the basis
    (|r> +- |~r>)/sqrt(2), r < 2^(n-1) and ~r its complement.
    """
    if sector not in _SECTOR_SIGN:
        raise ValueError(f"sector must be full/even/odd, got {sector!r}")
    dim = 1 << (n if sector == "full" else n - 1)
    if n > _DENSE_CAP:
        raise ValueError(
            f"n={n} exceeds the dense diagonalization cap n<={_DENSE_CAP} (the {sector} "
            f"Hamiltonian, {dim} x {dim}, would need {dim * dim * 8 / 2**30:.1f} GiB)"
        )
    h, J = _check_weights(n, h, J, periodic)
    i = np.arange(dim)
    H = np.zeros((dim, dim))
    H[i, i] -= J @ _bond_table(n, periodic)[:, :dim]
    # a flip that leaves the representatives lands on the complement of a
    # representative, with the sector's sign; one site at a time, since at
    # n = 2 both flips of a representative land on one column and a single
    # fancy-index -= would drop one of them
    top = (1 << n) - 1
    for j, f in enumerate(_flips(n)[:, :dim]):
        out = f >= dim
        H[i, np.where(out, top - f, f)] -= h[j] * np.where(out, _SECTOR_SIGN[sector], 1.0)
    return DenseHamiltonian(n=n, matrix=H, sector=sector)


def _uniform_weights(n: int, g: float, periodic: bool):
    """Uniform sweep weights h_j = 1-g and J_b = g."""
    return np.full(n, 1.0 - g), np.full(n if periodic else n - 1, g)


def uniform_hamiltonian(n: int, g: float, periodic: bool = True,
                        sector: str = "full") -> DenseHamiltonian:
    """Uniform sweep Hamiltonian with h_j = 1-g and J_b = g."""
    return build_hamiltonian(n, *_uniform_weights(n, g, periodic), periodic, sector)


def parity_commutator_max(H: DenseHamiltonian) -> float:
    """max |[H, P]| entrywise, P the global bit-flip (H on the full space)."""
    if H.sector != "full":
        raise ValueError(f"the parity check needs the full matrix, got the {H.sector} block")
    comp = np.arange(len(H.matrix))[::-1]  # i ^ (dim-1) == dim-1-i
    return float(np.max(np.abs(H.matrix[:, comp] - H.matrix[comp, :])))


def _sector_reps(dim: int, sector: str):
    """Representatives i < dim/2, their complements and the sector's sign."""
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be even or odd, got {sector!r}")
    reps = np.arange(dim // 2)
    return reps, reps ^ (dim - 1), _SECTOR_SIGN[sector]


def embed_sector_vector(x: np.ndarray, n: int, sector: str) -> np.ndarray:
    """Lift a parity-sector vector (or stacked columns) to the full 2^n space."""
    dim = 1 << n
    reps, creps, sign = _sector_reps(dim, sector)
    psi = np.zeros((dim,) + x.shape[1:], dtype=x.dtype)
    psi[reps] = x / np.sqrt(2.0)
    psi[creps] = sign * x / np.sqrt(2.0)
    return psi


def sigma_x_apply(n: int, psi: np.ndarray) -> np.ndarray:
    """Apply sum_j sigma^x_j to full-space vectors (or stacked columns)."""
    return psi[_flips(n)].sum(axis=0)


def sigma_x_elements(H: DenseHamiltonian):
    """Energies and elements <s| sum sigma^x |0> for every level s of H.

    On a parity block the ground state is that sector's, which keeps it
    unique even at g = 1 where the full-spectrum ground state is a parity
    doublet.  Only the ground state is lifted to the full space, and
    sum sigma^x |0> is projected back onto the block's basis.
    """
    w, V = np.linalg.eigh(H.matrix)
    if H.sector == "full":
        return w, V.T @ sigma_x_apply(H.n, V[:, 0])
    x0 = sigma_x_apply(H.n, embed_sector_vector(V[:, 0], H.n, H.sector))
    reps, creps, sign = _sector_reps(1 << H.n, H.sector)
    return w, V.T @ ((x0[reps] + sign * x0[creps]) / np.sqrt(2.0))


class SweepPath:
    """Matrix-free H(t) = -sum h_j(t) sigma^x_j - sum J_b(t) sigma^z sigma^z.

    ``weights(t)`` returns the fields and bond weights ``(h, J)`` at
    time t; ``apply`` acts on a full-space vector or on stacked columns.
    """

    def __init__(self, n: int, weights, periodic: bool):
        self.n = int(n)
        self.dim = 1 << self.n
        self.weights = weights
        _check_weights(self.n, *weights(0.0), periodic)
        self._minus_zz = -_bond_table(self.n, periodic)
        self._flips = _flips(self.n)

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        h, J = self.weights(t)
        diag = J @ self._minus_zz
        out = (diag if psi.ndim == 1 else diag[:, None]) * psi
        out -= (h @ psi[self._flips].reshape(self.n, -1)).reshape(psi.shape)
        return out


def uniform_path(n: int, schedule: Schedule) -> SweepPath:
    """H(t) of the uniform sweep on the ring, driven by a schedule."""
    return SweepPath(n, lambda t: _uniform_weights(n, float(schedule.g_of_t(t)), True),
                     periodic=True)


def _check_open_size(n) -> None:
    """Raise ValueError naming ``n`` unless it is an integer >= 2 (odd is fine on the open chain)."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 2):
        raise ValueError(f"n: must be an integer >= 2, got {n!r}")


def stepwise_path(n: int, total_time: float) -> SweepPath:
    """H(t) along the step-wise spatial sweep (open chain) in time ``total_time``.

    Each of the n-1 steps takes an equal share of the time, linear in s;
    a time past the end clamps to it.
    """
    _check_open_size(n)
    T = _check_total_time(total_time)

    def weights(t):
        if not t >= 0.0:
            raise ValueError(f"t outside [0, {T}]")
        frac = min(t / T, 1.0) * (n - 1)
        step = min(int(frac), n - 2)
        return stepwise_weights(n, step + 1, frac - step)

    return SweepPath(n, weights, periodic=False)


class CompositeBosonPath:
    """A system path coupled to one boson mode through the transverse field.

    H(t) = H_sys(t) x 1 + omega0 * b^dag b + lam * (sum sigma^x) x (b + b^dag),
    boson truncated at _N_QUANTA quanta.  Realizes a monochromatic
    bath line at omega0; starting from one boson probes absorption
    (positive frequency), starting from zero probes emission.
    """

    def __init__(self, system: SweepPath, omega0: float, lam: float):
        self.sys = system
        self.n = system.n
        self.levels = _N_QUANTA + 1
        self.dim = system.dim * self.levels
        self.omega0 = float(check_number("omega0", omega0, -np.inf))
        self.lam = float(check_number("lam", lam, 0.0, inclusive=True))
        m = np.arange(self.levels)
        B = np.zeros((self.levels, self.levels))
        B[m[:-1], m[:-1] + 1] = np.sqrt(m[1:])  # b
        self._B = B + B.T                       # b + b^dag
        self._nb = m.astype(float)

    def boson_state(self, sys_state: np.ndarray, occupancy: int) -> np.ndarray:
        psi = np.zeros((self.sys.dim, self.levels), dtype=complex)
        psi[:, occupancy] = sys_state
        return psi.reshape(-1)

    def project(self, psi: np.ndarray, sys_state: np.ndarray, occupancy: int) -> complex:
        block = psi.reshape(self.sys.dim, self.levels)[:, occupancy]
        return complex(np.vdot(sys_state, block))

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        block = psi.reshape(self.sys.dim, self.levels)
        out = self.sys.apply(t, block)
        out = out + self.omega0 * block * self._nb
        out = out + self.lam * (sigma_x_apply(self.n, block) @ self._B)
        return out.reshape(-1)


def schrodinger_evolve(path, psi0: np.ndarray, T: float, rtol: float = 1e-10, t_eval=None):
    """Integrate i dpsi/dt = H(t) psi from 0 to T.

    Returns the final state, or ``(times, states)`` with states in
    columns when ``t_eval`` is given.
    """
    if path.n > _EVOLVE_CAP:
        raise ValueError(f"n={path.n} exceeds the evolution cap n<={_EVOLVE_CAP}")
    # a NaN or infinite T or rtol would never finish, and T=True would stop at t = 1
    check_number("T", T, 0.0, inclusive=True)
    check_number("rtol", rtol, 1e-12, inclusive=True)
    if psi0.shape != (path.dim,):
        raise ValueError(f"psi0 must have shape ({path.dim},), got {psi0.shape}")
    from scipy.integrate import solve_ivp  # only this dense reference needs scipy

    # run tighter than requested: the contract is norm preservation
    # within 10*rtol over the whole evolution, not per step
    sol = solve_ivp(
        lambda t, y: -1j * path.apply(t, y),
        (0.0, T), psi0.astype(complex),
        method="DOP853", rtol=max(rtol / 20.0, 1e-13),
        atol=max(rtol / 200.0, 1e-14),
        t_eval=t_eval, dense_output=False,
    )
    if not sol.success:
        raise EvolutionError(f"evolution failed near t={sol.t[-1]:.6g}: {sol.message}")
    if t_eval is None:
        return sol.y[:, -1]
    return sol.t, sol.y


def even_sector_matrix(n: int, h, J, periodic: bool = False) -> np.ndarray:
    """Even-parity block (2^(n-1) square) of :func:`build_hamiltonian`."""
    return build_hamiltonian(n, h, J, periodic, sector="even").matrix


def even_gap(n: int, h, J, periodic: bool = False) -> float:
    """Gap between the two lowest even-parity levels, by dense diagonalization."""
    w = np.linalg.eigvalsh(even_sector_matrix(n, h, J, periodic))
    return float(w[1] - w[0])


_S_POINTS = 50  # points per step of a step-wise gap profile


@dataclass
class StepwiseGapProfile:
    n: int
    steps: np.ndarray
    s_values: np.ndarray
    gaps: np.ndarray  # shape (n-1, len(s_values))

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())


def stepwise_gap_profile(n: int) -> StepwiseGapProfile:
    """Even-sector gap over every step of the step-wise path (open chain), in closed form.

    The gap is 2 (sigma_2 + sign(det Z) sigma_1), sigma_1 <= sigma_2 the
    two smallest singular values of Z (h on the diagonal, J on the
    superdiagonal; see :func:`isingsweep.chain.even_sector_gap`), and
    det Z = prod(h).  With the weights of
    :func:`isingsweep.schedules.stepwise_weights` at local parameter s:

    - Step 1: J = (s, 0, ...) and h = (1-s, 1-s, 1, ...), so
      Z = [[1-s, s], [0, 1-s]] (+) I.  The block's singular values have
      product (1-s)^2 and squares summing to 2(1-s)^2 + s^2, so they
      are (r -+ s)/2 with r = sqrt(s^2 + 4(1-s)^2); both are at most 1,
      since r + s <= 2 on [0, 1].  det Z = (1-s)^2 >= 0, and at s = 1,
      where it vanishes, sigma_1 = 0: the gap is 2r.
    - Step j >= 2: bonds 1..j-1 are 1, bond j is s, the rest 0, so h_1
      = ... = h_j = 0, h_(j+1) = 1-s and the later fields are 1.  Z's
      columns are then orthogonal: a zero column (the edge zero mode,
      sigma_1 = 0 and det Z = 0), unit vectors, and (s, 1-s) on rows
      j, j+1.  Since s^2 + (1-s)^2 <= 1, the gap is 2 sqrt(s^2 + (1-s)^2).

    Every later step repeats one curve, whose minimum sqrt(2) at s = 1/2
    holds at every n >= 3 (1.4145080368296699 at the grid points
    nearest 1/2); at n = 2 only step 1 exists, with minimum 4/sqrt(5)
    at s = 4/5 (1.788947510270296 on the grid).  ``n`` is any integer >= 2.
    """
    _check_open_size(n)
    svals = np.linspace(0.0, 1.0, _S_POINTS)
    first = 2.0 * np.sqrt(svals * svals + 4.0 * (1.0 - svals) ** 2)
    later = 2.0 * np.sqrt(svals * svals + (1.0 - svals) ** 2)
    gaps = np.vstack((first, np.broadcast_to(later, (n - 2, _S_POINTS))))
    return StepwiseGapProfile(n=n, steps=np.arange(1, n), s_values=svals, gaps=gaps)
