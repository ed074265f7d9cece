"""Brute-force many-body computations on the full 2^n Hilbert space.

Ground truth for every fermionic formula: dense spectra with bit-flip
parity resolution, transverse-field matrix elements, time-dependent
Schroedinger evolution (uniform sweep, step-wise sweep, and the
system + single-boson composite used to validate the response
amplitudes), and the even-sector gap profiles of the two sweep styles.

The gap profiles take their gaps from the free-fermion spectrum
(:func:`isingsweep.chain.even_sector_gap`, an n x n singular-value
problem); :func:`even_gap` diagonalizes the dense 2^(n-1) even sector
and is the reference that fermionic gap is tested against.

Basis conventions: computational sigma^z basis, site j <-> bit j,
bit value 0 means sigma^z = +1.  The global bit-flip parity operator
is the product of all sigma^x, i.e. index complement.  Hamiltonians
are H = -sum_j h_j sigma^x_j - sum_b J_b sigma^z sigma^z, real
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, even_sector_gap
from .schedules import Schedule, StepWiseSweep, StepWisePath, stepwise_hamiltonian_weights

__all__ = [
    "DenseHamiltonian",
    "EvolutionError",
    "build_hamiltonian",
    "uniform_hamiltonian",
    "parity_commutator_max",
    "spectrum",
    "embed_sector_vector",
    "sigma_x_apply",
    "sigma_x_elements",
    "matrix_element_sigma_x",
    "UniformSweepPath",
    "StepWiseEvolvePath",
    "CompositeBosonPath",
    "schrodinger_evolve",
    "even_sector_matrix",
    "even_gap",
    "stepwise_gap_profile",
    "uniform_min_even_gap",
]

_DENSE_CAP = 14
_EVOLVE_CAP = 12


class EvolutionError(RuntimeError):
    pass


@dataclass
class DenseHamiltonian:
    """Dense spin Hamiltonian with its term weights."""

    n: int
    h: np.ndarray
    J: np.ndarray
    periodic: bool
    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.n


def _bond_list(n: int, periodic: bool):
    return [(j, (j + 1) % n) for j in range(n if periodic else n - 1)]


def build_hamiltonian(n: int, h, J, periodic: bool = True) -> DenseHamiltonian:
    """Dense H = -sum h_j sigma^x_j - sum J_b sigma^z sigma^z (2^n x 2^n)."""
    if n > _DENSE_CAP:
        raise ValueError(
            f"n={n} exceeds the dense diagonalization cap n<={_DENSE_CAP} "
            f"(a 2^{n} x 2^{n} matrix would need {(1 << (2 * n)) * 8 / 2**30:.1f} GiB)"
        )
    h = np.asarray(h, dtype=float)
    J = np.asarray(J, dtype=float)
    bonds = _bond_list(n, periodic)
    if h.shape != (n,):
        raise ValueError(f"h must have shape ({n},), got {h.shape}")
    if J.shape != (len(bonds),):
        raise ValueError(f"J must have shape ({len(bonds)},), got {J.shape}")
    dim = 1 << n
    idx = np.arange(dim)
    diag = np.zeros(dim)
    for b, (j, jp) in enumerate(bonds):
        zj = 1.0 - 2.0 * ((idx >> j) & 1)
        zjp = 1.0 - 2.0 * ((idx >> jp) & 1)
        diag -= J[b] * zj * zjp
    H = np.zeros((dim, dim))
    H[idx, idx] = diag
    for j in range(n):
        H[idx, idx ^ (1 << j)] -= h[j]
    return DenseHamiltonian(n=n, h=h, J=J, periodic=periodic, matrix=H)


def uniform_hamiltonian(n: int, g: float, periodic: bool = True) -> DenseHamiltonian:
    """Uniform sweep Hamiltonian with h_j = 1-g and J_b = g."""
    nb = n if periodic else n - 1
    return build_hamiltonian(n, np.full(n, 1.0 - g), np.full(nb, g), periodic)


def parity_commutator_max(H: DenseHamiltonian) -> float:
    """max |[H, P]| entrywise, P the global bit-flip."""
    comp = np.arange(H.dim)[::-1]  # i ^ (dim-1) == dim-1-i
    return float(np.max(np.abs(H.matrix[:, comp] - H.matrix[comp, :])))


def _sector_reps(dim: int):
    reps = np.arange(dim // 2)
    return reps, reps ^ (dim - 1)


def _sector_matrix(H: DenseHamiltonian, sector: str) -> np.ndarray:
    reps, creps = _sector_reps(H.dim)
    sign = +1.0 if sector == "even" else -1.0
    return H.matrix[np.ix_(reps, reps)] + sign * H.matrix[np.ix_(reps, creps)]


def embed_sector_vector(x: np.ndarray, n: int, sector: str) -> np.ndarray:
    """Lift a parity-sector vector to the full 2^n space."""
    dim = 1 << n
    reps, creps = _sector_reps(dim)
    sign = +1.0 if sector == "even" else -1.0
    psi = np.zeros(dim, dtype=x.dtype)
    psi[reps] = x / np.sqrt(2.0)
    psi[creps] = sign * x / np.sqrt(2.0)
    return psi


def spectrum(H: DenseHamiltonian, sector: str = "full", eigenvectors: bool = False):
    """Ascending eigenvalues of H restricted to a parity sector.

    For sectors, returned eigenvectors live in the sector basis; use
    :func:`embed_sector_vector` to lift them.
    """
    if sector not in ("full", "even", "odd"):
        raise ValueError(f"sector must be full/even/odd, got {sector!r}")
    M = H.matrix if sector == "full" else _sector_matrix(H, sector)
    if eigenvectors:
        return np.linalg.eigh(M)
    return np.linalg.eigvalsh(M)


def sigma_x_apply(n: int, psi: np.ndarray) -> np.ndarray:
    """Apply sum_j sigma^x_j to full-space vectors (or stacked columns)."""
    idx = np.arange(1 << n)
    out = np.zeros_like(psi)
    for j in range(n):
        out += psi[idx ^ (1 << j)]
    return out


def sigma_x_elements(H: DenseHamiltonian, sector: str = "even"):
    """Energies and elements <s| sum sigma^x |0> for every sector level s.

    The ground state is taken inside the requested parity sector, which
    keeps it unique even at g = 1 where the full-spectrum ground state
    is a parity doublet.
    """
    w, V = spectrum(H, sector=sector, eigenvectors=True)
    if sector == "full":
        full = V
    else:
        full = np.zeros((H.dim, V.shape[1]))
        reps, creps = _sector_reps(H.dim)
        sign = +1.0 if sector == "even" else -1.0
        full[reps] = V / np.sqrt(2.0)
        full[creps] = sign * V / np.sqrt(2.0)
    x0 = sigma_x_apply(H.n, full[:, 0])
    return w, full.T @ x0


def matrix_element_sigma_x(H: DenseHamiltonian, s: int, sector: str = "even",
                           degeneracy_tol: float = 1e-8):
    """Element <s| sum sigma^x |0> for one level.

    Returns ``(value, False)`` for an isolated level; for a level inside
    a degenerate cluster returns ``(projection norm onto the cluster,
    True)`` since individual elements are basis dependent there.
    """
    w, elems = sigma_x_elements(H, sector=sector)
    cluster = np.where(np.abs(w - w[s]) <= degeneracy_tol)[0]
    if cluster.size > 1:
        return complex(np.sqrt(np.sum(np.abs(elems[cluster]) ** 2))), True
    return complex(elems[s]), False


class UniformSweepPath:
    """H(t) of the uniform sweep driven by a schedule."""

    def __init__(self, spec: ChainSpec | int, schedule: Schedule, periodic: bool = True):
        self.n = spec.n if isinstance(spec, ChainSpec) else int(spec)
        self.schedule = schedule
        self.periodic = periodic
        self.dim = 1 << self.n
        idx = np.arange(self.dim)
        self._xor = [idx ^ (1 << j) for j in range(self.n)]
        zz = np.zeros(self.dim)
        for j, jp in _bond_list(self.n, periodic):
            zz += (1.0 - 2.0 * ((idx >> j) & 1)) * (1.0 - 2.0 * ((idx >> jp) & 1))
        self._zz = zz

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        g = float(self.schedule.g_of_t(t))
        zz = self._zz if psi.ndim == 1 else self._zz[:, None]
        out = -g * zz * psi
        w = g - 1.0  # -(1-g)
        for xo in self._xor:
            out += w * psi[xo]
        return out


class StepWiseEvolvePath:
    """H(t) along the step-wise spatial sweep (open chain)."""

    def __init__(self, sweep: StepWiseSweep):
        self.sweep = sweep
        self.n = sweep.n
        self.dim = 1 << self.n
        idx = np.arange(self.dim)
        self._xor = [idx ^ (1 << j) for j in range(self.n)]
        self._zz = []
        for j, jp in _bond_list(self.n, periodic=False):
            self._zz.append((1.0 - 2.0 * ((idx >> j) & 1)) * (1.0 - 2.0 * ((idx >> jp) & 1)))

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        h, J = self.sweep.weights_at(min(t, self.sweep.total_time))
        out = np.zeros_like(psi)
        for j in range(self.n):
            if h[j] != 0.0:
                out -= h[j] * psi[self._xor[j]]
        for b, Jb in enumerate(J):
            if Jb != 0.0:
                out -= Jb * self._zz[b] * psi
        return out


class CompositeBosonPath:
    """Uniform sweep coupled to one boson mode through the transverse field.

    H(t) = H_sys(t) x 1 + omega0 * b^dag b + lam * (sum sigma^x) x (b + b^dag),
    boson truncated at ``n_quanta`` quanta.  Realizes a monochromatic
    bath line at omega0; starting from one boson probes absorption
    (positive frequency), starting from zero probes emission.
    """

    def __init__(self, spec: ChainSpec | int, schedule: Schedule, omega0: float,
                 lam: float, n_quanta: int = 2, periodic: bool = True):
        self.sys = UniformSweepPath(spec, schedule, periodic)
        self.n = self.sys.n
        self.levels = n_quanta + 1
        self.dim = self.sys.dim * self.levels
        self.omega0 = float(omega0)
        self.lam = float(lam)
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


def schrodinger_evolve(path, psi0: np.ndarray, T: float, rtol: float = 1e-10,
                       t_eval=None, atol: float | None = None):
    """Integrate i dpsi/dt = H(t) psi from 0 to T.

    Returns the final state, or ``(times, states)`` with states in
    columns when ``t_eval`` is given.
    """
    if path.n > _EVOLVE_CAP:
        raise ValueError(f"n={path.n} exceeds the evolution cap n<={_EVOLVE_CAP}")
    if rtol < 1e-12:
        raise ValueError(f"rtol must be >= 1e-12, got {rtol}")
    if psi0.shape != (path.dim,):
        raise ValueError(f"psi0 must have shape ({path.dim},), got {psi0.shape}")
    from scipy.integrate import solve_ivp  # only this dense reference needs scipy

    # run tighter than requested: the contract is norm preservation
    # within 10*rtol over the whole evolution, not per step
    sol = solve_ivp(
        lambda t, y: -1j * path.apply(t, y),
        (0.0, T), psi0.astype(complex),
        method="DOP853", rtol=max(rtol / 20.0, 1e-13),
        atol=atol if atol is not None else max(rtol / 200.0, 1e-14),
        t_eval=t_eval, dense_output=False,
    )
    if not sol.success:
        raise EvolutionError(f"evolution failed near t={sol.t[-1]:.6g}: {sol.message}")
    if t_eval is None:
        return sol.y[:, -1]
    return sol.t, sol.y


def even_sector_matrix(n: int, h, J, periodic: bool = False) -> np.ndarray:
    """Even-parity block built directly in the sector basis (2^(n-1) dim)."""
    h = np.asarray(h, dtype=float)
    J = np.asarray(J, dtype=float)
    dim = 1 << n
    half = dim // 2
    i = np.arange(half)
    diag = np.zeros(half)
    for b, (j, jp) in enumerate(_bond_list(n, periodic)):
        zj = 1.0 - 2.0 * ((i >> j) & 1)
        zjp = 1.0 - 2.0 * ((i >> jp) & 1)
        diag -= J[b] * zj * zjp
    He = np.zeros((half, half))
    He[i, i] = diag
    for j in range(n - 1):
        He[i, i ^ (1 << j)] -= h[j]
    # sigma^x on the top bit crosses sectors: it couples representative
    # i to the complement of i ^ MSB, which is half-1-i.
    He[i, half - 1 - i] -= h[n - 1]
    return He


def even_gap(n: int, h, J, periodic: bool = False) -> float:
    """Gap between the two lowest even-parity levels, by dense diagonalization."""
    w = np.linalg.eigvalsh(even_sector_matrix(n, h, J, periodic))
    return float(w[1] - w[0])


@dataclass
class StepwiseGapProfile:
    n: int
    steps: np.ndarray
    s_values: np.ndarray
    gaps: np.ndarray  # shape (n-1, len(s_values))

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())


def stepwise_gap_profile(n: int, s_points: int = 50) -> StepwiseGapProfile:
    """Even-sector gap over every step of the step-wise path (open chain)."""
    svals = np.linspace(0.0, 1.0, s_points)
    steps = np.arange(1, n)
    gaps = np.empty((len(steps), len(svals)))
    for si, step in enumerate(steps):
        for sj, s in enumerate(svals):
            hw, Jw = stepwise_hamiltonian_weights(StepWisePath(n, int(step), float(s)))
            gaps[si, sj] = even_sector_gap(hw, Jw, periodic=False)
    return StepwiseGapProfile(n=n, steps=steps, s_values=svals, gaps=gaps)


def uniform_min_even_gap(n: int) -> float:
    """Minimum over g of the uniform ring's even-sector gap.

    Read off a 41-point g grid, which is exact: the gap is the
    (pi/n, -pi/n) pair gap 2 epsilon(pi/n, g), smallest at g = 1/2,
    and g = 1/2 is a grid node.
    """
    return min(even_sector_gap(np.full(n, 1.0 - g), np.full(n, g), periodic=True)
               for g in np.linspace(0.0, 1.0, 41))
