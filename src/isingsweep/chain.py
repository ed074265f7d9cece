"""Static description of the transverse-field Ising chain.

The chain of n spins with periodic boundary conditions interpolates
between a pure transverse field (sweep parameter g = 0) and a pure
ferromagnetic coupling (g = 1).  After the Jordan-Wigner mapping the
even fermion-parity sector decouples into independent momentum pairs
(k, -k) on the antiperiodic grid k in pi*(1+2Z)/n, |k| < pi.  Every
quantity depends on momentum only through ka, so momenta are
dimensionless: k stands for ka, the lattice spacing a being the unit
of length.  This module provides the grid, the per-mode coefficients
and energies, gaps, the ground-state energy, and the transverse-field
matrix element connecting the ground state to a single (k, -k)
quasiparticle pair.

Open and inhomogeneous chains, H = -sum_j h_j sigma^x_j - sum_b J_b
sigma^z sigma^z with arbitrary real weights, have no momentum grid but
stay quadratic in the fermions (Lieb, Schultz and Mattis, Ann. Phys.
16, 407 (1961)).  Their single-particle energies are twice the singular
values of the n x n matrix Z with h on the diagonal and J on the
superdiagonal, which gives the even-sector gap of any such chain from
an n x n problem instead of a 2^(n-1) one.

Conventions (fixed here, documented rather than inferred): spin-down
basis ordering with sigma^x_j = 1 - 2 c_j^dag c_j and Fourier transform
c_j = sum_k c_k exp(-i k j) / sqrt(n).  These fix the *phase* of the
pair matrix element; only its magnitude is convention independent and
only the magnitude is cross-checked against dense diagonalization.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "check_number",
    "ChainSpec",
    "CouplingConstant",
    "momentum_grid",
    "channel_momenta",
    "mode_alpha",
    "mode_beta",
    "mode_epsilon",
    "mode_epsilon_dg",
    "pair_matrix_element",
    "fundamental_gap",
    "ground_energy",
    "excitation_matrix_element",
    "even_sector_gap",
]


def check_number(name: str, value, least: float, inclusive: bool = False):
    """``value``, if it is a finite real number above ``least`` (or, ``inclusive``, at it).

    Otherwise raises ValueError starting with ``name``, so that every
    number-valued input is judged by one rule and named by its caller.
    NaN, infinities, bools and strings all fail.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (value >= least if inclusive else value > least)):
        bound = f">= {least}" if inclusive else f"> {least}"
        raise ValueError(f"{name}: must be a finite number {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class ChainSpec:
    """Chain of ``n`` spins.

    ``n`` must be even so that every grid momentum +k is paired with -k;
    odd n would leave unpaired momenta and break the (k, -k) channel
    structure of the excitation matrix element.
    """

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2 and self.n % 2 == 0):
            raise ValueError(f"n must be an even integer >= 2, got {self.n!r}")

    @property
    def smallest_momentum(self) -> float:
        """The lowest positive grid momentum pi/n."""
        return np.pi / self.n


@dataclass(frozen=True)
class CouplingConstant:
    """Dimensionless system-bath coupling strength.

    First-order response theory assumes a weak coupling; values above
    0.1 are accepted with a warning, anything but a positive finite
    number is rejected.
    """

    lam: float

    def __post_init__(self):
        check_number("lam", self.lam, 0.0)
        if self.lam > 0.1:
            warnings.warn(
                f"coupling lambda={self.lam} is large; first-order response "
                "theory assumes lambda << 1",
                stacklevel=3,  # past the __init__ that dataclass generates
            )


def momentum_grid(spec: ChainSpec) -> np.ndarray:
    """Antiperiodic momentum grid, sorted ascending.

    Returns the n dimensionless momenta k = pi*(2m+1)/n with |k| < pi.
    The grid is symmetric under k -> -k and contains no k = 0 or |k| = pi.
    """
    odd = 2 * np.arange(spec.n) + 1 - spec.n
    return np.pi * odd / spec.n


def channel_momenta(spec: ChainSpec) -> np.ndarray:
    """The n/2 positive grid momenta, ascending: one per (k, -k) pair channel."""
    return momentum_grid(spec)[spec.n // 2:]


def mode_alpha(ka, g):
    """Diagonal mode coefficient alpha = 2 - 4 g cos^2(ka/2)."""
    return 2.0 - 4.0 * np.asarray(g) * np.cos(np.asarray(ka) / 2.0) ** 2


def mode_beta(ka, g):
    """Pairing mode coefficient beta = 2 g sin(ka)."""
    return 2.0 * np.asarray(g) * np.sin(np.asarray(ka))


def mode_epsilon(ka, g):
    """Single-particle energy 2*sqrt(1 - 4 g (1-g) cos^2(ka/2)).

    Evaluated in the cancellation-free arrangement
    2*sqrt(sin^2(ka/2) + (1-2g)^2 cos^2(ka/2)), which is algebraically
    identical but stays accurate near g = 1/2 for small momenta.
    """
    ka = np.asarray(ka)
    g = np.asarray(g)
    s = np.sin(ka / 2.0)
    c = np.cos(ka / 2.0)
    return 2.0 * np.sqrt(s * s + ((1.0 - 2.0 * g) * c) ** 2)


def mode_epsilon_dg(ka, g):
    """d(epsilon)/dg = 8 cos^2(ka/2) (2g-1) / epsilon."""
    ka = np.asarray(ka)
    x = 2.0 * np.asarray(g) - 1.0
    return 8.0 * np.cos(ka / 2.0) ** 2 * x / mode_epsilon(ka, g)


def pair_matrix_element(ka, g):
    """Pair matrix element 4i g sin(ka) / epsilon(ka, g), without a grid check.

    Takes scalars or NumPy arrays, for callers that have validated the
    momentum (:func:`excitation_matrix_element` is the checked form).
    """
    return 1j * (4.0 * g * np.sin(ka) / mode_epsilon(ka, g))


def _check_on_grid(spec: ChainSpec, k: float) -> float:
    grid = momentum_grid(spec)
    i = np.argmin(np.abs(grid - k))
    if abs(grid[i] - k) > 1e-12 * (1.0 + abs(k)):
        raise ValueError(f"k={k} is not on the momentum grid of n={spec.n}")
    return float(grid[i])


def _check_channel(spec: ChainSpec, k: float) -> float:
    """The grid momentum k > 0 that labels a (k, -k) pair channel."""
    k = _check_on_grid(spec, k)
    if k <= 0:
        raise ValueError(f"pair channels are labelled by positive k, got k={k}")
    return k


def fundamental_gap(spec: ChainSpec, g: float):
    """Gap 2*epsilon_k of the lowest-momentum pair channel, k = pi/n.

    Minimal at g = 1/2 with value 4*sin(pi/(2n)) = O(1/n).
    """
    return 2.0 * mode_epsilon(spec.smallest_momentum, g)


def ground_energy(spec: ChainSpec, g: float) -> float:
    """Energy -(1/2) sum_k epsilon_k of the quasiparticle vacuum."""
    return float(-0.5 * np.sum(mode_epsilon(momentum_grid(spec), g)))


def excitation_matrix_element(spec: ChainSpec, k: float, g: float) -> complex:
    """Matrix element <s| sum_j sigma^x_j |0> for the pair s = (k, -k).

    Returns 4i g sin(ka) / epsilon_k(g) for k > 0 on the grid; the
    energy gap of this channel is 2*epsilon_k.  The elements of k and
    -k differ only by the sign of sin(ka); channel probabilities depend
    on the magnitude alone.

    The magnitude 4 g |sin(ka)| / epsilon_k is verified against dense
    diagonalization (tests); the phase is fixed by the Jordan-Wigner
    ordering convention in the module docstring and is not observable.
    """
    return pair_matrix_element(_check_channel(spec, k), g)


def even_sector_gap(h, J, periodic: bool = False):
    """Gap between the two lowest even-parity levels of an arbitrary chain.

    H = -sum_j h_j sigma^x_j - sum_b J_b sigma^z_b sigma^z_{b+1} with n
    real fields ``h`` and n-1 bonds (n with ``periodic``, the last one
    closing the ring).  The quasiparticle energies are 2 sigma_i, the
    singular values sigma_1 <= sigma_2 <= ... of Z (h on the diagonal,
    J on the superdiagonal; a periodic chain adds (-1)^(n+1) J[-1] at
    Z[n-1, 0], the antiperiodic boundary of the even sector).  The
    quasiparticle vacuum has parity sign(det Z): when it is even the
    lowest even excitation adds the two lowest quasiparticles, when it
    is odd the even ground state holds sigma_1 and the next even level
    holds sigma_2 instead.  Both cases are 2 (sigma_2 + sign(det Z)
    sigma_1), continuous through a zero mode (sigma_1 = 0).  For this
    bidiagonal Z, det Z = prod(h) + prod(J), the second term on a ring
    only; its sign is taken in logs, which neither underflow nor overflow.
    Stacked chains, ``h`` (m, n) and ``J`` (m, bonds), give m gaps.
    """
    h = np.asarray(h, dtype=float)
    J = np.asarray(J, dtype=float)
    n = h.shape[-1] if h.ndim else 0
    if h.ndim not in (1, 2) or n < 2:
        raise ValueError(f"h must hold n >= 2 fields per chain, got shape {h.shape}")
    nb = n if periodic else n - 1
    if J.shape != h.shape[:-1] + (nb,):
        raise ValueError(f"J must have shape {h.shape[:-1] + (nb,)}, got {J.shape}")
    i = np.arange(n)
    Z = np.zeros(h.shape + (n,))
    Z[..., i, i] = h
    Z[..., i[:-1], i[1:]] = J[..., : n - 1]
    if periodic:
        Z[..., n - 1, 0] = (-1) ** (n + 1) * J[..., -1]
    sigma = np.linalg.svd(Z, compute_uv=False)  # descending
    parity = np.prod(np.sign(h), axis=-1)  # sign(det Z) of an open chain
    if periodic:  # the corner's sign cancels the cyclic permutation's: + prod(J)
        with np.errstate(divide="ignore"):  # a zero weight has log magnitude -inf
            log_h, log_J = (np.log(np.abs(w)).sum(axis=-1) for w in (h, J))
        sign_J = np.prod(np.sign(J), axis=-1)  # the larger product's sign, or the sum's at a tie
        parity = np.sign(parity * (log_h >= log_J) + sign_J * (log_J >= log_h))
    gap = 2.0 * (sigma[..., -2] + parity * sigma[..., -1])
    return gap if h.ndim == 2 else float(gap)
