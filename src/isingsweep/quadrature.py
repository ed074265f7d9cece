"""Panel-adaptive quadrature for highly oscillatory integrals.

Evaluates ``I = int_a^b f(x) exp(i*Phi(x)) dx`` given only ``f`` and the
phase derivative ``Phi'``; the phase itself is reconstructed per panel
by spectral antidifferentiation, so huge absolute phases never enter.

Each panel samples ``f`` and ``Phi'`` at Chebyshev-Lobatto nodes.  All
panel rules are linear maps on these node values, fixed per order and
built once: the cumulative-antiderivative matrix ``Q`` gives the phase
relative to the panel's left edge as one matrix-vector product, and its
last row is the Clenshaw-Curtis weight vector.  Panels whose
accumulated phase is small are integrated directly by Clenshaw-Curtis
on the full oscillatory integrand (this is what happens automatically
around stationary points, where ``Phi'`` passes through zero).  Rapidly
oscillating panels use Levin collocation, whose cost is independent of
the oscillation count: solve the square collocation system
``(D + i diag Phi') p = f`` with the differentiation matrix ``D`` and
evaluate ``p exp(i Phi)`` at the panel ends.  Every panel estimate is
paired with a half-order estimate on the nested node subset.

Panels are bisected level by level: the integrand is called once per
level on a 2-D node array holding every open panel, and the Levin
systems of a level are solved as one stack.  Each leaf of the panel
tree keeps its value relative to the phase at its own left edge and its
phase increment; the total is ``sum_j v_j exp(i Phi_j)`` with ``Phi_j``
the cumulative increment of the leaves left of it, so no value depends
on the order in which panels were evaluated.  On every level all leaves
are tested against their width share of ``max(atol, rtol * |I|)`` with
the current estimate ``I``, and the ones that miss are bisected.

Naive composite quadrature would cost O(total phase) evaluations and
make long-sweep amplitude scans intractable; this scheme costs
O(panels * order) with the panel count set by the smoothness of ``f``
and ``Phi'`` alone.  Smooth real integrands without a phase use
:func:`smooth_integral`, the same engine with ``Phi' = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = ["OscillatoryResult", "QuadratureError", "oscillatory_integral", "smooth_integral"]

# Panels with |accumulated phase| below this are integrated directly by
# Clenshaw-Curtis; above it Levin collocation takes over.  Order 32
# resolves ~3 oscillations per panel with ample margin.
_CC_PHASE_LIMIT = 6.0 * np.pi
# Bisection levels and open panels before the engine gives up; 2**-48
# of the interval is near the spacing of doubles, and the panel cap
# bounds the node array of a level to about 1 MB.
_LEVELS = 48
_MAX_OPEN = 4096


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to converge; carries diagnostics."""


@dataclass
class OscillatoryResult:
    value: complex
    error: float
    panels: int
    evaluations: int


@lru_cache(maxsize=None)
def _panel_setup(order: int):
    """Nodes and fixed node-value matrices for one panel order.

    Returns ascending Chebyshev-Lobatto nodes on [-1, 1], the
    cumulative-antiderivative matrix ``Q`` (values at the nodes ->
    ``int_{-1}^{x_i}`` of their interpolant, at the nodes; its last row
    is the Clenshaw-Curtis weight vector) and the differentiation
    matrix ``D``, both acting on values at those nodes.
    """
    j = np.arange(order + 1)
    x = -np.cos(np.pi * j / order)  # ascending
    to_coeffs = np.linalg.inv(_cheb.chebvander(x, order))
    # M = V_op @ V^-1, where V_op[i, j] is op(T_j) at x_i.
    basis = np.eye(order + 1)
    q = _cheb.chebval(x, _cheb.chebint(basis, lbnd=-1.0)).T @ to_coeffs
    diff = _cheb.chebval(x, _cheb.chebder(basis)).T @ to_coeffs
    return x, q, diff


def _rule(f, dphi, phi, hw, levin, order):
    """Panel values of one order, relative to each row's left-edge phase.

    Rows flagged in ``levin`` are solved as one stack of collocation
    systems, the others by Clenshaw-Curtis.  Raises
    ``np.linalg.LinAlgError`` when a Levin system is singular.
    """
    _, q, diff = _panel_setup(order)
    out = hw * ((f * np.exp(1j * phi)) @ q[-1])
    if levin.any():
        # Levin collocation: (d/dx + i Phi') p = f on each panel.
        mats = diff / hw[levin, None, None] + 0j
        i = np.arange(order + 1)
        mats[:, i, i] += 1j * dphi[levin]
        p = np.linalg.solve(mats, f[levin, :, None])[..., 0]
        out[levin] = p[:, -1] * np.exp(1j * phi[levin, -1]) - p[:, 0]
    return out


def _estimates(f, dphi, phi, hw, levin):
    """Order-32 panel values and their distance from the nested order-16 ones."""
    phi_lo = hw[:, None] * (dphi[:, ::2] @ _panel_setup(16)[1].T)
    hi = _rule(f, dphi, phi, hw, levin, 32)
    return hi, np.abs(hi - _rule(f[:, ::2], dphi[:, ::2], phi_lo, hw, levin, 16))


def oscillatory_integral(integrand, a: float, b: float, rtol: float, atol: float = 0.0,
                         points=()) -> OscillatoryResult:
    """Integrate f(x) * exp(i * Phi(x)) over [a, b], with Phi(a) = 0.

    ``integrand`` maps a 2-D array of nodes, one row per open panel, to
    the pair ``(f, Phi')`` of arrays of the same shape; it is called
    once per bisection level.  The returned error, the sum of the leaf
    errors, is at most ``max(atol, rtol * |value|)``.  ``points`` inside
    (a, b) start as panel edges (use them where the integrand has a
    kink).  Raises :class:`QuadratureError` when panels remain open
    after the level cap or too many are open at once.
    """
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    if not (rtol >= 0.0 and atol >= 0.0 and rtol + atol > 0.0):
        raise ValueError(f"need rtol, atol >= 0 and one of them positive, got {rtol}, {atol}")
    x, q, _ = _panel_setup(32)
    edges = np.array([a, *sorted(p for p in points if a < p < b), b], dtype=float)
    left, right = edges[:-1], edges[1:]
    # The leaves in order of position: value relative to the phase at the
    # left edge, error estimate, phase increment; ``fresh`` ones are unevaluated.
    value = np.zeros(left.size, dtype=complex)
    error = np.zeros(left.size)
    increment = np.zeros(left.size)
    fresh = np.ones(left.size, dtype=bool)
    evaluations = 0
    for _ in range(_LEVELS):
        lo, hi = left[fresh], right[fresh]
        hw = 0.5 * (hi - lo)
        nodes = 0.5 * (hi + lo)[:, None] + hw[:, None] * x
        f, dphi = integrand(nodes)
        f = np.asarray(f, dtype=complex)
        dphi = np.asarray(dphi, dtype=float)
        evaluations += nodes.size
        phi = hw[:, None] * (dphi @ q.T)  # phase relative to the left edge
        levin = np.ptp(phi, axis=1) > _CC_PHASE_LIMIT
        # A stationary point inside a rapidly oscillating panel defeats
        # Levin collocation; such a panel has no estimate and misses
        # until direct integration takes over around it.
        unresolved = levin & (dphi.min(axis=1) < 0.0) & (dphi.max(axis=1) > 0.0)
        levin &= ~unresolved
        try:
            est, err = _estimates(f, dphi, phi, hw, levin)
        except np.linalg.LinAlgError:
            unresolved |= levin  # a singular Levin stack: all its rows miss
            est, err = _estimates(f, dphi, phi, hw, np.zeros_like(levin))
        est[unresolved], err[unresolved] = 0.0, np.inf
        value[fresh], error[fresh], increment[fresh] = est, err, phi[:, -1]
        phase = np.concatenate(([0.0], np.cumsum(increment[:-1])))
        total = complex(value @ np.exp(1j * phase))
        budget = max(atol, rtol * abs(total)) * (right - left) / (b - a)
        miss = ~(error <= budget)
        if not miss.any():
            return OscillatoryResult(value=total, error=float(error.sum()),
                                     panels=int(left.size), evaluations=evaluations)
        # Replace every missing leaf by its two halves, keeping the order.
        leaf = np.repeat(np.arange(left.size), np.where(miss, 2, 1))
        twin = leaf[1:] == leaf[:-1]
        mid = 0.5 * (left + right)[leaf]
        left = np.where(np.concatenate(([False], twin)), mid, left[leaf])
        right = np.where(np.concatenate((twin, [False])), mid, right[leaf])
        value, error, increment, fresh = value[leaf], error[leaf], increment[leaf], miss[leaf]
        if fresh.sum() > _MAX_OPEN:
            break
    i = np.argmin(np.where(fresh, right - left, np.inf))
    raise QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: {fresh.sum()} panels open, "
        f"narrowest at {left[i]:.9g}, width {right[i] - left[i]:.3e}"
    )


def smooth_integral(f, a: float, b: float, rtol: float, atol: float = 0.0,
                    points=()) -> float:
    """Integrate a smooth real ``f`` over [a, b]: the engine with no phase.

    ``f`` is called once per level with a 2-D array of nodes, one row per
    open panel, and must return values of the same shape.  Budget,
    ``points`` and failure are those of :func:`oscillatory_integral`.
    """
    if b == a:
        return 0.0
    res = oscillatory_integral(lambda x: (f(x), np.zeros_like(x)), a, b, rtol, atol, points)
    return float(res.value.real)
