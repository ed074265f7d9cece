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

Panels are bisected level by level, for a whole batch of integrals at
once (:func:`oscillatory_batch`): the integrand is called once per
level on a 2-D node array holding every open panel of every open
integral, with the index of the integral that owns each row, and the
Levin systems of a level are solved in stacks of at most ``_CHUNK``.
Each integral keeps its own leaf tree.  Each leaf keeps its value
relative to the phase at its own left edge and its phase increment; an
integral's total is ``sum_j v_j exp(i Phi_j)`` with ``Phi_j`` the
cumulative increment of its leaves left of leaf j, so no value depends
on the order in which panels were evaluated.  On every level all
leaves are tested against their width share of ``max(atol, rtol * |I|)``
with the budget (``rtol``, ``atol``) and current estimate ``I`` of their
own integral, the ones that miss are bisected, and an integral whose leaves all pass leaves the
batch; its tree and counts are those it has on its own.
:func:`oscillatory_integral` is a batch of one.

Naive composite quadrature would cost O(total phase) evaluations and
make long-sweep amplitude scans intractable; this scheme costs
O(panels * order) with the panel count set by the smoothness of ``f``
and ``Phi'`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = ["OscillatoryResult", "QuadratureError", "oscillatory_batch", "oscillatory_integral"]

# Panels with |accumulated phase| below this are integrated directly by
# Clenshaw-Curtis; above it Levin collocation takes over.  Order 32
# resolves ~3 oscillations per panel with ample margin.
_CC_PHASE_LIMIT = 6.0 * np.pi
# Bisection levels and open panels of one integral before the engine
# gives up on it; 2**-48 of the interval is near the spacing of doubles,
# and the panel cap bounds one integral's node array to about 1 MB.
_LEVELS = 48
_MAX_OPEN = 4096
# Rows per stacked Levin solve, whatever the number of panels open in a
# level: 32 complex systems of order 32 take about 0.5 MB.  Stacking a
# whole level of the bath-averaged sum at once, about 530 rows, raised
# its peak resident memory by a fifth; 64 rows still cost 2 MB more.
_CHUNK = 32
_ONE_RUN = np.zeros(1, dtype=int)


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to converge; carries diagnostics."""


@dataclass
class OscillatoryResult:
    value: complex
    error: float
    panels: int
    evaluations: int
    levels: int


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


def _rule(f, dphi, phi, hw, rows, order):
    """Panel values of one order, relative to each row's left-edge phase.

    The indexed ``rows`` are solved by Levin collocation, in stacks of at
    most ``_CHUNK`` systems, the others by Clenshaw-Curtis.  The Levin
    rows of a stack with a singular system get the value NaN.
    """
    _, q, diff = _panel_setup(order)
    out = hw * ((f * np.exp(1j * phi)) @ q[-1])
    for start in range(0, rows.size, _CHUNK):
        r = rows[start:start + _CHUNK]
        # Levin collocation: (d/dx + i Phi') p = f on each panel.  The
        # stack is built in place, without a real temporary of its size.
        mats = np.divide(diff, hw[r, None, None], out=np.empty((r.size, *diff.shape), complex))
        i = np.arange(order + 1)
        mats[:, i, i] += 1j * dphi[r]
        try:
            p = np.linalg.solve(mats, f[r, :, None])[..., 0]
        except np.linalg.LinAlgError:
            out[r] = np.nan
            continue
        out[r] = p[:, -1] * np.exp(1j * phi[r, -1]) - p[:, 0]
    return out


def _estimates(f, dphi, phi, hw):
    """Order-32 panel values and their distance from the nested order-16 ones.

    A panel without an estimate gets value 0 and error inf, so it misses
    every budget and adds nothing to the running total.
    """
    rows = np.flatnonzero(phi.max(axis=1) - phi.min(axis=1) > _CC_PHASE_LIMIT)
    unresolved = rows[:0]
    if rows.size:
        # A stationary point inside a rapidly oscillating panel defeats
        # Levin collocation; such a panel has no estimate and misses
        # until direct integration takes over around it.
        stationary = (dphi[rows].min(axis=1) < 0.0) & (dphi[rows].max(axis=1) > 0.0)
        unresolved, rows = rows[stationary], rows[~stationary]
    phi_lo = hw[:, None] * (dphi[:, ::2] @ _panel_setup(16)[1].T)
    hi = _rule(f, dphi, phi, hw, rows, 32)
    err = np.abs(hi - _rule(f[:, ::2], dphi[:, ::2], phi_lo, hw, rows, 16))
    if rows.size or unresolved.size:
        # with the rows of a stack that had a singular Levin system
        unresolved = np.concatenate((unresolved, rows[np.isnan(err[rows])]))
        hi[unresolved], err[unresolved] = 0.0, np.inf
    return hi, err


def _run_phases(owner, increment):
    """Start of each run of equal ``owner``, the run of each leaf, and its phase.

    The phase at a leaf's left edge is summed over the leaves of its own
    run only, in a padded (run x leaf) array: one cumsum over the whole
    batch would lose digits to the phases of the integrals before it.
    """
    starts = np.empty(owner.size, dtype=bool)
    starts[0] = True
    np.not_equal(owner[1:], owner[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    pos = np.arange(owner.size) - first[run]
    padded = np.zeros((first.size, pos.max() + 2))
    padded[run, pos + 1] = increment
    return first, run, np.cumsum(padded, axis=1)[run, pos]


def oscillatory_batch(integrand, a: float, b, rtol, atol, points=None) -> list:
    """Integrate a batch of f_j(x) * exp(i * Phi_j(x)) over [a, b_j], with Phi_j(a) = 0.

    ``b``, ``rtol`` (or one for all) and ``atol`` hold one value per
    integral, ``points`` one sequence of break points per integral:
    those inside (a, b_j) start as panel edges.  ``integrand(nodes,
    owner)`` maps a 2-D array of nodes, one row per open panel of the
    whole batch, and the index of the integral that owns each row to
    the pair ``(f, Phi')`` of arrays shaped like ``nodes``; it is called
    once per bisection level.  Each integral keeps its own ordered leaf
    tree, its own cumulative phase and its own budget
    ``max(atol_j, rtol_j * |I_j|)``, and leaves the loop as soon as all
    its leaves meet their share of it, so its tree and counts are those
    of the integral on its own, and its value agrees to rounding.
    Returns one entry per integral: its :class:`OscillatoryResult`, or the
    :class:`QuadratureError` it failed with (panels open after the level
    cap, or more than ``_MAX_OPEN`` of its own open at once).
    """
    upper, floor = [float(v) for v in b], [float(v) for v in atol]
    if len(upper) != len(floor):
        raise ValueError(f"{len(upper)} upper limits but {len(floor)} absolute budgets")
    rel = np.broadcast_to(np.asarray(rtol, dtype=float), len(upper))
    for hi, eps, least in zip(upper, rel.tolist(), floor):
        if not hi > a:
            raise ValueError(f"empty or reversed interval [{a}, {hi}]")
        if not (eps >= 0.0 and least >= 0.0 and eps + least > 0.0):
            raise ValueError(f"need rtol, atol >= 0 and one of them positive, got {eps}, {least}")
    if not upper:
        return []
    x, q, _ = _panel_setup(32)
    left, right, owner, initial = [], [], [], []
    for j, (hi, breaks) in enumerate(zip(upper, points or [()] * len(upper))):
        edges = [a, *sorted(p for p in breaks if a < p < hi), hi]
        left += edges[:-1]
        right += edges[1:]
        owner += [j] * (len(edges) - 1)
        initial.append(len(edges) - 1)
    left, right, owner = np.array(left), np.array(right), np.array(owner)
    # Per open integral, in the order of their runs: index, relative and
    # absolute budget (``rel`` above), and length.
    ids, floor, span = np.arange(len(upper)), np.array(floor), np.array(upper) - a
    # The leaves of the open integrals, grouped by owner and in order of
    # position: value relative to the phase at the left edge, error
    # estimate, phase increment; ``fresh`` ones are unevaluated.
    value = np.zeros(left.size, dtype=complex)
    error = np.zeros(left.size)
    increment = np.zeros(left.size)
    fresh = np.ones(left.size, dtype=bool)
    results = [None] * len(upper)
    for level in range(1, _LEVELS + 1):
        lo, hi = left[fresh], right[fresh]
        hw = 0.5 * (hi - lo)
        f, dphi = integrand(0.5 * (hi + lo)[:, None] + hw[:, None] * x, owner[fresh])
        f = np.asarray(f, dtype=complex)
        dphi = np.asarray(dphi, dtype=float)
        phi = hw[:, None] * (dphi @ q.T)  # phase relative to the left edge
        value[fresh], error[fresh] = _estimates(f, dphi, phi, hw)
        increment[fresh] = phi[:, -1]
        if ids.size == 1:  # one open integral, as in every solo call: no runs to find
            first, run = _ONE_RUN, slice(None)
            phase = np.zeros(owner.size)
            np.add.accumulate(increment[:-1], out=phase[1:])
        else:
            first, run, phase = _run_phases(owner, increment)
        total = np.add.reduceat(value * np.exp(1j * phase), first)
        tol = np.maximum(floor, rel * np.abs(total))
        miss = ~(error <= tol[run] * (right - left) / span[run])
        missing = np.add.reduceat(miss, first)
        reps = np.where(miss, 2, 1)
        if np.count_nonzero(missing) < ids.size:
            done = missing == 0
            bounds = [*first.tolist(), owner.size]
            errors = np.add.reduceat(error, first)
            for r in np.flatnonzero(done):
                j = ids[r]
                panels = bounds[r + 1] - bounds[r]
                # every evaluated panel is an initial one or half of a split one
                results[j] = OscillatoryResult(
                    value=complex(total[r]), error=float(errors[r]), panels=panels,
                    evaluations=(2 * panels - initial[j]) * x.size, levels=level)
            if done.all():
                return results
            reps[done[run]] = 0  # retire the finished integrals
            ids, rel, floor, span, missing = (v[~done] for v in (ids, rel, floor, span, missing))
        # Replace every missing leaf by its two halves, keeping the order.
        leaf = np.repeat(np.arange(owner.size), reps)
        left, right = left[leaf], right[leaf]
        second = np.flatnonzero(leaf[1:] == leaf[:-1]) + 1
        mid = 0.5 * (left[second] + right[second])
        left[second] = right[second - 1] = mid
        value, error, increment, fresh = value[leaf], error[leaf], increment[leaf], miss[leaf]
        owner = owner[leaf]
        if level == _LEVELS or 2 * np.count_nonzero(miss) > _MAX_OPEN:
            failed = (level == _LEVELS) | (2 * missing > _MAX_OPEN)
            for j in ids[failed]:
                results[j] = _failure(a, upper[j], left, right, fresh & (owner == j))
            if np.all(failed):
                break
            keep = ~np.isin(owner, ids[failed])
            left, right, owner = left[keep], right[keep], owner[keep]
            value, error, increment, fresh = value[keep], error[keep], increment[keep], fresh[keep]
            ids, rel, floor, span = ids[~failed], rel[~failed], floor[~failed], span[~failed]
    return results


def _failure(a, b, left, right, open_) -> QuadratureError:
    """The error of one integral over [a, b] that still has the ``open_`` panels."""
    i = np.argmin(np.where(open_, right - left, np.inf))
    return QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: {open_.sum()} panels open, "
        f"narrowest at {left[i]:.9g}, width {right[i] - left[i]:.3e}"
    )


def oscillatory_integral(integrand, a: float, b: float, rtol: float, atol: float = 0.0,
                         points=()) -> OscillatoryResult:
    """Integrate f(x) * exp(i * Phi(x)) over [a, b], with Phi(a) = 0.

    ``integrand`` maps a 2-D array of nodes, one row per open panel, to
    the pair ``(f, Phi')`` of arrays of the same shape; it is called
    once per bisection level.  The returned error, the sum of the leaf
    errors, is at most ``max(atol, rtol * |value|)``.  ``points`` inside
    (a, b) start as panel edges (use them where the integrand has a
    kink).  Raises :class:`QuadratureError` when panels remain open
    after the level cap or too many are open at once.  This is
    :func:`oscillatory_batch` with a batch of one.
    """
    (res,) = oscillatory_batch(lambda nodes, _: integrand(nodes), a, [b], rtol, [atol], [points])
    if isinstance(res, QuadratureError):
        raise res
    return res
