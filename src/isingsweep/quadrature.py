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
oscillating panels use Levin collocation (D. Levin, Math. Comp. 38,
531 (1982)), whose cost is independent of the oscillation count: solve
the square collocation system ``(D + i diag Phi') p = f`` with the
differentiation matrix ``D`` and evaluate ``p exp(i Phi)`` at the panel
ends.  A Clenshaw-Curtis panel's error is its distance from the
half-order rule on the nested node subset, which costs no solve; a
Levin panel's is read off the trailing Chebyshev coefficients of its
own solution ``p`` (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013), so each Levin panel costs one solve.

Panels are bisected level by level, for a whole batch of integrals at
once (:func:`oscillatory_batch`): the integrand is called once per
level on a 2-D node array holding every open panel of every open
integral, with the index of the integral that owns each row, and the
Levin systems of a level are built and solved in stacks of at most
``_CHUNK`` in one reused workspace.  Each integral keeps its own leaf
tree.  Each leaf keeps its value relative to the phase at its own left
edge and its phase increment; an integral's total is
``sum_j v_j exp(i Phi_j)`` with ``Phi_j`` the cumulative increment of
its leaves left of leaf j, so no value depends on the order in which
panels were evaluated.  On every level all leaves are tested against
their width share of ``max(atol, rtol * |I|)`` with the budget
(``rtol``, ``atol``) and current estimate ``I`` of their own integral,
the ones that miss are bisected, and an integral whose leaves all pass
leaves the batch; its tree and counts are those it has on its own.
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
# level: a workspace of 32 complex systems of order 32 takes about 0.5 MB.
# A whole level of the bath-averaged sum, about 530 rows, raised its peak
# resident memory by a fifth; 64 rows were no faster and cost 0.5 MB more.
_CHUNK = 32
# A Levin panel's error is _TAIL_FACTOR times the summed magnitude of the
# last _TAIL Chebyshev coefficients of its order-32 solution p.  Against
# rtol 1e-11 solves of the bath amplitudes at n = 8 and 16, these keep
# every rtol 1e-6 value within 3.9e-10 relative; 10 times the last two
# coefficients left 2.3e-7, and the last coefficient alone 3.0e-6, past
# the budget.
_TAIL = 4
_TAIL_FACTOR = 1e3


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to converge; carries diagnostics."""


@dataclass
class OscillatoryResult:
    value: complex
    error: float
    panels: int
    evaluations: int
    levels: int
    levin_solves: int  # Levin collocation systems, one per fast-oscillating panel evaluated


@lru_cache(maxsize=None)
def _panel_setup(order: int):
    """Nodes and fixed node-value matrices for one panel order.

    Returns ascending Chebyshev-Lobatto nodes on [-1, 1] and three maps
    acting on values at those nodes: the cumulative-antiderivative
    matrix ``Q`` (values at the nodes -> ``int_{-1}^{x_i}`` of their
    interpolant, at the nodes; its last row is the Clenshaw-Curtis
    weight vector), the differentiation matrix ``D`` (complex, as every
    Levin system it enters) and the last ``_TAIL`` rows of the map to
    Chebyshev coefficients.
    """
    j = np.arange(order + 1)
    x = -np.cos(np.pi * j / order)  # ascending
    to_coeffs = np.linalg.inv(_cheb.chebvander(x, order))
    # M = V_op @ V^-1, where V_op[i, j] is op(T_j) at x_i.
    basis = np.eye(order + 1)
    q = _cheb.chebval(x, _cheb.chebint(basis, lbnd=-1.0)).T @ to_coeffs
    diff = _cheb.chebval(x, _cheb.chebder(basis)).T @ to_coeffs
    return x, q, diff.astype(complex), to_coeffs[-_TAIL:]


def _levin(f, dphi, phi, hw, rows):
    """Levin collocation values and tail errors of the indexed ``rows``, relative to their
    left-edge phase.

    Solves ``(d/dx + i Phi') p = f`` on each panel, scaled to the node
    variable as ``(D + i hw Phi') p = hw f``, in stacks of at most
    ``_CHUNK`` systems, each built in the same workspace; the rows of a
    stack with a singular system get the value NaN.
    """
    _, _, diff, tail = _panel_setup(32)
    value = np.empty(rows.size, dtype=complex)
    err = np.empty(rows.size)
    work = np.empty((min(_CHUNK, rows.size), *diff.shape), dtype=complex)
    for start in range(0, rows.size, _CHUNK):
        r, out = rows[start:start + _CHUNK], slice(start, start + _CHUNK)
        mats = work[:r.size]
        mats[...] = diff
        mats.reshape(r.size, -1)[:, ::len(diff) + 1] += 1j * hw[r, None] * dphi[r]  # diagonals
        try:
            p = np.linalg.solve(mats, (hw[r, None] * f[r])[..., None])[..., 0]
        except np.linalg.LinAlgError:
            value[out] = err[out] = np.nan
            continue
        value[out] = p[:, -1] * np.exp(1j * phi[r, -1]) - p[:, 0]
        err[out] = _TAIL_FACTOR * np.abs(p @ tail.T).sum(axis=1)
    return value, err


def _estimates(f, dphi, phi, hw):
    """Order-32 panel values, their error estimates, and which rows Levin solved.

    Clenshaw-Curtis rows are judged by their distance from the nested
    order-16 rule, Levin rows by the Chebyshev tail of their own
    solution.  A panel without an estimate gets value 0 and error inf,
    so it misses every budget and adds nothing to the running total.
    """
    fast = phi.max(axis=1) - phi.min(axis=1) > _CC_PHASE_LIMIT
    # A stationary point inside a rapidly oscillating panel defeats Levin
    # collocation; such a panel has no estimate and misses until direct
    # integration takes over around it.
    unresolved = fast & (dphi.min(axis=1) < 0.0) & (dphi.max(axis=1) > 0.0)
    levin = fast & ~unresolved
    value, err = np.empty(len(f), dtype=complex), np.empty(len(f))
    cc = np.flatnonzero(~fast)
    if cc.size:
        _, q, *_ = _panel_setup(32)
        _, q_lo, *_ = _panel_setup(16)
        f_cc, hw_cc = f[cc], hw[cc]
        phi_lo = hw_cc[:, None] * (dphi[cc, ::2] @ q_lo.T)
        value[cc] = hw_cc * ((f_cc * np.exp(1j * phi[cc])) @ q[-1])
        err[cc] = np.abs(value[cc] - hw_cc * ((f_cc[:, ::2] * np.exp(1j * phi_lo)) @ q_lo[-1]))
    rows = np.flatnonzero(levin)
    if rows.size:
        value[rows], err[rows] = _levin(f, dphi, phi, hw, rows)
        # with the rows of a stack that had a singular Levin system, or no finite value
        unresolved[rows] |= ~np.isfinite(value[rows])
    value[unresolved], err[unresolved] = 0.0, np.inf
    return value, err, levin


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
    rel = np.asarray(rtol, dtype=float) if np.ndim(rtol) else np.full(len(upper), float(rtol))
    points = [()] * len(upper) if points is None else points
    for name, values in ("atol", floor), ("rtol", rel), ("points", points):
        if len(values) != len(upper):
            raise ValueError(f"{name}: {len(values)} values for {len(upper)} upper limits")
    for hi, eps, least in zip(upper, rel.tolist(), floor):
        if not hi > a:
            raise ValueError(f"empty or reversed interval [{a}, {hi}]")
        if not (eps >= 0.0 and least >= 0.0 and eps + least > 0.0):
            raise ValueError(f"need rtol, atol >= 0 and one of them positive, got {eps}, {least}")
    if not upper:
        return []
    x, q, *_ = _panel_setup(32)
    left, right, owner, initial = [], [], [], []
    for j, (hi, breaks) in enumerate(zip(upper, points)):
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
    solves = np.zeros(len(upper), dtype=int)
    results = [None] * len(upper)
    for level in range(1, _LEVELS + 1):
        lo, hi = left[fresh], right[fresh]
        hw = 0.5 * (hi - lo)
        f, dphi = integrand(0.5 * (hi + lo)[:, None] + hw[:, None] * x, owner[fresh])
        f = np.asarray(f, dtype=complex)
        dphi = np.asarray(dphi, dtype=float)
        phi = hw[:, None] * (dphi @ q.T)  # phase relative to the left edge
        value[fresh], error[fresh], levin = _estimates(f, dphi, phi, hw)
        solves += np.bincount(owner[fresh][levin], minlength=solves.size)
        increment[fresh] = phi[:, -1]
        first, run, phase = _run_phases(owner, increment)
        total = np.add.reduceat(value * np.exp(1j * phase), first)
        tol = np.maximum(floor, rel * np.abs(total))
        miss = ~(error <= tol[run] * (right - left) / span[run])
        missing = np.add.reduceat(miss, first)
        # An integral leaves the batch when all its leaves pass, or fails when
        # the level cap is reached or its halves would be too many.
        done = missing == 0
        failed = ~done & ((level == _LEVELS) | (2 * missing > _MAX_OPEN))
        leaving = done | failed
        if leaving.any():
            bounds = [*first.tolist(), owner.size]
            errors = np.add.reduceat(error, first)
            for r in np.flatnonzero(leaving):
                j, start, stop = ids[r], bounds[r], bounds[r + 1]
                if failed[r]:
                    results[j] = _failure(a, upper[j], left[start:stop], right[start:stop],
                                          miss[start:stop])
                    continue
                # every evaluated panel is an initial one or half of a split one
                results[j] = OscillatoryResult(
                    value=complex(total[r]), error=float(errors[r]), panels=stop - start,
                    evaluations=(2 * (stop - start) - initial[j]) * x.size, levels=level,
                    levin_solves=int(solves[j]))
            if leaving.all():
                return results
            ids, rel, floor, span = (v[~leaving] for v in (ids, rel, floor, span))
        # Replace every missing leaf of a staying integral by its two halves,
        # keeping the order; the leaves of the leaving ones go.
        leaf = np.repeat(np.arange(owner.size), np.where(leaving[run], 0, np.where(miss, 2, 1)))
        left, right = left[leaf], right[leaf]
        second = np.flatnonzero(leaf[1:] == leaf[:-1]) + 1
        mid = 0.5 * (left[second] + right[second])
        left[second] = right[second - 1] = mid
        value, error, increment, fresh = value[leaf], error[leaf], increment[leaf], miss[leaf]
        owner = owner[leaf]


def _failure(a, b, left, right, missed) -> QuadratureError:
    """The error of one integral over [a, b] whose ``missed`` leaves would be bisected."""
    i = np.argmin(np.where(missed, right - left, np.inf))
    return QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: {2 * missed.sum()} panels open, "
        f"narrowest at {left[i]:.9g}, width {0.5 * (right[i] - left[i]):.3e}"
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
