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
evaluate ``p exp(i Phi)`` at the panel ends; a singular system counts
as a panel that missed its budget.  Every panel estimate is paired with
a half-order estimate on the nested node subset; panels are bisected
depth-first, left to right, until the error budget is met.

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

__all__ = ["OscillatoryResult", "QuadratureError", "oscillatory_integral"]

# Panels with |accumulated phase| below this are integrated directly by
# Clenshaw-Curtis; above it Levin collocation takes over.  Order 32
# resolves ~3 oscillations per panel with ample margin.
_CC_PHASE_LIMIT = 6.0 * np.pi


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


def _panel_value(f_vals, dphi_vals, phi_rel, phase_left, half_width, order) -> complex:
    """One panel estimate: Clenshaw-Curtis or Levin depending on phase.

    Raises ``np.linalg.LinAlgError`` when the Levin system is singular.
    """
    _, q, diff = _panel_setup(order)
    if np.ptp(phi_rel) <= _CC_PHASE_LIMIT:
        w = f_vals * np.exp(1j * (phase_left + phi_rel))
        return half_width * (q[-1] @ w)
    # Levin collocation: (d/dx + i Phi') p = f on the panel.
    p = np.linalg.solve(diff / half_width + 1j * np.diag(dphi_vals), f_vals)
    ends = np.exp(1j * (phase_left + phi_rel[[0, -1]]))
    return p[-1] * ends[1] - p[0] * ends[0]


def oscillatory_integral(
    amplitude,
    phase_derivative,
    a: float,
    b: float,
    abs_tol: float,
    *,
    order: int = 32,
    max_panels: int = 20000,
    phase_left: float = 0.0,
) -> OscillatoryResult:
    """Integrate amplitude(x) * exp(i * Phi(x)) over [a, b].

    ``amplitude`` and ``phase_derivative`` must accept arrays.  The
    phase is taken as ``phase_left + int_a^x Phi'``.  ``abs_tol`` is an
    absolute accuracy budget distributed over panels.
    """
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    if order % 2 != 0:
        raise ValueError("order must be even (nested half-order error check)")

    x_hi, q_hi, _ = _panel_setup(order)
    _, q_lo, _ = _panel_setup(order // 2)
    width_total = b - a

    total = 0.0 + 0.0j
    err_total = 0.0
    panels = 0
    evals = 0
    worst = (0.0, a, b)  # (error, left, right) of the worst accepted panel

    # Depth-first, left to right so the accumulated phase stays exact.
    stack = [(a, b, 42)]  # (left, right, remaining depth)
    phase_acc = phase_left
    while stack:
        left, right, depth = stack.pop()
        hw = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        pts = mid + hw * x_hi
        f_hi = np.asarray(amplitude(pts), dtype=complex)
        d_hi = np.asarray(phase_derivative(pts), dtype=float)
        evals += pts.size
        phi_hi = hw * (q_hi @ d_hi)  # phase relative to the left edge
        span = np.ptp(phi_hi)
        # A stationary point inside a rapidly oscillating panel defeats
        # Levin collocation; keep bisecting until direct integration
        # takes over around it.
        saddle_inside = d_hi.min() < 0.0 < d_hi.max() and span > _CC_PHASE_LIMIT
        if saddle_inside and depth > 0:
            stack.append((mid, right, depth - 1))
            stack.append((left, mid, depth - 1))
            continue
        # Nested half-order estimate on every other node.
        sub = slice(None, None, 2)
        phi_lo = hw * (q_lo @ d_hi[sub])
        try:
            I_hi = _panel_value(f_hi, d_hi, phi_hi, phase_acc, hw, order)
            I_lo = _panel_value(f_hi[sub], d_hi[sub], phi_lo, phase_acc, hw, order // 2)
            err = abs(I_hi - I_lo)
        except np.linalg.LinAlgError:
            err = np.inf  # singular Levin system: a panel that missed its budget
        budget = abs_tol * (right - left) / width_total
        if err <= budget:
            total += I_hi
            err_total += err
            phase_acc += phi_hi[-1]
            panels += 1
            if err > worst[0]:
                worst = (err, left, right)
            if panels > max_panels:
                raise QuadratureError(
                    f"oscillatory quadrature used more than {max_panels} panels on "
                    f"[{a}, {b}]; worst panel [{worst[1]:.6g}, {worst[2]:.6g}] "
                    f"error {worst[0]:.3e}, phase span {span:.3e} rad"
                )
        elif depth == 0:
            raise QuadratureError(
                f"oscillatory quadrature did not converge on panel "
                f"[{left:.9g}, {right:.9g}] (width {right - left:.3e}): "
                f"error {err:.3e} vs budget {budget:.3e}, "
                f"phase span {span:.3e} rad over the panel"
            )
        else:
            stack.append((mid, right, depth - 1))
            stack.append((left, mid, depth - 1))

    return OscillatoryResult(value=total, error=err_total, panels=panels, evaluations=evals)
