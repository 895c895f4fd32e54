"""Nonlinear conjugate gradients with Armijo backtracking.

Polak-Ribiere with the usual non-negativity restart: the conjugacy
coefficient is clipped at zero, which resets the search direction to
steepest descent whenever the raw coefficient goes negative.  The line
search only needs function values, treats +inf as "shrink the step"
(objectives built on restricted-domain families return +inf outside the
feasible region), and guarantees a monotone objective trace.

The objective returns its value and a zero-argument function that gives
the gradient at the same point.  The gradient is formed only at the
starting point and at the points a line search accepts, right after
their value and before any other evaluation, so a thunk may reuse what
its value call computed (map_infer's FreeParams.objective reuses Theta
and g(Theta)); a trial step that is rejected costs one value, and its
thunk is dropped before the next trial is scored, so at most one scored
point is held.  A gradient of None (not finite) rejects the step as an
infinite value would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass
class CGResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    converged: bool
    status: str
    trace: list = field(default_factory=list)  # objective value per iteration


def minimize_cg(fun_and_grad, x0, grad_tol, max_iter=2000) -> CGResult:
    """Minimise fun over flat vectors starting from x0.

    fun_and_grad(x) -> (f, grad), where grad() gives the gradient at x or
    None where it is not finite; f may be +inf outside the feasible
    region, but x0 itself must be feasible.  Convergence is declared
    when the sup norm of the gradient drops below grad_tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, grad = fun_and_grad(x)
    g = grad() if np.isfinite(f) else None
    del grad
    if g is None:
        raise ValueError("objective is not finite at the initial point")
    trace = [f]
    d = -g
    step = 1.0 / (1.0 + float(np.max(np.abs(g))))
    status = "max_iter"
    converged = False

    for it in range(max_iter):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            status, converged = "grad_tol", True
            break

        slope = float(np.dot(g, d))
        if slope >= 0:
            # not a descent direction; fall back to steepest descent
            d = -g
            slope = -float(np.dot(g, g))

        f_new, g_new, x_new, step = _armijo(fun_and_grad, x, f, d, slope, step)
        if f_new is None:
            if np.array_equal(d, -g):
                status = "line_search_failed"
                break
            # retry once from steepest descent before giving up
            d = -g
            slope = -float(np.dot(g, g))
            f_new, g_new, x_new, step = _armijo(fun_and_grad, x, f, d, slope, 1.0)
            if f_new is None:
                status = "line_search_failed"
                break

        y = g_new - g
        denom = float(np.dot(g, g))
        beta_pr = float(np.dot(g_new, y)) / denom if denom > 0 else 0.0
        beta_pr = max(0.0, beta_pr)  # restart on negative conjugacy coefficient
        d = -g_new + beta_pr * d
        x, f, g = x_new, f_new, g_new
        trace.append(f)
        step = min(4.0 * step, 1e3)  # warm start for the next line search

    n_iter = len(trace) - 1
    return CGResult(x, f, g, n_iter, converged, status, trace)


def _armijo(fun_and_grad, x, f, d, slope, step):
    """Backtrack until f(x + step d) <= f + c step slope with a finite
    gradient there; None on failure."""
    for _ in range(MAX_BACKTRACKS):
        x_new = x + step * d
        f_new, grad = fun_and_grad(x_new)
        if np.isfinite(f_new) and f_new <= f + ARMIJO_C * step * slope:
            g_new = grad()
            if g_new is not None:
                return f_new, g_new, x_new, step
        # whatever a rejected trial's thunk holds goes before the next trial
        del grad
        step *= ARMIJO_SHRINK
    return None, None, None, step
