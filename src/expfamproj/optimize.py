"""Line-search Newton-CG with Armijo backtracking.

Each outer iteration solves the Newton system H d = -g by linear
conjugate gradients from Hessian-vector products, truncated at residual
min(0.5, sqrt(|g|)) |g|, at MAX_PRODUCTS products, or where a direction
has non-positive curvature (the iterate so far is kept; on the first
inner step the direction falls back to -g).  Backtracking from t = 1
then halves the step until the Armijo condition holds (Nocedal & Wright
2006, Alg. 7.1).  The line search only needs function values, treats
+inf as "shrink the step" (objectives built on restricted-domain
families return +inf outside the feasible region), and guarantees a
monotone objective trace.

The objective returns its value and a zero-argument thunk.  The thunk
gives (gradient, product) at the same point, product(p) being the
Hessian times p, or None where the gradient is not finite, which rejects
the step as an infinite value would.  The thunk is called only at the
starting point and at the points a line search accepts, right after
their value and before any other evaluation, so it may reuse what its
value call computed (map_infer's FreeParams.objective reuses Theta and
g(Theta)).  Products are taken only during the inner solve, and the
product is dropped before the line search scores its first trial; a
rejected trial's thunk is dropped before the next trial is scored.  So at
most one scored point is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
MAX_PRODUCTS = 50      # Hessian-vector products per Newton system


@dataclass
class CGResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    converged: bool
    status: str
    trace: list = field(default_factory=list)  # objective value per iteration
    n_values: int = 0       # objective calls, rejected trials included
    n_gradients: int = 0    # thunk calls
    n_products: int = 0     # Hessian-vector products


def minimize_cg(fun_and_grad, x0, grad_tol, max_iter=2000) -> CGResult:
    """Minimise fun over flat vectors starting from x0.

    fun_and_grad(x) -> (f, thunk), where thunk() gives (gradient,
    product) at x, or None where the gradient is not finite; f may be
    +inf outside the feasible region, but x0 itself must be feasible.
    Convergence is declared when |gradient_i| <= grad_tol_i for every
    coordinate; grad_tol is a scalar or one tolerance per coordinate.
    max_iter bounds the number of Newton iterations.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, thunk = fun_and_grad(x)
    out = thunk() if np.isfinite(f) else None
    del thunk
    if out is None:
        raise ValueError("objective is not finite at the initial point")
    g, product = out
    res = CGResult(x, f, g, 0, False, "max_iter", [f], n_values=1,
                   n_gradients=1)

    while True:
        if np.all(np.abs(g) <= grad_tol):
            res.converged, res.status = True, "grad_tol"
            break
        if res.n_iter == max_iter:
            break
        d = _newton_direction(product, g, res)
        del product, out      # dropped before the first trial is scored
        slope = float(np.dot(g, d))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, thunk = fun_and_grad(x_new)
            res.n_values += 1
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C * t * slope:
                out = thunk()
                res.n_gradients += 1
                if out is not None:
                    break
            # whatever a rejected trial's thunk holds goes before the next
            del thunk
            t *= ARMIJO_SHRINK
        else:
            res.status = "line_search_failed"
            break
        del thunk
        x, f, (g, product) = x_new, f_new, out
        res.trace.append(f)
        res.n_iter += 1

    res.x, res.fun, res.grad = x, f, g
    return res


def _newton_direction(product, g, res):
    """An approximate solution d of H d = -g by linear CG from d = 0,
    counting its products in res.n_products."""
    gnorm = math.sqrt(float(np.dot(g, g)))
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    z = np.zeros_like(g)
    r = g.copy()             # residual H z + g
    p = -r
    rr = gnorm * gnorm
    for j in range(MAX_PRODUCTS):
        hp = product(p)
        res.n_products += 1
        curv = float(np.dot(p, hp))
        if not curv > 0:
            return -g if j == 0 else z
        alpha = rr / curv
        z += alpha * p
        r += alpha * hp
        rr_new = float(np.dot(r, r))
        if math.sqrt(rr_new) <= tol:
            break
        p = -r + (rr_new / rr) * p
        rr = rr_new
    return z
