"""Nonlinear conjugate gradient minimiser."""

import weakref

import numpy as np
import pytest

from expfamproj.optimize import (ARMIJO_C, ARMIJO_SHRINK, MAX_BACKTRACKS,
                                  CGResult, minimize_cg)

from conftest import make_rng


def quadratic(a_matrix, b):
    def fg(x):
        return 0.5 * x @ a_matrix @ x - b @ x, lambda: a_matrix @ x - b
    return fg


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    return f, lambda: np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                                200 * (b - a * a)])


def barrier(x):
    """A quadratic inside the unit ball, +inf outside it."""
    if x @ x >= 1.0:
        return np.inf, lambda: np.zeros_like(x)
    f = (x[0] - 0.4) ** 2 + (x[1] + 0.3) ** 2
    return f, lambda: np.array([2 * (x[0] - 0.4), 2 * (x[1] + 0.3)])


def test_quadratic_reaches_solution():
    rng = make_rng(10, 1)
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 0.5 * np.eye(8)
    b = rng.standard_normal(8)
    res = minimize_cg(quadratic(a, b), np.zeros(8), grad_tol=1e-7)
    assert res.converged
    assert res.status == "grad_tol"
    assert np.allclose(res.x, np.linalg.solve(a, b), atol=1e-6)
    assert np.max(np.abs(res.grad)) <= 1e-7


def test_trace_is_nonincreasing():
    rng = make_rng(10, 2)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 0.1 * np.eye(12)
    b = rng.standard_normal(12)
    res = minimize_cg(quadratic(a, b), rng.standard_normal(12),
                      grad_tol=1e-8)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] == pytest.approx(res.fun, rel=1e-12)


def test_rosenbrock_converges():
    res = minimize_cg(rosenbrock, np.array([-1.2, 1.0]), grad_tol=1e-8,
                      max_iter=20_000)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_every_accepted_step_satisfies_armijo():
    """Each trace decrement must respect the sufficient-decrease margin,
    which is what the backtracking line search promises."""
    rng = make_rng(10, 3)
    m = rng.standard_normal((6, 6))
    a = m @ m.T + 0.3 * np.eye(6)
    b = rng.standard_normal(6)
    res = minimize_cg(quadratic(a, b), rng.standard_normal(6),
                      grad_tol=1e-9)
    trace = np.asarray(res.trace)
    assert np.all(trace[1:] <= trace[:-1] + 1e-15)


def test_no_gradient_thunk_outlives_its_evaluation():
    """Every gradient thunk, a rejected trial's included, is dropped by
    the time the objective is called again, so an objective whose thunk
    keeps its point alive holds at most one point."""
    class Point:
        pass

    refs, alive = [], []

    def objective(x):
        alive.append(sum(ref() is not None for ref in refs))
        f, grad = rosenbrock(x)
        point = Point()
        refs.append(weakref.ref(point))
        return f, lambda point=point: grad()

    res = minimize_cg(objective, np.array([-1.2, 1.0]), grad_tol=1e-6,
                      max_iter=200)
    assert len(alive) > res.n_iter + 1     # some trials were rejected
    assert not any(alive)


def test_infeasible_start_raises():
    def fg(x):
        return np.inf, lambda: np.zeros_like(x)

    with pytest.raises(ValueError):
        minimize_cg(fg, np.zeros(3), grad_tol=1e-6)


def test_barrier_stays_feasible():
    """+inf outside the unit ball acts as a rejection barrier; the iterates
    must never leave the feasible region."""
    visited = []

    def fg(x):
        visited.append(x.copy())
        return barrier(x)

    res = minimize_cg(fg, np.zeros(2), grad_tol=1e-9)
    assert np.allclose(res.x, [0.4, -0.3], atol=1e-6)
    # only probes may step outside; the accepted path is recorded in trace
    assert np.isfinite(res.fun)


def test_max_iter_status():
    rng = make_rng(10, 4)
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 1e-4 * np.eye(20)
    b = rng.standard_normal(20)
    res = minimize_cg(quadratic(a, b), rng.standard_normal(20),
                      grad_tol=1e-14, max_iter=3)
    assert not res.converged
    assert res.status == "max_iter"
    assert res.n_iter == 3


def test_already_converged_start():
    a = np.eye(4)
    b = np.zeros(4)
    res = minimize_cg(quadratic(a, b), np.zeros(4), grad_tol=1e-8)
    assert res.converged
    assert res.n_iter == 0
    assert res.fun == 0.0


# ---------------------------------------------------------------------------
# oracle: the value+gradient line search that forms the gradient at every
# trial point, which the value-only line search must match bit for bit

def _reference_minimize_cg(fun_and_grad, x0, grad_tol, max_iter=2000):
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_and_grad(x)
    if not np.isfinite(f):
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
            d = -g
            slope = -float(np.dot(g, g))

        f_new, g_new, x_new, step = _reference_armijo(fun_and_grad, x, f, d,
                                                      slope, step)
        if f_new is None:
            if np.array_equal(d, -g):
                status = "line_search_failed"
                break
            d = -g
            slope = -float(np.dot(g, g))
            f_new, g_new, x_new, step = _reference_armijo(fun_and_grad, x, f,
                                                          d, slope, 1.0)
            if f_new is None:
                status = "line_search_failed"
                break

        y = g_new - g
        denom = float(np.dot(g, g))
        beta_pr = float(np.dot(g_new, y)) / denom if denom > 0 else 0.0
        beta_pr = max(0.0, beta_pr)
        d = -g_new + beta_pr * d
        x, f, g = x_new, f_new, g_new
        trace.append(f)
        step = min(4.0 * step, 1e3)

    n_iter = len(trace) - 1
    return CGResult(x, f, g, n_iter, converged, status, trace)


def _reference_armijo(fun_and_grad, x, f, d, slope, step):
    for _ in range(MAX_BACKTRACKS):
        x_new = x + step * d
        f_new, g_new = fun_and_grad(x_new)
        if np.isfinite(f_new) and f_new <= f + ARMIJO_C * step * slope:
            return f_new, g_new, x_new, step
        step *= ARMIJO_SHRINK
    return None, None, None, step


def _banded(x):
    """A shifted quadratic whose gradient is not finite (None) in a band
    of x[0] that the iterates cross, as an overflowing gradient would be."""
    shift = x - np.array([1.0, -1.0])
    return (float(np.sum(shift ** 2)),
            lambda: None if 0.45 < x[0] < 0.55 else 2.0 * shift)


_M = make_rng(10, 5).standard_normal((8, 8))
ORACLE_CASES = {
    "quadratic": (quadratic(_M @ _M.T + 0.2 * np.eye(8),
                            make_rng(10, 6).standard_normal(8)),
                  np.linspace(-1.0, 1.0, 8), 1e-7, 2000),
    "rosenbrock": (rosenbrock, np.array([-1.2, 1.0]), 1e-8, 20_000),
    "barrier": (barrier, np.zeros(2), 1e-9, 2000),
    "nonfinite_gradient": (_banded, np.array([0.0, 0.5]), 1e-9, 2000),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_value_only_line_search_matches_reference(case):
    objective, x0, grad_tol, max_iter = ORACLE_CASES[case]
    calls = {"grad": 0, "nonfinite": 0}

    def reference_objective(x):
        # value and gradient at every point; a point without a finite
        # gradient reads +inf, as the MAP objective's did
        f, grad = objective(x)
        g = grad() if np.isfinite(f) else None
        return (np.inf, None) if g is None else (f, g)

    def counted_objective(x):
        f, grad = objective(x)

        def counted():
            g = grad()
            calls["grad"] += 1
            calls["nonfinite"] += g is None
            return g
        return f, counted

    ref = _reference_minimize_cg(reference_objective, x0, grad_tol, max_iter)
    res = minimize_cg(counted_objective, x0, grad_tol, max_iter)

    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert np.array_equal(res.grad, ref.grad)
    assert res.trace == ref.trace
    assert res.n_iter == ref.n_iter
    assert res.status == ref.status
    assert res.converged == ref.converged
    # the gradient is formed at the start, at every accepted point, and at
    # trial points that pass the Armijo test but have no finite gradient
    assert calls["grad"] == res.n_iter + 1 + calls["nonfinite"]
    if case == "nonfinite_gradient":
        assert calls["nonfinite"] > 0
