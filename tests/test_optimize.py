"""Line-search Newton-CG minimiser."""

import weakref

import numpy as np
import pytest

from expfamproj.optimize import MAX_PRODUCTS, minimize_cg

from conftest import make_rng


def quadratic(a_matrix, b):
    def fg(x):
        return (0.5 * x @ a_matrix @ x - b @ x,
                lambda: (a_matrix @ x - b, lambda p: a_matrix @ p))
    return fg


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    hess = np.array([[2 - 400 * (b - a * a) + 800 * a * a, -400 * a],
                     [-400 * a, 200.0]])
    return f, lambda: (np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                                 200 * (b - a * a)]),
                       lambda p: hess @ p)


def barrier(x):
    """A quadratic inside the unit ball, +inf outside it."""
    if x @ x >= 1.0:
        return np.inf, lambda: (np.zeros_like(x), lambda p: 0.0 * p)
    f = (x[0] - 0.4) ** 2 + (x[1] + 0.3) ** 2
    return f, lambda: (np.array([2 * (x[0] - 0.4), 2 * (x[1] + 0.3)]),
                       lambda p: 2.0 * p)


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
    """Every gradient thunk, a rejected trial's included, and every
    product are dropped by the time the objective is called again, so an
    objective whose thunk and product keep their point alive holds at
    most one point."""
    class Point:
        pass

    refs, alive = [], []

    def objective(x):
        alive.append(sum(ref() is not None for ref in refs))
        f, grad = rosenbrock(x)
        point = Point()
        refs.append(weakref.ref(point))

        def thunk(point=point):
            g, product = grad()
            return g, lambda p, point=point: product(p)
        return f, thunk

    res = minimize_cg(objective, np.array([-1.2, 1.0]), grad_tol=1e-6,
                      max_iter=200)
    assert len(alive) > res.n_iter + 1     # some trials were rejected
    assert not any(alive)


def test_infeasible_start_raises():
    def fg(x):
        return np.inf, lambda: (np.zeros_like(x), lambda p: p)

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
# work counts: values everywhere, gradients only where accepted

def _banded(x):
    """sqrt(1 + x0^2) + (x1 + 1)^2, whose gradient is not finite (None)
    in a band of x0 that the first Newton step, to -x0^3, reaches with a
    lower value, as an overflowing gradient would be."""
    a, b = x
    root = np.sqrt(1.0 + a * a)
    hess = np.diag([root ** -3, 2.0])
    return (root + (b + 1) ** 2,
            lambda: (None if -0.8 < a < -0.7
                     else (np.array([a / root, 2 * (b + 1)]),
                           lambda p: hess @ p)))


_M = make_rng(10, 5).standard_normal((8, 8))
COUNT_CASES = {
    "quadratic": (quadratic(_M @ _M.T + 0.2 * np.eye(8),
                            make_rng(10, 6).standard_normal(8)),
                  np.linspace(-1.0, 1.0, 8), 1e-7),
    "rosenbrock": (rosenbrock, np.array([-1.2, 1.0]), 1e-8),
    "barrier": (barrier, np.array([-0.9, 0.3]), 1e-9),
    "nonfinite_gradient": (_banded, np.array([0.9, -1.0]), 1e-9),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_thunk_runs_once_per_accepted_point(case):
    """The thunk runs at the start and at each accepted point, n_iter + 1
    times, and never at a trial the Armijo test rejects; only a trial
    that passes it but has no finite gradient adds a call.  The result
    counts every value, gradient and product."""
    objective, x0, grad_tol = COUNT_CASES[case]
    calls = {"value": 0, "grad": 0, "nonfinite": 0, "product": 0}
    thunk_values = []

    def counted_objective(x):
        calls["value"] += 1
        f, grad = objective(x)

        def counted():
            out = grad()
            calls["grad"] += 1
            if out is None:
                calls["nonfinite"] += 1
                return None
            thunk_values.append(f)
            g, product = out

            def counted_product(p):
                calls["product"] += 1
                return product(p)
            return g, counted_product
        return f, counted

    res = minimize_cg(counted_objective, x0, grad_tol, max_iter=200)
    assert res.converged
    assert calls["grad"] == res.n_iter + 1 + calls["nonfinite"]
    assert thunk_values == res.trace
    assert (res.n_values, res.n_gradients, res.n_products) == (
        calls["value"], calls["grad"], calls["product"])
    if case in ("rosenbrock", "nonfinite_gradient"):
        assert calls["value"] > res.n_iter + 1     # trials were rejected
    if case == "nonfinite_gradient":
        assert calls["nonfinite"] > 0


def test_first_step_with_negative_curvature_is_steepest_descent():
    """Where the first inner direction -g has non-positive curvature, the
    Newton direction is -g, so the first trial is x0 - g(x0)."""
    def double_well(x):
        f = x[0] ** 4 - x[0] ** 2 + x[1] ** 2
        grad = np.array([4 * x[0] ** 3 - 2 * x[0], 2 * x[1]])
        hess = np.diag([12 * x[0] ** 2 - 2, 2.0])
        return f, lambda: (grad, lambda p: hess @ p)

    trials = []

    def objective(x):
        trials.append(x.copy())
        return double_well(x)

    x0 = np.array([0.1, 0.0])
    res = minimize_cg(objective, x0, grad_tol=1e-10)
    g0 = double_well(x0)[1]()[0]
    assert np.array_equal(trials[1], x0 - g0)
    assert res.converged
    assert np.allclose(res.x, [np.sqrt(0.5), 0.0], atol=1e-8)


def test_inner_solve_stops_at_the_product_cap():
    """A Newton system that CG cannot solve within MAX_PRODUCTS products
    uses exactly that many."""
    n = 3 * MAX_PRODUCTS
    a = np.diag(np.logspace(0, 6, n))
    res = minimize_cg(quadratic(a, np.ones(n)), np.zeros(n), grad_tol=1e-12,
                      max_iter=1)
    assert res.n_products == MAX_PRODUCTS


def test_per_coordinate_tolerance():
    """A vector grad_tol bounds each coordinate of the gradient by its
    own entry: a loose coordinate does not loosen a tight one."""
    a = np.diag([1.0, 1e-3])
    b = np.array([1.0, 1.0])
    res = minimize_cg(quadratic(a, b), np.zeros(2),
                      grad_tol=np.array([1e-10, 1e3]))
    assert res.converged
    assert abs(res.grad[0]) <= 1e-10
