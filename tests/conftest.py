"""Shared fixtures and small numerical oracles used across the suite."""

import numpy as np
import pytest

from expfamproj import ConjugateHyper, ObservationSet, PriorSpec, make_layout


def make_rng(*parts):
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def grid_stats(log_unnorm, lo=-10.0, hi=10.0, n=10_000):
    """(mean, sd) of theta under the density proportional to exp(log_unnorm).

    Trapezoidal integration on a uniform grid; accurate to far better than
    the Monte Carlo tolerances it is compared against.
    """
    t = np.linspace(lo, hi, n)
    lp = np.asarray(log_unnorm(t), dtype=float)
    lp -= lp.max()
    w = np.exp(lp)
    z = np.trapezoid(w, t)
    mean = np.trapezoid(t * w, t) / z
    second = np.trapezoid(t * t * w, t) / z
    return float(mean), float(np.sqrt(max(second - mean * mean, 0.0)))


def batch_means_se(trace, n_batches=50):
    """Standard error of the mean of a correlated trace via batch means."""
    trace = np.asarray(trace, dtype=float)
    m = trace.size // n_batches * n_batches
    if m == 0:
        raise ValueError("trace too short for batch means")
    bm = trace[:m].reshape(n_batches, -1).mean(axis=1)
    return float(bm.std(ddof=1) / np.sqrt(n_batches))


def central_diff_grad(fun, x, eps=1e-6):
    """Dense central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return g


def dense_observations(layout, theta, seed=0):
    """Fully observed draw from the layout's families at the given Theta."""
    rng = make_rng(seed, 900)
    x = np.empty_like(theta)
    for i, fam in enumerate(layout.families):
        cols = layout.cols_view[i]
        x[:, cols] = fam.sample(theta[:, cols], rng)
    return ObservationSet(x, np.ones_like(x, dtype=bool),
                          layout.view_widths, layout.families)


@pytest.fixture
def tiny_bernoulli_obs():
    """4x3 fully observed Bernoulli single-view data."""
    layout = make_layout("epca", 3, 2, "bernoulli")
    rng = make_rng(42, 1)
    theta = rng.standard_normal((4, 3))
    return dense_observations(layout, theta, seed=42), layout


def flat_spec(beta=0.0, lam=0.5, nu=1.0, sigma_u=1.0, sigma_v=1.0,
              gamma=None):
    return PriorSpec(beta=beta, a_hyper=ConjugateHyper(lam, nu),
                     sigma_u=sigma_u, sigma_v=sigma_v, gamma=gamma)
