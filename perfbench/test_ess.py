"""The ESS estimator against AR(1) traces, whose ESS is n (1 - rho) / (1 + rho).

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest

from ess import autocorrelation, geyer_ess


def ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ar1_ess_matches_theory(rho, seed):
    n = 100_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert geyer_ess(ar1(rho, n, seed)) == pytest.approx(expected, rel=0.1)


def test_autocorrelation_matches_direct_sum():
    x = ar1(0.7, 500, 3)
    y = x - x.mean()
    direct = np.array([y[:y.size - k] @ y[k:] for k in range(y.size)]) / (y @ y)
    np.testing.assert_allclose(autocorrelation(x), direct, atol=1e-12)


def test_constant_trace_has_no_ess():
    assert np.isnan(geyer_ess(np.ones(100)))
