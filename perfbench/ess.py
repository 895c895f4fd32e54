"""Effective sample size of a scalar trace.

Autocorrelations come from one FFT of the zero-padded, centred trace.
The sum of autocorrelations is truncated by Geyer's (1992) initial
monotone sequence estimator: pair sums rho[2m] + rho[2m+1] are summed
while they stay positive, each clipped to the smallest pair sum seen so
far.  Then tau = -1 + 2 * sum(pair sums) and ESS = n / tau.  For an AR(1)
trace with coefficient rho the estimate tends to n (1 - rho) / (1 + rho).
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x) -> np.ndarray:
    """Sample autocorrelation at lags 0 .. n-1 (biased, divided by n)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    y = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n] / n
    if acov[0] <= 0.0:
        return np.full(n, np.nan)
    return acov / acov[0]


def geyer_ess(x) -> float:
    """Effective sample size; nan for a constant or too-short trace."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float("nan")
    rho = autocorrelation(x)
    if not np.isfinite(rho[0]):
        return float("nan")
    n_pairs = n // 2
    pairs = rho[:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[:stop[0]]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return float(n / tau) if tau > 0.0 else float("nan")
