"""Synthetic data generation and evaluation metrics for the experiments.

Everything here is deliberately small and deterministic given a seed: the
experiment recipes call these with per-replicate child seeds and compare
methods on identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .chains import Chain
from .model import (BlockLayout, ConfigError, EntryTerms, ObservationSet,
                    log_likelihood_theta)


class MaskError(ValueError):
    """Train and held-out masks overlap, or a holdout is unusable."""


class StatError(ValueError):
    """Not enough data for the requested statistic."""


@dataclass
class CoupledData:
    """A synthetic draw split into train and test rows, plus the truth."""

    train: ObservationSet
    test: ObservationSet
    labels: np.ndarray        # one per row, train rows first
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray


def generate_coupled(layout: BlockLayout, n_train: int, n_test=0, seed=0,
                     latent_scale=1.0, target_scale=1.0) -> CoupledData:
    """Fully observed draw from a low-rank model on the given layout.

    U and the free entries of V are iid N(0, latent_scale^2); the shared
    loadings onto view 1 are then multiplied by target_scale, which sets
    how strongly the shared factors show up in the first view.  A centred
    Theta keeps the shared component from being spent on a constant
    offset; the exponential family additionally needs its half-line
    domain respected.  labels is the sign pattern of the
    first shared component, for use as a classification target; the first
    n_train entries belong to the train rows.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n_rows = int(n_train) + int(n_test)
    k, d = layout.k_total, layout.d_total
    u = latent_scale * rng.standard_normal((n_rows, k))
    v = latent_scale * rng.standard_normal((k, d))
    v[layout.zero_mask] = 0.0
    # pin the norm of each shared loading row on view 1 so the target
    # signal strength does not hinge on one lucky Gaussian draw
    cols1 = layout.cols_view[0]
    block = v[: layout.ranks[0], cols1]
    norms = np.linalg.norm(block, axis=1, keepdims=True)
    width = block.shape[1]
    v[: layout.ranks[0], cols1] = block / np.maximum(norms, 1e-12) \
        * (latent_scale * target_scale * np.sqrt(width))
    theta = u @ v
    x = np.empty_like(theta)
    for i, fam in enumerate(layout.families):
        cols = layout.cols_view[i]
        block = fam.to_domain(theta[:, cols])
        theta[:, cols] = block
        x[:, cols] = fam.sample(block, rng)
    obs = ObservationSet(x, np.ones(x.shape, dtype=bool),
                         layout.view_widths, layout.families)
    labels = (u[:, 0] > 0).astype(float)
    test = obs.subset_rows(np.arange(n_train, n_rows)) if n_test else None
    return CoupledData(obs.subset_rows(np.arange(n_train)), test, labels,
                       u, v, theta)


def prediction_error(means: np.ndarray, x_true: np.ndarray, family) -> float:
    """The family's prediction error: misclassification rate at a 0.5
    threshold for binary data, mean squared error otherwise."""
    means = np.asarray(means, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if means.shape != x_true.shape:
        raise ValueError(f"shape mismatch {means.shape} vs {x_true.shape}")
    return family.prediction_error(means, x_true)


def heldout_loglik(thetas, obs: ObservationSet, held_mask: np.ndarray,
                   layout: BlockLayout) -> float:
    """Predictive log-likelihood of the entries picked by held_mask.

    thetas is a list of Theta samples (one for a point estimate); their
    log-likelihoods are combined as logsumexp - log S, the Monte Carlo
    estimate of log E[p(x_held | Theta)], which is exact for a single
    sample.  held_mask must be disjoint from the training mask in obs.
    """
    held_mask = np.asarray(held_mask, dtype=bool)
    if held_mask.shape != obs.x.shape:
        raise MaskError(f"held-out mask shape {held_mask.shape} does not "
                        f"match the data {obs.x.shape}")
    if np.any(held_mask & obs.observed):
        raise MaskError("held-out entries overlap the training mask")
    if len(thetas) == 0:
        raise StatError("no Theta samples")
    # unweighted: held-out scoring applies no alpha
    kernel = EntryTerms(layout.families, layout.cols_view, obs.x, held_mask)
    lls = np.array([log_likelihood_theta(obs, theta, layout, kernel=kernel)
                    for theta in thetas])
    return float(special.logsumexp(lls) - np.log(lls.size))


def check_knn_counts(n_neighbors, folds, n):
    """ConfigError unless n rows allow n_neighbors neighbours and folds."""
    if n_neighbors >= n:
        raise ConfigError(f"n_neighbors = {n_neighbors} needs more than "
                          f"{n} rows")
    if folds < 2 or folds > n:
        raise ConfigError(f"cannot make {folds} folds from {n} rows")


def knn_latent_error(u: np.ndarray, labels: np.ndarray, n_neighbors=9,
                     folds=5, seed=0) -> float:
    """Cross-validated nearest-neighbour error of labels in latent space.

    Euclidean distances on the rows of u, majority vote over n_neighbors,
    error pooled over the folds.  The fold partition is a seeded shuffle.
    """
    u = np.asarray(u, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = u.shape[0]
    if labels.shape[0] != n:
        raise ValueError("labels do not match the latent rows")
    check_knn_counts(n_neighbors, folds, n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    order = rng.permutation(n)
    wrong = 0
    for fold in np.array_split(order, folds):
        train = np.setdiff1d(order, fold)
        k_eff = min(n_neighbors, train.size)
        d2 = np.sum((u[fold, None, :] - u[None, train, :]) ** 2, axis=2)
        nearest = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
        votes = labels[train][nearest].mean(axis=1)
        wrong += int(np.sum((votes > 0.5) != (labels[fold] > 0.5)))
    return wrong / n


@dataclass
class UncorrelatedTime:
    """First lag at which a trace decorrelates, and its cost in seconds."""
    lag: float
    seconds: float
    flagged: bool


def time_between_uncorrelated(chain: Chain, series=None) -> UncorrelatedTime:
    """Wall-clock time for the chain to produce an uncorrelated draw.

    Scans the sample autocorrelation of the series (the stored
    log-likelihood trace by default) for the first lag below 0.1.  If no
    lag in the first half of the chain qualifies, the result is flagged
    and reported as infinite rather than extrapolated.
    """
    y = np.asarray(chain.loglik if series is None else series, dtype=float)
    n = y.size
    if n < 100:
        raise StatError(f"need at least 100 samples, got {n}")
    y = y - y.mean()
    denom = float(y @ y)
    lag = None
    if denom > 0.0:
        # constant traces (denom 0) never decorrelate; report flagged
        for tau in range(1, n // 2 + 1):
            if float(y[:-tau] @ y[tau:]) / denom < 0.1:
                lag = tau
                break
    wall = np.asarray(chain.wall_clock, dtype=float)
    spacing = (wall[-1] - wall[0]) / (n - 1) if wall.size == n else np.nan
    if lag is None:
        return UncorrelatedTime(np.inf, np.inf, True)
    return UncorrelatedTime(float(lag), float(lag * spacing), False)


@dataclass
class PairedTest:
    p_value: float
    statistic: float
    mean_diff: float


def paired_significance(a, b, n_comparisons=1) -> PairedTest:
    """Paired t-test with a Bonferroni factor, capped at 1.

    Degenerate zero-variance differences short-circuit: identical
    replicates give p = 1, a constant nonzero gap gives the smallest
    positive float.  Otherwise t and the two-sided p are computed as
    scipy.stats.ttest_rel computes them, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise StatError("paired test needs two equal-length vectors")
    if a.size < 3:
        raise StatError(f"need at least 3 replicates, got {a.size}")
    diff = a - b
    mean_diff = float(diff.mean())
    if np.allclose(diff, diff[0]):
        p = 1.0 if mean_diff == 0.0 else float(np.finfo(float).tiny)
        return PairedTest(min(1.0, p * n_comparisons), np.inf, mean_diff)
    n = diff.size
    var = np.mean((diff - mean_diff) ** 2) * (n / (n - 1))
    t_stat = mean_diff / np.sqrt(var / n)
    p = 2 * special.stdtr(n - 1, -abs(t_stat))
    return PairedTest(float(min(1.0, p * n_comparisons)), float(t_stat),
                      mean_diff)
