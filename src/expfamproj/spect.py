"""Binary diagnostic-imaging dataset: loader, fallback and holdouts.

The real dataset is a 267-patient table of 22 binary image features plus
a diagnosis column.  Only the features are modelled; the diagnosis column
is dropped on load.  When no file is available the experiments fall back
to a synthetic stand-in with the same shape and a comparable low-rank
plus-noise structure.
"""

from __future__ import annotations

import warnings

import numpy as np

from .evaluation import MaskError
from .expfam import BERNOULLI
from .model import ConfigError, ObservationSet

EXPECTED_ROWS = 267
N_FEATURES = 22


class ParseError(ValueError):
    """The file does not look like the binary feature table."""


def _as_observations(x):
    return ObservationSet(x, np.ones(x.shape, dtype=bool),
                          (x.shape[1], 0), (BERNOULLI,))


def load_spect(path) -> ObservationSet:
    """Parse the comma-separated binary table at path.

    Accepts rows of 23 values (diagnosis first, dropped) or bare rows of
    22 features.  Every value must be 0 or 1.  A row count other than 267
    is allowed but warned about, since published numbers use the full
    train+test table.
    """
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [int(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"line {ln}: non-integer entry") from exc
            if any(v not in (0, 1) for v in vals):
                raise ParseError(f"line {ln}: values must be 0 or 1")
            if len(vals) == N_FEATURES + 1:
                vals = vals[1:]   # leading diagnosis column
            elif len(vals) != N_FEATURES:
                raise ParseError(f"line {ln}: expected {N_FEATURES} or "
                                 f"{N_FEATURES + 1} columns, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=float)
    if x.shape[0] != EXPECTED_ROWS:
        warnings.warn(f"expected {EXPECTED_ROWS} rows, got {x.shape[0]}; "
                      "results will not match published numbers")
    return _as_observations(x)


def synthetic_binary(n_rows=EXPECTED_ROWS, n_cols=N_FEATURES,
                     seed=0) -> ObservationSet:
    """Synthetic stand-in: rank-2 logits plus column biases and noise.

    The scales are chosen so that a rank-1 fit captures real but partial
    structure, which is the regime the shrinkage experiments need.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    u = rng.standard_normal((n_rows, 2))
    v = rng.standard_normal((2, n_cols))
    col_bias = rng.normal(0.8, 0.6, n_cols)
    theta = col_bias + 1.4 * u[:, :1] @ v[:1] + 0.7 * u[:, 1:] @ v[1:]
    theta += 0.5 * rng.standard_normal(theta.shape)
    return _as_observations(BERNOULLI.sample(theta, rng))


def load_or_fallback(path=None):
    """(observations, notice) with notice set when the fallback was used."""
    if path is not None:
        return load_spect(path), None
    return (synthetic_binary(),
            "no dataset path given: using the synthetic stand-in")


def make_holdout(obs: ObservationSet, frac=0.2, seed=0):
    """Split observed entries into train and held-out sets.

    Picks round(frac * n_observed) entries uniformly at random, then
    repairs the split so every row and column keeps at least one training
    entry (repairs move held-out entries back to training, which can only
    add coverage).  A fraction small enough to round to zero entries
    yields an empty holdout.  Raises MaskError when a row or column has
    no observed entries at all.

    Returns (train_obs, held_mask); train_obs shares x with obs but masks
    the held-out entries as unobserved.
    """
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"holdout fraction must be in (0, 1), got {frac}")
    if np.any(obs.observed.sum(axis=1) == 0):
        raise MaskError("a row has no observed entries")
    if np.any(obs.observed.sum(axis=0) == 0):
        raise MaskError("a column has no observed entries")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    flat_obs = np.flatnonzero(obs.observed.ravel())
    n_hold = int(round(frac * flat_obs.size))
    held = np.zeros(obs.x.shape, dtype=bool)
    picked = rng.choice(flat_obs, size=n_hold, replace=False)
    held.ravel()[picked] = True
    train = obs.observed & ~held

    for r in np.flatnonzero(train.sum(axis=1) == 0):
        c = rng.choice(np.flatnonzero(held[r]))
        held[r, c] = False
        train[r, c] = True
    for c in np.flatnonzero(train.sum(axis=0) == 0):
        r = rng.choice(np.flatnonzero(held[:, c]))
        held[r, c] = False
        train[r, c] = True

    return obs.with_mask(train), held
