"""The benchmark's workloads: CLI configs built from a seed, and the
reader that checks a call's output directory.

A workload has ``cases`` inputs, each one ``expfamproj.cli.main`` call; the
config of case j comes from a seed derived from (benchmark seed, j).
A reader returns a ``CallResult``: the quality values (which must repeat
exactly across calls with the same config, because seeded reruns are
bit-identical), the attempted and failed operation counts, and rates
derived from the output (sampler ESS per second).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from expfamproj.chains import load_chain

from ess import geyer_ess


@dataclass
class CallResult:
    quality: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)


def _recipe_result(out_dir, recipe, expected_rows, metric=None):
    """Rows of a recipe run: count, failures and the mean of one metric.

    A row failed when its status starts with "failed:".
    """
    with open(os.path.join(out_dir, f"{recipe}.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = sum(r["status"].startswith("failed:") for r in rows)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{recipe}: {len(rows)} rows, expected "
                        f"{expected_rows}")
    quality = {}
    if metric is not None:
        values = [float(r["value"]) for r in rows if r["metric"] == metric]
        quality[metric] = (math.fsum(values) / len(values) if values
                           else math.nan)
    return CallResult(quality, len(rows), failed, problems)


# ---------------------------------------------------------------------------
# map-epls: the epls-vs-sepca recipe, one replicate per case, twelve cases.
# Each case fits Bernoulli MAP models on 50 x (1 + 20) rows, runs EPLS plus
# SEPCA at 1, 4 and 8 components and alpha in {1, 1e-3}, and folds in 950
# test rows.
#
# Why: almost all of its time is optimize.minimize_cg and
# map_infer.posterior_logp_and_grad at small shapes (0.2 to 3 ms per
# evaluation), where per-call Python overhead and rejected backtracks
# (about 2 of 3 evaluations) dominate.  No sampler code runs, and Bernoulli
# h(x) = 0, so caching data-only terms should move nothing here.  Fit cost
# depends on the data (one case can cost twice another), so a round
# averages over twelve seeded inputs.

EPLS_SEPCA_RANKS = (1, 4, 8)
EPLS_METHODS = 1 + 2 * len(EPLS_SEPCA_RANKS)      # EPLS, SEPCA at 2 alphas


def epls_config(seed):
    return {"recipe": "epls-vs-sepca",
            "overrides": {"n_replicates": 1, "seed": seed,
                          "sepca_components": list(EPLS_SEPCA_RANKS)}}


def epls_read(out_dir):
    return _recipe_result(out_dir, "epls-vs-sepca", EPLS_METHODS,
                          "prediction_error")


# ---------------------------------------------------------------------------
# sampler-poisson: the sampler-bench recipe on 50 x (20 + 20) Poisson ECCA
# with K = 5: 600 gibecca sweeps, 140 HMC sweeps with exchange moves, and
# about 400 chain files (6 MB) written.
#
# Why: this is the only workload with HMC, exchange and chain I/O.  About
# 70% of its time is hmc_infer.sample_prior_approx, which makes ~30k
# prior.gaussian_block_terms calls; gibecca is ~10%.

SAMPLER_OVERRIDES = {"n_replicates": 1, "save_chains": True,
                     "gib_samples": 300, "gib_burn": 300,
                     "hmc_samples": 100, "hmc_burn": 40}


def sampler_config(seed):
    return {"recipe": "sampler-bench",
            "overrides": dict(SAMPLER_OVERRIDES, seed=seed)}


def sampler_read(out_dir):
    """Rows, then both samplers' ESS read back from the saved chains.

    ESS is Geyer's estimate on the stored log-likelihood trace; a chain's
    seconds are its own last wall-clock entry, which includes burn-in.
    """
    result = _recipe_result(out_dir, "sampler-bench", 4)
    for tag in ("gibecca", "hmc"):
        chain = load_chain(os.path.join(out_dir, "chains", f"{tag}-rep0"))
        ess = geyer_ess(chain.loglik)
        result.quality[f"{tag}_ess"] = ess
        result.rates[f"{tag}_ess_per_s"] = ess / float(chain.wall_clock[-1])
    return result


# ---------------------------------------------------------------------------
# gibecca-knn: the cca-knn recipe, one replicate per case, four cases.
# Each case runs four gibecca chains of 400 sweeps (Poisson and Bernoulli,
# count-aware and Gaussian), two small Gaussian MAP fits, and KNN.
#
# Why: the Gaussian stage and the Theta refresh dominate, and HMC and
# exchange never run.  It is the control for exchange changes and the main
# test for gibecca changes across three families.  The MAP fits take 0.3
# to 0.7 s of a ~2.2 s case, depending on the data, so a round averages
# over four seeded inputs.

KNN_FAMILIES = 2                   # poisson and bernoulli


KNN_SWEEPS = {"n_samples": 200, "burn_in": 200}


def knn_config(seed):
    return {"recipe": "cca-knn",
            "overrides": dict(KNN_SWEEPS, n_replicates=1, seed=seed)}


def knn_read(out_dir):
    return _recipe_result(out_dir, "cca-knn", 3 * KNN_FAMILIES, "knn_error")


# ---------------------------------------------------------------------------
# impute-large: `expfam-proj impute` with the MAP engine on synthetic
# 2000 x (200 + 200) Poisson ECCA, K = 5, with 10% held out, at max_iter 15
# (about 50 posterior evaluations).
#
# Why: each evaluation is ~75 ms, and gammaln on the data is a large part
# of it.  Each N x D array is 6.4 MB, larger than the 2 MB per-core L2, so
# the elementwise kernel dominates.  That is the opposite of map-epls.  It
# is also the only workload that writes a large CSV (80,000 prediction
# lines) and uses spect.make_holdout.  A latent scale of 0.5 keeps the
# Poisson counts moderate, so the line search does the same work on every
# seed.

IMPUTE_SHAPE = {"model": "ecca", "view_widths": [200, 200],
                "ranks": [1, 2, 2], "families": "poisson"}
IMPUTE_ROWS = 2000
IMPUTE_MAX_ITER = 15


def impute_config(seed):
    return {"data": {"synthetic": dict(IMPUTE_SHAPE, n_rows=IMPUTE_ROWS,
                                       latent_scale=0.5, seed=seed)},
            "layout": IMPUTE_SHAPE,
            "prior": {"beta": 0.1, "a_hyper": [0.5, 1.0]},
            "engine": "map",
            "options": {"max_iter": IMPUTE_MAX_ITER, "seed": seed},
            "holdout": {"fraction": 0.1, "seed": seed}}


def impute_read(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "predictions.csv")) as fh:
        lines = sum(1 for _ in fh)
    problems = []
    if lines != summary["n_holdout"] + 1:
        problems.append(f"predictions.csv has {lines} lines for "
                        f"{summary['n_holdout']} held-out entries")
    return CallResult({"heldout_loglik": summary["heldout_loglik"]}, 1, 0,
                      problems)


@dataclass(frozen=True)
class Workload:
    command: str          # CLI subcommand
    cases: int            # distinct inputs per round
    config: object        # case seed -> config dict
    read: object          # output directory -> CallResult


WORKLOADS = {
    "map-epls": Workload("experiment", 12, epls_config, epls_read),
    "sampler-poisson": Workload("experiment", 1, sampler_config,
                                sampler_read),
    "gibecca-knn": Workload("experiment", 4, knn_config, knn_read),
    "impute-large": Workload("impute", 1, impute_config, impute_read),
}


def case_seed(seed, case):
    """Seed of one case, derived from the benchmark seed."""
    state = np.random.SeedSequence([seed % (1 << 63), case])
    return int(state.generate_state(1)[0])


def write_configs(name, seed, config_dir):
    """Write case{j}.json for every case of a workload into config_dir."""
    workload = WORKLOADS[name]
    for case in range(workload.cases):
        path = os.path.join(config_dir, f"case{case}.json")
        with open(path, "w") as fh:
            json.dump(workload.config(case_seed(seed, case)), fh, indent=1)
