"""The four named experiment recipes behind `expfam-proj experiment`.

Each recipe is a config dataclass plus a runner returning tidy rows
(experiment, replicate, method, components, metric, value, status), a
summary dict with the significance tests, and any chains worth keeping.
Replicates run in a process pool; every replicate derives its own seeds
up front from (config seed, replicate index), so results are identical
whatever the pool size or completion order.  A replicate that throws is
recorded as a flagged failure row instead of killing the run, unless it
throws a ConfigError: a setting no replicate can run with ends the run.
"""

from __future__ import annotations

import csv
import functools
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chains import Chain, shared_latent_mean
from .evaluation import (check_knn_counts, generate_coupled, heldout_loglik,
                         knn_latent_error, paired_significance,
                         prediction_error, time_between_uncorrelated)
from .expfam import ConjugateHyper, get_family
from .gibecca import GibeccaOptions, run_gibecca
from .hmc_infer import HmcOptions, run_hmc_chain
from .map_infer import MapOptions, cv_select_hyperparams, fit_map, predict_target
from .model import ConfigError, ObservationSet, assemble_theta, make_layout
from .prior import PriorSpec
from .spect import make_holdout

CSV_FIELDS = ("experiment", "replicate", "method", "components", "metric",
              "value", "status")

# conjugate hyperparameters used when a recipe does not tune them
DEFAULT_A = {"bernoulli": (0.5, 1.0), "poisson": (0.5, 1.0),
             "gaussian": (0.0, 1.0), "exponential": (1.0, 1.0)}


def _seed_int(*parts) -> int:
    """Deterministic 63-bit seed from a tuple of integers."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(2)
    return int(state[0]) | (int(state[1] & 0x7FFFFFFF) << 32)


def _row(experiment, replicate, method, components, metric, value,
         status="ok"):
    return {"experiment": experiment, "replicate": int(replicate),
            "method": method, "components": int(components),
            "metric": metric, "value": float(value), "status": status}


def _guarded(name, worker, args):
    """worker(args), or a failure row for replicate args[0] if it throws
    anything but a ConfigError, which ends the run."""
    try:
        return worker(args)
    except ConfigError:
        raise
    except Exception as exc:                      # noqa: BLE001
        traceback.print_exc()
        reason = f"failed: {type(exc).__name__}: {exc}"
        return [_row(name, args[0], "*", 0, "error", np.nan, reason)], {}


def _replicates(name, worker, args, jobs):
    """Concatenated rows and merged chains of worker over args, in order;
    each args tuple starts with its replicate index and each worker
    returns (rows, chains)."""
    task = functools.partial(_guarded, name, worker)
    if jobs <= 1:
        out = [task(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            out = list(ex.map(task, args))
    rows = [r for chunk, _ in out for r in chunk]
    chains = {k: v for _, ch in out for k, v in ch.items()}
    return rows, chains


@dataclass
class RecipeResult:
    name: str
    rows: list
    summary: dict
    chains: dict = field(default_factory=dict)


def write_rows_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _values(rows, method, metric):
    """Replicate-indexed values for one (method, metric) pair."""
    return {r["replicate"]: r["value"] for r in rows
            if r["method"] == method and r["metric"] == metric
            and r["status"] == "ok"}


def _paired(rows, method_a, method_b, metric, n_comparisons):
    """Paired test over the replicates where both methods succeeded."""
    va, vb = _values(rows, method_a, metric), _values(rows, method_b, metric)
    shared = sorted(set(va) & set(vb))
    a = np.array([va[r] for r in shared])
    b = np.array([vb[r] for r in shared])
    test = paired_significance(a, b, n_comparisons)
    return {"method_a": method_a, "method_b": method_b,
            "n_pairs": len(shared), "mean_a": float(a.mean()),
            "mean_b": float(b.mean()), "mean_diff": test.mean_diff,
            "p_value": test.p_value}


# --------------------------------------------------------------------------
# supervised prediction: shared-factor model vs weighted joint factorisation


@dataclass
class EplsVsSepcaConfig:
    n_replicates: int = 20
    n_train: int = 50
    n_test: int = 950
    d_target: int = 1
    d_features: int = 20
    k_shared: int = 1
    k_specific: int = 5
    sepca_components: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    alphas: tuple[float, ...] = (1.0, 1e-3)
    beta: float = 0.1
    lam: float = 0.5
    nu: float = 1.0
    sigma_u: float = 1.0
    sigma_v: float = 1.0
    latent_scale: float = 1.5
    target_scale: float = 2.0
    restarts: int = 2
    max_iter: int = 500
    seed: int = 0


def _epls_replicate(args):
    rep, cfg = args
    widths = (cfg.d_target, cfg.d_features)
    gen_layout = make_layout("epls", widths,
                             (cfg.k_shared, cfg.k_specific), "bernoulli")
    data = generate_coupled(gen_layout, cfg.n_train, cfg.n_test,
                            seed=_seed_int(cfg.seed, 29, rep),
                            latent_scale=cfg.latent_scale,
                            target_scale=cfg.target_scale)
    truth = data.test.x[:, :cfg.d_target]
    feat_mask = np.ones(data.test.x.shape, dtype=bool)
    feat_mask[:, :cfg.d_target] = False
    test_feats = data.test.with_mask(feat_mask)

    methods = [("epls", "epls", (cfg.k_shared, cfg.k_specific), None,
                cfg.k_shared + cfg.k_specific)]
    for alpha in cfg.alphas:
        for k in cfg.sepca_components:
            methods.append((f"sepca-a{alpha:g}-k{k}", "sepca", k,
                            (1.0, alpha), k))

    rows = []
    for m, (label, kind, ranks, alpha, n_comp) in enumerate(methods):
        layout = make_layout(kind, widths, ranks, "bernoulli", alpha=alpha)
        spec = PriorSpec(beta=cfg.beta,
                         a_hyper=ConjugateHyper(cfg.lam, cfg.nu),
                         sigma_u=cfg.sigma_u, sigma_v=cfg.sigma_v)
        opts = MapOptions(max_iter=cfg.max_iter, restarts=cfg.restarts,
                          seed=_seed_int(cfg.seed, 29, rep, 1, m))
        fit = fit_map(data.train, layout, spec, opts)
        pred = predict_target(test_feats, fit.state, layout, spec,
                              MapOptions(max_iter=cfg.max_iter))
        err = prediction_error(pred.means, truth, get_family("bernoulli"))
        rows.append(_row("epls-vs-sepca", rep, label, n_comp,
                         "prediction_error", err))
    return rows, {}


def run_epls_vs_sepca(cfg: EplsVsSepcaConfig, jobs=1) -> RecipeResult:
    args = [(rep, cfg) for rep in range(cfg.n_replicates)]
    rows, _ = _replicates("epls-vs-sepca", _epls_replicate, args, jobs)
    tests = []
    for alpha in cfg.alphas:
        for k in cfg.sepca_components:
            try:
                tests.append(dict(
                    _paired(rows, "epls", f"sepca-a{alpha:g}-k{k}",
                            "prediction_error",
                            n_comparisons=len(cfg.sepca_components)),
                    alpha=alpha, components=k))
            except ValueError as exc:
                tests.append({"method_b": f"sepca-a{alpha:g}-k{k}",
                              "error": str(exc)})
    summary = {"experiment": "epls-vs-sepca",
               "n_replicates": cfg.n_replicates,
               "bonferroni_comparisons": len(cfg.sepca_components),
               "paired_tests": tests}
    return RecipeResult("epls-vs-sepca", rows, summary)


# --------------------------------------------------------------------------
# shrinkage sweep: held-out imputation quality across the prior weight


@dataclass
class BetaSweepConfig:
    n_points: int = 100
    restarts: int = 10
    k: int = 1
    holdout_fraction: float = 0.1
    cv_folds: int = 10
    cv_max_iter: int = 300
    max_iter: int = 800
    seed: int = 0


def _beta_point(args):
    restart, cfg, idx, beta, train_obs, held, layout, base = args
    # gamma=None: the point's gamma is 1 - beta, not base's
    spec = base.replace(beta=float(beta), gamma=None)
    fit = fit_map(train_obs, layout, spec,
                  MapOptions(max_iter=cfg.max_iter, restarts=1,
                             seed=_seed_int(cfg.seed, 41, idx, restart)))
    value = heldout_loglik([assemble_theta(fit.state, layout)],
                           train_obs, held, layout)
    return [_row("beta-sweep", restart, f"beta-{beta:.6g}", cfg.k,
                 "heldout_loglik", value)], {}


def run_beta_sweep(cfg: BetaSweepConfig, obs: ObservationSet,
                   jobs=1) -> RecipeResult:
    train_obs, held = make_holdout(obs, cfg.holdout_fraction,
                                   seed=_seed_int(cfg.seed, 31))
    fam = train_obs.families[0].name
    layout = make_layout("epca", (train_obs.x.shape[1], 0), cfg.k, fam)
    base = cv_select_hyperparams(train_obs, layout, beta=0.5,
                                 folds=cfg.cv_folds,
                                 seed=_seed_int(cfg.seed, 37),
                                 opts=MapOptions(max_iter=cfg.cv_max_iter))

    betas = np.linspace(0.0, 1.0, cfg.n_points)
    args = [(r, cfg, i, beta, train_obs, held, layout, base)
            for i, beta in enumerate(betas) for r in range(cfg.restarts)]
    rows, _ = _replicates("beta-sweep", _beta_point, args, jobs)

    per_beta = []
    for beta in betas:
        vals = list(_values(rows, f"beta-{beta:.6g}",
                            "heldout_loglik").values())
        if vals:
            per_beta.append({"beta": float(beta),
                             "mean": float(np.mean(vals)),
                             "std": float(np.std(vals, ddof=1))
                             if len(vals) > 1 else 0.0,
                             "best": float(np.max(vals)),
                             "n": len(vals)})
    summary = {"experiment": "beta-sweep", "selected_prior": {
                   "lam": base.a_hyper[0].lam, "nu": base.a_hyper[0].nu,
                   "sigma_u": base.sigma_u, "sigma_v": base.sigma_v},
               "holdout_entries": int(held.sum()), "per_beta": per_beta}
    if per_beta:
        means = np.array([p["mean"] for p in per_beta])
        i_max = int(np.argmax(means))
        summary["beta_argmax"] = per_beta[i_max]["beta"]
        summary["interior_maximum"] = bool(0 < i_max < len(per_beta) - 1)
        summary["margin_vs_endpoints"] = float(
            means[i_max] - max(means[0], means[-1]))
    return RecipeResult("beta-sweep", rows, summary)


# --------------------------------------------------------------------------
# latent-space classification: count-aware sampler vs Gaussian baselines


@dataclass
class CcaKnnConfig:
    n_replicates: int = 10
    n_rows: int = 50
    d1: int = 20
    d2: int = 20
    k_shared: int = 1
    k_specific: int = 2
    beta: float = 0.1
    latent_scale: float = 0.8
    n_samples: int = 400
    burn_in: int = 400
    knn_k: int = 9
    knn_folds: int = 10
    map_max_iter: int = 500
    data_families: tuple = ("poisson", "bernoulli")
    seed: int = 0

    def __post_init__(self):
        # every replicate scores n_rows latent rows of each family: refuse
        # before any runs
        check_knn_counts(self.knn_k, self.knn_folds, self.n_rows)
        for name in self.data_families:
            try:
                get_family(name)
            except ValueError as exc:
                raise ConfigError(f"data_families: {exc}") from None


def _gaussian_view(obs: ObservationSet) -> ObservationSet:
    gau = get_family("gaussian")
    return ObservationSet(obs.x, obs.observed, obs.view_widths,
                          (gau,) * len(obs.families))


def _cca_replicate(args):
    rep, cfg, fam_idx = args
    fam_name = cfg.data_families[fam_idx]
    ranks = (cfg.k_shared, cfg.k_specific, cfg.k_specific)
    layout = make_layout("ecca", (cfg.d1, cfg.d2), ranks, fam_name)
    data = generate_coupled(layout, cfg.n_rows,
                            seed=_seed_int(cfg.seed, 43, rep, fam_idx),
                            latent_scale=cfg.latent_scale)
    labels = data.labels
    obs_gau = _gaussian_view(data.train)
    layout_gau = make_layout("ecca", (cfg.d1, cfg.d2), ranks, "gaussian")

    def _spec(fam):
        return PriorSpec(beta=cfg.beta,
                         a_hyper=ConjugateHyper(*DEFAULT_A[fam]))

    def _score(latent, tag):
        err = knn_latent_error(latent, labels, cfg.knn_k, cfg.knn_folds,
                               seed=_seed_int(cfg.seed, 47, rep))
        return _row("cca-knn", rep, f"{tag}-{fam_name}", cfg.k_shared,
                    "knn_error", err)

    rows = []
    chain = run_gibecca(data.train, layout, _spec(fam_name),
                        GibeccaOptions(cfg.n_samples, cfg.burn_in,
                                       seed=_seed_int(cfg.seed, 53, rep)))
    rows.append(_score(shared_latent_mean(chain, layout), "gibecca"))

    chain_g = run_gibecca(obs_gau, layout_gau, _spec("gaussian"),
                          GibeccaOptions(cfg.n_samples, cfg.burn_in,
                                         seed=_seed_int(cfg.seed, 59, rep)))
    rows.append(_score(shared_latent_mean(chain_g, layout_gau), "bcca"))

    fit = fit_map(obs_gau, layout_gau,
                  PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0)),
                  MapOptions(max_iter=cfg.map_max_iter,
                             seed=_seed_int(cfg.seed, 61, rep)))
    rows.append(_score(fit.state.u[:, :cfg.k_shared], "cca"))
    return rows, {}


def run_cca_knn(cfg: CcaKnnConfig, jobs=1) -> RecipeResult:
    args = [(rep, cfg, fam_idx) for fam_idx in range(len(cfg.data_families))
            for rep in range(cfg.n_replicates)]
    rows, _ = _replicates("cca-knn", _cca_replicate, args, jobs)
    medians = {}
    for fam in cfg.data_families:
        for tag in ("gibecca", "bcca", "cca"):
            vals = list(_values(rows, f"{tag}-{fam}", "knn_error").values())
            if vals:
                medians[f"{tag}-{fam}"] = float(np.median(vals))
    summary = {"experiment": "cca-knn", "n_replicates": cfg.n_replicates,
               "median_knn_error": medians}
    return RecipeResult("cca-knn", rows, summary)


# --------------------------------------------------------------------------
# sampler efficiency: time to an uncorrelated draw, both samplers


@dataclass
class SamplerBenchConfig:
    n_replicates: int = 3
    n_rows: int = 50
    d1: int = 20
    d2: int = 20
    k_shared: int = 1
    k_specific: int = 2
    beta: float = 0.1
    latent_scale: float = 0.8
    gib_samples: int = 500
    gib_burn: int = 500
    hmc_samples: int = 400
    hmc_burn: int = 300
    hmc_step: float = 0.02
    seed: int = 0
    save_chains: bool = True


def _bench_replicate(args):
    rep, cfg = args
    name = "sampler-bench"
    ranks = (cfg.k_shared, cfg.k_specific, cfg.k_specific)
    layout = make_layout("ecca", (cfg.d1, cfg.d2), ranks, "poisson")
    data = generate_coupled(layout, cfg.n_rows,
                            seed=_seed_int(cfg.seed, 67, rep),
                            latent_scale=cfg.latent_scale)
    spec = PriorSpec(beta=cfg.beta,
                     a_hyper=ConjugateHyper(*DEFAULT_A["poisson"]))

    chains, rows = {}, []
    chain = run_gibecca(data.train, layout, spec,
                        GibeccaOptions(cfg.gib_samples, cfg.gib_burn,
                                       seed=_seed_int(cfg.seed, 71, rep)))
    chains[f"gibecca-rep{rep}"] = (chain, layout)
    hmc = run_hmc_chain(data.train, layout, spec,
                        HmcOptions(n_samples=cfg.hmc_samples,
                                   burn_in=cfg.hmc_burn,
                                   step_size=cfg.hmc_step,
                                   infer_hyper=True,
                                   seed=_seed_int(cfg.seed, 73, rep)))
    chains[f"hmc-rep{rep}"] = (hmc, layout)

    for tag, ch in (("gibecca", chain), ("hmc", hmc)):
        res = time_between_uncorrelated(ch)
        rows.append(_row(name, rep, tag, cfg.k_shared,
                         "uncorrelated_lag", res.lag))
        rows.append(_row(name, rep, tag, cfg.k_shared,
                         "uncorrelated_seconds", res.seconds,
                         status="flagged" if res.flagged else "ok"))
    return rows, chains


def run_sampler_bench(cfg: SamplerBenchConfig, jobs=1) -> RecipeResult:
    args = [(rep, cfg) for rep in range(cfg.n_replicates)]
    rows, chains = _replicates("sampler-bench", _bench_replicate, args, jobs)
    means = {}
    for tag in ("gibecca", "hmc"):
        secs = list(_values(rows, tag, "uncorrelated_seconds").values())
        lags = list(_values(rows, tag, "uncorrelated_lag").values())
        if secs:
            means[tag] = {"mean_seconds": float(np.mean(secs)),
                          "mean_lag": float(np.mean(lags))}
    summary = {"experiment": "sampler-bench",
               "n_replicates": cfg.n_replicates, "per_method": means}
    if {"gibecca", "hmc"} <= means.keys():
        summary["gibecca_faster"] = bool(means["gibecca"]["mean_seconds"]
                                         < means["hmc"]["mean_seconds"])
    if not cfg.save_chains:
        chains = {}
    return RecipeResult("sampler-bench", rows, summary, chains)


# --------------------------------------------------------------------------

RECIPES = {
    "epls-vs-sepca": (EplsVsSepcaConfig, run_epls_vs_sepca),
    "beta-sweep": (BetaSweepConfig, run_beta_sweep),
    "cca-knn": (CcaKnnConfig, run_cca_knn),
    "sampler-bench": (SamplerBenchConfig, run_sampler_bench),
}

