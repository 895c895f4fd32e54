"""Recipe configs, tidy-row output and the replicate pool."""

import csv

import numpy as np
import pytest

from expfamproj.cli import make_recipe_config
from expfamproj.experiments import (BetaSweepConfig, CcaKnnConfig,
                                    EplsVsSepcaConfig, SamplerBenchConfig,
                                    _seed_int, run_beta_sweep, run_cca_knn,
                                    run_epls_vs_sepca, run_sampler_bench,
                                    write_rows_csv, CSV_FIELDS)
from expfamproj.model import ConfigError
from expfamproj.spect import synthetic_binary

# ------------------------------------------------------------------ configs

def test_supervised_recipe_defaults():
    cfg = EplsVsSepcaConfig()
    assert (cfg.n_replicates, cfg.n_train, cfg.n_test) == (20, 50, 950)
    assert (cfg.d_target, cfg.d_features) == (1, 20)
    assert (cfg.k_shared, cfg.k_specific) == (1, 5)
    assert cfg.sepca_components == (1, 2, 3, 4, 5, 6, 7, 8)
    assert cfg.alphas == (1.0, 1e-3)
    assert cfg.beta == 0.1


def test_other_recipe_defaults():
    sweep = BetaSweepConfig()
    assert (sweep.n_points, sweep.restarts, sweep.k) == (100, 10, 1)
    knn = CcaKnnConfig()
    assert (knn.n_replicates, knn.knn_k) == (10, 9)
    assert knn.data_families == ("poisson", "bernoulli")
    bench = SamplerBenchConfig()
    assert bench.save_chains


def test_make_recipe_config_coercion_and_seed():
    cfg = make_recipe_config("epls-vs-sepca",
                             {"n_replicates": "4", "beta": "0.3",
                              "alphas": [1.0], "sepca_components": 2,
                              "seed": 99})
    assert cfg.n_replicates == 4
    assert cfg.beta == 0.3
    assert cfg.alphas == (1.0,)
    assert cfg.sepca_components == (2,)
    assert cfg.seed == 99


@pytest.mark.parametrize("name, overrides", [
    ("no-such-recipe", None),
    ("cca-knn", {"bogus_field": 1}),
    ("beta-sweep", {"n_points": "not a number"}),
    ("sampler-bench", {"save_chains": "false"}),
    ("beta-sweep", {"restarts": 0}),
    ("cca-knn", {"n_samples": -3}),
    ("epls-vs-sepca", {"n_replicates": 2.5}),
    ("cca-knn", {"burn_in": True}),
    ("cca-knn", {"n_replicates": 0}),
    ("beta-sweep", {"n_points": 0}),
    ("beta-sweep", {"cv_folds": 1}),
    ("cca-knn", {"knn_folds": 1}),
    ("cca-knn", {"knn_k": 0}),
    ("epls-vs-sepca", {"sepca_components": [1.5]}),
    ("epls-vs-sepca", {"sepca_components": [2, True]}),
    ("sampler-bench", {"n_rows": 0}),
    ("epls-vs-sepca", {"n_train": 0}),
    ("epls-vs-sepca", {"n_test": 0}),
    ("cca-knn", {"data_families": ["gamma"]}),
])
def test_make_recipe_config_rejects(name, overrides):
    with pytest.raises(ConfigError):
        make_recipe_config(name, overrides)


def test_seed_int_determinism():
    a = _seed_int(3, 29, 7)
    assert a == _seed_int(3, 29, 7)
    assert a != _seed_int(3, 29, 8)
    assert 0 <= a < 2**63


# ---------------------------------------------------------------- tidy rows

def test_write_rows_csv_round_trip(tmp_path):
    rows = [{"experiment": "e", "replicate": 0, "method": "m",
             "components": 2, "metric": "err", "value": 0.25,
             "status": "ok"}]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 1
    assert tuple(back[0]) == CSV_FIELDS
    assert back[0]["method"] == "m"
    assert float(back[0]["value"]) == 0.25


# ------------------------------------------------------- supervised recipe

def _tiny_epls_config(**over):
    base = dict(n_replicates=3, n_train=16, n_test=24, d_features=6,
                k_specific=1, sepca_components=(1, 2), alphas=(1.0,),
                max_iter=80, restarts=1, seed=5)
    base.update(over)
    return EplsVsSepcaConfig(**base)


def test_supervised_recipe_rows_and_summary():
    res = run_epls_vs_sepca(_tiny_epls_config())
    assert res.name == "epls-vs-sepca"
    ok = [r for r in res.rows if r["status"] == "ok"]
    assert len(ok) == len(res.rows) == 3 * (1 + 2)
    assert all(0.0 <= r["value"] <= 1.0 for r in ok)
    assert {r["method"] for r in ok} == {"epls", "sepca-a1-k1", "sepca-a1-k2"}
    # epls always reports the total component count of its two blocks
    assert all(r["components"] == 2 for r in ok if r["method"] == "epls")

    tests = res.summary["paired_tests"]
    assert len(tests) == 2
    for t in tests:
        assert t["method_a"] == "epls"
        assert t["n_pairs"] == 3
        assert 0.0 <= t["p_value"] <= 1.0
    assert res.summary["bonferroni_comparisons"] == 2


def test_supervised_recipe_serial_matches_parallel():
    cfg = _tiny_epls_config(n_replicates=2)
    serial = run_epls_vs_sepca(cfg, jobs=1)
    parallel = run_epls_vs_sepca(cfg, jobs=2)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


def test_supervised_recipe_failed_replicate_is_flagged(capsys):
    # beta outside [0, 1] blows up inside every replicate
    res = run_epls_vs_sepca(_tiny_epls_config(n_replicates=2, beta=2.0))
    capsys.readouterr()
    assert len(res.rows) == 2
    for r in res.rows:
        assert r["status"].startswith("failed:")
        assert r["method"] == "*"
        assert np.isnan(r["value"])
    # with no surviving pairs the paired tests degrade to error entries
    assert all("error" in t for t in res.summary["paired_tests"])


# ---------------------------------------------------------- shrinkage sweep

def test_shrinkage_sweep_rows_and_summary():
    obs = synthetic_binary(n_rows=40, n_cols=8, seed=2)
    cfg = BetaSweepConfig(n_points=3, restarts=2, cv_folds=4,
                          cv_max_iter=60, max_iter=120, seed=3)
    res = run_beta_sweep(cfg, obs)
    ok = [r for r in res.rows if r["status"] == "ok"]
    assert len(ok) == len(res.rows) == 3 * 2
    assert all(r["metric"] == "heldout_loglik" for r in ok)
    assert all(r["value"] < 0.0 for r in ok)

    summary = res.summary
    assert summary["holdout_entries"] > 0
    assert {p["beta"] for p in summary["per_beta"]} == {0.0, 0.5, 1.0}
    assert all(p["n"] == 2 for p in summary["per_beta"])
    assert summary["beta_argmax"] in (0.0, 0.5, 1.0)
    assert "interior_maximum" in summary
    sel = summary["selected_prior"]
    assert 0.0 < sel["lam"] < sel["nu"]
    assert sel["sigma_u"] > 0 and sel["sigma_v"] > 0


# ------------------------------------------------------------- latent knn

def test_latent_knn_rows_and_medians():
    cfg = CcaKnnConfig(n_replicates=2, n_rows=16, d1=6, d2=6,
                       k_specific=1, n_samples=60, burn_in=60,
                       knn_k=3, knn_folds=4, map_max_iter=80,
                       data_families=("poisson",), seed=4)
    res = run_cca_knn(cfg)
    ok = [r for r in res.rows if r["status"] == "ok"]
    assert len(ok) == len(res.rows) == 2 * 3
    assert all(r["metric"] == "knn_error" for r in ok)
    assert all(0.0 <= r["value"] <= 1.0 for r in ok)
    med = res.summary["median_knn_error"]
    assert set(med) == {"gibecca-poisson", "bcca-poisson", "cca-poisson"}
    assert all(0.0 <= v <= 1.0 for v in med.values())


# ---------------------------------------------------------- sampler bench

def test_sampler_bench_rows_chains_and_summary():
    cfg = SamplerBenchConfig(n_replicates=1, n_rows=12, d1=5, d2=5,
                             k_specific=1, gib_samples=150, gib_burn=100,
                             hmc_samples=150, hmc_burn=100, seed=6)
    res = run_sampler_bench(cfg)
    assert len(res.rows) == 1 * 2 * 2
    metrics = {(r["method"], r["metric"]) for r in res.rows}
    assert metrics == {("gibecca", "uncorrelated_lag"),
                       ("gibecca", "uncorrelated_seconds"),
                       ("hmc", "uncorrelated_lag"),
                       ("hmc", "uncorrelated_seconds")}
    assert set(res.chains) == {"gibecca-rep0", "hmc-rep0"}
    per = res.summary["per_method"]
    assert per["gibecca"]["mean_seconds"] > 0
    assert per["hmc"]["mean_seconds"] > 0
    assert "gibecca_faster" in res.summary


def test_sampler_bench_can_drop_chains():
    cfg = SamplerBenchConfig(n_replicates=1, n_rows=10, d1=4, d2=4,
                             k_specific=1, gib_samples=120, gib_burn=60,
                             hmc_samples=120, hmc_burn=60,
                             save_chains=False, seed=7)
    res = run_sampler_bench(cfg)
    assert res.chains == {}
