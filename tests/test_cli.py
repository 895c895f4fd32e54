"""End-to-end command line runs against temp directories."""

import ctypes
import importlib
import json
import math
import pathlib
import resource

import numpy as np
import pytest

from expfamproj import (assemble_theta, experiments, fit_map,
                        log_likelihood_theta)
from expfamproj.chains import load_chain
from expfamproj.cli import (build_layout, build_options, build_prior,
                            load_data, main)

from conftest import make_rng


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _csv_dataset(tmp_path, seed=0, n=10, d=5, family="bernoulli"):
    rng = make_rng(seed, 71)
    if family == "bernoulli":
        x = rng.integers(0, 2, size=(n, d)).astype(float)
    else:
        x = rng.normal(size=(n, d))
    lines = [",".join(f"{v:.17g}" for v in row) for row in x]
    parts = lines[1].split(",")
    parts[2] = "NA"                        # one missing entry
    lines[1] = ",".join(parts)
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    desc_path = _write_json(tmp_path / "desc.json",
                            {"view_widths": [d, 0], "families": [family]})
    return str(csv_path), desc_path


def _map_fit_config(tmp_path, csv_path, desc_path):
    return {
        "data": {"csv": csv_path, "descriptor": desc_path},
        "layout": {"model": "epca", "view_widths": 5, "ranks": 2,
                   "families": "bernoulli"},
        "prior": {"beta": 0.2, "a_hyper": [0.5, 1.0]},
        "engine": "map",
        "options": {"max_iter": 200, "restarts": 2},
        "seed": 3,
    }


# ---------------------------------------------------------------------- fit

def test_fit_map_writes_state_and_summary(tmp_path, capsys):
    csv_path, desc_path = _csv_dataset(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json",
                      _map_fit_config(tmp_path, csv_path, desc_path))
    out = tmp_path / "out"
    code = main(["fit", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert code == 0
    assert "fit: engine=map" in capsys.readouterr().out

    state, = load_chain(out / "chain").states
    assert state.u.shape == (10, 2)
    assert state.v.shape == (2, 5)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["engine"] == "map"
    assert summary["seed"] == 7            # flag wins over config seed
    assert summary["converged"] in (True, False)
    assert np.isfinite(summary["objective"])
    assert len(summary["restart_objectives"]) == 2
    assert min(summary["restart_objectives"]) == summary["objective"]


def test_fit_map_saves_a_one_sample_chain(tmp_path):
    """The MAP state, its log-likelihood and the fit's status persist as
    a one-sample chain, here with a mean row."""
    csv_path, desc_path = _csv_dataset(tmp_path, seed=2)
    payload = _map_fit_config(tmp_path, csv_path, desc_path)
    payload["layout"]["mean_row"] = True
    cfg = _write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0

    obs, _ = load_data(payload["data"])
    layout = build_layout(payload["layout"])
    fit = fit_map(obs, layout, build_prior(payload["prior"]),
                  build_options("map", payload["options"],
                                seed=payload["seed"]))
    chain = load_chain(out / "chain")
    state, = chain.states
    assert np.array_equal(state.u, fit.state.u)
    assert np.array_equal(state.v, fit.state.v)
    assert state.mean_row is not None
    assert np.array_equal(state.mean_row, fit.state.mean_row)
    assert chain.hypers is None and chain.thetas is None
    assert chain.wall_clock.tolist() == [0.0]
    assert chain.loglik.tolist() == [log_likelihood_theta(
        obs, assemble_theta(fit.state, layout), layout)]
    summary = json.loads((out / "summary.json").read_text())
    assert chain.stats == {k: summary[k]
                           for k in ("objective", "converged", "status")}
    assert chain.meta == {"engine": "map", "seed": 3}


def test_fit_gibecca_on_shared_factor_layout(tmp_path):
    synth = {"model": "epls", "view_widths": [1, 6], "ranks": [1, 1],
             "families": "bernoulli", "n_rows": 12, "seed": 3}
    cfg = _write_json(tmp_path / "cfg.json", {
        "data": {"synthetic": synth},
        "layout": {"model": "epls", "view_widths": [1, 6], "ranks": [1, 1],
                   "families": "bernoulli"},
        "prior": {"beta": 0.2, "a_hyper": [0.5, 1.0]},
        "engine": "gibecca",
        "options": {"n_samples": 30, "burn_in": 20},
        "seed": 4,
    })
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0

    chain = load_chain(out / "chain")
    assert chain.n_samples == 30
    assert chain.thetas is not None
    for state in chain.states:             # target loadings stay masked out
        assert np.all(state.v[1:, :1] == 0.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["engine"] == "gibecca"
    assert 0.0 < summary["stats"]["theta_accept_rate"] <= 1.0
    assert summary["meta"]["seed"] == 4


def test_fit_rerun_is_deterministic(tmp_path):
    csv_path, desc_path = _csv_dataset(tmp_path, seed=5)
    base = _map_fit_config(tmp_path, csv_path, desc_path)
    cfg = _write_json(tmp_path / "map.json", base)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--config", cfg, "--out", str(a)]) == 0
    assert main(["fit", "--config", cfg, "--out", str(b)]) == 0

    def assert_same_outputs(a, b, n_samples):
        names = ["summary.json"] + [f"chain/sample_{i:06d}.bin"
                                    for i in range(n_samples)]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        man_a = json.loads((a / "chain/manifest.json").read_text())
        man_b = json.loads((b / "chain/manifest.json").read_text())
        man_a.pop("wall_clock"), man_b.pop("wall_clock")
        assert man_a == man_b

    assert_same_outputs(a, b, 1)

    gib = dict(base, engine="gibecca",
               options={"n_samples": 25, "burn_in": 15})
    cfg2 = _write_json(tmp_path / "gib.json", gib)
    c, d = tmp_path / "c", tmp_path / "d"
    assert main(["fit", "--config", cfg2, "--out", str(c)]) == 0
    assert main(["fit", "--config", cfg2, "--out", str(d)]) == 0
    assert_same_outputs(c, d, 25)


# ------------------------------------------------------------------- impute

def _gibecca_impute_config(tmp_path, options):
    csv_path, desc_path = _csv_dataset(tmp_path, seed=6, n=12, d=6)
    return _write_json(tmp_path / "cfg.json", {
        "data": {"csv": csv_path,
                 "descriptor": _write_json(tmp_path / "d6.json",
                                           {"view_widths": [6, 0],
                                            "families": ["bernoulli"]})},
        "layout": {"model": "epca", "view_widths": 6, "ranks": 2,
                   "families": "bernoulli"},
        "prior": {"beta": 0.3, "a_hyper": [0.5, 1.0]},
        "engine": "gibecca",
        "options": options,
        "holdout": {"fraction": 0.15, "seed": 2},
        "seed": 1,
    })


def test_impute_chain_predictions(tmp_path):
    cfg = _gibecca_impute_config(tmp_path, {"n_samples": 40, "burn_in": 30})
    out = tmp_path / "out"
    assert main(["impute", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "row,col,true,predicted_mean"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_holdout"] == len(lines) - 1 > 0
    assert summary["heldout_loglik"] < 0.0
    for line in lines[1:]:
        _, _, true, pred = line.split(",")
        assert float(true) in (0.0, 1.0)
        assert 0.0 < float(pred) < 1.0     # posterior mean of a probability


def test_impute_empty_chain_exits_3(tmp_path, capsys):
    """A chain without samples has no predictive: a numeric failure, not a
    traceback from averaging zero predictions."""
    cfg = _gibecca_impute_config(tmp_path, {"n_samples": 0, "burn_in": 2})
    assert main(["impute", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert "numeric failure: StatError" in capsys.readouterr().err


def test_impute_gaussian_loglik_matches_predictions(tmp_path):
    # identity link: predicted_mean equals the fitted natural parameter, so
    # the reported holdout log-likelihood is recomputable from the csv
    csv_path, desc_path = _csv_dataset(tmp_path, seed=7, n=12, d=4,
                                       family="gaussian")
    cfg = _write_json(tmp_path / "cfg.json", {
        "data": {"csv": csv_path,
                 "descriptor": _write_json(tmp_path / "d4.json",
                                           {"view_widths": [4, 0],
                                            "families": ["gaussian"]})},
        "layout": {"model": "epca", "view_widths": 4, "ranks": 2,
                   "families": "gaussian"},
        "prior": {"beta": 0.0, "a_hyper": [0.0, 1.0]},
        "engine": "map",
        "options": {"max_iter": 400},
        "holdout": {"fraction": 0.2, "seed": 5},
        "seed": 2,
    })
    out = tmp_path / "out"
    assert main(["impute", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "predictions.csv").read_text().strip().splitlines()[1:]
    ll = 0.0
    for line in lines:
        _, _, true, pred = line.split(",")
        ll += -0.5 * (float(true) - float(pred)) ** 2 - 0.5 * math.log(2 * math.pi)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["heldout_loglik"] == pytest.approx(ll, rel=1e-9)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_impute_reuses_freed_memory(tmp_path):
    """main keeps freed temporaries in the heap: a second identical run
    faults almost no pages back in (about 15,000 with glibc's defaults)."""
    shape = {"model": "ecca", "view_widths": [100, 100],
             "ranks": [1, 2, 2], "families": "poisson"}
    cfg = _write_json(tmp_path / "cfg.json", {
        "data": {"synthetic": dict(shape, n_rows=600, latent_scale=0.5,
                                   seed=3)},
        "layout": shape,
        "prior": {"beta": 0.1, "a_hyper": [0.5, 1.0]},
        "engine": "map",
        "options": {"max_iter": 5, "seed": 3},
        "holdout": {"fraction": 0.1, "seed": 3},
    })
    argv = ["impute", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


# --------------------------------------------------------------- experiment

def test_experiment_cli_writes_rows_and_summary(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {
        "recipe": "epls-vs-sepca",
        "overrides": {"n_replicates": 2, "n_train": 14, "n_test": 20,
                      "d_features": 5, "k_specific": 1,
                      "sepca_components": [1], "alphas": [1.0],
                      "max_iter": 60, "restarts": 1},
    })
    out = tmp_path / "out"
    code = main(["experiment", "--config", cfg, "--out", str(out),
                 "--seed", "11"])
    assert code == 0
    assert "(0 flagged)" in capsys.readouterr().out

    rows = (out / "epls-vs-sepca.csv").read_text().strip().splitlines()
    assert rows[0] == "experiment,replicate,method,components,metric,value,status"
    assert len(rows) - 1 == 2 * 2          # per replicate: epls + one sepca
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 11
    assert summary["config"]["n_replicates"] == 2
    assert len(summary["paired_tests"]) == 1


def test_beta_sweep_summary_carries_data_notice(tmp_path, capsys):
    """Without --spect the sweep runs on the stand-in and says so."""
    cfg = _write_json(tmp_path / "cfg.json", {
        "recipe": "beta-sweep",
        "overrides": {"n_points": 2, "restarts": 1, "cv_folds": 2,
                      "cv_max_iter": 20, "max_iter": 30}})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    assert "stand-in" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "stand-in" in summary["data_notice"]
    assert len(summary["per_beta"]) == 2


# --------------------------------------------------------------- exit codes

def _valid_fit_config(tmp_path):
    csv_path, desc_path = _csv_dataset(tmp_path)
    return _map_fit_config(tmp_path, csv_path, desc_path)


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(bogus=1),
    lambda c: c.pop("prior"),
    lambda c: c.update(engine="newton"),
    lambda c: c.__setitem__("prior", {"beta": 0.2, "a_hyper": 5}),
    lambda c: c.__setitem__("options", {"max_iter": 100, "bogus": 1}),
    lambda c: c.__setitem__("options", {"exchange": {"inner_sweeps": 4}}),
    lambda c: c.__setitem__("layout", {"model": "epca", "view_widths": 5,
                                       "ranks": 0, "families": "bernoulli"}),
    lambda c: c.update(engine="gibecca", options={"infer_hypers": "false"}),
    lambda c: c.update(engine="hmc",
                       options={"exchange": {"inner_sweeps": "many"}}),
    lambda c: c["layout"].update(mean_row="false"),
    lambda c: c.update(engine="gibecca", options={"thin": 0}),
    lambda c: c.update(engine="hmc", options={"n_leapfrog": 0}),
    lambda c: c.update(engine="hmc", options={"n_samples": -1}),
    lambda c: c.update(engine="hmc",
                       options={"exchange": {"inner_sweeps": 0}}),
    lambda c: c.update(engine="hmc",
                       options={"exchange": {"inner_sweeps": 1}}),
    lambda c: c["prior"].update(gamma=float("nan")),
    lambda c: c["prior"].update(gamma=float("inf")),
    lambda c: c["prior"].update(sigma_u=float("inf")),
    lambda c: c["prior"].update(sigma_v=[1.0, float("inf")]),
])
def test_config_problems_exit_2(tmp_path, capsys, mutate):
    cfg = _valid_fit_config(tmp_path)
    mutate(cfg)
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, value, field", [
    ("layout", {"mean_row": "false"}, "layout.mean_row"),
    ("gibecca", {"n_samples": 5, "thin": 0}, "options.thin"),
    ("gibecca", {"burn_in": -1}, "options.burn_in"),
    ("hmc", {"n_leapfrog": 0}, "options.n_leapfrog"),
    ("map", {"restarts": 0}, "options.restarts"),
    ("hmc", {"infer_hyper": True, "exchange": {"inner_sweeps": 1}},
     "options.exchange.inner_sweeps"),
    ("map", {"init_std": 0.01}, "options.init_std"),
    ("hmc", {"init_std": 0.01}, "options.init_std"),
    ("hmc", {"adapt": False}, "options.adapt"),
    ("layout", {"ranks": 2.7}, "layout"),
    ("layout", {"view_widths": 5.5}, "layout"),
    ("gibecca", {"n_samples": 2.7, "burn_in": 2}, "options.n_samples"),
    ("gibecca", {"n_samples": 2, "burn_in": 3.2}, "options.burn_in"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "thin": 1.9}, "options.thin"),
    ("map", {"max_iter": 20, "restarts": True}, "options.restarts"),
    ("hmc", {"n_samples": 2, "burn_in": 2, "infer_hyper": True,
             "exchange": {"inner_sweeps": 4.5}},
     "options.exchange.inner_sweeps"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "infer_hypers": False,
                 "resid_init": -1e6}, "options.resid_init"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "resid_init": -1e6},
     "options.resid_init"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "resid_init": 0.0},
     "options.resid_init"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "resid_init": float("nan")},
     "options.resid_init"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "resid_init": float("inf")},
     "options.resid_init"),
    ("prior", {"beta": True}, "prior.beta"),
    ("prior", {"gamma": False}, "prior.gamma"),
    ("prior", {"a_hyper": [True, 2.0]}, "prior.a_hyper"),
    ("prior", {"a_hyper": [[True, 2.0]]}, "prior.a_hyper"),
    ("prior", {"sigma_u": True}, "prior.sigma_u"),
    ("prior", {"sigma_v": [1.0, True]}, "prior.sigma_v"),
    ("hmc", {"n_samples": 2, "burn_in": 2, "step_size": True},
     "options.step_size"),
    ("gibecca", {"n_samples": 2, "burn_in": 2, "resid_init": True},
     "options.resid_init"),
    ("map", {"max_iter": 20, "grad_tol": False}, "options.grad_tol"),
    ("hmc", {"n_samples": 2, "burn_in": 2, "infer_hyper": True,
             "exchange": {"inner_sweeps": 4, "prop_scale": True}},
     "options.exchange.prop_scale"),
    ("layout", {"alpha": True}, "layout.alpha"),
])
def test_bad_flag_or_count_names_its_field(tmp_path, capsys, section,
                                           value, field):
    """A string for layout.mean_row used to fit a mean row, thin 0 gave an
    empty chain, n_leapfrog 0 a traceback, restarts 0 a FitError,
    inner_sweeps 0 or 1 a stationarity check on empty halves, a
    resid_init that is not finite and positive a chain that never
    accepts or a StageError, and a JSON boolean for a number ran as 0 or
    1 (beta true as beta 1 with gamma 1 - True = 0)."""
    cfg = _valid_fit_config(tmp_path)
    if section in ("layout", "prior"):
        cfg[section].update(value)
    else:
        cfg.update(engine=section, options=value)
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value, field", [
    ("fit", "config", {"seed": "abc"}, "seed"),
    ("impute", "config", {"seed": [3]}, "seed"),
    ("fit", "synthetic", {"seed": "x"}, "data.synthetic.seed"),
    ("fit", "synthetic", {"latent_scale": "big"},
     "data.synthetic.latent_scale"),
    ("fit", "synthetic", {"target_scale": None},
     "data.synthetic.target_scale"),
    ("impute", "holdout", {"fraction": "abc"}, "holdout.fraction"),
    ("impute", "holdout", {"seed": "x"}, "holdout.seed"),
    ("fit", "config", {"seed": 2.9}, "seed"),
    ("impute", "config", {"seed": True}, "seed"),
    ("fit", "synthetic", {"seed": 1.5}, "data.synthetic.seed"),
    ("fit", "synthetic", {"n_rows": 10.6}, "data.synthetic.n_rows"),
    ("fit", "synthetic", {"n_rows": "abc"}, "data.synthetic.n_rows"),
    ("impute", "holdout", {"seed": 1.6}, "holdout.seed"),
    ("fit", "synthetic", {"n_rows": 0}, "data.synthetic.n_rows"),
    ("fit", "synthetic", {"latent_scale": True},
     "data.synthetic.latent_scale"),
    ("fit", "synthetic", {"target_scale": False},
     "data.synthetic.target_scale"),
    ("impute", "holdout", {"fraction": True}, "holdout.fraction"),
])
def test_mistyped_scalar_names_its_field(tmp_path, capsys, command, section,
                                         value, field):
    """These scalars used to be cast outside the field checks, so a
    mistyped one exited 3 as a numeric failure that named no field; a
    fractional integer was truncated, and a fractional n_rows raised."""
    cfg = _valid_fit_config(tmp_path)
    if command == "impute":
        cfg["holdout"] = {"fraction": 0.2, "seed": 1}
    if section == "config":
        cfg.update(value)
    elif section == "synthetic":
        cfg["data"] = {"synthetic": dict(dict(
            model="epca", view_widths=5, ranks=2, families="bernoulli",
            n_rows=10), **value)}
    else:
        cfg["holdout"].update(value)
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("recipe, overrides, field", [
    ("epls-vs-sepca", {"beta": True}, "overrides.beta"),
    ("epls-vs-sepca", {"latent_scale": False}, "overrides.latent_scale"),
    ("epls-vs-sepca", {"alphas": [1.0, True]}, "overrides.alphas"),
    ("sampler-bench", {"hmc_step": True}, "overrides.hmc_step"),
    ("beta-sweep", {"holdout_fraction": True}, "overrides.holdout_fraction"),
    ("cca-knn", {"data_families": ["poisson", "gamma"]}, "data_families"),
])
def test_bad_override_names_its_field(tmp_path, capsys, recipe, overrides,
                                      field):
    """A JSON boolean for a recipe number ran as 0 or 1, and an unknown
    cca-knn family made every replicate a failure row; both exited 0."""
    cfg = _write_json(tmp_path / "cfg.json",
                      {"recipe": recipe, "overrides": overrides})
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


def test_descriptor_alpha_is_rejected(tmp_path, capsys):
    """Likelihood weights belong to the layout; a descriptor that sets
    alpha would otherwise be silently ignored."""
    cfg = _valid_fit_config(tmp_path)
    desc = tmp_path / "desc.json"
    _write_json(desc, dict(json.loads(desc.read_text()), alpha=[1.0]))
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "layout.alpha" in err


@pytest.mark.parametrize("source, field", [
    ("csv", "data"), ("descriptor", "data"), ("spect", "--spect"),
])
def test_missing_data_file_names_its_source(tmp_path, capsys, source,
                                            field):
    """A data file that does not exist used to end in a traceback."""
    cfg = _valid_fit_config(tmp_path)
    missing = str(tmp_path / "absent.file")
    argv = ["fit", "--out", str(tmp_path / "o")]
    if source == "spect":
        cfg["data"] = "spect"
        argv += ["--spect", missing]
    else:
        cfg["data"][source] = missing
    argv += ["--config", _write_json(tmp_path / "cfg.json", cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: " in err and missing in err


def test_fractional_descriptor_width_is_rejected(tmp_path, capsys):
    cfg = _valid_fit_config(tmp_path)
    _write_json(tmp_path / "desc.json",
                {"view_widths": [5.5, 0], "families": ["bernoulli"]})
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: data: " in capsys.readouterr().err


def test_unknown_recipe_exits_2(tmp_path, capsys):
    path = _write_json(tmp_path / "cfg.json", {"recipe": "no-such-recipe"})
    assert main(["experiment", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_config_error_inside_a_replicate_exits_2(tmp_path, capsys, jobs):
    """knn_k of at least the row count is a config error whatever the
    pool size; it used to become a failure row and exit 0."""
    cfg = _write_json(tmp_path / "cfg.json", {
        "recipe": "cca-knn",
        "overrides": {"n_replicates": 2, "n_rows": 12, "d1": 4, "d2": 4,
                      "k_specific": 1, "n_samples": 4, "burn_in": 4,
                      "knn_k": 12, "knn_folds": 2, "map_max_iter": 10,
                      "data_families": ["poisson"]}})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--jobs", jobs]) == 2
    assert ("config error: n_neighbors = 12 needs more than 12 rows"
            in capsys.readouterr().err)
    assert not (out / "cca-knn.csv").exists()


@pytest.mark.parametrize("counts, message", [
    ({"knn_k": 12, "knn_folds": 2}, "n_neighbors = 12 needs more than 12"),
    ({"knn_k": 3, "knn_folds": 13}, "cannot make 13 folds from 12 rows"),
])
def test_knn_counts_are_checked_before_any_chain(tmp_path, capsys,
                                                 monkeypatch, counts,
                                                 message):
    """cca-knn refuses knn_k or knn_folds that its n_rows cannot serve
    when it reads the config: exit 2 without running a chain."""
    calls = []
    monkeypatch.setattr(experiments, "run_gibecca",
                        lambda *args, **kw: calls.append(args))
    cfg = _write_json(tmp_path / "cfg.json", {
        "recipe": "cca-knn",
        "overrides": dict(counts, n_replicates=2, n_rows=12, d1=4, d2=4,
                          k_specific=1, n_samples=4, burn_in=4,
                          map_max_iter=10, data_families=["poisson"])})
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "out"), "--jobs", "1"]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["fit", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2


def test_broken_chain_exits_3(tmp_path, capsys):
    cfg = _valid_fit_config(tmp_path)
    cfg["engine"] = "hmc"
    cfg["options"] = {"n_samples": 20, "burn_in": 30,
                      "step_size": 1e6}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure: ChainError" in capsys.readouterr().err


def test_console_script_resolves_to_main():
    """pyproject.toml installs the expfam-proj command as cli.main."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["expfam-proj"].partition(":")
    assert module == "expfamproj.cli"
    assert getattr(importlib.import_module(module), name) is main
