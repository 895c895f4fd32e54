"""The benchmark's traced run reaches into the package by name.

perfbench/tracer.py rebinds the functions listed in its PROBES and reads
some of their arguments by position.  These checks fail when a refactor
renames a probed function or moves an argument a hook reads, instead of
letting the traced run break silently.
"""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _probed(module, function):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    return getattr(owner, function)


@pytest.mark.parametrize("probe", tracer.PROBES,
                         ids=lambda p: f"{p.module}.{p.function}")
def test_probe_resolves_to_a_callable(probe):
    assert callable(_probed(probe.module, probe.function))


@pytest.mark.parametrize("module, function, position, name", [
    ("optimize", "minimize_cg", 0, "fun_and_grad"),
    ("map_infer", "posterior_logp_and_grad", 1, "obs"),
    ("map_infer", "posterior_logp_and_grad", 4, "want_grad"),
    ("gibecca", "mh_accept_elements", 1, "theta_old"),
    ("chains", "save_chain", 1, "dirpath"),
])
def test_hooked_argument_positions(module, function, position, name):
    params = list(inspect.signature(_probed(module, function)).parameters)
    assert params[position] == name


def test_probed_recipe_runners_are_in_the_recipe_table():
    recipes = importlib.import_module(f"{tracer.PACKAGE}.experiments").RECIPES
    runners = {entry[1] for entry in recipes.values()}
    for probe in tracer.PROBES:
        if probe.module == "experiments":
            assert _probed(probe.module, probe.function) in runners


def test_minimize_cg_calls_its_objective_with_one_argument():
    """The traced run hands minimize_cg a counted(x) wrapper, which takes
    exactly one positional argument and no keywords."""
    optimize = importlib.import_module(f"{tracer.PACKAGE}.optimize")
    calls = []

    def fun(*args, **kwargs):
        calls.append((len(args), kwargs))
        x = args[0]
        return float(x @ x), lambda: (2.0 * x, lambda p: 2.0 * p)

    optimize.minimize_cg(fun, np.linspace(-1.0, 1.0, 3), grad_tol=1e-8)
    assert len(calls) > 1
    assert all(call == (1, {}) for call in calls)


def test_traced_fit_counts_value_and_gradient_calls():
    """Under the tracer every CG evaluation is a value-only posterior
    call, and the gradient is formed once per accepted point."""
    pkg = importlib.import_module(tracer.PACKAGE)
    lay = pkg.make_layout("epca", 4, 2, "poisson")
    rng = np.random.default_rng(5)
    x = rng.poisson(1.0, (12, 4)).astype(float)
    obs = pkg.ObservationSet(x, np.ones(x.shape, dtype=bool),
                             lay.view_widths, lay.families)
    spec = pkg.PriorSpec(beta=0.0, a_hyper=pkg.ConjugateHyper(0.5, 1.0))
    with tracer.Tracer().installed() as tr:
        pkg.map_infer.fit_map(obs, lay, spec, pkg.MapOptions(max_iter=30))
    count = tr.count
    evals = count["optimize.minimize_cg.evaluations"]
    post = "map_infer.posterior_logp_and_grad"
    assert evals > count["optimize.minimize_cg.iterations"] + 1
    assert count[f"{post}.value_calls"] == evals
    assert count[f"{post}.grad_calls"] == (
        count["optimize.minimize_cg.iterations"] + 1)


def test_traced_gibecca_counts_sweeps_and_stored_samples():
    """Under the tracer a chain shows one Gaussian stage and one Theta
    refresh per sweep, every entry scored on each refresh, and one
    likelihood evaluation per stored sample."""
    pkg = importlib.import_module(tracer.PACKAGE)
    lay = pkg.make_layout("ecca", (3, 2), (1, 1, 1), ("poisson", "bernoulli"))
    rng = np.random.default_rng(6)
    x = np.c_[rng.poisson(1.0, (8, 3)), rng.integers(0, 2, (8, 2))]
    obs = pkg.ObservationSet(x.astype(float), np.ones(x.shape, dtype=bool),
                             lay.view_widths, lay.families)
    spec = pkg.PriorSpec(beta=0.1, a_hyper=pkg.ConjugateHyper(0.5, 1.0))
    opts = pkg.GibeccaOptions(n_samples=4, burn_in=3, thin=2, seed=1)
    with tracer.Tracer().installed() as tr:
        pkg.gibecca.run_gibecca(obs, lay, spec, opts)
    sweeps = opts.burn_in + opts.n_samples * opts.thin
    m = tracer.layer_metrics(tr)
    assert m["gibecca.gibbs_gaussian_stage.calls"] == sweeps
    assert m["gibecca.mh_accept_elements.calls"] == sweeps
    assert m["gibecca.mh_accept_elements.entries"] == sweeps * x.size
    calls = tracer.span_table(tr)["model.log_likelihood_theta"][0]
    assert calls == opts.n_samples


def _has_span_below(tr, name, root="cli.main"):
    """Whether some span called name has a span called root above it."""
    spans = tr.spans
    for span in spans:
        parent = span[3] if span[0] == name else -1
        while parent >= 0:
            if spans[parent][0] == root:
                return True
            parent = spans[parent][3]
    return False


TINY_SHAPE = {"model": "ecca", "view_widths": [3, 2], "ranks": [1, 1, 1],
              "families": "poisson"}


@pytest.mark.parametrize("command, extra, names", [
    ("impute", {"engine": "map", "options": {"max_iter": 5},
                "holdout": {"fraction": 0.2, "seed": 0}},
     ("map_infer.fit_map", "map_infer.posterior_logp_and_grad",
      "evaluation.heldout_loglik")),
    ("fit", {"engine": "gibecca", "options": {"n_samples": 2, "burn_in": 1}},
     ("gibecca.run_gibecca",)),
])
def test_traced_cli_calls_reach_the_engines(tmp_path, command, extra, names):
    """The tracer rebinds module names, so an engine that the command line
    reached through a table built at import time would drop its spans
    silently; a traced command records its engine's spans below
    cli.main."""
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    config = dict(extra, layout=TINY_SHAPE,
                  data={"synthetic": dict(TINY_SHAPE, n_rows=10, seed=2)},
                  prior={"beta": 0.1, "a_hyper": [0.5, 1.0]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with tracer.Tracer().installed() as tr:
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")])
    assert code == 0
    for name in names:
        assert _has_span_below(tr, name), name
