"""Spans and work counters recorded around the package's public functions.

Nothing under src/ is edited.  For each probed function a wrapper is
built, and every attribute of every loaded ``expfamproj`` module that
``is`` the original function is rebound to the wrapper for the duration
of ``Tracer.installed()``.  That reaches call sites that imported the
function by name (``hmc_infer`` and ``cli`` import ``fit_map``,
``run_gibecca`` and others that way) as well as calls through the
defining module.  The recipe runners are called through the
``experiments.RECIPES`` table, so its entries are swapped too.

A span is (name, start, end, parent index, run id); spans stay in memory
until ``write_spans``.  Work counters are read only from arguments,
return values and the output directory, never from package internals.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "expfamproj"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# counter hooks.  A `before` hook maps (tracer, args) to the arguments the
# function receives; an `after` hook sees (tracer, args, kwargs, result).

def _count_evaluations(tr, args):
    """Hand minimize_cg an objective that counts its evaluations."""
    fun_and_grad, count = args[0], tr.count

    def counted(x):
        count["optimize.minimize_cg.evaluations"] += 1
        return fun_and_grad(x)

    return (counted,) + tuple(args[1:])


def _cg_result(tr, args, kwargs, res):
    tr.count["optimize.minimize_cg.iterations"] += res.n_iter
    tr.count["optimize.minimize_cg.line_search_failed"] += (
        res.status == "line_search_failed")


def _posterior(tr, args, kwargs, out):
    grad = _arg(args, kwargs, 4, "want_grad", True)
    tr.count["map_infer.posterior_logp_and_grad.grad_calls"] += bool(grad)
    tr.count["map_infer.posterior_logp_and_grad.value_calls"] += not grad
    tr.count["map_infer.posterior_logp_and_grad.infeasible"] += (
        not np.isfinite(out[0]))
    tr.count["map_infer.posterior_logp_and_grad.entries"] += \
        _arg(args, kwargs, 1, "obs").x.size


def _fit_map(tr, args, kwargs, fit):
    tr.count["map_infer.fit_map.converged"] += bool(fit.converged)
    tr.count["map_infer.fit_map.max_iter"] += fit.status == "max_iter"


def _hmc_chain(tr, args, kwargs, chain):
    tr.count["hmc_infer.chains"] += 1
    tr.count["hmc_infer.accept_rate_sum"] += chain.stats["accept_rate"]
    tr.count["hmc_infer.divergent"] += chain.stats["divergent"]


def _exchange(tr, args, kwargs, out):
    info = out[1]
    tr.count["hmc_infer.exchange_update_hyper.accepted"] += info["accepted"]
    tr.count["hmc_infer.exchange_update_hyper.flagged"] += info["flagged"]


def _mh_accept(tr, args, kwargs, out):
    tr.count["gibecca.mh_accept_elements.entries"] += \
        _arg(args, kwargs, 1, "theta_old").size
    tr.count["gibecca.mh_accept_elements.accepted_entries"] += \
        int(out[1].sum())


def _save_chain(tr, args, kwargs, out):
    path = _arg(args, kwargs, 1, "dirpath")
    with os.scandir(path) as entries:
        for entry in entries:
            tr.count["chains.save_chain.files"] += 1
            tr.count["chains.save_chain.bytes"] += entry.stat().st_size


@dataclass(frozen=True)
class Probe:
    module: str          # submodule of the package that defines the function
    function: str
    after: object = None
    before: object = None


PROBES = (
    Probe("cli", "main"),
    Probe("experiments", "run_epls_vs_sepca"),
    Probe("experiments", "run_cca_knn"),
    Probe("experiments", "run_sampler_bench"),
    Probe("optimize", "minimize_cg", _cg_result, _count_evaluations),
    Probe("map_infer", "posterior_logp_and_grad", _posterior),
    Probe("map_infer", "fit_map", _fit_map),
    Probe("map_infer", "predict_target"),
    Probe("hmc_infer", "run_hmc_chain", _hmc_chain),
    Probe("hmc_infer", "exchange_update_hyper", _exchange),
    Probe("hmc_infer", "sample_prior_approx"),
    Probe("prior", "gaussian_block_terms"),
    Probe("prior", "log_prior_unnorm"),
    Probe("gibecca", "run_gibecca"),
    Probe("gibecca", "gibbs_gaussian_stage"),
    Probe("gibecca", "build_sigma"),
    Probe("gibecca", "propose_theta_rows"),
    Probe("gibecca", "mh_accept_elements", _mh_accept),
    Probe("model", "log_likelihood"),
    Probe("model", "log_likelihood_theta"),
    Probe("evaluation", "generate_coupled"),
    Probe("evaluation", "knn_latent_error"),
    Probe("evaluation", "time_between_uncorrelated"),
    Probe("evaluation", "heldout_loglik"),
    Probe("spect", "make_holdout"),
    Probe("chains", "save_chain", _save_chain),
)

RECIPE_SPANS = frozenset(f"experiments.{p.function}" for p in PROBES
                         if p.module == "experiments")


class Tracer:
    """Spans and counters of traced calls; ``run_id`` tags each call's spans."""

    def __init__(self):
        self.run_id = 0                 # set by the caller before each call
        self.spans = []                 # [name, start, end, parent, run_id]
        self.count = defaultdict(float)
        self._stack = []

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        before, after = probe.before, probe.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every probed function in the package to its wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        undo = []
        wrappers = {}
        try:
            for probe in PROBES:
                owner = sys.modules[f"{PACKAGE}.{probe.module}"]
                original = getattr(owner, probe.function)
                wrapper = self._wrap(f"{probe.module}.{probe.function}",
                                     original, probe)
                wrappers[id(original)] = wrapper
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append(functools.partial(
                                setattr, mod, attr, original))
            recipes = sys.modules[f"{PACKAGE}.experiments"].RECIPES
            for key, entry in list(recipes.items()):
                if id(entry[1]) in wrappers:
                    recipes[key] = (entry[0], wrappers[id(entry[1])])
                    undo.append(functools.partial(recipes.__setitem__, key,
                                                  entry))
            yield self
        finally:
            for restore in reversed(undo):
                restore()


# ---------------------------------------------------------------------------
# per-layer metrics of the calls one tracer recorded

def span_table(tracer):
    """{name: (calls, inclusive seconds, self seconds)} over the spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _, _), covered in zip(spans, child):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return {k: tuple(v) for k, v in table.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics over a tracer's calls (0 where a layer never ran)."""
    table = span_table(tracer)
    c = tracer.count

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    cg, post = "optimize.minimize_cg", "map_infer.posterior_logp_and_grad"
    hmc, exch = "hmc_infer.run_hmc_chain", "hmc_infer.exchange_update_hyper"
    prior_draw = "hmc_infer.sample_prior_approx"
    evals = c[f"{cg}.evaluations"]
    entries = c[f"{post}.entries"]
    hmc_posterior_calls = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == post and parent >= 0 and tracer.spans[parent][0] == hmc)
    m = {
        f"{cg}.calls": calls(cg), f"{cg}.s": secs(cg),
        f"{cg}.self_s": self_s(cg), f"{cg}.iterations": c[f"{cg}.iterations"],
        f"{cg}.evaluations": evals,
        f"{cg}.rejected_evals": evals - c[f"{cg}.iterations"] - calls(cg),
        f"{cg}.line_search_failed": c[f"{cg}.line_search_failed"],
        "optimize.useful_eval_frac": _ratio(
            c[f"{cg}.iterations"] + calls(cg), evals),
        f"{post}.calls": calls(post), f"{post}.s": secs(post),
        f"{post}.self_s": self_s(post),
        f"{post}.grad_calls": c[f"{post}.grad_calls"],
        f"{post}.value_calls": c[f"{post}.value_calls"],
        f"{post}.infeasible": c[f"{post}.infeasible"],
        f"{post}.entries": entries,
        f"{post}.ns_per_entry": _ratio(1e9 * secs(post), entries),
        "map_infer.fit_map.calls": calls("map_infer.fit_map"),
        "map_infer.fit_map.s": secs("map_infer.fit_map"),
        "map_infer.fit_map.converged": c["map_infer.fit_map.converged"],
        "map_infer.fit_map.max_iter": c["map_infer.fit_map.max_iter"],
        "map_infer.predict_target.calls": calls("map_infer.predict_target"),
        "map_infer.predict_target.s": secs("map_infer.predict_target"),
        f"{hmc}.s": secs(hmc), f"{hmc}.self_s": self_s(hmc),
        # posterior calls made by the chain itself: one at the start, one
        # after each accepted exchange move, the rest inside trajectories
        "hmc_infer.leapfrog_evals": (hmc_posterior_calls - calls(hmc)
                                     - c[f"{exch}.accepted"]),
        "hmc_infer.accept_rate": _ratio(c["hmc_infer.accept_rate_sum"],
                                        c["hmc_infer.chains"]),
        "hmc_infer.divergent": c["hmc_infer.divergent"],
        f"{exch}.calls": calls(exch), f"{exch}.s": secs(exch),
        f"{exch}.accepted": c[f"{exch}.accepted"],
        f"{exch}.flagged": c[f"{exch}.flagged"],
        f"{exch}.accept_frac": _ratio(c[f"{exch}.accepted"], calls(exch)),
        f"{prior_draw}.calls": calls(prior_draw),
        f"{prior_draw}.s": secs(prior_draw),
        f"{prior_draw}.self_s": self_s(prior_draw),
        "gibecca.mh_accept_elements.entries":
            c["gibecca.mh_accept_elements.entries"],
        "gibecca.mh_accept_elements.accepted_entries":
            c["gibecca.mh_accept_elements.accepted_entries"],
        "chains.save_chain.files": c["chains.save_chain.files"],
        "chains.save_chain.bytes": c["chains.save_chain.bytes"],
        "cli.main.self_s": self_s("cli.main"),
        "experiments.recipe.s": sum(secs(n) for n in RECIPE_SPANS),
        "experiments.recipe.self_s": sum(self_s(n) for n in RECIPE_SPANS),
        "trace.self_s_sum": sum(row[2] for row in table.values()),
        "trace.root_s": secs("cli.main"),
    }
    for name in ("prior.gaussian_block_terms", "prior.log_prior_unnorm",
                 "gibecca.gibbs_gaussian_stage", "gibecca.mh_accept_elements",
                 "chains.save_chain"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("gibecca.run_gibecca", "gibecca.gibbs_gaussian_stage"):
        m[f"{name}.s"] = secs(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("gibecca.build_sigma", "gibecca.propose_theta_rows",
                 "model.log_likelihood", "model.log_likelihood_theta",
                 "evaluation.generate_coupled", "evaluation.knn_latent_error",
                 "evaluation.time_between_uncorrelated",
                 "evaluation.heldout_loglik", "spect.make_holdout"):
        m[f"{name}.s"] = secs(name)
    return {k: float(v) for k, v in m.items()}


def write_spans(path, tracers):
    """One line per span: name, start, end, parent index, run id."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,run\n")
        for tracer in tracers:
            for name, start, end, parent, run_id in tracer.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run_id}\n")
