"""Command line runner: single fits, named experiments, and imputation.

One JSON config per run; the subcommand decides its schema.  Every field
is read by _read_fields through one cast table, so validation errors
always carry the offending field path.  Exit codes: 0 on success,
2 for configuration problems, 3 for numeric failures (diverged fits,
broken chains, singular proposals).

Before it dispatches, main sets the process's allocator policy where libc
is glibc: freed memory stays in the heap (trim threshold 1 GiB) and
arrays up to 32 MiB come from the heap rather than fresh mappings.  Each
posterior evaluation builds and frees N x D temporaries; without this,
glibc hands them back to the kernel and the next evaluation faults them
in again.  Forked --jobs workers (Linux's default before Python 3.14)
inherit the policy; library calls made outside main keep glibc's
defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from .chains import Chain, save_chain
from .evaluation import generate_coupled, heldout_loglik
from .expfam import ConjugateHyper, DomainError, SupportError
from .experiments import RECIPES, run_beta_sweep, write_rows_csv
from .gibecca import GibeccaOptions, run_gibecca
from .hmc_infer import ChainError, HmcOptions, run_hmc_chain
from .map_infer import FitError, FoldInError, MapOptions, fit_map
from .model import (ConfigError, LayoutError, ShapeError, as_float, as_int,
                    assemble_theta, load_observations, log_likelihood_theta,
                    make_layout)
from .prior import PriorSpec
from .spect import ParseError, load_or_fallback, make_holdout

_MISSING = object()

CONFIG_FAILURES = (ConfigError, ParseError, LayoutError, ShapeError,
                   DomainError, SupportError)
# StageError, MaskError and LinAlgError are ValueErrors
NUMERIC_FAILURES = (FitError, FoldInError, ChainError, FloatingPointError,
                    OverflowError, ValueError)


# glibc's mallopt parameters (malloc.h); 32 MiB is the ceiling of its
# dynamic mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Keep freed heap memory for reuse instead of returning it to the
    kernel; a no-op where libc has no mallopt.  Setting either threshold
    freezes glibc's self-raising mmap threshold, so both are set: with
    the trim threshold alone every array over 128 KiB is mapped afresh."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _as_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return value


def _get(d, key, path, default=_MISSING):
    if key in d:
        return d[key]
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return default


def _wrap(path, fn, *args, **kwargs):
    """Run a constructor or loader, tagging any validation error or
    unreadable file with the path."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _as_bool(value):
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _as_tuple(value):
    return tuple(value) if not np.isscalar(value) else (value,)


def _as_floats(value):
    """A number, or a list of numbers or of lists of them, as tuples;
    null stays None for the constructor's default."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_as_floats, value))
    return value if value is None else as_float(value)


_SCALARS = {"int": as_int, "float": as_float, "bool": _as_bool}
# a field's kind -> its cast.  The kinds are the annotations of the config
# dataclasses' fields, "floats" (see _as_floats) and "object", a value
# passed as given to a constructor that checks it.
_CASTS = {**_SCALARS,
          **{f"tuple[{name}, ...]":
             lambda v, cast=cast: tuple(map(cast, _as_tuple(v)))
             for name, cast in _SCALARS.items()},
          "tuple": _as_tuple, "floats": _as_floats, "object": lambda v: v}
# smallest accepted counts; a section without the field rejects it as
# unknown first.  The exchange stationarity check compares the means of
# two halves of the inner trace, so it needs at least one sweep in each;
# a cross-validation needs two folds.
_MINIMUMS = {"n_samples": 0, "burn_in": 0, "thin": 1, "n_leapfrog": 1,
             "restarts": 1, "inner_sweeps": 2, "n_replicates": 1,
             "n_points": 1, "knn_k": 1, "cv_folds": 2, "knn_folds": 2,
             "n_rows": 1, "n_train": 1, "n_test": 1}
# option fields that only code can set
_UNSETTABLE = {"fix_v", "initial_state"}


def _read_fields(values, kinds, path, owner=None):
    """Keyword arguments from the JSON object values.

    kinds maps each accepted name to a key of _CASTS, or to a dataclass
    whose fields are read the same way before it is built.  Counts are
    held to _MINIMUMS.  An unknown name, a failed cast or a count below
    its floor raises ConfigError naming path.name.
    """
    kwargs = {}
    for key, value in _as_dict(values, path).items():
        where = f"{path}.{key}"
        if key not in kinds:
            raise ConfigError(f"{where}: unknown field for {owner or path}")
        kind = kinds[key]
        if dataclasses.is_dataclass(kind):
            kwargs[key] = _wrap(where, kind, **_read_fields(
                value, _field_kinds(kind), where, key))
        else:
            kwargs[key] = _wrap(where, _CASTS[kind], value)
        if key in _MINIMUMS and kwargs[key] < _MINIMUMS[key]:
            raise ConfigError(f"{where}: must be at least "
                              f"{_MINIMUMS[key]}, got {kwargs[key]}")
    return kwargs


def _field_kinds(cls):
    """Settable fields' annotations, or the dataclass a default comes from."""
    return {f.name: f.default_factory
            if dataclasses.is_dataclass(f.default_factory) else f.type
            for f in dataclasses.fields(cls) if f.name not in _UNSETTABLE}


# the layout fields, which make_layout checks; a synthetic data block
# takes all but mean_row
_SHAPE_KINDS = {"model": "object", "view_widths": "object", "ranks": "object",
                "families": "object", "alpha": "floats"}


def _layout(kw, path):
    return _wrap(path, make_layout, _get(kw, "model", path),
                 _get(kw, "view_widths", path), _get(kw, "ranks", path),
                 _get(kw, "families", path), alpha=kw.get("alpha"),
                 use_mean_row=kw.get("mean_row", False))


def build_layout(d, path="layout"):
    return _layout(_read_fields(d, dict(_SHAPE_KINDS, mean_row="bool"),
                                path), path)


_PRIOR_KINDS = {"beta": "float", "a_hyper": "floats", "sigma_u": "floats",
                "sigma_v": "floats", "gamma": "floats"}


def build_prior(d, path="prior"):
    kw = _read_fields(d, _PRIOR_KINDS, path)
    raw = _get(kw, "a_hyper", path)
    if not isinstance(raw, tuple) or not raw:
        raise ConfigError(f"{path}.a_hyper: expected [lam, nu] or a list of "
                          "such pairs")
    if isinstance(raw[0], tuple):
        hyper = _wrap(f"{path}.a_hyper",
                      lambda: tuple(ConjugateHyper(*pair) for pair in raw))
    else:
        hyper = _wrap(f"{path}.a_hyper", ConjugateHyper, *raw)
    return _wrap(path, PriorSpec,
                 **dict(kw, beta=_get(kw, "beta", path), a_hyper=hyper))


_OPTION_CLASSES = {"map": MapOptions, "hmc": HmcOptions,
                   "gibecca": GibeccaOptions}


def build_options(engine, d, path="options", seed=None):
    # a list or dict cannot be looked up, so the type is checked first
    if not isinstance(engine, str) or engine not in _OPTION_CLASSES:
        raise ConfigError(f"engine: must be one of "
                          f"{sorted(_OPTION_CLASSES)}, got {engine!r}")
    cls = _OPTION_CLASSES[engine]
    kwargs = _read_fields({} if d is None else d, _field_kinds(cls), path,
                          f"engine {engine}")
    if seed is not None:
        kwargs["seed"] = _wrap("seed", as_int, seed)
    return _wrap(path, cls, **kwargs)


def make_recipe_config(name, overrides=None, seed=None):
    """Instantiate a recipe config, checking override names and types."""
    if not isinstance(name, str) or name not in RECIPES:
        raise ConfigError(f"recipe: must be one of {sorted(RECIPES)}, "
                          f"got {name!r}")
    cls = RECIPES[name][0]
    kwargs = _read_fields(overrides or {}, _field_kinds(cls), "overrides",
                          name)
    if seed is not None:
        kwargs["seed"] = as_int(seed)
    return cls(**kwargs)


_SYNTHETIC_KINDS = dict(_SHAPE_KINDS, n_rows="int", latent_scale="float",
                        target_scale="float", seed="int")


def load_data(d, spect_path=None, path="data"):
    """(observations, notice) from a data section.

    Three sources: {"csv": ..., "descriptor": ...} for files, "spect" for
    the binary benchmark (honouring --spect), or {"synthetic": {...}} for
    a seeded draw from a low-rank model.  A notice (the spect fallback)
    is printed to stderr here.
    """
    if d == "spect":
        obs, notice = _wrap("--spect", load_or_fallback, spect_path)
        if notice:
            print(notice, file=sys.stderr)
        return obs, notice
    d = _as_dict(d, path)
    if "csv" in d:
        _read_fields(d, {"csv": "object", "descriptor": "object"}, path)
        return _wrap(path, load_observations, d["csv"],
                     _get(d, "descriptor", path)), None
    if "synthetic" in d:
        _read_fields(d, {"synthetic": "object"}, path)
        sub = f"{path}.synthetic"
        s = _read_fields(d["synthetic"], _SYNTHETIC_KINDS, sub)
        data = _wrap(sub, generate_coupled, _layout(s, sub),
                     _get(s, "n_rows", sub), seed=s.get("seed", 0),
                     latent_scale=s.get("latent_scale", 1.0),
                     target_scale=s.get("target_scale", 1.0))
        return data.train, None
    raise ConfigError(f"{path}: expected 'spect', a csv/descriptor pair, "
                      "or a synthetic block")


def _predictive_means(thetas, layout):
    """Average mean parameter over a list of Theta samples."""
    acc = np.zeros_like(thetas[0])
    for theta in thetas:
        for i, fam in enumerate(layout.families):
            cols = layout.cols_view[i]
            acc[:, cols] += fam._gprime(theta[:, cols])
    return acc / len(thetas)


def _scalar_stats(stats):
    return {k: v for k, v in stats.items()
            if isinstance(v, (int, float, bool, str)) or v is None}


def _write_summary(out_dir, summary, notice=None):
    """summary.json, with the data notice (the spect fallback) if any."""
    if notice:
        summary["data_notice"] = notice
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def _model_config(cfg, args, extra=(), default_engine=_MISSING):
    """(cfg, layout, spec, engine, opts) from the head that fit and impute
    configs share; extra names the command's other fields."""
    cfg = _read_fields(cfg, dict.fromkeys(
        ("data", "layout", "prior", "engine", "options", "seed", *extra),
        "object"), "config")
    layout = build_layout(_get(cfg, "layout", "config"))
    spec = build_prior(_get(cfg, "prior", "config"))
    engine = _get(cfg, "engine", "config", default_engine)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    opts = build_options(engine, cfg.get("options"), seed=seed)
    return cfg, layout, spec, engine, opts


def cmd_fit(cfg, args):
    cfg, layout, spec, engine, opts = _model_config(cfg, args)
    obs, notice = load_data(_get(cfg, "data", "config"), args.spect)

    os.makedirs(args.out, exist_ok=True)
    summary = {"engine": engine, "seed": getattr(opts, "seed", None)}
    if engine == "map":
        fit = fit_map(obs, layout, spec, opts)
        loglik = log_likelihood_theta(obs, assemble_theta(fit.state, layout),
                                      layout)
        stats = {"objective": fit.objective, "converged": fit.converged,
                 "status": fit.status}
        chain = Chain([fit.state], np.zeros(1), np.array([loglik]),
                      stats=stats, meta={"engine": engine, "seed": opts.seed})
        summary.update(stats, n_iter=fit.n_iter,
                       restart_objectives=fit.restart_objectives)
    else:
        runner = run_hmc_chain if engine == "hmc" else run_gibecca
        chain = runner(obs, layout, spec, opts)
        summary.update(n_samples=chain.n_samples,
                       stats=_scalar_stats(chain.stats), meta=chain.meta)
    save_chain(chain, os.path.join(args.out, "chain"), layout)
    _write_summary(args.out, summary, notice)
    print(f"fit: engine={engine} -> {args.out}")
    return 0


def cmd_experiment(cfg, args):
    cfg = _read_fields(cfg, {"recipe": "object", "overrides": "object"},
                       "config")
    name = _get(cfg, "recipe", "config")
    recipe_cfg = make_recipe_config(name, cfg.get("overrides"),
                                    seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    notice = None
    if name == "beta-sweep":
        obs, notice = load_data("spect", args.spect)
        result = run_beta_sweep(recipe_cfg, obs, jobs=args.jobs)
    else:
        result = RECIPES[name][1](recipe_cfg, jobs=args.jobs)
    csv_path = os.path.join(args.out, f"{name}.csv")
    write_rows_csv(result.rows, csv_path)
    for key, (chain, layout) in result.chains.items():
        save_chain(chain, os.path.join(args.out, "chains", key), layout)
    result.summary["config"] = dataclasses.asdict(recipe_cfg)
    _write_summary(args.out, result.summary, notice)
    n_failed = sum(r["status"] != "ok" for r in result.rows)
    print(f"experiment {name}: {len(result.rows)} rows "
          f"({n_failed} flagged) -> {csv_path}")
    return 0


def cmd_impute(cfg, args):
    cfg, layout, spec, engine, opts = _model_config(cfg, args, ("holdout",),
                                                    "map")
    hold = _read_fields(_get(cfg, "holdout", "config"),
                        {"fraction": "float", "seed": "int"}, "holdout")
    obs, notice = load_data(_get(cfg, "data", "config"), args.spect)

    train, held = make_holdout(obs, _get(hold, "fraction", "holdout"),
                               seed=hold.get("seed", 0))
    if engine == "map":
        fit = fit_map(train, layout, spec, opts)
        thetas = [assemble_theta(fit.state, layout)]
    else:
        runner = run_hmc_chain if engine == "hmc" else run_gibecca
        thetas = runner(train, layout, spec, opts).theta_samples(layout)
    ll = heldout_loglik(thetas, train, held, layout)
    means = _predictive_means(thetas, layout)

    os.makedirs(args.out, exist_ok=True)
    pred_path = os.path.join(args.out, "predictions.csv")
    with open(pred_path, "w") as fh:
        fh.write("row,col,true,predicted_mean\n")
        rows, cols = np.nonzero(held)
        fh.writelines(
            f"{r},{c},{t:.17g},{m:.17g}\n" for r, c, t, m in zip(
                rows.tolist(), cols.tolist(), obs.x[held].tolist(),
                means[held].tolist()))
    summary = {"engine": engine, "heldout_loglik": ll,
               "n_holdout": int(held.sum())}
    _write_summary(args.out, summary, notice)
    print(f"impute: {int(held.sum())} entries, heldout_loglik={ll:.6f} "
          f"-> {args.out}")
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="expfam-proj",
        description="Low-rank exponential-family models: fitting, "
                    "experiments, imputation.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("fit", cmd_fit), ("experiment", cmd_experiment),
                     ("impute", cmd_impute)):
        q = sub.add_parser(name)
        q.add_argument("--config", required=True)
        q.add_argument("--jobs", type=int, default=1)
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--out", default=None)
        q.add_argument("--spect", default=None)
        q.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _keep_freed_memory()
    if args.out is None:
        args.out = f"expfam-out-{args.command}"
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"--config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config: invalid JSON ({exc})") from exc
        return args.fn(cfg, args)
    except CONFIG_FAILURES as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
