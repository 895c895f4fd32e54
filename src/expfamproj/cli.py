"""Command line runner: single fits, named experiments, and imputation.

One JSON config per run; the subcommand decides its schema.  Validation
errors always carry the offending field path.  Exit codes: 0 on success,
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
from .experiments import (RECIPES, coerce_fields, expect_bool,
                          make_recipe_config, run_beta_sweep, write_rows_csv)
from .gibecca import GibeccaOptions, run_gibecca
from .hmc_infer import ChainError, ExchangeOptions, HmcOptions, run_hmc_chain
from .map_infer import FitError, FoldInError, MapOptions, fit_map
from .model import (ConfigError, LayoutError, ShapeError, as_int,
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


def _no_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _wrap(path, fn, *args, **kwargs):
    """Run a constructor or loader, tagging any validation error or
    unreadable file with the path."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cast(d, key, path, cast, default=_MISSING):
    """d[key] (or default) through cast; a failure names path.key."""
    return _wrap(f"{path}.{key}", cast, _get(d, key, path, default))


def build_layout(d, path="layout"):
    d = _as_dict(d, path)
    _no_unknown(d, {"model", "view_widths", "ranks", "families", "alpha",
                    "mean_row"}, path)
    return _wrap(path, make_layout,
                 _get(d, "model", path),
                 _get(d, "view_widths", path),
                 _get(d, "ranks", path),
                 _get(d, "families", path),
                 alpha=d.get("alpha"),
                 use_mean_row=expect_bool(d.get("mean_row", False),
                                          f"{path}.mean_row"))


def build_prior(d, path="prior"):
    d = _as_dict(d, path)
    _no_unknown(d, {"beta", "a_hyper", "sigma_u", "sigma_v", "gamma"}, path)
    raw = _get(d, "a_hyper", path)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{path}.a_hyper: expected [lam, nu] or a list of "
                          "such pairs")
    if isinstance(raw[0], (list, tuple)):
        hyper = _wrap(f"{path}.a_hyper",
                      lambda: tuple(ConjugateHyper(*pair) for pair in raw))
    else:
        hyper = _wrap(f"{path}.a_hyper", ConjugateHyper, *raw)
    return _wrap(path, PriorSpec,
                 beta=_get(d, "beta", path), a_hyper=hyper,
                 sigma_u=d.get("sigma_u", 1.0),
                 sigma_v=d.get("sigma_v", 1.0),
                 gamma=d.get("gamma"))


_OPTION_CLASSES = {"map": MapOptions, "hmc": HmcOptions,
                   "gibecca": GibeccaOptions}
_UNSETTABLE = {"fix_v", "initial_state"}


def build_options(engine, d, path="options", seed=None):
    if engine not in _OPTION_CLASSES:
        raise ConfigError(f"engine: must be one of "
                          f"{sorted(_OPTION_CLASSES)}, got {engine!r}")
    cls = _OPTION_CLASSES[engine]
    d = dict(_as_dict(d, path)) if d is not None else {}
    exchange = d.pop("exchange", None)
    kwargs = coerce_fields(cls, d, path, f"engine {engine}", _UNSETTABLE)
    if engine == "hmc" and exchange is not None:
        sub = f"{path}.exchange"
        sub_kwargs = coerce_fields(ExchangeOptions, _as_dict(exchange, sub),
                                   sub, "exchange")
        kwargs["exchange"] = _wrap(sub, ExchangeOptions, **sub_kwargs)
    elif exchange is not None:
        raise ConfigError(f"{path}.exchange: only the hmc engine takes "
                          "exchange options")
    if seed is not None:
        kwargs["seed"] = _wrap("seed", as_int, seed)
    return _wrap(path, cls, **kwargs)


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
        _no_unknown(d, {"csv", "descriptor"}, path)
        return _wrap(path, load_observations, d["csv"],
                     _get(d, "descriptor", path)), None
    if "synthetic" in d:
        _no_unknown(d, {"synthetic"}, path)
        sub = f"{path}.synthetic"
        s = _as_dict(d["synthetic"], sub)
        _no_unknown(s, {"model", "view_widths", "ranks", "families", "alpha",
                        "n_rows", "latent_scale", "target_scale", "seed"},
                    sub)
        layout = build_layout(
            {k: s[k] for k in ("model", "view_widths", "ranks", "families",
                               "alpha") if k in s},
            path=sub)
        rows = _cast(s, "n_rows", sub, as_int)
        if rows < 1:
            raise ConfigError(f"{sub}.n_rows: must be at least 1, got {rows}")
        data = _wrap(sub, generate_coupled, layout, rows,
                     seed=_cast(s, "seed", sub, as_int, 0),
                     latent_scale=_cast(s, "latent_scale", sub, float, 1.0),
                     target_scale=_cast(s, "target_scale", sub, float, 1.0))
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
    cfg = _as_dict(cfg, "config")
    _no_unknown(cfg, {"data", "layout", "prior", "engine", "options",
                      "seed", *extra}, "config")
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
    cfg = _as_dict(cfg, "config")
    _no_unknown(cfg, {"recipe", "overrides"}, "config")
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
    hold = _as_dict(_get(cfg, "holdout", "config"), "holdout")
    _no_unknown(hold, {"fraction", "seed"}, "holdout")
    obs, notice = load_data(_get(cfg, "data", "config"), args.spect)

    train, held = make_holdout(obs, _cast(hold, "fraction", "holdout", float),
                               seed=_cast(hold, "seed", "holdout", as_int, 0))
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
