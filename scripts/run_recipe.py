#!/usr/bin/env python3
"""Run one named experiment recipe and keep its exact config.

Writes <out>/config.json, then runs `expfam-proj experiment` on it, which
adds the tidy rows, the summary with its significance tests and, for
sampler-bench, the chains.  The recipes:

    epls-vs-sepca   shared-factor model vs weighted joint fits
    beta-sweep      held-out imputation across the prior weight, on the
                    binary table given by --spect (synthetic stand-in
                    when omitted)
    cca-knn         count-aware sampling vs Gaussian baselines (KNN error)
    sampler-bench   wall-clock time to an uncorrelated draw, both samplers

Full scale takes minutes; shrink a run with --override KEY=VALUE, where
VALUE is JSON:

    python3 scripts/run_recipe.py epls-vs-sepca --out results/epls \\
        --override n_replicates=5 --override sepca_components=[1,2,3]
"""

import argparse
import json
import os
import sys

from expfamproj.cli import main as cli_main
from expfamproj.experiments import RECIPES


def parse_overrides(pairs):
    out = {}
    for pair in pairs:
        key, _, raw = pair.partition("=")
        if not _:
            raise SystemExit(f"--override expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def run(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("recipe", choices=sorted(RECIPES))
    ap.add_argument("--out", default=None,
                    help="output directory (default results/RECIPE)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--spect", default=None,
                    help="path to the binary feature table; synthetic "
                         "fallback when omitted")
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE")
    args = ap.parse_args(argv)

    out = args.out or f"results/{args.recipe}"
    os.makedirs(out, exist_ok=True)
    config = {"recipe": args.recipe,
              "overrides": parse_overrides(args.override)}
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=1)
    argv_out = ["experiment", "--config", cfg_path, "--out", out,
                "--seed", str(args.seed), "--jobs", str(args.jobs)]
    if args.spect:
        argv_out += ["--spect", args.spect]
    return cli_main(argv_out)


if __name__ == "__main__":
    sys.exit(run())
