#!/usr/bin/env python3
"""Check that two checkouts write the same outputs for the benchmark cases.

    python3 scripts/same_outputs.py PARENT_ROOT CHANGE_ROOT [--work DIR]

Runs the first two cases at seed 0 of every workload in
perfbench/workloads.py (one case where a workload has only one) and the
extra cases below through ``expfamproj.cli.main``, once per checkout, each
in a fresh subprocess with BLAS and OpenMP pinned to one thread.  The
extra cases cover what no workload runs: one reduced beta-sweep, a small
synthetic ``fit`` with each engine, a MAP ``fit`` with a mean row, a
sampler ``impute``, and a recipe whose replicates all fail.  The case
configs come from this script and its own perfbench/, which is imported
and never written, so both checkouts run the same configs against their
own src/.

The two output trees are then compared file by file.  Only wall-clock
values are ignored: ``wall_clock`` in chain manifests, the value of the
``uncorrelated_seconds`` rows of a recipe CSV, and ``mean_seconds`` /
``gibecca_faster`` in the sampler-bench summary.  A differing JSON or CSV
file is printed with its first difference: the key path or the line and
column, with the parent's value and then the change's.  Exits 0 when
every file matches and 1 on any difference, missing file or failed run.
"""

import argparse
import csv
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(HERE, os.pardir, "perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CASES_PER_WORKLOAD = 2
SEED = 0
WALL_CLOCK_KEYS = frozenset({"wall_clock", "mean_seconds", "gibecca_faster"})
WALL_CLOCK_METRICS = frozenset({"uncorrelated_seconds"})
# the beta-sweep recipe at reduced overrides, on the built-in SPECT stand-in
BETA_SWEEP = {"recipe": "beta-sweep",
              "overrides": {"n_points": 5, "restarts": 2, "cv_folds": 3,
                            "cv_max_iter": 60, "max_iter": 150,
                            "seed": SEED}}
SYNTHETIC = {"model": "ecca", "view_widths": [6, 5], "ranks": [1, 1, 1],
             "families": ["poisson", "bernoulli"]}


def _model_config(engine, options, **extra):
    """A fit (or, with a holdout, impute) config on 14 synthetic rows."""
    return dict({"data": {"synthetic": dict(SYNTHETIC, n_rows=14,
                                            seed=SEED)},
                 "layout": SYNTHETIC,
                 "prior": {"beta": 0.2, "a_hyper": [0.5, 1.0]},
                 "engine": engine, "options": options, "seed": SEED},
                **extra)


# (name, command, config) of the cases no workload covers
EXTRA_CASES = (
    ("beta-sweep", "experiment", BETA_SWEEP),
    ("fit-map", "fit", _model_config("map", {"max_iter": 100,
                                            "restarts": 2})),
    ("fit-map-mean-row", "fit", _model_config(
        "map", {"max_iter": 100, "restarts": 2},
        layout=dict(SYNTHETIC, mean_row=True))),
    ("fit-hmc", "fit", _model_config(
        "hmc", {"n_samples": 10, "burn_in": 20, "n_leapfrog": 10,
                "step_size": 0.01, "infer_hyper": True,
                "exchange": {"inner_sweeps": 10}})),
    ("fit-gibecca", "fit", _model_config("gibecca", {"n_samples": 10,
                                                    "burn_in": 10})),
    ("impute-gibecca", "impute", _model_config(
        "gibecca", {"n_samples": 10, "burn_in": 10},
        holdout={"fraction": 0.2, "seed": SEED})),
    # beta outside [0, 1] fails inside every replicate
    ("failing-replicates", "experiment",
     {"recipe": "epls-vs-sepca",
      "overrides": {"n_replicates": 2, "beta": 2.0, "seed": SEED}}),
)


def _cases():
    """(name, case, command, config) for every case to run."""
    from workloads import WORKLOADS, case_seed

    for name, workload in WORKLOADS.items():
        for case in range(min(CASES_PER_WORKLOAD, workload.cases)):
            yield (name, case, workload.command,
                   workload.config(case_seed(SEED, case)))
    for name, command, payload in EXTRA_CASES:
        yield name, 0, command, payload


def run_cases(root, out):
    """Run every case against root/src, writing out/<name>/case<j>/.

    Called in the subprocess; returns the number of failed calls.
    """
    sys.path[:0] = [os.path.join(root, "src"), os.path.abspath(PERFBENCH)]
    from expfamproj import cli

    failed = 0
    for name, case, command, payload in _cases():
        case_dir = os.path.join(out, name, f"case{case}")
        config = os.path.join(f"{out}-configs", f"{name}-case{case}.json")
        os.makedirs(os.path.dirname(config), exist_ok=True)
        with open(config, "w") as fh:
            json.dump(payload, fh, indent=1)
        code = cli.main([command, "--config", config,
                         "--out", case_dir, "--jobs", "1"])
        if code != 0:
            print(f"{root}: {name} case {case} exited {code}",
                  file=sys.stderr)
            failed += 1
    return failed


def _drop_wall_clock(value):
    if isinstance(value, dict):
        return {k: _drop_wall_clock(v) for k, v in value.items()
                if k not in WALL_CLOCK_KEYS}
    if isinstance(value, list):
        return [_drop_wall_clock(v) for v in value]
    return value


def _normalised(path):
    """The file's content with its wall-clock values taken out."""
    with open(path, newline="") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.dumps(_drop_wall_clock(json.loads(text)), sort_keys=True)
    rows = list(csv.reader(io.StringIO(text)))
    if rows and {"metric", "value"} <= set(rows[0]):
        metric, value = rows[0].index("metric"), rows[0].index("value")
        for row in rows[1:]:
            if row[metric] in WALL_CLOCK_METRICS:
                row[value] = "*"
    return rows


def first_difference(a, b, where=""):
    """Where JSON values a (parent) and b (change) first differ, walked by
    key and index, as 'path: a-value != b-value'; None when equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{where}.{key}" if where else key
            if key not in a or key not in b:
                return f"{path}: only in {'parent' if key in a else 'change'}"
            found = first_difference(a[key], b[key], path)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{where}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{where}: {len(a)} items != {len(b)}"
        return None
    if json.dumps(a) != json.dumps(b):
        return f"{where}: {a!r} != {b!r}"
    return None


def _csv_difference(a, b):
    """Where CSV rows a (parent) and b (change) first differ, as 'line L,
    column: a-value != b-value', the column named by the header line."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            header = a[0] if i and len(a[0]) == len(x) else None
            for j, (u, v) in enumerate(zip(x, y)):
                if u != v:
                    col = header[j] if header else f"column {j + 1}"
                    return f"line {i + 1}, {col}: {u!r} != {v!r}"
            return f"line {i + 1}: {len(x)} fields != {len(y)}"
    return f"{len(a)} lines != {len(b)}"


def compare(parent, change):
    """(identical, equal without wall-clock values, problems) over the
    union of both trees' files."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names}

    left, right = files(parent), files(change)
    problems = [f"only in parent: {p}" for p in sorted(left - right)]
    problems += [f"only in change: {p}" for p in sorted(right - left)]
    identical = equal = 0
    for rel in sorted(left & right):
        a, b = os.path.join(parent, rel), os.path.join(change, rel)
        if filecmp.cmp(a, b, shallow=False):
            identical += 1
            continue
        if not rel.endswith((".json", ".csv")):
            problems.append(f"differs: {rel}")
            continue
        old, new = _normalised(a), _normalised(b)
        if old == new:
            equal += 1
        elif rel.endswith(".json"):
            problems.append(f"differs: {rel}: "
                            + first_difference(json.loads(old),
                                               json.loads(new)))
        else:
            problems.append(f"differs: {rel}: {_csv_difference(old, new)}")
    return identical, equal, problems


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--work", default=None,
                    help="keep the outputs in DIR/parent and DIR/change "
                         "(default: a temporary directory, removed after)")
    args = ap.parse_args(argv)

    work = args.work or tempfile.mkdtemp(prefix="same-outputs-")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    outs = {}
    try:
        for tag, root in (("parent", args.parent_root),
                          ("change", args.change_root)):
            outs[tag] = os.path.join(work, tag)
            code = subprocess.call(
                [sys.executable, os.path.abspath(__file__), "--run-cases",
                 os.path.abspath(root), outs[tag]], env=env,
                stdout=subprocess.DEVNULL)
            if code != 0:
                print(f"{tag} checkout {root}: {code} failed run(s)")
                return 1
        identical, equal, problems = compare(outs["parent"], outs["change"])
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print(f"{identical + equal + len(problems)} files: {identical} "
          f"byte-identical, {equal} equal apart from wall-clock values, "
          f"{len(problems)} different or missing")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-cases"]:
        sys.exit(min(run_cases(*sys.argv[2:4]), 125))
    sys.exit(main())
