"""Benchmark of expfam-proj through its public command-line entry point.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and all output goes to ``.bench_run/`` there.  Each call is one
in-process ``expfamproj.cli.main([...])`` with ``--jobs 1`` and BLAS/OpenMP
pinned to one thread.  A workload has one or more cases: inputs derived
from the seed.  A round calls every case once; rounds repeat until the
time budget is spent, and at least MIN_ROUNDS run so that every case's
reruns can be compared and its median taken.

Times are reported in seconds at a fixed reference speed of the CPU, not
as read off the clock: the shared host's speed drifts by up to ~1.5x
within a run, so every call and set-up samples its own speed while it
runs (see speed.py) and its wall time is scaled by that.  The wall times
as measured are printed too.

--trace 0 reports the end-to-end metrics:
    wall_s       seconds of one cli.main call: each case's median over
                 rounds, averaged over the cases
    setup_s      median seconds for a fresh interpreter to import the
                 package and write the case configs (SETUP_PROBES of
                 them, before the first round)
    peak_rss_mb  maximum resident set size of this process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of one round (medians over traced rounds) and trace.overhead_frac.
Spans of every traced call are written to .bench_run/trace/.  Span times
are as measured, and include the speed samples taken inside them (under
2% of a call).

Checks: every call exits 0, and each case's quality values are finite and
identical in every round.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_ROUNDS = 2
SETUP_PROBES = 3           # set-ups timed before the first round
# traced runs alternate untraced (False) and traced (True) rounds in this
# order, so neither side always runs first
TRACE_ORDER = (False, True, True, False)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    """Commit from .git in the checkout, without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": _git_commit()}


def set_up(workload, seed, config_dir):
    """(wall seconds, reference seconds) for a fresh process to import the
    package and write the case configs into config_dir."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           str(SRC), workload, str(seed), str(config_dir)],
                          check=True, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    speed = json.loads(proc.stdout.splitlines()[-1])
    wall -= speed["busy_s"]
    return wall, wall * speed["factor"]


@dataclass
class Call:
    """One cli.main call: where it ran, its times and checked output."""

    round: int
    case: int
    traced: bool
    wall: float               # seconds, less the speed samples in the call
    ref_wall: float           # the same work in seconds at reference speed
    code: int
    result: object            # workloads.CallResult, None when unreadable
    error: str = None


def run_call(cli, workload, argv, out_dir, tracer=None):
    """(wall seconds, reference seconds, exit code, CallResult or None,
    error or None)."""
    from speed import MixKernel, sampled

    with redirect_stdout(sys.stderr), sampled(MixKernel()) as speed:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.installed():
                    code = cli.main(argv)
        except Exception:                         # noqa: BLE001
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
    wall -= speed.busy_s
    result = error = None
    if code == 0:
        try:
            result = workload.read(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, speed.ref_seconds(wall), code, result, error


def check(calls):
    """(attempted, failed, problems, quality per case) over all calls."""
    attempted = failed = 0
    problems, quality = [], {}
    for i, call in enumerate(calls):
        where = f"call {i} (case {call.case})"
        if call.result is None:
            attempted += 1
            failed += 1
            problems.append(f"{where}: exit code {call.code}"
                            + (f", {call.error}" if call.error else ""))
            continue
        res = call.result
        attempted += res.attempted
        failed += res.failed
        problems += [f"{where}: {p}" for p in res.problems]
        bad = [k for k, v in res.quality.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite quality {bad}")
        first = quality.setdefault(call.case, res.quality)
        if res.quality != first:
            problems.append(f"{where}: quality {res.quality} differs from "
                            f"the case's first run {first}")
    return attempted, failed, problems, quality


def _median_dict(dicts):
    """Per-key median over a list of dicts with the same keys."""
    dicts = [d for d in dicts if d]
    if not dicts:
        return {}
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _round_seconds(calls, traced, attr="wall"):
    """Median over rounds of the summed call seconds (``attr`` of a Call)
    of one round."""
    totals = {}
    for c in calls:
        if c.traced == traced:
            totals[c.round] = totals.get(c.round, 0.0) + getattr(c, attr)
    return statistics.median(totals.values())


def _units(section):
    """{name: unit} of one metric list in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    args = _args(argv)
    if not (SRC / "expfamproj" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:            # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import expfamproj.cli as cli
    from tracer import Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS, write_configs

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: expfamproj imported from {cli.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    calls, setups, tracers = [], [], []
    try:
        start = time.perf_counter()
        if args.trace:
            write_configs(args.workload, args.seed, run_dir)
        else:
            setups = [set_up(args.workload, args.seed, run_dir)
                      for _ in range(SETUP_PROBES)]
        n_rounds = 0
        while True:
            traced = bool(args.trace) and \
                TRACE_ORDER[n_rounds % len(TRACE_ORDER)]
            tracer = Tracer() if traced else None
            for case in range(workload.cases):
                out_dir = run_dir / f"call{len(calls)}"
                argv = [workload.command, "--config",
                        str(run_dir / f"case{case}.json"),
                        "--out", str(out_dir), "--jobs", "1"]
                if tracer is not None:
                    tracer.run_id = len(calls)
                calls.append(Call(n_rounds, case, traced, *run_call(
                    cli, workload, argv, out_dir, tracer)))
            if tracer is not None:
                tracers.append(tracer)
            n_rounds += 1
            elapsed = time.perf_counter() - start
            if n_rounds >= MIN_ROUNDS and \
                    elapsed * (n_rounds + 1) / n_rounds > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems, quality = check(calls)
    plain = [c for c in calls if not c.traced]
    rates = _median_dict([c.result.rates for c in plain if c.result])

    if args.trace:
        layers = [layer_metrics(t) for t in tracers]
        for i, layer in enumerate(layers):
            if abs(layer["trace.self_s_sum"] - layer["trace.root_s"]) > \
                    1e-6 * layer["trace.root_s"]:
                problems.append(f"traced round {i}: self times do not add "
                                "up to the cli.main spans")
        measured = _median_dict(layers)
        measured["trace.wall_s"] = _round_seconds(calls, traced=True)
        measured["trace.overhead_frac"] = (
            _round_seconds(calls, True, "ref_wall")
            / _round_seconds(calls, False, "ref_wall") - 1.0)
        for name in ("gibecca_ess_per_s", "hmc_ess_per_s"):
            measured[f"sampler.{name}"] = rates.get(name, 0.0)
        write_spans(str(WORK / "trace" / f"{args.workload}-seed{args.seed}"
                        ".csv"), tracers)
    else:
        # each case's median over rounds, then the mean over cases
        raw_wall_s = statistics.fmean(
            statistics.median(c.wall for c in plain if c.case == case)
            for case in range(workload.cases))
        wall_s = statistics.fmean(
            statistics.median(c.ref_wall for c in plain if c.case == case)
            for case in range(workload.cases))
        measured = {"wall_s": wall_s,
                    "setup_s": statistics.median(s[1] for s in setups),
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = _units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(measured))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {k: {"value": measured.get(k), "unit": u}
               for k, u in units.items()}

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"calls {len(calls)} in {n_rounds} rounds of {workload.cases} "
          f"cases; untraced call seconds "
          f"{[round(c.wall, 4) for c in plain]}; at reference speed "
          f"{[round(c.ref_wall, 4) for c in plain]}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"as measured: wall_s {raw_wall_s} s, setup_s "
              f"{statistics.median(s[0] for s in setups)} s")
    print(f"quality {json.dumps(quality, sort_keys=True)}")
    print(f"sampler {json.dumps(rates, sort_keys=True)} draws/s")
    print(f"failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for p in problems:
        print(f"problem {p}")
    print(json.dumps({"correct": not problems,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
