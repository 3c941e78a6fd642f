"""Benchmark of noiselab through its command line, one workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): verify, sweep-quadrature, sweep-mc, plurality.
Each pass runs the workload's noiselab invocations in this process through
``noiselab.cli.main``: one caller, closed loop, at most two threads.  Passes
repeat until the set-up runs and the next pass would exceed ``--seconds`` (at
least one pass runs, so a workload whose pass alone is longer overruns), then
every output of every pass is checked against the oracles in workloads.py.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a warm-up
pass, a traced pass and an untraced pass, and reports the per-layer metrics of
tracer.py with ``trace_overhead`` (traced over untraced wall time) and the
sweep-mc pair rates of the untraced pass.  Metrics are printed one per line
with their units; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero without a
result when the noiselab sources are not in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
#: interpreter starts timed per run; setup_s is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: metric name -> unit, as BENCHMARK.json declares them
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


@dataclass
class Pass:
    wall: float
    times: dict
    outcomes: dict


def run_pass(cli, work: workloads.Workload) -> Pass:
    """One pass; only the ``cli.main`` calls are inside the timed region."""
    times, outcomes = {}, {}
    for call in work.calls:
        call.out.unlink(missing_ok=True)
        code, error = None, ""
        t0 = time.perf_counter()
        try:
            code = cli.main(call.argv + ["--output", str(call.out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as failed operations, run continues
            error = f"{type(exc).__name__}: {exc}"
        times[call.label] = time.perf_counter() - t0
        text = call.out.read_text() if call.out.exists() else None
        outcomes[call.label] = workloads.Outcome(code, text, error)
    return Pass(sum(times.values()), times, outcomes)


def mc_pairs_per_s(work: workloads.Workload, p: Pass, threads: int) -> float:
    """Correlated pairs behind the returned sweep values, per second of sweep."""
    pairs, seconds = 0, 0.0
    for call in work.calls:
        text = p.outcomes[call.label].text
        if call.threads != threads or text is None:
            continue
        try:
            pairs += sum(int(r["samples"]) for r in csv.DictReader(io.StringIO(text)))
        except (KeyError, ValueError):
            continue
        seconds += p.times[call.label]
    return pairs / seconds if seconds > 0 else 0.0


def measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def check_all(work, passes) -> tuple[int, int, list[str]]:
    oracle = workloads.Oracle(work)
    attempted, failed, problems = 0, 0, []
    for p in passes:
        tally = oracle.check(p.outcomes)
        attempted += tally.attempted
        failed += tally.failed
        problems += [q for q in tally.problems if q not in problems]
    return attempted, failed, problems


def timed_run(cli, work, seconds: float, setup: list[float]) -> tuple[dict, list]:
    # the set-up runs count against --seconds; the oracles after the passes do not
    budget = seconds - sum(setup)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, work))
        used = time.perf_counter() - start
        if used + statistics.median(p.wall for p in passes) > budget:
            break
    rss = peak_rss_mb()
    attempted, failed, problems = check_all(work, passes)
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "values_per_s": (attempted - failed) / sum(walls),
        "peak_rss_mb": rss,
    }
    shown = dict(metrics)
    if work.name == "sweep-mc":
        for t in (1, 2):
            shown[f"mc_pairs_per_s_{t}t"] = statistics.median(
                mc_pairs_per_s(work, p, t) for p in passes)
    notes = [f"passes = {len(passes)} ({', '.join(f'{w:.4g}' for w in walls)} s)",
             f"operations per pass = {attempted // len(passes)}"]
    return _result(metrics, shown, attempted, failed, problems, notes)


def traced_run(cli, work) -> tuple[dict, list]:
    # the first pass of a process pays one-time costs, so the traced pass is
    # compared with an untraced pass that also runs warm
    warm = run_pass(cli, work)
    with tracer.Tracer() as tr:
        traced = run_pass(cli, work)
    left = tracer.leftover_wrappers()
    if left:
        raise RuntimeError(f"tracer left wrappers behind: {left}")
    plain = run_pass(cli, work)
    attempted, failed, problems = check_all(work, [warm, traced, plain])
    metrics = tr.metrics()
    metrics["trace_overhead"] = traced.wall / plain.wall
    for t in (1, 2):
        metrics[f"mc_pairs_per_s_{t}t"] = mc_pairs_per_s(work, plain, t)
    notes = [f"first pass = {warm.wall:.4g} s", f"traced pass = {traced.wall:.4g} s",
             f"untraced pass = {plain.wall:.4g} s"]
    notes += [f"not traced (missing in noiselab): {m}" for m in tr.missing]
    return _result(metrics, metrics, attempted, failed, problems, notes)


def _result(metrics, shown, attempted, failed, problems, notes):
    lines = list(notes)
    lines += [f"{name} = {value:.6g} {UNITS[name]}" for name, value in shown.items()]
    lines.append(f"ops_failed = {failed}/{attempted} (failed/attempted)")
    lines += [f"failed: {q}" for q in problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "noiselab" / "__init__.py").is_file():
        print(f"error: no noiselab sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        setup = [] if args.trace else measure_setup(args, workdir)
        sys.path.insert(0, str(SRC))
        import noiselab.cli

        if not Path(noiselab.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported noiselab from {noiselab.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        work = workloads.build(args.workload, args.seed, workdir / "inputs")
        if args.trace:
            result, lines = traced_run(noiselab.cli, work)
        else:
            result, lines = timed_run(noiselab.cli, work, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    print(f"environment: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
