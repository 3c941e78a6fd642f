"""Batch command-line front end.

Subcommands:

  stability  PARTITION.json   one partition-stability estimate (JSON/CSV)
  sweep      PARTITION.json   stability over a rho grid (CSV); one Monte Carlo
                              pair stream serves the whole grid, and the row
                              at rho equals `stability --rho rho` at the same
                              seed and budget
  plurality                   discrete plurality stability table (CSV)
  verify     SUITE            run a named identity-verification suite and
                              exit nonzero if any residual exceeds tolerance;
                              the suites are the table of noiselab.checks,
                              whose definitions the acceptance tests also use

All randomness flows from --seed; omitting it selects a recorded default that
is printed in the report header.  Exit codes: 0 success, 2 parse failure,
3 validation failure, 4 unknown suite, 5 verification tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__, checks
from .gauss import DomainError
from .partitions import CoverageError, PartitionSpec, partition_from_json
from .stability import noise_stability, partition_stability, stability_sweep
from .voting import plurality_stability_table

DEFAULT_SEED = 20240901
SCHEMA = "1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNKNOWN_SUITE = 4
EXIT_TOLERANCE = 5

_SUITE_IMPL = checks.SUITES
SUITES = tuple(_SUITE_IMPL)


def _add_common(sub):
    sub.add_argument("--rho", type=float, default=0.5)
    sub.add_argument("--budget", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--tolerance-scale", type=float, default=1.0)
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call gets a fresh namespace of defaults."""
    ap = argparse.ArgumentParser(prog="noiselab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="partition noise stability")
    p.add_argument("partition", help="partition JSON file")
    p.add_argument("--per-cell", action="store_true", help="include per-cell stabilities")
    _add_common(p)

    p = sub.add_parser("sweep", help="stability over a rho grid")
    p.add_argument("partition")
    p.add_argument("--rho-grid", default="0.1:0.9:9",
                   help="start:stop:count or comma-separated values")
    _add_common(p)
    p.set_defaults(format="csv")

    p = sub.add_parser("plurality", help="discrete plurality stability table")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n-list", default="1,3,5")
    p.add_argument("--samples", type=int, default=200_000)
    _add_common(p)
    p.set_defaults(format="csv", budget=400_000)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(SUITES))
    _add_common(p)
    return ap


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_partition(path: str) -> PartitionSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return partition_from_json(doc)
    except (OSError, json.JSONDecodeError, DomainError, KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"cannot load partition {path!r}: {exc}") from exc


class _ParseFailure(Exception):
    pass


def _header(args, seed) -> dict:
    return {
        "schema": SCHEMA,
        "tool": f"noiselab {__version__}",
        "command": args.command,
        "seed": seed,
    }


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()


def cmd_stability(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    p = _load_partition(args.partition)
    if not -1.0 < args.rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    est = partition_stability(p, args.rho, args.budget, seed=seed, threads=args.threads)
    report = _header(args, seed)
    report["rho"] = args.rho
    report["result"] = est.as_dict()
    if args.per_cell:
        report["cells"] = [
            noise_stability(c, args.rho, args.budget, seed=[seed, k], threads=args.threads).as_dict()
            for k, c in enumerate(p.cells)
        ]
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        row = {"rho": args.rho, "seed": seed, **est.as_dict()}
        _emit(_rows_to_csv([row], ["rho", "value", "std_error", "samples", "method", "seed"]),
              args.output)
    return EXIT_OK


def _number(kind, text: str, flag: str):
    """``kind(text)``; text it cannot read is a parse failure of ``flag``."""
    try:
        return kind(text)
    except ValueError as exc:
        raise _ParseFailure(f"bad {flag}: {exc}") from exc


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError("grid must be start:stop:count")
        start, stop, count = (_number(k, t, "--rho-grid") for k, t in zip((float, float, int), parts))
        if count < 1:
            raise DomainError("empty rho grid")
        grid = list(np.linspace(start, stop, count))
    else:
        grid = [_number(float, t, "--rho-grid") for t in spec.split(",") if t.strip()]
    if not grid:
        raise DomainError("empty rho grid")
    if any(not -1.0 < r < 1.0 for r in grid):
        raise DomainError("rho grid leaves (-1, 1)")
    return grid


def cmd_sweep(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    p = _load_partition(args.partition)
    grid = _parse_grid(args.rho_grid)
    # one call for the grid: its deterministic rows come from one batched pair
    # rule, the rhos it samples share one pair stream, and each row equals
    # `stability --rho` at the same seed and budget, bit for bit
    ests = stability_sweep(p, grid, args.budget, seed=seed, threads=args.threads)
    rows = [{"rho": f"{r:.12g}", "value": f"{est.value:.12g}",
             "std_error": f"{est.std_error:.6g}", "samples": est.samples,
             "method": est.method, "seed": seed} for r, est in zip(grid, ests)]
    text = _rows_to_csv(rows, ["rho", "value", "std_error", "samples", "method", "seed"])
    if args.format == "json":
        report = _header(args, seed)
        report["rows"] = rows
        text = json.dumps(report, indent=2) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_plurality(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    n_list = [_number(int, t, "--n-list") for t in args.n_list.split(",") if t.strip()]
    if not n_list or any(n < 1 for n in n_list):
        raise DomainError("n-list must contain positive voter counts")
    rows = plurality_stability_table(args.m, args.rho, n_list, args.samples, seed=seed,
                                     benchmark_budget=args.budget, threads=args.threads)
    if args.format == "json":
        report = _header(args, seed)
        report["rows"] = rows
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit(_rows_to_csv(rows, ["m", "n", "rho", "value", "std_error", "method"]),
              args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in _SUITE_IMPL:
        sys.stderr.write(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}\n")
        return EXIT_UNKNOWN_SUITE
    seed = DEFAULT_SEED if args.seed is None else args.seed
    records = checks.scaled(_SUITE_IMPL[args.suite](seed, args.budget), args.tolerance_scale)
    report = _header(args, seed)
    report["suite"] = args.suite
    report["checks"] = records
    report["pass"] = all(c["pass"] for c in records)
    _emit(json.dumps(report, indent=2, default=float) + "\n", args.output)
    return EXIT_OK if report["pass"] else EXIT_TOLERANCE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite or non-positive scale would pass or fail every scaled check
        if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale > 0):
            raise DomainError(f"--tolerance-scale must be finite and positive, got {args.tolerance_scale}")
        if args.threads < 1:
            raise DomainError(f"--threads must be at least 1, got {args.threads}")
        if args.budget < 1:
            raise DomainError(f"--budget must be at least 1, got {args.budget}")
        if args.command == "plurality" and args.samples < 1:
            raise DomainError(f"--samples must be at least 1, got {args.samples}")
        if args.command == "stability":
            return cmd_stability(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "plurality":
            return cmd_plurality(args)
        if args.command == "verify":
            return cmd_verify(args)
    except _ParseFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (DomainError, CoverageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
