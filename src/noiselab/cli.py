"""Batch command-line front end.

Subcommands:

  stability  PARTITION.json   one partition-stability estimate (JSON/CSV)
  sweep      PARTITION.json   stability over a rho grid (CSV); one Monte Carlo
                              pair stream serves the whole grid, and the row
                              at rho equals `stability --rho rho` at the same
                              seed and budget
  plurality                   discrete plurality stability table (CSV)
  verify     SUITE            run a named identity-verification suite and
                              exit nonzero if any residual exceeds tolerance

All randomness flows from --seed; omitting it selects a recorded default that
is printed in the report header.  Exit codes: 0 success, 2 parse failure,
3 validation failure, 4 unknown suite, 5 verification tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .gauss import DomainError, bivariate_normal_cdf, kernel_g, ou_apply, sample_correlated_pair
from .partitions import (
    CoverageError,
    PartitionSpec,
    cone_partition,
    halfspace_partition,
    partition_from_json,
    perturbed_simplex_cones,
    simplex_cone_partition,
    three_sectors_120,
)
from .stability import (
    bilinear_stability,
    half_space_stability_closed_form,
    noise_stability,
    partition_stability,
    propeller_functional,
    sheppard_half_space,
    stability_sweep,
)
from .variation import (
    DilationField,
    TranslationField,
    bilinear_variation_suite,
    dilation_eigen_residual,
    first_variation_constancy,
    hyperstability_probe,
    second_variation_translation,
    stability_second_derivative,
    translation_eigen_residual,
)
from .voting import plurality_stability_table

DEFAULT_SEED = 20240901
SCHEMA = "1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNKNOWN_SUITE = 4
EXIT_TOLERANCE = 5

SUITES = (
    "first-variation",
    "translation-eigen",
    "dilation-eigen",
    "second-variation",
    "bilinear",
    "hyperstability",
    "propeller",
    "gaussian-core",
)


def _add_common(sub):
    sub.add_argument("--rho", type=float, default=0.5)
    sub.add_argument("--budget", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--tolerance-scale", type=float, default=1.0)
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(format="csv")

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


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError("grid must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise DomainError("empty rho grid")
        grid = list(np.linspace(start, stop, count))
    else:
        grid = [float(t) for t in spec.split(",") if t.strip()]
    if not grid:
        raise DomainError("empty rho grid")
    if any(not -1.0 < r < 1.0 for r in grid):
        raise DomainError("rho grid leaves (-1, 1)")
    return grid


def cmd_sweep(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    p = _load_partition(args.partition)
    grid = _parse_grid(args.rho_grid)
    # one call for the grid: the rhos it samples share one pair stream, and each
    # row equals `stability --rho` at the same seed and budget
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
    try:
        n_list = [int(t) for t in args.n_list.split(",") if t.strip()]
    except ValueError as exc:
        raise _ParseFailure(f"bad --n-list: {exc}") from exc
    if not n_list or any(n < 1 for n in n_list):
        raise DomainError("n-list must contain positive voter counts")
    rows = plurality_stability_table(args.m, args.rho, n_list, args.samples, seed=seed)
    if args.format == "json":
        report = _header(args, seed)
        report["rows"] = rows
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit(_rows_to_csv(rows, ["m", "n", "rho", "value", "std_error", "method"]),
              args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _check(name, value, tolerance, *, target=0.0, direction="abs") -> dict:
    """One pass/fail record; direction "abs" needs |value - target| <= tol,
    "le" needs value <= target + tol."""
    if direction == "abs":
        ok = abs(value - target) <= tolerance
        residual = abs(value - target)
    else:
        ok = value <= target + tolerance
        residual = value - target
    return {"check": name, "value": value, "target": target,
            "residual": residual, "tolerance": tolerance, "pass": bool(ok)}


def _suite_first_variation(seed, scale, budget):
    checks = []
    p3 = simplex_cone_partition(3)
    for rho in (0.3, 0.7):
        rep = first_variation_constancy(p3, rho, 0, 1, 60, budget=budget, seed=[seed, 1])
        checks.append(_check(f"cones-deviation-rho={rho}", rep.max_deviation,
                             scale * (3 * rep.pointwise_error + 1e-9)))
    pp = perturbed_simplex_cones(3, angle_deg=5.0)
    rep = first_variation_constancy(pp, 0.3, 0, 1, 60, budget=budget, seed=[seed, 2])
    checks.append(_check("perturbed-deviation-exceeds", float(rep.max_deviation > 1e-4), 0.0,
                         target=1.0))
    return checks


def _suite_translation_eigen(seed, scale, budget):
    checks = []
    for a in (0.0, 0.5):
        hp = halfspace_partition([1.0, 0.0], a)
        for rho in (0.3, 0.7):
            rep = translation_eigen_residual(hp, rho, [1.0, 0.0], 0, 1, 8, budget=budget,
                                             seed=[seed, 3])
            checks.append(_check(f"halfspace-a={a}-rho={rho}", rep.max_residual, scale * 1e-6))
    p3 = simplex_cone_partition(3)
    z = p3.cells[0].generators
    rep = translation_eigen_residual(p3, 0.5, z[0], 0, 1, 12, budget=budget, seed=[seed, 4])
    checks.append(_check("cones-z1", rep.max_residual, scale * rep.tolerance))
    return checks


def _suite_dilation_eigen(seed, scale, budget):
    checks = []
    hp = halfspace_partition([1.0, 0.0], 1.0)
    rep = dilation_eigen_residual(hp, 0.5, 0, 1, 8, budget=budget, seed=[seed, 5])
    checks.append(_check("halfspace-a=1", rep.max_residual, scale * rep.tolerance))
    p3 = simplex_cone_partition(3)
    rep = dilation_eigen_residual(p3, 0.5, 0, 1, 12, budget=budget, seed=[seed, 6])
    checks.append(_check("cones", rep.max_residual, scale * rep.tolerance))
    return checks


def _suite_second_variation(seed, scale, budget):
    checks = []
    for m, rho in ((2, 0.3), (2, 0.7), (3, 0.3), (3, 0.7)):
        p = halfspace_partition([1.0, 0.0], 0.0) if m == 2 else simplex_cone_partition(3)
        v = np.array([1.0, 0.0]) if m == 2 else p.cells[0].generators[0]
        closed = second_variation_translation(p, rho, v, budget=budget, seed=[seed, 7])
        fd = stability_second_derivative(p, rho, TranslationField(v))
        tol = scale * (3 * (closed.std_error + fd.std_error) + 1e-4)
        checks.append(_check(f"m={m}-rho={rho}", 2 * closed.value - fd.value, tol))
    return checks


def _suite_bilinear(seed, scale, budget):
    checks = []
    p = halfspace_partition([1.0], 0.0)
    q = p.negated()
    rep = bilinear_variation_suite(p, q, 0.5, v=[1.0], budget=budget, seed=[seed, 8])
    checks.append(_check("pair-eigen-residual", rep.eigen_max_residual, scale * 1e-6))
    checks.append(_check("pair-sign-normal", float(rep.sign_min_normal_component > 0), 0.0, target=1.0))
    checks.append(_check("translation-form-nonpositive", rep.translation_form.value,
                         scale * 3 * rep.translation_form.std_error, direction="le"))
    checks.append(_check("form-vs-fd", rep.translation_form.value - rep.translation_fd.value,
                         scale * (3 * (rep.translation_form.std_error + rep.translation_fd.std_error) + 1e-4)))
    b_same = bilinear_stability(p, p, 0.5)
    b_opp = bilinear_stability(p, q, 0.5)
    checks.append(_check("containment-direction", float(b_same.value > b_opp.value), 0.0, target=1.0))
    return checks


def _suite_hyperstability(seed, scale, budget):
    checks = []
    p3 = simplex_cone_partition(3)
    rep = hyperstability_probe(p3, 0.5, DilationField(), budget=budget, seed=[seed, 9])
    checks.append(_check("cones-dilation-d2s", rep.second_s.value,
                         scale * (3 * rep.second_s.std_error + 1e-4)))
    checks.append(_check("cones-dilation-mixed", rep.mixed_s_rho.value,
                         scale * (3 * rep.mixed_s_rho.std_error + 1e-4)))
    z = p3.cells[0].generators
    rep = hyperstability_probe(p3, 0.5, TranslationField(z[0]), budget=budget, seed=[seed, 10])
    checks.append(_check("cones-translation-mixed", rep.mixed_s_rho.value,
                         scale * (3 * rep.mixed_s_rho.std_error + 1e-4)))
    pp = perturbed_simplex_cones(3, angle_deg=5.0)
    rep = hyperstability_probe(pp, 0.5, TranslationField(z[0]), budget=budget, seed=[seed, 11],
                               volume_policy="skip")
    checks.append(_check("perturbed-flagged", float(rep.second_s.value > 3 * rep.second_s.std_error),
                         0.0, target=1.0))
    return checks


def _suite_propeller(seed, scale, budget):
    checks = []
    est = propeller_functional(three_sectors_120())
    bound = 9.0 / (8.0 * math.pi)
    checks.append(_check("three-sectors-equality", est.value, scale * 1e-3, target=bound))
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(10):
        gens = rng.standard_normal((4, 3))
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        est = propeller_functional(cone_partition(gens), budget=budget, seed=[seed, 12])
        worst = max(worst, est.value + 3 * est.std_error)
    checks.append(_check("random-3d-cones-below-bound", worst, 0.0, target=bound, direction="le"))
    return checks


def _suite_gaussian_core(seed, scale, budget):
    checks = []
    checks.append(_check("bvn-independence", bivariate_normal_cdf(0, 0, 1e-12), scale * 1e-9,
                         target=0.25))
    checks.append(_check("bvn-arcsine", bivariate_normal_cdf(0, 0, 0.5), scale * 1e-9,
                         target=1.0 / 3.0))
    checks.append(_check("closed-form-halfspace", half_space_stability_closed_form(0.5, 0.5),
                         scale * 1e-8, target=sheppard_half_space(0.5)))
    x, y = sample_correlated_pair(0.7, 3, 400_000, seed=seed)
    emp = float(np.mean(x[:, 0] * y[:, 0]))
    checks.append(_check("pair-correlation", emp, scale * 3 * 1.5 / math.sqrt(400_000), target=0.7))
    hp = halfspace_partition([1.0, 0.0], 0.0).cells[0]
    est = ou_apply(hp, 0.4, np.zeros(2), budget)
    checks.append(_check("ou-halfspace-center", est.value, scale * 1e-9, target=0.5))
    g = kernel_g(np.array([0.3, -0.1]), np.array([0.2, 0.5]), 0.4)
    g_t = kernel_g(np.array([0.2, 0.5]), np.array([0.3, -0.1]), 0.4)
    checks.append(_check("kernel-symmetry", g - g_t, 0.0))
    return checks


_SUITE_IMPL = {
    "first-variation": _suite_first_variation,
    "translation-eigen": _suite_translation_eigen,
    "dilation-eigen": _suite_dilation_eigen,
    "second-variation": _suite_second_variation,
    "bilinear": _suite_bilinear,
    "hyperstability": _suite_hyperstability,
    "propeller": _suite_propeller,
    "gaussian-core": _suite_gaussian_core,
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITE_IMPL:
        sys.stderr.write(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}\n")
        return EXIT_UNKNOWN_SUITE
    seed = DEFAULT_SEED if args.seed is None else args.seed
    checks = _SUITE_IMPL[args.suite](seed, args.tolerance_scale, args.budget)
    report = _header(args, seed)
    report["suite"] = args.suite
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks)
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
