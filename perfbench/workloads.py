"""Seeded inputs, command lines and output oracles of the benchmark workloads.

Inputs depend only on the workload name and the benchmark seed.  noiselab
receives the generated partition files and ``--seed``; nothing else about a
workload reaches it.  The oracles are computed here, from closed forms or from
sampling code of the benchmark's own, except where a check's comment names
the noiselab function it compares against.

An operation is one verify check, one sweep value or one plurality row.  An
exception, an unexpected exit code or an oracle mismatch fails it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("verify", "sweep-quadrature", "sweep-mc", "plurality")

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
SMALL_SUITES = ("bilinear", "gaussian-core")

#: negative, moderate and near-1 correlations.  0.98 is the largest near-1
#: value where the sector quadrature keeps its reported error; at 0.99 it does
#: not, and the self-test test_sector_quadrature_keeps_its_error_at_rho_099
#: records that defect (the benchmark accepts no failing operation)
RHO_QUADRATURE = (-0.9, -0.5, 0.2, 0.5, 0.8, 0.95, 0.98)
RHO_MC = (0.3, 0.6, 0.9)
MC_BUDGET = 500_000
PLURALITY_RHO = 0.4
PLURALITY_TABLES = ((3, (1, 3, 5, 7, 8, 9, 11, 51)), (4, (1, 3, 5, 6, 7, 21)))
PLURALITY_ORACLE_SAMPLES = 200_000

#: the sweep CSV prints values to 12 significant digits
PRINT_TOL = 1e-12
#: statistical checks accept this many combined standard errors
Z_CHECK = 4.0
ORACLE_PAIRS = 1_000_000
_ORACLE_CHUNK = 250_000
TWO_PI = 2.0 * math.pi


@dataclass
class Call:
    """One ``noiselab`` invocation of a pass; ``rows`` operations expected."""

    label: str
    argv: list[str]
    out: Path
    rows: int
    threads: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    calls: list[Call]
    #: per-label facts the oracles need (generators, widths, apexes)
    facts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one invocation returned: exit code (None if it raised) and output."""

    code: int | None
    text: str | None
    error: str = ""


# ---------------------------------------------------------------------------
# seeded inputs


def simplex_generators(m: int, d: int) -> np.ndarray:
    """m unit vectors in R^d with pairwise inner products -1/(m-1)."""
    centered = np.eye(m) - 1.0 / m
    u, _, _ = np.linalg.svd(centered)
    verts = centered @ u[:, : m - 1]
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    out = np.zeros((m, d))
    out[:, : m - 1] = verts
    return out


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _cones(z: np.ndarray) -> list[dict]:
    return [{"kind": "cone", "generators": z.tolist(), "index": k} for k in range(len(z))]


def _sectors(boundaries) -> list[dict]:
    b = list(boundaries)
    cells = []
    for k, start in enumerate(b):
        end = b[(k + 1) % len(b)]
        while end <= start:
            end += TWO_PI
        cells.append({"kind": "sector-2d", "start_angle": start, "end_angle": end})
    return cells


def cone_widths(z: np.ndarray) -> list[float]:
    """Angular widths of the planar maximal-inner-product cells over z:
    cell k runs between the bisectors with its angular neighbours."""
    ang = np.arctan2(z[:, 1], z[:, 0])
    order = np.argsort(ang)
    srt = ang[order]
    widths = np.empty(len(z))
    for pos, k in enumerate(order):
        prev = srt[pos - 1]
        nxt = srt[(pos + 1) % len(z)]
        widths[k] = ((nxt - prev) % TWO_PI) / 2.0
    return widths.tolist()


def quadrature_partitions(seed: int) -> dict:
    """Planar partitions that take noiselab's deterministic sweep route."""
    rng = np.random.default_rng([seed, 1])
    z3 = simplex_generators(3, 2)
    a = math.radians(5.0)
    zp = z3.copy()
    zp[0] = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]) @ zp[0]
    radius, phi = rng.uniform(0.2, 0.8), rng.uniform(0.0, TWO_PI)
    apex = [radius * math.cos(phi), radius * math.sin(phi)]
    # no sector narrower than 0.3 rad or wider than a half-plane, so that every
    # seed asks for about the same quadrature work and memory
    while True:
        widths = rng.dirichlet([3.0] * 4) * TWO_PI
        if widths.min() >= 0.3 and widths.max() < math.pi:
            break
    start = rng.uniform(-math.pi, math.pi)
    b4 = (start + np.concatenate([[0.0], np.cumsum(widths[:-1])])).tolist()
    third = TWO_PI / 3.0
    return {
        "cones3": {"doc": {"dimension": 2, "cells": _cones(z3)}, "widths": cone_widths(z3)},
        "sectors120": {"doc": {"dimension": 2,
                               "cells": _sectors([-math.pi / 3, math.pi / 3, math.pi])},
                       "widths": [third] * 3},
        "perturbed5": {"doc": {"dimension": 2, "cells": _cones(zp)}, "widths": cone_widths(zp)},
        "cones3_x_R": {"doc": {"dimension": 3, "cells": [
            {"kind": "product-with-R", "base": c, "extra_dims": 1} for c in _cones(z3)]},
                       "widths": cone_widths(z3)},
        "cones3_shifted": {"doc": {"dimension": 2, "cells": [
            {"kind": "shifted", "base": c, "shift": apex} for c in _cones(z3)]},
                           "generators": z3, "apex": np.array(apex)},
        "sectors4": {"doc": {"dimension": 2, "cells": _sectors(b4)}, "widths": widths.tolist()},
        "halfplane_sectors": {"doc": {"dimension": 2,
                                      "cells": _sectors([-math.pi / 2, math.pi / 2])},
                              "widths": [math.pi, math.pi]},
    }


def mc_partitions(seed: int) -> dict:
    """Partitions in R^3..R^5 with no deterministic route: Monte Carlo only."""
    rng = np.random.default_rng([seed, 2])
    z3 = simplex_generators(4, 3) @ random_rotation(3, rng).T
    z4 = simplex_generators(5, 4) @ random_rotation(4, rng).T
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    z2 = np.stack([u, -u])
    return {
        "cones_R3": {"doc": {"dimension": 3, "cells": _cones(z3)}, "generators": z3},
        "cones_R4": {"doc": {"dimension": 4, "cells": _cones(z4)}, "generators": z4},
        "cones_R3_x_R2": {"doc": {"dimension": 5, "cells": [
            {"kind": "product-with-R", "base": c, "extra_dims": 2} for c in _cones(z3)]},
                          "same_as": "cones_R3"},
        "halfspaces_R3": {"doc": {"dimension": 3, "cells": _cones(z2)}, "sheppard": True},
    }


def write_inputs(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's partition files; returns label -> facts (with 'path')."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    parts = {"sweep-quadrature": quadrature_partitions,
             "sweep-mc": mc_partitions}.get(name, lambda s: {})(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for label, facts in parts.items():
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(facts["doc"]))
        facts["path"] = path
    return parts


def build(name: str, seed: int, workdir: Path, *, small: bool = False) -> Workload:
    """Inputs and command lines of one pass of the workload.

    ``small`` shrinks grids, budgets and suites to a few seconds in all, for
    the benchmark's self-tests; it changes no metric or check.
    """
    facts = write_inputs(name, seed, workdir)
    s = str(seed)
    calls = []
    if name == "verify":
        for suite in SMALL_SUITES if small else SUITES:
            calls.append(Call(suite, ["verify", suite, "--seed", s], workdir / f"{suite}.out", 1))
    elif name == "sweep-quadrature":
        rhos = (0.5,) if small else RHO_QUADRATURE
        grid = ",".join(repr(r) for r in rhos)
        for label, f in facts.items():
            calls.append(Call(label, ["sweep", str(f["path"]), f"--rho-grid={grid}", "--seed", s],
                              workdir / f"{label}.out", len(rhos)))
    elif name == "sweep-mc":
        rhos, budget = ((0.6,), 20_000) if small else (RHO_MC, MC_BUDGET)
        grid = ",".join(repr(r) for r in rhos)
        for threads in (1, 2):
            for label, f in facts.items():
                calls.append(Call(f"{label}@{threads}t",
                                  ["sweep", str(f["path"]), f"--rho-grid={grid}", "--seed", s,
                                   "--budget", str(budget), "--threads", str(threads)],
                                  workdir / f"{label}@{threads}t.out", len(rhos), threads))
    else:
        for m, ns in PLURALITY_TABLES:
            ns = ns[:2] if small else ns
            calls.append(Call(f"m={m}", ["plurality", "--m", str(m),
                                         "--n-list", ",".join(map(str, ns)),
                                         "--rho", repr(PLURALITY_RHO), "--seed", s,
                                         "--format", "json"],
                              workdir / f"plurality-m{m}.out", len(ns) + 1))
    return Workload(name, seed, calls, facts)


# ---------------------------------------------------------------------------
# independent oracles


def _angle_difference_density(delta: float, rho: float) -> float:
    """Density of angle(Y) - angle(X) for a rho-correlated pair in R^2."""
    b = rho * math.cos(delta)
    s = 1.0 - b * b
    return ((1.0 - rho * rho) / (TWO_PI * s)
            * (1.0 + b * (math.pi / 2 + math.asin(b)) / math.sqrt(s)))


def centered_sector_stability(widths, rho: float) -> float:
    """Stability of a planar partition into sectors with apex 0.

    The angle of X is uniform and independent of the angle difference, so
    P(X, Y in the same sector) = (1/2pi) int f(delta) sum_i overlap_i(delta),
    where overlap_i is the arc length sector i shares with itself rotated by
    delta.  Adaptive quadrature on the pieces where the overlaps are linear.
    """
    # imported here so that setup_probe.py, which times ``import noiselab``,
    # loads nothing through this module that noiselab itself does not
    from scipy import integrate

    ws = [float(w) for w in widths]

    def overlap(delta):
        return sum(max(0.0, w - delta) + max(0.0, w - (TWO_PI - delta)) for w in ws)

    kinks = {w for w in ws if w < math.pi} | {TWO_PI - w for w in ws if w > math.pi}
    edges = [0.0] + sorted(k for k in kinks if 0.0 < k < math.pi) + [math.pi]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda t: _angle_difference_density(t, rho) * overlap(t),
                                lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400)
        total += val
    return 2.0 * total / TWO_PI


def sheppard_pair(rho: float) -> float:
    """Stability of a partition into two half-spaces through the origin."""
    return 0.5 + math.asin(rho) / math.pi


def sampled_stability(cell_of, dim: int, rho_grid, seed) -> dict:
    """Monte Carlo stability from the benchmark's own sampler and membership.

    ``cell_of`` maps an (n, dim) array to cell indices.  Returns
    rho -> (value, standard error) over ORACLE_PAIRS pairs.
    """
    rng = np.random.default_rng(seed)
    hits = {r: 0.0 for r in rho_grid}
    left = ORACLE_PAIRS
    while left:
        k = min(left, _ORACLE_CHUNK)
        x = rng.standard_normal((k, dim))
        z = rng.standard_normal((k, dim))
        cx = cell_of(x)
        for r in rho_grid:
            hits[r] += float(np.count_nonzero(cx == cell_of(r * x + math.sqrt(1 - r * r) * z)))
        left -= k
    out = {}
    for r, h in hits.items():
        p = h / ORACLE_PAIRS
        out[r] = (p, math.sqrt(max(p * (1 - p), 1e-300) / (ORACLE_PAIRS - 1)))
    return out


def argmax_cells(z: np.ndarray, apex=None):
    shift = np.zeros(z.shape[1]) if apex is None else np.asarray(apex)
    return lambda pts: np.argmax((pts[:, : z.shape[1]] - shift) @ z.T, axis=1)


# ---------------------------------------------------------------------------
# checking the outputs of one pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def lost(self, call: Call, why: str):
        self.attempted += call.rows
        self.failed += call.rows
        self.problems.append(f"{call.label}: {why}")


def _parse(call: Call, out: Outcome, tally: Tally):
    """Rows of an invocation's report, or None after counting its failure."""
    if out.code is None:
        tally.lost(call, f"raised {out.error}")
        return None
    try:
        if call.argv[0] == "sweep":
            rows = list(csv.DictReader(io.StringIO(out.text)))
        else:
            doc = json.loads(out.text)
            rows = doc["checks"] if call.argv[0] == "verify" else doc["rows"]
    except (TypeError, ValueError, KeyError) as exc:
        tally.lost(call, f"exit {out.code}, unreadable report ({exc})")
        return None
    if out.code != 0 and call.argv[0] != "verify":
        tally.lost(call, f"exit code {out.code}")
        return None
    if len(rows) != call.rows and call.argv[0] != "verify":
        tally.lost(call, f"{len(rows)} rows, expected {call.rows}")
        return None
    return rows


class Oracle:
    """Reference values for one workload, computed once and reused per pass."""

    def __init__(self, work: Workload):
        self.work = work
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check(self, outcomes: dict) -> Tally:
        tally = Tally()
        getattr(self, "_check_" + self.work.name.replace("-", "_"))(outcomes, tally)
        return tally

    def _check_verify(self, outcomes, tally):
        for call in self.work.calls:
            out = outcomes[call.label]
            rows = _parse(call, out, tally)
            if rows is None:
                continue
            for row in rows:
                tally.check(bool(row.get("pass")), f"{call.label}/{row.get('check')}: "
                            f"residual {row.get('residual')} > tolerance {row.get('tolerance')}")
            if out.code != 0 and all(row.get("pass") for row in rows):
                tally.check(False, f"{call.label}: exit code {out.code} with every check passing")
            if not rows:
                tally.check(False, f"{call.label}: no checks reported")

    def _check_sweep_quadrature(self, outcomes, tally):
        facts = self.work.facts
        parsed = {}
        rhos = set()
        for call in self.work.calls:
            rows = _parse(call, outcomes[call.label], tally)
            if rows is not None:
                parsed[call.label] = {float(r["rho"]): (float(r["value"]), float(r["std_error"]))
                                      for r in rows}
                rhos |= set(parsed[call.label])
        for label, vals in parsed.items():
            for rho, (v, err) in vals.items():
                tol = err + PRINT_TOL
                if label == "halfplane_sectors":
                    ref, how = sheppard_pair(rho), "Sheppard"
                elif label in ("sectors120", "cones3_x_R") and "cones3" in parsed:
                    ref, base_err = parsed["cones3"][rho]
                    tol += base_err + PRINT_TOL
                    how = "cones3"
                elif label == "cones3_shifted":
                    f = facts[label]
                    ref, se = self._memo(label, lambda: sampled_stability(
                        argmax_cells(f["generators"], f["apex"]), 2, sorted(rhos),
                        [self.work.seed, 3]))[rho]
                    tol += Z_CHECK * se
                    how = "sampled"
                else:
                    ref = self._memo((label, rho), lambda: centered_sector_stability(
                        facts[label]["widths"], rho))
                    how = "angle-difference quadrature"
                tally.check(abs(v - ref) <= tol, f"{label} rho={rho}: {v!r} vs {how} {ref!r}, "
                            f"|diff| {abs(v - ref):.3g} > allowed {tol:.3g}")

    def _check_sweep_mc(self, outcomes, tally):
        facts = self.work.facts
        parsed, rhos = {}, set()
        for call in self.work.calls:
            rows = _parse(call, outcomes[call.label], tally)
            if rows is not None:
                parsed[call.label] = {float(r["rho"]): r for r in rows}
                rhos |= set(parsed[call.label])
        for call in self.work.calls:
            if call.label not in parsed:
                continue
            label = call.label.rsplit("@", 1)[0]
            for rho, row in parsed[call.label].items():
                v, se = float(row["value"]), float(row["std_error"])
                if call.threads > 1:
                    one = parsed.get(f"{label}@1t", {}).get(rho)
                    same = one is not None and (one["value"], one["std_error"]) == (
                        row["value"], row["std_error"])
                    tally.check(same, f"{call.label} rho={rho}: {row['value']} differs from "
                                f"--threads 1 {one and one['value']}")
                    continue
                f = facts[label]
                if f.get("sheppard"):
                    ref, ref_se, how = sheppard_pair(rho), 0.0, "Sheppard"
                elif "same_as" in f:
                    base = parsed.get(f"{f['same_as']}@1t", {}).get(rho)
                    if base is None:
                        tally.check(False, f"{call.label} rho={rho}: no {f['same_as']} value")
                        continue
                    ref, ref_se, how = float(base["value"]), float(base["std_error"]), f["same_as"]
                else:
                    ref, ref_se = self._memo(label, lambda: sampled_stability(
                        argmax_cells(f["generators"]), f["generators"].shape[1], sorted(rhos),
                        [self.work.seed, 4]))[rho]
                    how = "sampled"
                tol = Z_CHECK * math.hypot(se, ref_se) + PRINT_TOL
                tally.check(abs(v - ref) <= tol, f"{call.label} rho={rho}: {v!r} vs {how} "
                            f"{ref!r}, |diff| {abs(v - ref):.3g} > allowed {tol:.3g}")

    def _check_plurality(self, outcomes, tally):
        from noiselab.voting import plurality_stability_mc

        rho = PLURALITY_RHO
        for call in self.work.calls:
            rows = _parse(call, outcomes[call.label], tally)
            if rows is None:
                continue
            for row in rows:
                m, n = int(row["m"]), row["n"]
                v, se = float(row["value"]), float(row["std_error"])
                if n == 1:
                    ref, tol, how = (1 + (m - 1) * rho) / m, 1e-12, "(1 + (m-1) rho)/m"
                elif n == "limit" and m == 3:
                    ref = self._memo("limit3", lambda: centered_sector_stability(
                        [TWO_PI / 3] * 3, rho))
                    tol, how = se, "angle-difference quadrature"
                elif n == "limit":
                    ref, ref_se = self._memo(("limit", m), lambda: sampled_stability(
                        argmax_cells(simplex_generators(m, m - 1)), m - 1, [rho],
                        [self.work.seed, 5, m]))[rho]
                    tol, how = Z_CHECK * math.hypot(se, ref_se), "sampled"
                else:
                    # noiselab's own plurality sampler, at an independent seed
                    est = self._memo((m, n), lambda: plurality_stability_mc(
                        m, int(n), rho, PLURALITY_ORACLE_SAMPLES, seed=[self.work.seed, 6, m, n]))
                    ref = est.value
                    tol = Z_CHECK * math.hypot(se, est.std_error)
                    how = "plurality_stability_mc"
                tally.check(abs(v - ref) <= tol, f"m={m} n={n}: {v!r} vs {how} {ref!r}, "
                            f"|diff| {abs(v - ref):.3g} > allowed {tol:.3g}")
