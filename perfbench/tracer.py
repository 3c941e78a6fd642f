"""Per-module tracing of noiselab from outside the package.

:class:`Tracer` replaces every binding of the listed public functions and
methods with a wrapper that records a span (name, start, end, parent) and
restores the originals on exit.  noiselab modules import each other with
``from .gauss import X``, so every module attribute that holds the original
function object is patched, not just the defining module's; methods are
patched on their class.  Spans stay in memory until the traced pass ends.

Shard work that ``mc_mean`` and ``mc_shard_means`` hand to a thread pool does
not inherit the caller's context variables, so the shard callback is wrapped
to re-enter the enclosing span explicitly; its busy time feeds
``gauss.mc_mean.parallel_eff``.

A span's self time is its duration minus the union of its child spans'
intervals (children may overlap when shards run on two threads).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import math
import sys
import time

import numpy as np

from workloads import SUITES

LAYERS = {
    "variation": ("second_variation_translation", "stability_second_derivative",
                  "hyperstability_probe", "first_variation_constancy",
                  "translation_eigen_residual", "dilation_eigen_residual",
                  "bilinear_variation_suite", "gradient_difference", "sij_operator",
                  "t_difference"),
    "stability": ("partition_stability", "partition_stability_quadrature",
                  "bilinear_stability", "propeller_functional"),
    "partitions": ("shifted_sector_mass", "shifted_sector_pair_stability",
                   "PartitionSpec.membership", "Facet.gauss_integral",
                   "PartitionSpec.all_interfaces", "PartitionSpec.boundary_sample",
                   "ConeCell.sector_decomposition", "partition_from_json"),
    "gauss": ("mc_mean", "mc_shard_means", "ou_apply", "ou_gradient_quadrature",
              "ou_rho_derivative", "bivariate_normal_cdf"),
    "voting": ("plurality", "discrete_noise_stability", "apply_noise",
               "plurality_stability_mc", "sample_noisy_profiles"),
}
_SHARDED = ("gauss.mc_mean", "gauss.mc_shard_means")
_MARK = "_perfbench_original"


def _count_args(fn, extract):
    """Adapter binding a call's arguments by name before ``extract`` sees them."""
    sig = inspect.signature(fn)

    def extra(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return extract(bound.arguments)

    return extra


def _sector_nodes(a):
    # apexes x angular nodes, with the panel rule of partitions._leg_panels
    apex = a["apex"]
    n_apex = 1 if np.ndim(apex) == 1 else len(apex)
    width = a["beta"] - a["alpha"]
    panels = max(1, math.ceil(width / (math.pi / 2))) if width > 0 else 0
    return n_apex * a["nodes"] * panels


def _points(a):
    shape = np.shape(a["points"])
    return 1 if len(shape) <= 1 else shape[0]


_EXTRAS = {
    "partitions.shifted_sector_mass": _sector_nodes,
    "partitions.PartitionSpec.membership": _points,
    "voting.plurality_stability_mc": lambda a: a["samples"],
}


def _put(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Context manager that traces noiselab calls made inside it."""

    def __init__(self):
        self.spans = []          # (id, parent, name, t0, t1, extra)
        self.shard_busy = []     # (mc span id, seconds)
        self.node_tables = []    # span id current at each leggauss call
        self.missing = []
        self._patches = []       # (module, class or dict; key; original)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)

    # -- patching ---------------------------------------------------------------
    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for container, key, original in reversed(self._patches):
            _put(container, key, original)
        self._patches.clear()

    def _set(self, container, key, value):
        original = container[key] if isinstance(container, dict) else getattr(container, key)
        self._patches.append((container, key, original))
        _put(container, key, value)

    def _install(self):
        legendre = np.polynomial.legendre
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "noiselab" or name.startswith("noiselab."))]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"noiselab.{layer}")
            for qual in names:
                self._patch_target(layer, mod, qual, modules)
        cli = importlib.import_module("noiselab.cli")
        impl = getattr(cli, "_SUITE_IMPL", None)
        for suite in SUITES:
            fn = impl.get(suite) if isinstance(impl, dict) else None
            if fn is None:
                self.missing.append(f"cli suite {suite}")
                continue
            wrapped = self._wrap(f"cli.verify.{suite}", fn)
            self._set(impl, suite, wrapped)
            self._rebind(modules, fn, wrapped)
        self._rebind(modules, cli.main, self._wrap("cli.main", cli.main))
        leggauss = legendre.leggauss
        node_tables, current = self.node_tables, self._current

        def counted_leggauss(*args, **kwargs):
            node_tables.append(current.get())
            return leggauss(*args, **kwargs)

        setattr(counted_leggauss, _MARK, leggauss)
        self._set(legendre, "leggauss", counted_leggauss)

    def _patch_target(self, layer, mod, qual, modules):
        name = f"{layer}.{qual}"
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = owner.__dict__.get(attr) if owner is not None else None
        if not callable(fn):
            self.missing.append(name)
            return
        wrapped = self._wrap(name, fn)
        if owner_name:
            self._set(owner, attr, wrapped)
        else:
            self._rebind(modules, fn, wrapped)

    def _rebind(self, modules, fn, wrapped):
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, key, wrapped)

    def _wrap(self, name, fn):
        spans, ids, current = self.spans, self._ids, self._current
        sharded = name in _SHARDED
        if sharded:
            extra = _count_args(fn, lambda a: (a["n"], a["threads"]))
        else:
            extra = _count_args(fn, _EXTRAS[name]) if name in _EXTRAS else None
        busy = self.shard_busy
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            if sharded:
                values_fn = args[0] if args else kwargs.pop("values_fn")

                def shard(rng, k):
                    inner = current.set(sid)
                    s0 = perf()
                    try:
                        return values_fn(rng, k)
                    finally:
                        busy.append((sid, perf() - s0))
                        current.reset(inner)

                args = (shard,) + tuple(args[1:])
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                current.reset(token)
                info = extra(args, kwargs) if extra is not None else None
                spans.append((sid, parent, name, t0, t1, info))

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- metrics ------------------------------------------------------------------
    def _self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        out = {}
        for sid, _, _, t0, t1, _ in self.spans:
            covered, end = 0.0, t0
            for _, _, _, c0, c1, _ in sorted(children.get(sid, ()), key=lambda s: s[3]):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self) -> dict:
        """Per-layer counts, self times and named extras, keyed by metric name."""
        own = self._self_times()
        calls, self_s, total_s = {}, {}, {}
        for sid, _, name, t0, t1, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[sid]
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)

        out = {}
        for layer, names in LAYERS.items():
            for qual in names:
                name = f"{layer}.{qual}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for suite in SUITES:
            out[f"cli.verify.{suite}.s"] = total_s.get(f"cli.verify.{suite}", 0.0)
        out["cli.self_s"] = self_s.get("cli.main", 0.0)

        def summed(name, pick=lambda info: info):
            return sum(pick(s[5]) for s in self.spans if s[2] == name)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        mass = "partitions.shifted_sector_mass"
        out[f"{mass}.node_evals"] = summed(mass)
        out[f"{mass}.node_evals_per_s"] = rate(out[f"{mass}.node_evals"], self_s.get(mass, 0.0))
        mass_ids = {s[0] for s in self.spans if s[2] == mass}
        tables = sum(1 for sid in self.node_tables if sid in mass_ids)
        out["partitions.node_tables_per_mass_call"] = rate(tables, calls.get(mass, 0))
        member = "partitions.PartitionSpec.membership"
        out[f"{member}.points"] = summed(member)
        out[f"{member}.points_per_s"] = rate(out[f"{member}.points"], total_s.get(member, 0.0))
        mc = "gauss.mc_mean"
        out[f"{mc}.pairs"] = summed(mc, lambda info: info[0])
        out[f"{mc}.pairs_per_s"] = rate(out[f"{mc}.pairs"], total_s.get(mc, 0.0))
        threaded = {s[0]: (s[4] - s[3]) * s[5][1] for s in self.spans
                    if s[2] == mc and s[5][1] > 1}
        busy = sum(b for sid, b in self.shard_busy if sid in threaded)
        out[f"{mc}.parallel_eff"] = rate(busy, sum(threaded.values()))
        mcv = "voting.plurality_stability_mc"
        out[f"{mcv}.samples_per_s"] = rate(summed(mcv), total_s.get(mcv, 0.0))
        suite = "cli.verify.second-variation"
        out[f"{suite}.sector_mass_share"] = rate(self._spent_under(suite, mass, own),
                                                 total_s.get(suite, 0.0))
        return out

    def _spent_under(self, outer: str, inner: str, own: dict) -> float:
        """Self time of ``inner`` spans that run inside an ``outer`` span."""
        parent_of = {s[0]: s[1] for s in self.spans}
        outer_ids = {s[0] for s in self.spans if s[2] == outer}
        spent = 0.0
        for sid, parent, name, *_ in self.spans:
            if name != inner:
                continue
            while parent and parent not in outer_ids:
                parent = parent_of.get(parent, 0)
            if parent:
                spent += own[sid]
        return spent


def leftover_wrappers() -> list[str]:
    """Names of noiselab (and leggauss) bindings still holding a tracer wrapper."""
    found = []
    spaces = [("numpy.polynomial.legendre", vars(np.polynomial.legendre))]
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "noiselab" or name.startswith("noiselab.")):
            continue
        spaces.append((name, vars(mod)))
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__.startswith("noiselab"):
                spaces.append((f"{name}.{key}", vars(value)))
            elif isinstance(value, dict):
                spaces.append((f"{name}.{key}", value))
    for where, space in spaces:
        for key, value in list(space.items()):
            if callable(value) and hasattr(value, _MARK):
                found.append(f"{where}.{key}")
    return found
