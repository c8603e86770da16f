"""In-memory spans around the public functions of each szdet layer.

The tracer rebinds, from outside the library, every module-level name that
refers to a traced function (``szdet.regdet.log_g1``, ``szdet.gfuncs.log_gamma``,
``szdet.zetas.norm_of_trace``, ...) and every traced method on its class, so
calls made by the library itself pass through a wrapper.  A wrapper records
one span ``[name, parent span, op, start, end]`` and, for cached layers, a
hit or miss.  ``uninstall`` restores the original objects, so an untraced
operation runs the library exactly as shipped.

Spans recorded before the first operation belong to set-up (op = SETUP).
``layer_metrics`` turns them into the per-layer metrics named in
``LAYER_METRICS``: every ``calls``, ``s`` and ``self_s`` value is the set-up
total plus the mean over traced operations, so a layer that runs only in
set-up (enumeration on ``deep_sweep``) and one that runs in every operation
(enumeration on ``cli_cold``) are both visible.  A layer's self time is its
spans' duration minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SETUP = -1

# (span name, defining module, attribute): every binding of the function in
# any loaded szdet module is replaced by one wrapper.
FUNCTIONS = (
    ("zetas.euler", "szdet.zetas", "selberg_log_z"),
    ("zetas.norm", "szdet.zetas", "norm_of_trace"),
    ("zetas.table.load", "szdet.zetas", "load_geodesic_table"),
    ("gfuncs.log_g1", "szdet.gfuncs", "log_g1"),
    ("gfuncs.coefficients", "szdet.gfuncs", "g1_coefficients"),
    ("numerics.log_gamma", "szdet.numerics", "log_gamma"),
    ("numerics.log_barnes_g", "szdet.numerics", "log_barnes_g"),
    ("numerics.riemann_zeta", "szdet.numerics", "riemann_zeta"),
    ("numerics.zeta_prime_minus1", "szdet.numerics", "zeta_prime_minus1"),
    ("regdet.det_squared", "szdet.regdet", "det_squared"),
    ("regdet.d_plus", "szdet.regdet", "d_plus"),
    ("regdet.d_minus", "szdet.regdet", "d_minus"),
    ("regdet.phi_from_superzeta", "szdet.regdet", "phi_from_superzeta"),
    ("elliptic.m_n_floor", "szdet.elliptic", "m_n_floor"),
    ("elliptic.m_n_spectral", "szdet.elliptic", "m_n_spectral"),
    ("cli.load_document", "szdet.cli", "_load_document"),
    ("cli.detsq", "szdet.cli", "cmd_detsq"),
    ("cli.emit", "szdet.cli", "emit_table"),
)

# (span name, defining module, class, method)
METHODS = (
    ("zetas.enumerate", "szdet.zetas", "ModularGeodesicSource", "classes"),
    ("zetas.table.classes", "szdet.zetas", "ListGeodesicSource", "classes"),
    ("zetas.phi", "szdet.zetas", "ModularScattering", "phi"),
    ("zetas.phi", "szdet.zetas", "GenericScattering", "phi"),
    ("regdet.log_z", "szdet.regdet", "SurfaceContext", "log_z"),
)

# Per-layer metrics in output order: (name, unit, better).
LAYER_METRICS = (
    ("zetas.enumerate.calls", "count", "lower"),
    ("zetas.enumerate.s", "s", "lower"),
    ("zetas.enumerate.classes", "count", "lower"),
    ("zetas.enumerate.traces", "count", "lower"),
    ("zetas.enumerate.cache_hit_ratio", "ratio", "higher"),
    ("zetas.euler.calls", "count", "lower"),
    ("zetas.euler.self_s", "s", "lower"),
    ("zetas.euler.classes_summed", "count", "lower"),
    ("zetas.norm.calls", "count", "lower"),
    ("zetas.norm.s", "s", "lower"),
    ("zetas.table.load_s", "s", "lower"),
    ("zetas.table.bytes", "B", "lower"),
    ("zetas.table.classes", "count", "lower"),
    ("zetas.table.classes_s", "s", "lower"),
    ("zetas.phi.calls", "count", "lower"),
    ("zetas.phi.self_s", "s", "lower"),
    ("gfuncs.log_g1.calls", "count", "lower"),
    ("gfuncs.log_g1.self_s", "s", "lower"),
    ("gfuncs.coefficients.calls", "count", "lower"),
    ("gfuncs.coefficients.s", "s", "lower"),
    ("gfuncs.coefficients.cache_hit_ratio", "ratio", "higher"),
    ("numerics.log_gamma.calls", "count", "lower"),
    ("numerics.log_gamma.s", "s", "lower"),
    ("numerics.log_barnes_g.calls", "count", "lower"),
    ("numerics.log_barnes_g.s", "s", "lower"),
    ("numerics.riemann_zeta.calls", "count", "lower"),
    ("numerics.riemann_zeta.s", "s", "lower"),
    ("numerics.zeta_prime_minus1.calls", "count", "lower"),
    ("numerics.zeta_prime_minus1.s", "s", "lower"),
    ("regdet.assemble.self_s", "s", "lower"),
    ("regdet.log_z.cache_hit_ratio", "ratio", "higher"),
    ("regdet.log_g1_per_op", "count", "lower"),
    ("regdet.phi_per_op", "count", "lower"),
    ("elliptic.m_n_floor.calls", "count", "lower"),
    ("elliptic.m_n_floor.s", "s", "lower"),
    ("elliptic.m_n_spectral.calls", "count", "lower"),
    ("elliptic.m_n_spectral.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_document_s", "s", "lower"),
    ("cli.detsq_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _cache_size(attr):
    return lambda args: len(getattr(args[0], attr, ()))


def _count_summed(tracer, result, parent):
    if parent == "zetas.euler":
        tracer.count("zetas.euler.classes_summed", len(result))


def _enumerate_post(tracer, args, before, result, parent):
    _count_summed(tracer, result, parent)
    if len(getattr(args[0], "_cache", ())) == before:
        tracer.count("zetas.enumerate.hits")
    else:
        tracer.gauges["zetas.enumerate.classes"] = len(result)
        tracer.gauges["zetas.enumerate.traces"] = len({c.trace for c in result})


def _table_classes_post(tracer, args, before, result, parent):
    _count_summed(tracer, result, parent)


def _table_load_post(tracer, args, before, result, parent):
    tracer.gauges["zetas.table.bytes"] = os.path.getsize(args[0])
    tracer.gauges["zetas.table.classes"] = len(result.entries)


def _log_z_post(tracer, args, before, result, parent):
    if len(getattr(args[0], "_logz_cache", ())) == before:
        tracer.count("regdet.log_z.hits")


# span name -> (pre(args) -> state, post(tracer, args, state, result, parent name))
HOOKS = {
    "zetas.enumerate": (_cache_size("_cache"), _enumerate_post),
    "zetas.table.classes": (None, _table_classes_post),
    "zetas.table.load": (None, _table_load_post),
    "regdet.log_z": (_cache_size("_logz_cache"), _log_z_post),
}


def _lru_hooks(name, fn):
    """Hit counting for a functools.lru_cache function, from its cache_info()."""

    def post(tracer, args, before, result, parent):
        if fn.cache_info().hits > before:
            tracer.count(name + ".hits")

    return (lambda args: fn.cache_info().hits), post


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, op, start, end]
        self.counts = Counter()  # (phase, key) -> summed value
        self.gauges = {}  # key -> last observed value
        self.op = SETUP
        self._stack = []
        self._patches = []

    def phase(self) -> str:
        return "setup" if self.op == SETUP else "ops"

    def count(self, key, value=1):
        self.counts[(self.phase(), key)] += value

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            before = pre(args) if pre is not None else None
            record = [name, parent, tracer.op, 0.0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[3] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if post is not None:
                parent_name = tracer.spans[parent][0] if parent >= 0 else None
                post(tracer, args, before, return_value, parent_name)
            return return_value

        return wrapper

    def install(self):
        """Rebind every traced function and method in the loaded szdet modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "szdet" or n.startswith("szdet."))
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                hooks = _lru_hooks(name, original)
            else:
                hooks = HOOKS.get(name, (None, None))
            wrapper = self.wrap(name, original, *hooks)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None:
                self._patch(cls, attr, self.wrap(name, original, *HOOKS.get(name, (None, None))))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- exchange with a traced child process --------------------------------

    def dump(self, path, extra=None):
        data = {
            "spans": self.spans,
            "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
            "gauges": self.gauges,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)

    def merge(self, data):
        """Add a child's spans and counts to the current operation."""
        offset = len(self.spans)
        for name, parent, _op, start, end in data["spans"]:
            self.spans.append(
                [name, parent + offset if parent >= 0 else -1, self.op, start, end]
            )
        for _phase, key, value in data["counts"]:
            self.count(key, value)
        self.gauges.update(data["gauges"])

    # -- aggregation ---------------------------------------------------------

    def span_stats(self):
        """name -> phase -> [calls, total seconds, self seconds]."""
        covered = defaultdict(float)
        for _name, parent, _op, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: {"setup": [0, 0.0, 0.0], "ops": [0, 0.0, 0.0]})
        for i, (name, _parent, op, start, end) in enumerate(self.spans):
            row = stats[name]["setup" if op == SETUP else "ops"]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return stats


def layer_metrics(tracer: Tracer, ops: int, op_s: float, overhead_ratio: float):
    """Per-layer metric values, keyed by the names in LAYER_METRICS."""
    stats = tracer.span_stats()
    n = max(ops, 1)

    def amortised(names, field):
        setup = sum(stats[x]["setup"][field] for x in names if x in stats)
        per_op = sum(stats[x]["ops"][field] for x in names if x in stats)
        return setup + per_op / n

    def counted(key):
        return tracer.counts[("setup", key)] + tracer.counts[("ops", key)] / n

    def per_op(name):
        return stats[name]["ops"][0] / n if name in stats else 0

    def ratio(hits_key, names):
        calls = sum(stats[x][p][0] for x in names if x in stats for p in ("setup", "ops"))
        hits = tracer.counts[("setup", hits_key)] + tracer.counts[("ops", hits_key)]
        return hits / calls if calls else 0.0

    regdet = [x for x in stats if x.startswith("regdet.")]
    values = {
        "zetas.enumerate.calls": amortised(["zetas.enumerate"], 0),
        "zetas.enumerate.s": amortised(["zetas.enumerate"], 1),
        "zetas.enumerate.classes": tracer.gauges.get("zetas.enumerate.classes", 0),
        "zetas.enumerate.traces": tracer.gauges.get("zetas.enumerate.traces", 0),
        "zetas.enumerate.cache_hit_ratio": ratio("zetas.enumerate.hits", ["zetas.enumerate"]),
        "zetas.euler.calls": amortised(["zetas.euler"], 0),
        "zetas.euler.self_s": amortised(["zetas.euler"], 2),
        "zetas.euler.classes_summed": counted("zetas.euler.classes_summed"),
        "zetas.norm.calls": amortised(["zetas.norm"], 0),
        "zetas.norm.s": amortised(["zetas.norm"], 1),
        "zetas.table.load_s": amortised(["zetas.table.load"], 1),
        "zetas.table.bytes": tracer.gauges.get("zetas.table.bytes", 0),
        "zetas.table.classes": tracer.gauges.get("zetas.table.classes", 0),
        "zetas.table.classes_s": amortised(["zetas.table.classes"], 1),
        "zetas.phi.calls": amortised(["zetas.phi"], 0),
        "zetas.phi.self_s": amortised(["zetas.phi"], 2),
        "gfuncs.log_g1.calls": amortised(["gfuncs.log_g1"], 0),
        "gfuncs.log_g1.self_s": amortised(["gfuncs.log_g1"], 2),
        "gfuncs.coefficients.calls": amortised(["gfuncs.coefficients"], 0),
        "gfuncs.coefficients.s": amortised(["gfuncs.coefficients"], 1),
        "gfuncs.coefficients.cache_hit_ratio": ratio(
            "gfuncs.coefficients.hits", ["gfuncs.coefficients"]
        ),
        "regdet.assemble.self_s": amortised(regdet, 2),
        "regdet.log_z.cache_hit_ratio": ratio("regdet.log_z.hits", ["regdet.log_z"]),
        "regdet.log_g1_per_op": per_op("gfuncs.log_g1"),
        "regdet.phi_per_op": per_op("zetas.phi"),
        "cli.import_s": counted("cli.import_s"),
        "cli.load_document_s": amortised(["cli.load_document"], 1),
        "cli.detsq_s": amortised(["cli.detsq"], 1),
        "cli.emit_s": amortised(["cli.emit"], 1),
        "trace.ops": ops,
        "trace.op_s": op_s,
        "trace.overhead_ratio": overhead_ratio,
    }
    for fn in ("log_gamma", "log_barnes_g", "riemann_zeta", "zeta_prime_minus1"):
        values[f"numerics.{fn}.calls"] = amortised([f"numerics.{fn}"], 0)
        values[f"numerics.{fn}.s"] = amortised([f"numerics.{fn}"], 1)
    for fn in ("m_n_floor", "m_n_spectral"):
        values[f"elliptic.{fn}.calls"] = amortised([f"elliptic.{fn}"], 0)
        values[f"elliptic.{fn}.s"] = amortised([f"elliptic.{fn}"], 1)
    return values
