"""Per-layer tracing of sl2wt from outside the package.

A :class:`Tracer` rebinds the layer functions of ``sl2wt`` to wrappers that
record spans and counters, and restores the originals on :meth:`Tracer.uninstall`.
A name is rebound in every ``sl2wt`` module namespace (or class dict) that
holds the same object, because modules import functions by name: ``fusion``
holds its own bindings of ``groth_F``, ``restrict_simple``, ``groth_restrict``,
``induce_simple`` and ``induce_vacuum``, and patching ``functors`` alone
would miss its calls.

Spans are aggregated as they close rather than stored: per name, the call
count, the inclusive time and the self time (inclusive time minus the time
of the child spans opened inside it).  Counter wrappers open no span, so
their time stays in the enclosing span's self time.  For the pure functions
with hashable arguments the tracer also keeps the set of distinct argument
tuples, which gives the share of calls a memo could not have answered.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

# (metric prefix, module, owner, attribute, kind, distinct)
#   owner None: a module-level function; otherwise a class in that module.
#   kind "span": timed span; "count": call counter only.
LAYERS: Tuple[Tuple[str, str, object, str, str, bool], ...] = (
    ("arithmetic.weight_new", "arithmetic", "Weight", "__init__", "count", False),
    ("arithmetic.reduce", "arithmetic", "Weight", "reduce", "count", False),
    ("weight_cat.typical", "weight_cat", None, "typical", "span", True),
    ("weight_cat.grothc_add", "weight_cat", "GrothC", "__add__", "count", False),
    ("local_cat.simple_a", "local_cat", None, "simple_a", "count", True),
    ("local_cat.a_fuse", "local_cat", None, "a_fuse", "count", False),
    ("local_cat.grotha_add", "local_cat", "GrothA", "__add__", "count", False),
    ("local_cat.grotha_mul", "local_cat", "GrothA", "__mul__", "span", False),
    ("local_cat.comp_factors_a", "local_cat", None, "comp_factors_a", "span", False),
    ("functors.restrict_simple", "functors", None, "restrict_simple", "span", True),
    ("functors.induce_simple", "functors", None, "induce_simple", "span", True),
    ("functors.tau", "functors", None, "tau", "count", True),
    ("functors.groth_F", "functors", None, "groth_F", "span", False),
    ("fusion.groth_fuse_C", "fusion", None, "groth_fuse_C", "span", False),
    ("fusion._candidates", "fusion", None, "_candidates", "count", False),
    ("fusion.a_tensor_restriction", "fusion", None, "a_tensor_restriction", "span", False),
    ("fusion.a_tensor_restriction_via_ring", "fusion", None, "a_tensor_restriction_via_ring", "span", False),
    ("pipeline.step1", "pipeline", None, "_step1", "span", False),
    ("pipeline.step2", "pipeline", None, "_step2", "span", False),
    ("pipeline.step3", "pipeline", None, "_step3", "span", False),
    ("pipeline.step4", "pipeline", None, "_step4", "span", False),
    ("sl2_oracle.check_brackets", "sl2_oracle", "RelaxedWindow", "check_brackets", "span", False),
    ("sl2_oracle.check_casimir", "sl2_oracle", "RelaxedWindow", "check_casimir", "span", False),
    ("sl2_oracle.reducibility_points", "sl2_oracle", None, "reducibility_points", "span", False),
    ("sl2_oracle.is_submodule_stable", "sl2_oracle", "RelaxedWindow", "is_submodule_stable", "span", False),
    ("sl2_oracle.verify_affine_singular", "sl2_oracle", None, "verify_affine_singular", "span", False),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.  Each entry maps
# a metric name to (unit, aggregate field, layer).  p_support and candidates
# are means per solve; candidate_yield is solution support over candidates.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "functors.restrict_simple.calls": ("count", "calls", "functors.restrict_simple"),
    "functors.restrict_simple.self_s": ("s", "self_s", "functors.restrict_simple"),
    "functors.restrict_simple.distinct_ratio": ("ratio", "distinct_ratio", "functors.restrict_simple"),
    "functors.induce_simple.calls": ("count", "calls", "functors.induce_simple"),
    "functors.induce_simple.self_s": ("s", "self_s", "functors.induce_simple"),
    "functors.induce_simple.distinct_ratio": ("ratio", "distinct_ratio", "functors.induce_simple"),
    "functors.tau.calls": ("count", "calls", "functors.tau"),
    "functors.tau.distinct_ratio": ("ratio", "distinct_ratio", "functors.tau"),
    "functors.groth_F.self_s": ("s", "self_s", "functors.groth_F"),
    "local_cat.comp_factors_a.self_s": ("s", "self_s", "local_cat.comp_factors_a"),
    "local_cat.grotha_mul.calls": ("count", "calls", "local_cat.grotha_mul"),
    "local_cat.grotha_mul.self_s": ("s", "self_s", "local_cat.grotha_mul"),
    "local_cat.grotha_add.calls": ("count", "calls", "local_cat.grotha_add"),
    "local_cat.a_fuse.calls": ("count", "calls", "local_cat.a_fuse"),
    "local_cat.simple_a.calls": ("count", "calls", "local_cat.simple_a"),
    "local_cat.simple_a.distinct_ratio": ("ratio", "distinct_ratio", "local_cat.simple_a"),
    "fusion.groth_fuse_C.self_s": ("s", "self_s", "fusion.groth_fuse_C"),
    "fusion.p_support": ("count", "p_support", "fusion._candidates"),
    "fusion.candidates": ("count", "candidates", "fusion._candidates"),
    "fusion.candidate_yield": ("ratio", "candidate_yield", "fusion._candidates"),
    "fusion.a_tensor_restriction.self_s": ("s", "self_s", "fusion.a_tensor_restriction"),
    "fusion.a_tensor_restriction_via_ring.self_s": ("s", "self_s", "fusion.a_tensor_restriction_via_ring"),
    "pipeline.step1_s": ("s", "total_s", "pipeline.step1"),
    "pipeline.step2_s": ("s", "total_s", "pipeline.step2"),
    "pipeline.step3_s": ("s", "total_s", "pipeline.step3"),
    "pipeline.step4_s": ("s", "total_s", "pipeline.step4"),
    "weight_cat.typical.calls": ("count", "calls", "weight_cat.typical"),
    "weight_cat.typical.self_s": ("s", "self_s", "weight_cat.typical"),
    "weight_cat.typical.distinct_ratio": ("ratio", "distinct_ratio", "weight_cat.typical"),
    "weight_cat.grothc_add.calls": ("count", "calls", "weight_cat.grothc_add"),
    "arithmetic.weight_new.calls": ("count", "calls", "arithmetic.weight_new"),
    "arithmetic.reduce.calls": ("count", "calls", "arithmetic.reduce"),
    "sl2_oracle.check_brackets_s": ("s", "total_s", "sl2_oracle.check_brackets"),
    "sl2_oracle.check_casimir_s": ("s", "total_s", "sl2_oracle.check_casimir"),
    "sl2_oracle.reducibility_points_s": ("s", "total_s", "sl2_oracle.reducibility_points"),
    "sl2_oracle.is_submodule_stable_s": ("s", "total_s", "sl2_oracle.is_submodule_stable"),
    "sl2_oracle.verify_affine_singular_s": ("s", "total_s", "sl2_oracle.verify_affine_singular"),
}

_STAT_FIELDS = ("calls", "self_s", "total_s", "distinct", "p_support", "candidates", "solution_support")


def _empty() -> Dict[str, float]:
    return dict.fromkeys(_STAT_FIELDS, 0)


class Tracer:
    """Spans and counters around the sl2wt layer functions.

    Use as a context manager, or call :meth:`install` and :meth:`uninstall`.
    :meth:`stats` returns plain numbers that can be summed across processes
    with :func:`merge`; distinct-argument keys include the level, so sums
    over workers that ran different levels stay exact.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, Dict[str, float]] = {}
        self._keys: Dict[str, set] = {}
        self._stack: List[List[float]] = []  # child time of each open span
        self._patched: List[Tuple[dict, object, str, object]] = []

    # -- wrappers --

    def _record(self, name: str) -> Dict[str, float]:
        return self._stats.setdefault(name, _empty())

    def _span(self, name: str, func: Callable, distinct: bool) -> Callable:
        stats = self._record(name)
        keys = self._keys.setdefault(name, set()) if distinct else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _count(self, name: str, func: Callable, distinct: bool) -> Callable:
        stats = self._record(name)
        keys = self._keys.setdefault(name, set()) if distinct else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            return func(*args, **kwargs)

        return wrapper

    def _solver_sizes(self, func: Callable, kind: str) -> Callable:
        """Sizes around the fusion solver: supp(p) and the candidate count
        from ``_candidates``, the solution support from ``groth_fuse_C``."""
        stats = self._record("fusion._candidates")

        @functools.wraps(func)
        def wrapper(level, *args):
            out = func(level, *args)
            if kind == "candidates":
                stats["p_support"] += len(args[0].support())
                stats["candidates"] += len(out)
            else:
                stats["solution_support"] += len(out.support())
            return out

        return wrapper

    # -- patching --

    def _rebind(self, original: object, wrapper: object, owner: object) -> None:
        holders = [vars(m) for n, m in sorted(sys.modules.items()) if n == "sl2wt" or n.startswith("sl2wt.")]
        targets = [(owner, None)] if owner is not None else []
        targets += [(None, h) for h in holders]
        for cls, namespace in targets:
            ns = vars(cls) if cls is not None else namespace
            for attr, value in list(ns.items()):
                if value is original:
                    self._patched.append((ns, cls, attr, original))
                    if cls is not None:
                        setattr(cls, attr, wrapper)
                    else:
                        ns[attr] = wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("sl2wt.cli")  # every module the CLI reaches
        for name, module, owner_name, attr, kind, distinct in LAYERS:
            mod = sys.modules[f"sl2wt.{module}"]
            owner = getattr(mod, owner_name) if owner_name else None
            original = vars(owner)[attr] if owner is not None else getattr(mod, attr)
            if kind == "span":
                wrapper = self._span(name, original, distinct)
            else:
                wrapper = self._count(name, original, distinct)
            if name == "fusion._candidates":
                wrapper = self._solver_sizes(wrapper, "candidates")
            elif name == "fusion.groth_fuse_C":
                wrapper = self._solver_sizes(wrapper, "solution")
            self._rebind(original, wrapper, owner)
        return self

    def uninstall(self) -> None:
        for ns, cls, attr, original in reversed(self._patched):
            if cls is not None:
                setattr(cls, attr, original)
            else:
                ns[attr] = original
        self._patched.clear()

    def originals(self) -> List[Tuple[dict, str, object]]:
        """(namespace, attribute, original) for every binding patched."""
        return [(ns, attr, original) for ns, _, attr, original in self._patched]

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --

    def stats(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, stats in self._stats.items():
            row = dict(stats)
            if name in self._keys:
                row["distinct"] = len(self._keys[name])
            out[name] = row
        return out


def merge(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Field-wise sum of :meth:`Tracer.stats` results."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, _empty())
            for field, value in row.items():
                acc[field] += value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of :data:`PER_LAYER` from merged stats.

    Ratios over zero calls, and sizes from a workload that never ran the
    solver, read 0.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for metric, (unit, field, layer) in PER_LAYER.items():
        row = stats.get(layer, _empty())
        if field == "distinct_ratio":
            value = _ratio(row["distinct"], row["calls"])
        elif field in ("p_support", "candidates"):
            value = _ratio(row[field], row["calls"])
        elif field == "candidate_yield":
            value = _ratio(row["solution_support"], row["candidates"])
        else:
            value = row[field]
        out[metric] = (value, unit)
    return out
