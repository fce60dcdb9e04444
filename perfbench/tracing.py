"""Spans around henonlab's public functions, recorded from outside the package.

Each traced function is replaced, in every namespace where a caller
looks it up, by a wrapper that records a span: (layer, parent span,
start, end, attributes).  Calls run on one thread (``--workers 1``), so
spans nest strictly and a layer's self time is its span's duration
minus the durations of its direct children.

``maps`` is not traced: ``p`` and ``dp`` run per element inside the
batch kernels, so a wrapper there would time itself.  Its cost shows in
the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import time

# layer -> [(function, namespaces that bind it)].  A function is wrapped
# once and the wrapper is stored in each listed namespace.  A function or
# binding the program no longer has is skipped, and its layer reads 0.
TARGETS = {
    "orbits.enumerate_fix": [("orbits.enumerate_fix", ["", "orbits", "cli", "scan"])],
    "orbits.newton_refine": [("orbits.newton_refine", ["", "orbits"])],
    "orbits.certify": [("orbits.certify", ["", "orbits"])],
    "orbits.classify": [("orbits.classify", ["", "orbits", "cli"])],
    "orbits.dedup": [
        ("orbits.canonical_rotation", ["", "orbits"]),
        ("orbits.rotation_distance", ["", "orbits"]),
    ],
    "orbits.serialize": [
        ("orbits.spectrum_to_json", ["", "orbits", "cli"]),
        ("orbits.spectrum_from_file", ["", "orbits", "cli"]),
    ],
    "exponents.lambda_estimate": [("exponents.lambda_estimate", ["", "exponents", "cli", "scan"])],
    "measures": [
        ("measures.empirical_measure", ["", "measures", "cli"]),
        ("measures.discrepancy", ["", "measures", "cli"]),
        ("measures.moments", ["", "measures", "cli"]),
    ],
    "scan.scan": [("scan.scan", ["", "scan", "cli"])],
    "verify.refine_orbit_hp": [("verify.refine_orbit_hp", ["", "verify"])],
    "verify.green": [
        ("verify.green_plus_hp", ["", "verify"]),
        ("verify.green_minus_hp", ["", "verify"]),
    ],
    "cli.main": [("cli.main", ["cli"])],
}


def _attrs(layer: str, args, result) -> dict:
    """Counts taken from a call's arguments and result at the layer boundary."""
    if layer == "orbits.enumerate_fix":
        return {"seeds": result.budget_used, "points": sum(o.n for o in result.orbits)}
    if layer == "orbits.certify":
        return {"reject": not result[0]}
    if layer == "scan.scan":
        return {"cells": int(result.c.size)}
    if layer == "cli.main":
        return {"command": args[0][0] if args and args[0] else ""}
    return {}


class Tracer:
    """Holds spans in memory; ``install`` patches henonlab, ``remove`` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [layer, parent, start, end, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else None, clock(), 0.0, {}]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _attrs(layer, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module("henonlab" + ("." + name if name else ""))
                   for name in ("", "orbits", "cli", "scan", "exponents", "measures", "verify")}
        for layer, targets in TARGETS.items():
            for qual, namespaces in targets:
                home, attr = qual.split(".")
                fn = getattr(modules[home], attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, fn)
                for ns in namespaces:
                    mod = modules[ns]
                    if hasattr(mod, attr):
                        self._saved.append((mod, attr, getattr(mod, attr)))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span."""
        return len(self.spans)


def layer_metrics(spans: list[list], indices) -> dict[str, float]:
    """Per-layer figures over the spans at ``indices``, a top-level stretch of calls."""
    indices = list(indices)
    child_time: dict[int, float] = {}
    did_work: set[int] = set()
    for i in indices:
        layer, parent, t0, t1, _ = spans[i]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
            if layer in ("orbits.enumerate_fix", "scan.scan"):
                did_work.add(parent)

    out = {f"{layer}.{kind}": 0.0 for layer in TARGETS for kind in ("s", "self_s")}
    out.update({f"{layer}.calls": 0 for layer in TARGETS})
    out.update({"orbits.seeds": 0, "orbits.points": 0, "orbits.certify.rejects": 0,
                "scan.cells": 0, "cli.cache_hit.s": 0.0})
    for i in indices:
        layer, parent, t0, t1, attrs = spans[i]
        d = t1 - t0
        out[f"{layer}.s"] += d
        out[f"{layer}.self_s"] += d - child_time.get(i, 0.0)
        out[f"{layer}.calls"] += 1
        if layer == "orbits.enumerate_fix":
            out["orbits.seeds"] += attrs["seeds"]
            out["orbits.points"] += attrs["points"]
        elif layer == "orbits.certify":
            out["orbits.certify.rejects"] += attrs["reject"]
        elif layer == "scan.scan":
            out["scan.cells"] += attrs["cells"]
        elif (layer == "cli.main" and attrs["command"] in ("enumerate", "scan")
              and i not in did_work):
            out["cli.cache_hit.s"] += d
    seeds = out["orbits.seeds"]
    out["orbits.yield"] = out["orbits.points"] / seeds if seeds else 0.0
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in TARGETS)
    out["scan.self_s"] = out["scan.scan.self_s"]
    out["cli.self_s"] = out["cli.main.self_s"]
    return out
