"""Spans and counters recorded around slfusion's public entry points.

Nothing here edits slfusion.  ``install`` replaces callables at the names
their callers bind (a class attribute for methods, the importing module's
global for functions), so every call site is seen without touching the
program.  Two kinds of wrapper exist:

* spans, for coarse calls (a claim, a module build, a kernel, a dual
  space, a splitting reduction): each records its name, start, end, parent
  span and the id of the operation (the claim) it ran for;
* counters, for calls made hundreds of thousands of times (an echelon
  insert, a monomial enumeration, a normal-form action): each family keeps
  its call count, the seconds spent in its outermost calls and, where the
  call reports it, how many calls did useful work.  Storing a span per call
  would cost more memory and time than the work it measures.

Spans stay in memory; ``export`` hands them over as plain lists when the
repetition ends.  Under ``jobs > 1`` the pool workers are forked from the
traced process, so they inherit the wrappers; each worker clears its copy at
the start of a claim and ships the claim's spans and counters back inside the
claim's report, where the wrapped ``run_suite`` removes them again before
the report is checked.

``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, one clock for the whole
machine, so span times from workers and parent share a time base.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

clock = time.perf_counter

EXPORT_KEY = "_perfbench_trace"

# claim kind -> the group its time is reported under
CLAIM_GROUPS = {
    "dims": "dims",
    "dual": "dual",
    "ring": "ring",
    "submodule": "submodule",
    "filtration": "filtration",
    "tg": "descriptions",
    "mprop": "descriptions",
    "emb": "descriptions",
    "inductive": "descriptions",
    "demazure": "descriptions",
    "nilpotency": "descriptions",
    "vect": "geometry",
    "chart": "geometry",
    "jacobian": "geometry",
    "transition": "geometry",
    "splitting": "splitting",
    "cohomology": "cohomology",
    "pullback": "cohomology",
    "cache-spot": "cache",
}

# span name -> per-layer metric holding the summed self time of those spans
SELF_TIME_METRICS = {
    "modules.build": "modules.build_s",
    "modules.span": "modules.span_s",
    "submodules.qmap": "submodules.qmap_s",
    "submodules.kernel": "submodules.kernel_s",
    "submodules.filtration": "submodules.filtration_s",
    "dual.space": "dual.space_s",
    "dual.ring": "dual.ring_s",
    "geometry.vect": "geometry.vect_s",
    "geometry.chart": "geometry.chart_s",
    "geometry.transition": "geometry.transition_s",
    "laurent.splitting": "laurent.splitting_s",
    "cache.store": "cache.store_s",
    "cache.load": "cache.load_s",
}

# percentiles tried for a tail, highest first; the first with at least ten
# samples beyond it is reported
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self):
        # span: [name, start, end, parent index, op id, extra]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # counter family -> [calls, seconds in outermost calls, useful calls]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.active: dict[str, int] = defaultdict(int)
        self.cells = 0
        self.cache_bytes = 0
        self.op = None

    # -- recording ------------------------------------------------------------

    def open(self, name, extra=None) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, clock(), 0.0, parent, self.op, extra]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec) -> None:
        rec[2] = clock()
        self.stack.pop()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "cells": self.cells,
            "cache_bytes": self.cache_bytes,
        }

    def merge(self, data: dict) -> None:
        """Append spans and counters exported by a pool worker."""
        base = len(self.spans)
        for name, start, end, parent, op, extra in data["spans"]:
            parent = parent + base if parent >= 0 else -1
            self.spans.append([name, start, end, parent, op, extra])
        for fam, (calls, secs, useful) in data["counters"].items():
            acc = self.counters[fam]
            acc[0] += calls
            acc[1] += secs
            acc[2] += useful
        self.cells += data["cells"]
        self.cache_bytes += data["cache_bytes"]


TRACER = Tracer()


# ---------------------------------------------------------------------------
# wrappers


def _span(name, fn, key=None):
    """``key`` maps the call's arguments to the span's extra field."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = TRACER.open(name, extra=key(*args, **kwargs) if key else None)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.close(rec)

    return wrapper


def _counted(family, fn, useful=False, cells=False):
    """Count calls of one family; nested calls of the same family are not
    counted again, so ``kernel_basis`` calling ``rref`` is one elimination."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = TRACER
        if tr.active[family]:
            return fn(*args, **kwargs)
        tr.active[family] += 1
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            tr.active[family] -= 1
        acc = tr.counters[family]
        acc[0] += 1
        acc[1] += dt
        if useful and out:
            acc[2] += 1
        if cells:  # rref(rows, ncols=None) and kernel_basis(rows, ncols)
            rows = args[0]
            ncols = args[1] if len(args) > 1 and args[1] is not None else len(rows[0]) if rows else 0
            tr.cells += len(rows) * ncols
        return out

    return wrapper


def _module_init(fn):
    """A module build is a span; a restore from stored rows belongs to the
    cache load that asked for it and is not a span of its own."""

    @functools.wraps(fn)
    def wrapper(self, a, _piece_rows=None):
        if _piece_rows is not None:
            return fn(self, a, _piece_rows=_piece_rows)
        rec = TRACER.open("modules.build", extra=[int(x) for x in a])
        try:
            return fn(self, a)
        finally:
            TRACER.close(rec)

    return wrapper


def _cache_store(fn):
    @functools.wraps(fn)
    def wrapper(self, module):
        rec = TRACER.open("cache.store")
        try:
            fn(self, module)
        finally:
            TRACER.close(rec)
        TRACER.cache_bytes += self.path_for(module.a).stat().st_size

    return wrapper


def _run_claim(fn):
    @functools.wraps(fn)
    def wrapper(kind, params, cfg):
        tr = TRACER
        in_worker = os.getpid() != tr.pid
        if in_worker:
            tr.reset()
        tr.op = f"{kind}{list(params)!r}" if params else kind
        rec = tr.open("cli.claim", extra=kind)
        try:
            rep = fn(kind, params, cfg)
        finally:
            tr.close(rec)
            tr.op = None
        if in_worker:
            rep[EXPORT_KEY] = tr.export()
        return rep

    return wrapper


def _run_suite(fn):
    @functools.wraps(fn)
    def wrapper(suite, cfg):
        reports = fn(suite, cfg)
        for rep in reports:
            data = rep.pop(EXPORT_KEY, None)
            if data is not None:
                TRACER.merge(data)
        return reports

    return wrapper


def install() -> Tracer:
    """Wrap the entry points; call once per fresh interpreter, before use."""
    from slfusion import cache, cli, dual, geometry, laurent, linalg, modules, submodules

    def patch(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    patch(modules.FusionModule, "__init__", _module_init)
    patch(cache.ModuleCache, "store", _cache_store)
    patch(cache.ModuleCache, "load", lambda f: _span("cache.load", f))
    patch(cli, "run_claim", _run_claim)
    patch(cli, "run_suite", _run_suite)

    spans = [
        (submodules.QuotientMap, "__init__", "submodules.qmap"),
        (submodules.QuotientMap, "kernel", "submodules.kernel"),
        (submodules, "verify_filtration", "submodules.filtration"),
        (modules, "cyclic_span", "modules.span"),
        (submodules, "cyclic_span", "modules.span"),
        (dual, "coordinate_ring_component", "dual.ring"),
        (geometry, "verify_vect_algebra", "geometry.vect"),
        (geometry, "verify_chart_identities", "geometry.chart"),
        (geometry, "jacobian_identity", "geometry.chart"),
        (geometry, "transition_matrix", "geometry.transition"),
        (geometry, "verify_transition_matrix", "geometry.transition"),
        (laurent, "splitting_type", "laurent.splitting"),
        (cli, "splitting_type", "laurent.splitting"),
    ]
    for owner, attr, name in spans:
        patch(owner, attr, lambda f, name=name: _span(name, f))
    # (label, variable count) names the space, so repeats can be counted
    patch(dual.DualSpace, "__init__",
          lambda f: _span("dual.space", f, key=lambda self, a, s: f"{tuple(a)}:{s}"))

    counted = [
        (linalg.IntEchelon, "insert", "linalg.echelon", {"useful": True}),
        (linalg, "enumerate_monomials", "linalg.enumerate", {}),
        (modules, "enumerate_monomials", "linalg.enumerate", {}),
        (linalg, "rref", "linalg.fraction", {"cells": True}),
        (linalg, "kernel_basis", "linalg.fraction", {"cells": True}),
        (dual, "kernel_basis", "linalg.fraction", {"cells": True}),
        (submodules, "kernel_basis", "linalg.fraction", {"cells": True}),
        (modules.Subspace, "insert", "modules.span_insert", {"useful": True}),
        (modules.ModuleElement, "apply", "modules.nf", {}),
        (modules.FusionModule, "poly_class", "modules.nf", {}),
        (dual, "shuffle_product", "dual.shuffles", {}),
    ]
    for owner, attr, family, opts in counted:
        patch(owner, attr, lambda f, family=family, opts=opts: _counted(family, f, **opts))
    return TRACER


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_vals) * pct // 100))
    return sorted_vals[int(rank) - 1]


def layer_metrics(tr: Tracer, wall_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    spans = tr.spans
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    out: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for i, (name, *_rest) in enumerate(spans):
        metric = SELF_TIME_METRICS.get(name)
        if metric:
            out[metric] += dur[i] - child[i]

    # claim time with the module builds made inside it removed
    build_in = [0.0] * len(spans)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if name != "modules.build":
            continue
        while parent >= 0 and spans[parent][0] != "cli.claim":
            parent = spans[parent][3]
        if parent >= 0:
            build_in[parent] += dur[i]
    busy = 0.0
    for group in sorted(set(CLAIM_GROUPS.values())):
        out[f"cli.claim_s.{group}"] = 0.0
    for i, (name, _, _, _, _, kind) in enumerate(spans):
        if name == "cli.claim":
            out[f"cli.claim_s.{CLAIM_GROUPS[kind]}"] += dur[i] - build_in[i]
            busy += dur[i]
    out["cli.worker_busy_s"] = busy
    out["cli.pool_idle_frac"] = 1.0 - busy / (jobs * wall_s) if busy else 0.0

    builds = [(dur[i], tuple(s[5])) for i, s in enumerate(spans) if s[0] == "modules.build"]
    out["modules.builds"] = len(builds)
    out["modules.rebuilds"] = len(builds) - len({label for _, label in builds})
    ms = sorted(d * 1000 for d, _ in builds)
    out["modules.build_ms_p50"] = _percentile(ms, 50) if ms else 0.0
    tail_pct = next((p for p in TAIL_PERCENTILES if len(ms) * (100 - p) / 100 >= 10), None)
    # not a metric: it tells which percentile build_ms_tail is
    out["modules.build_tail_pct"] = tail_pct
    out["modules.build_ms_tail"] = _percentile(ms, tail_pct) if tail_pct else 0.0

    c = tr.counters
    calls, secs, useful = c.get("linalg.echelon", (0, 0.0, 0))
    out["linalg.echelon_inserts"] = calls
    out["linalg.echelon_useful_frac"] = useful / calls if calls else 0.0
    out["linalg.echelon_s"] = secs
    calls, secs, _ = c.get("linalg.enumerate", (0, 0.0, 0))
    out["linalg.enumerate_calls"] = calls
    out["linalg.enumerate_s"] = secs
    calls, secs, _ = c.get("linalg.fraction", (0, 0.0, 0))
    out["linalg.fraction_elims"] = calls
    out["linalg.fraction_cells"] = tr.cells
    out["linalg.fraction_s"] = secs
    calls, secs, _ = c.get("modules.nf", (0, 0.0, 0))
    out["modules.nf_queries"] = calls
    out["modules.nf_s"] = secs
    calls, _, useful = c.get("modules.span_insert", (0, 0.0, 0))
    out["modules.span_useful_frac"] = useful / calls if calls else 0.0
    out["dual.shuffles"] = c.get("dual.shuffles", (0, 0.0, 0))[0]

    spaces = [s[5] for s in spans if s[0] == "dual.space"]
    out["dual.spaces"] = len(spaces)
    out["dual.dup_spaces"] = len(spaces) - len(set(spaces))

    out["cache.bytes"] = tr.cache_bytes
    build_s = out["modules.build_s"]
    out["cache.load_over_build"] = out["cache.load_s"] / build_s if build_s else 0.0
    # on one process, builds plus claim self times should cover the wall
    claims_s = sum(v for k, v in out.items() if k.startswith("cli.claim_s."))
    out["trace.accounted_frac"] = (build_s + claims_s) / wall_s
    return out
