"""Span recorder for the traced runs of the end-to-end benchmark.

A traced run patches the program's public layer entry points (listed in
:data:`PATCHES`) with thin wrappers that record one span per call:
``(id, parent, name, start, end, request, phase, size)``.  Each name is
patched in the module that *looks it up* at run time (``database.py``
calls ``densify_lookup`` through its own namespace, the service calls
``generic_join`` through ``repro.serve.service``), so the wrappers see
every call the program makes.  Nothing under ``src/`` changes.

The parent span travels in a ContextVar.  The service runs each query
inside the submitting thread's ``copy_context()`` and the shard pool does
the same for shard tasks, so a span opened in a worker thread still finds
its parent and its request.  :data:`REQUEST` is set by the load generators
before every ``submit``; :data:`PHASE` names the part of the run a span
belongs to and selects how its time is normalized (see
:func:`layer_metrics`).

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
Untraced runs never construct a :class:`Tracer`; their only cost is the
two ContextVar writes per request in the load generators.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter

#: The request id of the current read (set by the load generators).
REQUEST: ContextVar[int | None] = ContextVar("e2e_request", default=None)
#: The run phase: ``setup``, ``cold``, ``warm``, ``read`` or ``write``.
#: Spans outside a phase (datagen, reference answers) are kept in the
#: trace file but excluded from every metric.
PHASE: ContextVar[str | None] = ContextVar("e2e_phase", default=None)
_PARENT: ContextVar[int | None] = ContextVar("e2e_parent_span", default=None)


@contextmanager
def phase(name: str):
    """Attribute everything in the block (and in work it submits) to a phase."""
    token = PHASE.set(name)
    try:
        yield
    finally:
        PHASE.reset(token)


def _rows_returned(args, result) -> int:
    return len(result)


def _block_rows(args, result) -> int:
    return args[1].shape[0]


#: ``(module, attribute path, span name, size)``: every layer entry point
#: a traced run wraps.  ``size`` (optional) measures the call — rows
#: decoded, frontier rows in — into the span's last field.
PATCHES = (
    ("repro.engine.dictionary", "Codec.encode_relation", "dictionary.encode", None),
    ("repro.engine.dictionary", "Codec.decode_tuples", "dictionary.decode", _rows_returned),
    ("repro.engine.database", "Database.expansion_plan", "database.plan", None),
    ("repro.engine.database", "Database.relation_plan", "database.plan", None),
    ("repro.engine.database", "Database.rebuild_codec", "database.rebuild_codec", None),
    ("repro.engine.database", "densify_lookup", "database.densify", None),
    # A constructed plan is a plan-cache miss (requests are counted above).
    ("repro.engine.expansion_plan", "ExpansionPlan.__init__", "database.plan_build", None),
    ("repro.engine.expansion_plan", "RelationExpansionPlan.__init__", "database.plan_build", None),
    ("repro.engine.expansion_plan", "ExpansionPlan.execute_batch_ndarray", "expansion_plan.execute", _block_rows),
    ("repro.engine.fused", "compile_pipeline", "fused.compile", None),
    ("repro.engine.shard", "run_plan_sharded", "shard.run", None),
    ("repro.engine.generic_join", "generic_join", "generic_join", None),
    ("repro.engine.leapfrog", "leapfrog_triejoin", "leapfrog", None),
    ("repro.serve.service", "generic_join", "generic_join", None),
    ("repro.serve.service", "leapfrog_triejoin", "leapfrog", None),
    ("repro.core.planner", "generic_join", "generic_join", None),
    ("repro.core.simple_keys", "generic_join", "generic_join", None),
    ("repro.core.planner", "Planner.run", "planner.run", None),
    ("repro.core.planner", "Planner.choose", "planner.choose", None),
    ("repro.core.planner", "lattice_from_query", "planner.lattice", None),
    ("repro.serve.admission", "lattice_from_query", "planner.lattice", None),
    ("repro.serve.admission", "certified_bound", "admission.bound", None),
    ("repro.lp.llp", "LatticeLinearProgram.solve", "lp.solve", None),
    ("repro.lp.llp", "LatticeLinearProgram.solve_primal", "lp.solve", None),
    ("repro.lp.llp", "solve_lp", "lp.solve_lp", None),
    ("repro.lp.solver", "solve_exact_lp", "lp.exact", None),
    ("repro.serve.service", "canonical_rows", "service.materialize", None),
    ("repro.serve.service", "QueryService.attach_database", "service.attach", None),
)


class Tracer:
    """In-memory span list plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _PARENT.reset(token)
            self.spans.append(
                (sid, parent, name, start, end, REQUEST.get(), PHASE.get(), 0)
            )

    def wrap(self, fn, name: str, size=None):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            measured = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    measured = size(args, result)
                return result
            finally:
                end = perf_counter()
                _PARENT.reset(token)
                spans.append(
                    (sid, parent, name, start, end, REQUEST.get(), PHASE.get(),
                     measured)
                )

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        for module, path, name, size in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, size))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**meta, "fields": [
                "id", "parent", "name", "start", "end", "request", "phase",
                "size",
            ], "spans": self.spans}, handle)


class NullTracer:
    """The untraced stand-in: benchmark spans cost one no-op block."""

    @contextmanager
    def span(self, name: str):
        yield


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------

#: Time metrics: ``metric -> (span names, how, phases)``.  ``time`` is the
#: inclusive time of the outermost span among ``names`` (a recursive or
#: nested call is not counted twice); ``self`` subtracts the part of each
#: span its children cover.  ``phases=None`` means every phase.
TIME_METRICS = {
    "dictionary.encode_s": (("dictionary.encode",), "time", None),
    "relation.build_s": (("relation.build",), "time", None),
    "dictionary.decode_s": (("dictionary.decode",), "time", None),
    "database.plan_compile_s": (("database.plan",), "time", None),
    "database.densify_s": (("database.densify",), "time", None),
    "fused.compile_s": (("fused.compile",), "time", None),
    "expansion_plan.execute_s": (("expansion_plan.execute",), "self", None),
    "shard.run_s": (("shard.run",), "time", None),
    "generic_join.self_s": (("generic_join",), "self", None),
    "leapfrog.self_s": (("leapfrog",), "self", None),
    "admission.bound_s": (("admission.bound",), "time", None),
    "lp.solve_s": (("lp.solve",), "time", None),
    "planner.lattice_s": (("planner.lattice",), "time", None),
    "planner.choose_s": (("planner.choose",), "time", None),
    "service.engine_s": (
        ("planner.run", "generic_join", "leapfrog"), "time", ("read",)
    ),
    "service.materialize_s": (("service.materialize",), "time", ("read",)),
}

#: Count metrics: ``metric -> (span name, field)`` with field ``calls``
#: (number of spans) or ``size`` (sum of the spans' size field).
COUNT_METRICS = {
    "dictionary.rows_decoded": ("dictionary.decode", "size"),
    "database.plan_requests": ("database.plan", "calls"),
    "fused.pipelines": ("fused.compile", "calls"),
    "expansion_plan.calls": ("expansion_plan.execute", "calls"),
    "expansion_plan.rows_in": ("expansion_plan.execute", "size"),
    "shard.calls": ("shard.run", "calls"),
    "lp.exact_solves": ("lp.exact", "calls"),
}

#: Phases that are a query's steady state (ratios are taken over these).
_QUERY_PHASES = frozenset({"cold", "warm", "read", "write"})


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[tuple], phase_counts: dict[str, int],
                  submitted: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans.

    Times and counts are normalized *per query life*: each phase's total
    is divided by the number of times the phase ran (``phase_counts``:
    set-ups, cold queries or passes, warm queries, reads, writer cycles)
    and the phases are summed.  For a batch workload that is one set-up,
    one cold query and one warm query — the life ``end_to_end_s``
    measures; for a service it is one service set-up and cold pass plus
    one read (plus one writer cycle on serve_churn).  ``submitted`` maps
    each read's request id to its submit time, for queue waits.
    """
    by_id: dict[int, tuple] = {}
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        by_id[span[0]] = span
        by_name.setdefault(span[2], []).append(span)
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))

    def ancestor(span, names):
        """The nearest ancestor span named in ``names`` (or ``None``)."""
        parent = by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        return parent

    def per_life(totals: dict[str, float]) -> float:
        return sum(
            value / phase_counts[ph]
            for ph, value in totals.items()
            if phase_counts.get(ph)
        )

    metrics: dict[str, float] = {}
    for metric, (names, how, phases) in TIME_METRICS.items():
        totals: dict[str, float] = {}
        for span in (s for name in names for s in by_name.get(name, ())):
            ph = span[6]
            if ph is None or (phases is not None and ph not in phases):
                continue
            if how == "self":
                value = span[4] - span[3] - _covered(
                    children.get(span[0], []), span[3], span[4]
                )
            elif ancestor(span, names) is None:
                value = span[4] - span[3]
            else:
                continue
            totals[ph] = totals.get(ph, 0.0) + value
        metrics[metric] = per_life(totals)
    for metric, (name, field) in COUNT_METRICS.items():
        totals = {}
        for span in by_name.get(name, ()):
            if span[6] is not None:
                totals[span[6]] = totals.get(span[6], 0) + (
                    1 if field == "calls" else span[7]
                )
        metrics[metric] = per_life(totals)

    def steady(name: str) -> list[tuple]:
        return [s for s in by_name.get(name, ()) if s[6] in _QUERY_PHASES]

    requests = len(steady("database.plan"))
    builds = len(steady("database.plan_build"))
    metrics["database.plan_hit_ratio"] = (
        max(0.0, 1.0 - builds / requests) if requests else 0.0
    )
    # An outermost LP call is a memo hit when no solve_lp ran beneath it.
    def outermost_solve(span):
        top, parent = None, ancestor(span, ("lp.solve",))
        while parent is not None:
            top, parent = parent, ancestor(parent, ("lp.solve",))
        return top

    entries = {
        span[0] for span in steady("lp.solve")
        if ancestor(span, ("lp.solve",)) is None
    }
    missed = {
        top[0] for top in map(outermost_solve, steady("lp.solve_lp"))
        if top is not None
    }
    metrics["lp.memo_hit_ratio"] = (
        1.0 - len(missed & entries) / len(entries) if entries else 0.0
    )

    first_start: dict[int, float] = {}
    for span in spans:
        rid = span[5]
        if rid in submitted and (
            rid not in first_start or span[3] < first_start[rid]
        ):
            first_start[rid] = span[3]
    waits = sorted(
        (first_start[rid] - submitted[rid]) * 1e3 for rid in first_start
    )
    metrics["service.queue_wait_ms_p50"] = (
        statistics.median(waits) if waits else 0.0
    )
    metrics["service.queue_wait_ms_p99"] = percentile(waits, 0.99)
    return metrics


def span_totals(spans: list[tuple]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, inclusive seconds)`` over every recorded span."""
    totals: dict[str, tuple[int, float]] = {}
    for span in spans:
        calls, seconds = totals.get(span[2], (0, 0.0))
        totals[span[2]] = (calls + 1, seconds + span[4] - span[3])
    return totals


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
