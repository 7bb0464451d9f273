"""The four workloads of the end-to-end benchmark.

Batch workloads (a query's whole life, on data from ``repro.datagen``):

* ``fdchain`` — the 8-step guarded fd chain (the expansion procedure of
  Sec. 2) through ``generic_join(order=fdchain_order(), fd_aware=True)``:
  ingest, plan/dense-table compile and the fused dense-gather pipeline.
* ``lftj`` — a dense composite-key triangle through
  ``leapfrog_triejoin``: no fds, trie seeks and large-output decode.

Service workloads (``QueryService``, 2 workers, faults pinned off):

* ``serve_mix`` — the demo tenants under a closed loop of 2 clients.
* ``serve_churn`` — the same reads at a fixed open-loop rate while a
  writer attaches, queries and detaches a fresh database every 2 s in a
  tenant the reads use, with a dictionary cap that makes compaction
  recur.

Every run repeats *lives* until its window is used up, so each kind
of sample is spread over the whole run:

* batch life — set up a database from the generated tuples
  (``Relation(...)`` + ``Database(...)``), run the cold query
  (``certified_bound`` + the engine call), then a few warm queries;
* service life — build a fresh service (``QueryService`` + attaches),
  serve one cold pass over every request shape, then a traffic segment
  on it.

Only the first life runs in a cold process.  ``setup_s`` is the median
of every set-up in the run.  The hosts this runs on are shared, and
their speed flips between levels up to 1.8x apart for seconds at a
time, so each query timing uses the statistic interference moves
least.  A batch query is a deterministic computation that interference
can only slow down: its cold and warm times are the run's fastest.
Service latency is a distribution of its own (queueing, the writer's
stalls): a service's cold pass and read latency are medians over the
run's lives.  ``end_to_end_s`` is ``setup_s`` + the cold query (or pass)
+ ``latency_ms``.

``run(name, seed, seconds, tracer, smoke)`` runs one workload in this
process and returns a record: ``attempted``/``failed`` operations,
``checks`` (every failed answer or validity check; empty on a good run),
``e2e`` and ``layer`` metrics, ``phase_counts`` and ``submitted`` for the
trace summary, ``layers`` (spans a traced run must record) and the raw
``samples``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import math
import resource
import statistics
import threading
from contextvars import copy_context
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.datagen.large import (
    fdchain_order,
    large_cyclic_key_workload,
    large_fdchain_workload,
    large_lftj_workload,
)
from repro.engine import Database, Relation
from repro.serve.faults import FaultInjector
from repro.serve.service import canonical_rows
from repro.serve.workloads import build_demo_service, demo_requests

import load
from tracing import percentile, phase

# Engine entry points are looked up through their modules at call time,
# so a traced run's wrappers see the benchmark's own calls too.
_admission = importlib.import_module("repro.serve.admission")
_generic = importlib.import_module("repro.engine.generic_join")
_leapfrog = importlib.import_module("repro.engine.leapfrog")

#: Pins (digest, tuples_touched, output rows) of the batch workloads at
#: seed 0, and serve_churn's read rate.
BASELINE = json.loads((Path(__file__).parent / "baseline.json").read_text())

#: A batch run always completes at least this many lives.
MIN_LIVES = 3
#: Service pools and closed-loop clients, sized for a 2-CPU host.
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: Rounds of the demo request list: 200 keeps each seed's random engine
#: choices within a few percent of the same mix.
MIX_ROUNDS = 200
#: Traffic seconds per service life (lives per run = window / this).
MIX_LIFE_S = 2.0
CHURN_LIFE_S = 3.0
#: serve_churn's writer: rows per attached database and cycle period.
WRITER_ROWS = 10_000
WRITER_PERIOD_S = 2.0
#: Queue deep enough that a stall shows as latency, not as rejections.
CHURN_QUEUE_DEPTH = 4096
#: Interned values per tenant before compaction.  A writer database
#: interns about 15k values, so a service life (the initial database and
#: two writer cycles) compacts once, after its second attach, and the two
#: live databases it keeps stay under the cap.
CHURN_DICTIONARY_CAP = 40_000
#: Validity limits of the open loop.  Reads are timed from their due
#: time, so a late submit still charges its wait; these only reject a
#: run whose generator could not keep the rate (p99 lateness) or whose
#: service fell behind it (reads still in flight when the window ends,
#: in seconds of offered load).
MAX_LATENESS_P99_S = 0.25
MAX_FINAL_BACKLOG_S = 1.0


def row_digest(rows) -> str:
    """Order-independent digest of a row set: per-row sha1 prefixes of
    ``repr(row)`` summed modulo 2**128 (the same values as E17's
    ``result_digest``)."""
    total = 0
    for row in rows:
        total += int.from_bytes(
            hashlib.sha1(repr(row).encode()).digest()[:16], "big"
        )
    return f"{total % (1 << 128):032x}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------

def _fdchain(query, db):
    return _generic.generic_join(query, db, order=fdchain_order(), fd_aware=True)


def _lftj(query, db):
    return _leapfrog.leapfrog_triejoin(query, db)


@dataclass(frozen=True)
class Batch:
    generate: Callable
    engine: Callable
    n: int
    smoke_n: int
    #: The generator's default seed: benchmark seed 0 reproduces the pins.
    seed_base: int
    warm_per_life: int
    #: Spans a traced run must record at least once.
    layers: tuple[str, ...]


BATCH = {
    "fdchain": Batch(
        large_fdchain_workload, _fdchain, n=100_000, smoke_n=10_000,
        seed_base=4, warm_per_life=5,
        layers=("relation.build", "dictionary.encode", "admission.bound",
                "lp.solve", "generic_join", "database.plan",
                "database.densify", "fused.compile",
                "expansion_plan.execute", "dictionary.decode"),
    ),
    "lftj": Batch(
        large_lftj_workload, _lftj, n=4_000, smoke_n=2_000,
        seed_base=2, warm_per_life=4,
        layers=("relation.build", "dictionary.encode", "admission.bound",
                "lp.solve", "leapfrog", "dictionary.decode"),
    ),
}


def _certified_output_bound(rows: int, solution, db) -> bool:
    """|output| <= 2^bound, exactly: with the dual certificate's rational
    weights w_j the bound is prod_j N_j^w_j, so compare
    rows^D <= prod_j N_j^(w_j * D) over the common denominator D."""
    weights = {
        name: Fraction(w) for name, w in solution.inequality.weights.items()
    }
    denominator = math.lcm(*(w.denominator for w in weights.values()))
    bound = 1
    for name, w in weights.items():
        bound *= len(db[name]) ** int(w * denominator)
    return rows ** denominator <= bound


def _answer(result, stats) -> tuple[int, int]:
    return len(result), stats.tuples_touched


def run_batch(name: str, seed: int, seconds: float, tracer, smoke: bool) -> dict:
    spec = BATCH[name]
    n = spec.smoke_n if smoke else spec.n
    query, decoded = spec.generate(n, seed=spec.seed_base + seed, encode=False)
    inputs = [(rel.name, rel.schema, rel.tuples)
              for rel in decoded.relations.values()]

    setups: list[float] = []
    firsts: list[float] = []
    warm: list[float] = []
    answers: list[tuple[int, int]] = []
    out = stats = db = None
    deadline = perf_counter() + seconds
    while len(setups) < MIN_LIVES or perf_counter() < deadline:
        db = None
        gc.collect()
        with phase("setup"):
            start = perf_counter()
            with tracer.span("relation.build"):
                relations = [Relation(*rel) for rel in inputs]
            db = Database(relations, fds=decoded.fds, encode=True)
            setups.append(perf_counter() - start)
        gc.collect()
        with phase("cold"):
            start = perf_counter()
            bound_log2, solution, _ = _admission.certified_bound(query, db)
            result, result_stats = spec.engine(query, db)
            firsts.append(perf_counter() - start)
        if out is None:
            out, stats = result, result_stats
        answers.append(_answer(result, result_stats))
        life_warm = []
        with phase("warm"):
            for _ in range(spec.warm_per_life):
                gc.collect()
                start = perf_counter()
                result, result_stats = spec.engine(query, db)
                life_warm.append(perf_counter() - start)
                answers.append(_answer(result, result_stats))
        warm.extend(life_warm)
        del result
    rss = peak_rss_mb()

    checks: list[str] = []
    rows = len(out)
    got = {"digest": row_digest(out.tuples),
           "tuples_touched": stats.tuples_touched, "output_rows": rows}
    expected = BASELINE["pins"].get(f"{name}/{n}") if seed == 0 else None
    if expected is None:
        # The independent oracle: the same engine on the decoded plane.
        ref, ref_stats = spec.engine(query, decoded)
        expected = {"digest": row_digest(ref.tuples),
                    "tuples_touched": ref_stats.tuples_touched,
                    "output_rows": len(ref)}
    # The first answer is checked in full; every other one must match it.
    failed = sum(answer != answers[0] for answer in answers)
    if got != expected:
        checks.append(f"{name}: answer {got} != reference {expected}")
        failed = len(answers)
    elif failed:
        checks.append(f"{name}: {failed} answers differ from the first one")
    if not _certified_output_bound(rows, solution, db):
        checks.append(f"{name}: {rows} rows exceed the certified 2^{bound_log2}")

    return {
        "attempted": len(answers),
        "failed": failed,
        "checks": checks,
        "e2e": {
            "setup_s": statistics.median(setups),
            "end_to_end_s": statistics.median(setups) + min(firsts) + min(warm),
            "latency_ms": min(warm) * 1e3,
            "peak_rss_mb": rss,
        },
        "layer": {
            "query.first_s": min(firsts),
            "traffic.p99_ms": percentile(warm, 0.99) * 1e3,
            "dictionary.values_interned": db.codec.total_values(),
            "engine.tuples_touched": stats.tuples_touched,
            "engine.output_rows": rows,
            "bound.log2_bound": bound_log2,
            "bound.log2_output": math.log2(rows) if rows else 0.0,
            "bound.log2_touched": math.log2(max(1, stats.tuples_touched)),
            "traffic.samples": len(warm),
            "traffic.qps": len(warm) / sum(warm),
            "failure_rate": failed / len(answers),
        },
        "phase_counts": {"setup": len(setups), "cold": len(firsts),
                         "warm": len(warm)},
        "submitted": {},
        "layers": spec.layers,
        "samples": {"setup": setups, "first": firsts, "warm": warm},
    }


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------

SERVE_LAYERS = (
    "service.attach", "dictionary.encode", "admission.bound", "lp.solve",
    "planner.lattice", "planner.choose", "planner.run", "generic_join",
    "leapfrog", "database.plan", "dictionary.decode", "service.materialize",
)


def _key(request: dict) -> tuple:
    return (request["tenant"], request["database"], id(request["query"]))


def _checker(service, requests: list[dict]):
    """``check(request, result)``: the response's canonical rows equal a
    reference computed on a decoded-plane copy of the stored relations."""
    refs = {}
    for request in requests:
        key = _key(request)
        if key in refs:
            continue
        db = service.tenant(request["tenant"]).databases[request["database"]]
        twin = Database(
            list(db.relations.values()), fds=db.fds, udfs=list(db.udfs),
            degree_bounds=db.degree_bounds, encode=False,
        )
        relation, _ = _generic.generic_join(request["query"], twin,
                                            fd_aware=True)
        refs[key] = canonical_rows(relation, request["query"])[1]

    def check(request, result) -> bool:
        return result.rows == refs[_key(request)]
    return check


def _shapes(requests: list[dict]) -> list[dict]:
    """One request per distinct (tenant, database, query, engine)."""
    shapes: dict[tuple, dict] = {}
    for request in requests:
        shapes.setdefault(_key(request) + (request["engine"],), request)
    return list(shapes.values())


@dataclass
class Service:
    """One service workload: how to build the service and drive it."""

    #: ``build() -> (service, set-up seconds)``.
    build: Callable
    requests: list[dict]
    #: ``drive(service, check, seconds, tally)``: one traffic segment.
    drive: Callable
    #: Traffic seconds per life, and timed builds per life (the last one
    #: serves the life).
    life_s: float
    builds_per_life: int


def run_service(spec: Service, seconds: float) -> tuple[dict, load.Tally]:
    """Lives of a service workload: builds, a cold pass over every
    request shape, then a traffic segment on that service.  Returns the
    record and the tally of the whole run's traffic."""
    probe, _ = spec.build()
    with probe:
        check = _checker(probe, spec.requests)
    shapes = _shapes(spec.requests)
    lives = max(2, round(seconds / spec.life_s))
    tally = load.Tally()
    setups: list[float] = []
    colds: list[float] = []
    life_p50: list[float] = []
    wrong = compactions = rejected = values = 0
    for _ in range(lives):
        service = None
        with phase("setup"):
            for _ in range(spec.builds_per_life):
                if service is not None:
                    service.shutdown()
                service, seconds_ = spec.build()
                setups.append(seconds_)
        with service:
            with phase("cold"):
                start = perf_counter()
                results = [service.execute(**r) for r in shapes]
                colds.append(perf_counter() - start)
            wrong += sum(not check(r, res) for r, res in zip(shapes, results))
            served = len(tally.latencies)
            with phase("read"):
                spec.drive(service, check, seconds / lives, tally)
            life_p50.append(statistics.median(tally.latencies[served:]))
            counters = service.metrics()
            tenants = counters["tenants"].values()
            compactions += sum(t["compactions"] for t in tenants)
            rejected += counters["rejected_overload"]
            values = max(values, sum(t["dictionary_values"] for t in tenants))
    latencies = tally.latencies
    attempted = tally.attempted + len(shapes) * lives
    failed = tally.failed + wrong
    record = {
        "attempted": attempted,
        "failed": failed,
        "checks": (
            [f"{failed} of {attempted} reads failed or were wrong"]
            if failed else []
        ),
        "e2e": {
            "setup_s": statistics.median(setups),
            "end_to_end_s": (statistics.median(setups) + statistics.median(colds)
                             + statistics.median(life_p50)),
            "latency_ms": statistics.median(life_p50) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        "layer": {
            "query.first_s": statistics.median(colds),
            "dictionary.values_interned": values,
            "service.degraded": tally.degraded,
            "service.rejected_overload": rejected,
            "service.compactions": compactions,
            "traffic.p99_ms": percentile(latencies, 0.99) * 1e3,
            "traffic.samples": len(latencies),
            "traffic.qps": (tally.attempted - tally.failed) / tally.duration,
            "failure_rate": failed / attempted,
        },
        "phase_counts": {"setup": len(setups), "cold": lives,
                         "read": len(latencies)},
        "submitted": tally.submitted,
        "layers": SERVE_LAYERS,
        "samples": {"setup": setups, "cold": colds, "life_p50": life_p50},
    }
    return record, tally


def run_serve_mix(seed: int, seconds: float) -> dict:
    def build():
        start = perf_counter()
        service = build_demo_service(
            tenants=2, max_workers=SERVE_WORKERS, seed=seed,
            faults=FaultInjector(seed=0),
        )
        return service, perf_counter() - start

    requests = demo_requests(tenants=2, rounds=MIX_ROUNDS, seed=seed)

    def drive(service, check, seconds_, tally):
        load.closed_loop(service, requests, check, SERVE_CLIENTS, seconds_,
                         tally)

    record, _ = run_service(
        Service(build, requests, drive, life_s=MIX_LIFE_S, builds_per_life=2),
        seconds,
    )
    return record


def _tagged(base: list[Relation], tag: int) -> list[Relation]:
    """``base`` with every value wrapped as ``(tag, value)``."""
    return [
        Relation(rel.name, rel.schema,
                 [tuple((tag, v) for v in row) for row in rel.tuples])
        for rel in base
    ]


def _untag(rows) -> list[tuple]:
    return [tuple(value for _tag, value in row) for row in rows]


class Writer:
    """serve_churn's writer: every ``period`` seconds attach a fresh
    database to ``tenant0``, run its first query, detach the oldest.

    Values are tagged with the cycle number, so every attach interns new
    codes; the answers are checked with the tags stripped against one
    decoded-plane reference.  The next cycle's relations are built right
    after a cycle, outside the timed attach.  One writer serves every
    life of a run (:meth:`start` on each new service).
    """

    def __init__(self, query, base: list[Relation], fds,
                 expected_digest: str, period: float):
        self.query = query
        self.base = base
        self.fds = fds
        self.expected = expected_digest
        self.period = period
        self.attach_s: list[float] = []
        self.first_query_s: list[float] = []
        self.errors: list[str] = []
        self._thread = None

    def _cycle(self, service, tag: int, relations, live: list[str]) -> None:
        name = f"w{tag}"
        start = perf_counter()
        service.attach_database("tenant0", name, relations, fds=self.fds)
        self.attach_s.append(perf_counter() - start)
        start = perf_counter()
        result = service.execute("tenant0", name, self.query, engine="generic")
        self.first_query_s.append(perf_counter() - start)
        if row_digest(_untag(result.rows)) != self.expected:
            self.errors.append(f"writer: wrong first answer on {name}")
        service.detach_database("tenant0", live.pop(0))
        live.append(name)

    def _loop(self, service, stop: threading.Event) -> None:
        live = ["w0"]
        due = perf_counter()
        for tag in itertools.count(1):
            relations = _tagged(self.base, tag)
            if stop.wait(max(0.0, due - perf_counter())):
                return
            try:
                with phase("write"):
                    self._cycle(service, tag, relations, live)
            except Exception as exc:  # the thread boundary: report, stop
                self.errors.append(f"writer: {type(exc).__name__}: {exc}")
                return
            due += self.period

    def start(self, service) -> threading.Event:
        """Start writing into ``service``; set the returned event to stop,
        then call :meth:`join`."""
        stop = threading.Event()
        self._thread = threading.Thread(target=copy_context().run,
                                        args=(self._loop, service, stop))
        self._thread.start()
        return stop

    def join(self) -> None:
        self._thread.join()


def run_serve_churn(seed: int, seconds: float, smoke: bool) -> dict:
    rows = 2_000 if smoke else WRITER_ROWS
    query, decoded = large_cyclic_key_workload(rows, seed=seed, encode=False)
    base = list(decoded.relations.values())
    reference, _ = _generic.generic_join(query, decoded, fd_aware=True)
    writer = Writer(query, base, decoded.fds,
                    row_digest(canonical_rows(reference, query)[1]),
                    WRITER_PERIOD_S)
    # Smoke: the one writer cycle of a life must already compact.
    cap = 2 * rows if smoke else CHURN_DICTIONARY_CAP
    rate = BASELINE["serve_churn_read_rate"]

    def build():
        initial = _tagged(base, 0)
        gc.collect()
        start = perf_counter()
        service = build_demo_service(
            tenants=2, max_workers=SERVE_WORKERS,
            queue_depth=CHURN_QUEUE_DEPTH, seed=seed,
            dictionary_cap=cap, faults=FaultInjector(seed=0),
        )
        service.attach_database("tenant0", "w0", initial, fds=decoded.fds)
        return service, perf_counter() - start

    requests = demo_requests(tenants=2, rounds=MIX_ROUNDS, seed=seed)

    def drive(service, check, seconds_, tally):
        stop = writer.start(service)
        try:
            load.open_loop(service, requests, check, rate, seconds_, tally)
        finally:
            stop.set()
            writer.join()

    record, tally = run_service(
        Service(build, requests, drive, life_s=CHURN_LIFE_S,
                builds_per_life=2),
        seconds,
    )
    lateness_p99 = percentile(tally.lateness, 0.99)
    record["layer"].update({
        "traffic.lateness_p99_ms": lateness_p99 * 1e3,
        "traffic.backlog_max": tally.backlog_max,
        "service.attach_ms": (
            statistics.median(writer.attach_s) * 1e3 if writer.attach_s else 0.0
        ),
        "service.writer_first_query_ms": (
            statistics.median(writer.first_query_s) * 1e3
            if writer.first_query_s else 0.0
        ),
    })
    record["phase_counts"]["write"] = len(writer.attach_s)
    checks = record["checks"]
    checks.extend(writer.errors)
    if not writer.attach_s:
        checks.append("writer: no attach completed")
    if lateness_p99 > MAX_LATENESS_P99_S:
        checks.append(f"open loop ran late: p99 lateness {lateness_p99:.4f}s")
    if tally.final_backlog > MAX_FINAL_BACKLOG_S * rate:
        checks.append(f"open loop backlog grew to {tally.final_backlog} reads")
    record["failed"] += len(writer.errors)
    record["attempted"] += len(writer.attach_s)
    record["layers"] = SERVE_LAYERS + ("database.rebuild_codec",)
    return record


def run(name: str, seed: int, seconds: float, tracer, smoke: bool) -> dict:
    if name in BATCH:
        return run_batch(name, seed, seconds, tracer, smoke)
    if name == "serve_mix":
        return run_serve_mix(seed, seconds)
    if name == "serve_churn":
        return run_serve_churn(seed, seconds, smoke)
    raise ValueError(f"unknown workload {name!r}")
