"""A fault-tolerant multi-tenant query service over the repro engines.

:class:`QueryService` runs queries from many tenants on a shared thread
pool, with the robustness pieces the kernel alone doesn't provide:

* **Tenant isolation with shared interning.**  Each tenant owns one
  :class:`~repro.engine.dictionary.Codec` shared by all of its attached
  databases (cross-database joins within a tenant compare codes
  directly), and nothing is shared *across* tenants — a poisoned or
  bloated dictionary never leaks to a neighbor.
* **Bounded admission queue.**  ``max_workers + queue_depth`` slots; a
  submit past the bound fails fast with
  :class:`~repro.errors.ServiceOverloaded` (retryable) instead of
  queueing unboundedly.
* **Certified admission control** (:mod:`repro.serve.admission`): the
  exact LLP bound is solved *before* execution and queries whose
  certified bound exceeds the tenant budget are rejected with the
  certificate attached.
* **Deadlines and cancellation**: a per-query wall-clock budget enforced
  at the engines' cooperative checkpoints
  (:mod:`repro.engine.cancellation`) — a timed-out query unwinds and
  releases its worker.
* **Graceful degradation**: on a classified engine fault the query
  retries down a two-stage chain — frontier size picking each batch's
  executor, then the generated row loop with blocks off.  Both stages
  compute the same bit-identical answer (the kernel's differential
  contract), so a degraded response is *correct*, just slower; the
  response records which stage answered and every fault absorbed along
  the way.  A fault that outlives both stages — a poisoned dictionary
  entry, which every stage decodes through — ends the query in a typed
  :class:`~repro.errors.EngineFault` (``stage="exhausted"``) carrying
  both stages' faults; the next compaction heals the poison, because it
  rebuilds the codec from the stored value rows.
* **Dictionary compaction**: long-uptime memory control.  When a
  tenant's interned-value count passes its cap, the service rebuilds the
  tenant's codec from the live stored relations (codes are append-only,
  so per-entry eviction is impossible by contract) — only ever between
  that tenant's queries, never under one.

Every error escaping :meth:`QueryService.submit` futures is a
:class:`~repro.errors.ReproError` carrying machine-readable context —
the chaos suite (``tests/test_serve_chaos.py``) asserts that under
randomized fault injection every query ends in exactly one of {correct
result, clean typed error}.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field

from repro.core.planner import Planner
from repro.engine import frontier
from repro.engine.cancellation import Deadline, checkpoint_scope
from repro.engine.database import Database
from repro.engine.dictionary import Codec
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.engine.binary_join import binary_join_plan
from repro.errors import (
    AdmissionRejected,
    EngineFault,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
    classify,
)
from repro.query.query import Query
from repro.serve.admission import AdmissionDecision, admit
from repro.serve.faults import FaultInjector

#: The engines a client may request.  ``auto`` delegates to the planner's
#: Fig. 10 taxonomy; the rest force one engine (the chaos suite uses them
#: to cover every code path).
ENGINES = ("auto", "generic", "lftj", "binary", "csma")

#: The degradation chain, fastest stage first, as ``(label, min_rows)``
#: pairs: ``min_rows`` is the stage's block-executor row threshold
#: (``frontier.min_rows_override``).  The first stage picks each batch's
#: executor by frontier size; the fallback runs the row-loop only (no
#: blocks).  Both stages compute bit-identical canonical rows (the
#: kernel's differential contract).
DEGRADATION_STAGES = (
    ("encoded-ndarray", frontier.NDARRAY_MIN_ROWS),
    ("encoded-rows", None),
)


@dataclass
class QueryResult:
    """One successful (possibly degraded) query response."""

    tenant: str
    database: str
    engine: str            # what the client asked for
    algorithm: str         # what actually ran (planner verdict / forced)
    backend: str           # degradation stage that answered
    schema: tuple[str, ...]
    rows: list[tuple]
    bound_log2: float
    certified: bool
    degraded: bool = False
    faults_absorbed: list[dict] = field(default_factory=list)
    tuples_touched: int | None = None
    wall_s: float = 0.0

    @property
    def row_count(self) -> int:
        return len(self.rows)


class Tenant:
    """Per-tenant state: one shared codec, attached databases, budgets."""

    def __init__(
        self,
        name: str,
        budget_log2: float | None = None,
        dictionary_cap: int | None = None,
    ):
        self.name = name
        self.budget_log2 = budget_log2
        self.dictionary_cap = dictionary_cap
        self.codec = Codec()
        self.databases: dict[str, Database] = {}
        self.lock = threading.Lock()
        self.in_flight = 0
        self.compactions = 0


def canonical_rows(relation, query: Query) -> tuple[tuple[str, ...], list[tuple]]:
    """The service's response shape: the query variables in sorted order,
    distinct rows sorted deterministically (``repr`` ordering, total even
    over mixed types).  Every engine and every degradation stage maps to
    the same canonical form — the chaos suite compares these digests."""
    schema = tuple(sorted(query.variables))
    rows = sorted(set(relation.project(schema).tuples), key=repr)
    return schema, rows


def _run_engine(engine: str, query: Query, db: Database):
    """Run one engine; returns ``(relation, algorithm, tuples_touched)``."""
    if engine == "auto":
        relation, choice, touched = Planner(query, db).run()
        return relation, choice.algorithm, touched
    if engine == "generic":
        relation, stats = generic_join(query, db, fd_aware=True)
        return relation, "generic-join", stats.tuples_touched
    if engine == "lftj":
        relation, stats = leapfrog_triejoin(query, db)
        return relation, "lftj", stats.tuples_touched
    if engine == "binary":
        relation, stats = binary_join_plan(query, db)
        return relation, "binary-join", stats.tuples_touched
    if engine == "csma":
        from repro.core.csma import csma
        from repro.lattice.builders import lattice_from_query

        lattice, inputs = lattice_from_query(query)
        result = csma(query, db, lattice, inputs)
        return result.relation, "csma", result.stats.tuples_touched
    raise ValueError(f"unknown engine {engine!r} (engines: {ENGINES})")


class QueryService:
    """Thread-pool query executor with admission control and degradation."""

    #: ``repro-lint``'s lock-discipline contract: every write to these
    #: fields (the shared metrics counters) must sit inside a
    #: ``with self._metrics_lock`` block.
    _locked_fields = ("_counters",)

    def __init__(
        self,
        max_workers: int = 4,
        queue_depth: int = 8,
        faults: FaultInjector | None = None,
    ):
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._slots = threading.BoundedSemaphore(max_workers + queue_depth)
        self._tenants: dict[str, Tenant] = {}
        self._faults = faults if faults is not None else FaultInjector.from_env()
        self._metrics_lock = threading.Lock()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "degraded": 0,
            "rejected_overload": 0,
            "rejected_admission": 0,
            "timeouts": 0,
            "engine_faults": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    # -- tenant management ---------------------------------------------
    def create_tenant(
        self,
        name: str,
        budget_log2: float | None = None,
        dictionary_cap: int | None = None,
    ) -> Tenant:
        if name in self._tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        tenant = Tenant(name, budget_log2, dictionary_cap)
        self._tenants[name] = tenant
        return tenant

    def attach_database(
        self,
        tenant: str,
        name: str,
        relations,
        fds=None,
        udfs=(),
        degree_bounds=None,
    ) -> Database:
        """Build an encoded database over the tenant's shared codec."""
        t = self._tenants[tenant]
        with t.lock:
            if name in t.databases:
                raise ValueError(f"tenant {tenant!r}: duplicate database {name!r}")
            db = Database(
                relations,
                fds=fds,
                udfs=udfs,
                degree_bounds=degree_bounds,
                codec=t.codec,
            )
            t.databases[name] = db
        return db

    def detach_database(self, tenant: str, name: str) -> None:
        t = self._tenants[tenant]
        with t.lock:
            t.databases.pop(name, None)

    def tenant(self, name: str) -> Tenant:
        return self._tenants[name]

    # -- submission ----------------------------------------------------
    def submit(
        self,
        tenant: str,
        database: str,
        query: Query,
        engine: str = "auto",
        deadline_s: float | None = None,
    ) -> Future:
        """Enqueue a query; the future resolves to a :class:`QueryResult`
        or raises a :class:`~repro.errors.ReproError`."""
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (engines: {ENGINES})")
        t = self._tenants[tenant]
        if database not in t.databases:
            raise KeyError(f"tenant {tenant!r} has no database {database!r}")
        if not self._slots.acquire(blocking=False):
            with self._metrics_lock:
                self._counters["rejected_overload"] += 1
            raise ServiceOverloaded(
                f"admission queue full "
                f"({self.max_workers} workers + {self.queue_depth} queued)",
                tenant=tenant,
            )
        with self._metrics_lock:
            self._counters["submitted"] += 1
        start = time.perf_counter()
        try:
            # Run the worker inside a contextvars snapshot of the
            # submitting context, so ambient overrides (the LP policy)
            # propagate into the pool.
            ctx = copy_context()
            return self._pool.submit(
                ctx.run,
                self._worker, t, database, query, engine, deadline_s, start,
            )
        except BaseException:
            self._slots.release()
            raise

    def execute(
        self,
        tenant: str,
        database: str,
        query: Query,
        engine: str = "auto",
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            tenant, database, query, engine, deadline_s
        ).result(timeout=timeout)

    # -- worker --------------------------------------------------------
    def _worker(
        self,
        tenant: Tenant,
        db_name: str,
        query: Query,
        engine: str,
        deadline_s: float | None,
        start: float,
    ) -> QueryResult:
        try:
            with tenant.lock:
                db = tenant.databases[db_name]
                tenant.in_flight += 1
            try:
                self._faults.fire("worker")
                # The deadline covers admission too: a cold certified
                # bound checks in at every exact-LP pivot.  The fault
                # hook joins only for execution, so chaos rates stay
                # per executed query.
                deadline = (
                    Deadline(deadline_s).check if deadline_s is not None
                    else None
                )
                faults = self._faults.hook() if self._faults.armed else None
                with checkpoint_scope(deadline):
                    decision = admit(
                        query, db, tenant.budget_log2, tenant=tenant.name
                    )
                    with checkpoint_scope(faults):
                        result = self._run_chain(
                            tenant, db_name, db, query, engine, decision
                        )
                result.wall_s = time.perf_counter() - start
                with self._metrics_lock:
                    self._counters["completed"] += 1
                    if result.degraded:
                        self._counters["degraded"] += 1
                return result
            finally:
                with tenant.lock:
                    tenant.in_flight -= 1
                self._maybe_compact(tenant)
        except BaseException as exc:
            err = classify(exc, tenant=tenant.name, engine=engine)
            with self._metrics_lock:
                if isinstance(err, QueryTimeout):
                    self._counters["timeouts"] += 1
                elif isinstance(err, AdmissionRejected):
                    self._counters["rejected_admission"] += 1
                else:
                    self._counters["engine_faults"] += 1
            raise err from err.__cause__
        finally:
            self._slots.release()

    def _run_chain(
        self,
        tenant: Tenant,
        db_name: str,
        db: Database,
        query: Query,
        engine: str,
        decision: AdmissionDecision,
    ) -> QueryResult:
        """The degradation chain.  Control-flow errors (timeout, admission,
        overload) propagate; anything else is absorbed, recorded, and the
        next (simpler) stage retries.  All stages produce bit-identical
        canonical rows — the kernel's differential contract."""
        absorbed: list[dict] = []
        for index, (label, min_rows) in enumerate(DEGRADATION_STAGES):
            try:
                with frontier.min_rows_override(min_rows):
                    relation, algorithm, touched = _run_engine(
                        engine, query, db
                    )
                    schema, rows = canonical_rows(relation, query)
                return QueryResult(
                    tenant=tenant.name,
                    database=db_name,
                    engine=engine,
                    algorithm=algorithm,
                    backend=label,
                    schema=schema,
                    rows=rows,
                    bound_log2=decision.bound_log2,
                    certified=decision.certified,
                    degraded=index > 0,
                    faults_absorbed=absorbed,
                    tuples_touched=touched,
                )
            except (QueryTimeout, AdmissionRejected, ServiceOverloaded):
                raise
            except BaseException as exc:
                absorbed.append(
                    classify(
                        exc, tenant=tenant.name, engine=engine, backend=label
                    ).context()
                )
        raise EngineFault(
            "all degradation stages failed",
            stage="exhausted",
            tenant=tenant.name,
            engine=engine,
            absorbed=absorbed,
        )

    # -- compaction ----------------------------------------------------
    def _maybe_compact(self, tenant: Tenant) -> None:
        """Rebuild the tenant's codec from live relations when the
        interned-value count passes the cap — only with no query of that
        tenant in flight (submissions increment ``in_flight`` under the
        same lock, so nothing starts mid-compaction)."""
        if tenant.dictionary_cap is None:
            return
        with tenant.lock:
            if tenant.in_flight:
                return
            if tenant.codec.total_values() <= tenant.dictionary_cap:
                return
            fresh = Codec()
            for db in tenant.databases.values():
                db.rebuild_codec(fresh)
            tenant.codec = fresh
            tenant.compactions += 1

    # -- observability -------------------------------------------------
    def metrics(self) -> dict:
        with self._metrics_lock:
            counters = dict(self._counters)
        tenants = {}
        for name, tenant in self._tenants.items():
            with tenant.lock:
                tenants[name] = {
                    "databases": len(tenant.databases),
                    "in_flight": tenant.in_flight,
                    "compactions": tenant.compactions,
                    "dictionary_values": tenant.codec.total_values(),
                }
        counters["tenants"] = tenants
        counters["faults_fired"] = dict(self._faults.fired)
        return counters
