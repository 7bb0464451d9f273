"""The serving layer: admission, deadlines, degradation, taxonomy, codec
sharing.

Deterministic counterparts of the chaos soak (``test_serve_chaos.py``):
every fault here is armed with an exact firing budget (``times=``) or a
pre-expired deadline, so each test pins one transition of the service's
state machine — *which* stage answers, *which* typed error escapes,
*that* the worker is released.
"""

import re
import threading
import time
from contextvars import copy_context

import pytest

from repro.config import ConfigError
from repro.core.planner import Planner
from repro.datagen import fig4_instance, fig9_instance
from repro.engine.cancellation import Deadline, checkpoint_scope
from repro.engine.database import Database
from repro.engine.dictionary import Codec
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.engine.reference import reference_join
from repro.engine.relation import Relation
from repro.errors import (
    AdmissionRejected,
    EngineFault,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
    classify,
)
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF
from repro.lattice.builders import lattice_from_query
from repro.lp import solver as solver_mod
from repro.lp.llp import LLPSolution
from repro.query.query import Atom, Query
from repro.serve.admission import admit, certified_bound
from repro.serve.faults import FaultInjector, poison_codec
from repro.serve.service import DEGRADATION_STAGES, QueryService, canonical_rows
from repro.serve.workloads import (
    build_demo_service,
    demo_queries,
    demo_relations,
)


def quiet() -> FaultInjector:
    """An injector with nothing armed — pins tests to fault-free behavior
    even when CI exports ``REPRO_FAULTS`` (which arms services by default)."""
    return FaultInjector(seed=0)


def triangle_db(n=16):
    return Database(demo_relations(seed=7, n_edges=n))


TRIANGLE = demo_queries()["triangle"]


# ----------------------------------------------------------------------
# Certified admission
# ----------------------------------------------------------------------
def test_admission_bound_is_certified_and_admits():
    db = triangle_db()
    decision = admit(TRIANGLE, db, budget_log2=None)
    assert decision.admitted
    assert decision.certified
    assert decision.solution.certificate is not None
    # AGM for the triangle: 0.5 * (log|R| + log|S| + log|T|).
    logs = db.log_sizes()
    assert decision.bound_log2 == pytest.approx(
        0.5 * (logs["R"] + logs["S"] + logs["T"])
    )
    # The dual witness covers every atom with weight 1/2.
    assert decision.weights == {"R": 0.5, "S": 0.5, "T": 0.5}


def test_admission_rejection_carries_certificate_and_context():
    db = triangle_db()
    bound, solution, certified = certified_bound(TRIANGLE, db)
    assert certified
    with pytest.raises(AdmissionRejected) as excinfo:
        admit(TRIANGLE, db, budget_log2=bound - 1.0, tenant="acme")
    err = excinfo.value
    assert err.bound_log2 == pytest.approx(bound)
    assert err.budget_log2 == pytest.approx(bound - 1.0)
    assert err.certificate is not None
    assert not err.retryable
    ctx = err.context()
    assert ctx["type"] == "AdmissionRejected"
    assert ctx["tenant"] == "acme"
    assert ctx["certified"] is True
    assert ctx["weights"]["R"] == pytest.approx(0.5)
    # The certificate is the exact optimality proof of the primal solve
    # (a minimization of -h(1̂)): its objective reproduces the bound.
    assert float(err.certificate.objective) == pytest.approx(-bound)


def test_admission_budget_exactly_at_bound_admits():
    db = triangle_db()
    bound, _, _ = certified_bound(TRIANGLE, db)
    assert admit(TRIANGLE, db, budget_log2=bound).admitted


def test_service_rejects_and_then_serves_within_budget():
    # log2|R| <= log2(48) < 6 admits the single-atom scan; the triangle's
    # AGM bound (~1.5 * log N) is well past 6.
    service = build_demo_service(tenants=1, budget_log2=6.0, faults=quiet())
    with service:
        with pytest.raises(AdmissionRejected):
            service.execute("tenant0", "main", TRIANGLE)
        small = Query([Atom("R", ("x", "y"))])
        result = service.execute("tenant0", "main", small, engine="generic")
        assert result.bound_log2 <= 6.0
        assert result.rows
        assert service.metrics()["rejected_admission"] == 1


# ----------------------------------------------------------------------
# Deadlines and cancellation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_fn", [
    lambda q, db: generic_join(q, db, fd_aware=True),
    leapfrog_triejoin,
])
def test_expired_deadline_cancels_each_engine(engine_fn):
    db = triangle_db()
    with checkpoint_scope(Deadline(0.0).check):
        with pytest.raises(QueryTimeout):
            engine_fn(TRIANGLE, db)


def test_engines_ignore_deadlines_outside_scope():
    db = triangle_db()
    baseline, _ = generic_join(TRIANGLE, db, fd_aware=True)
    with checkpoint_scope(Deadline(0.0).check):
        with pytest.raises(QueryTimeout):
            generic_join(TRIANGLE, db, fd_aware=True)
    # The scope is gone: the same call succeeds and matches.
    again, _ = generic_join(TRIANGLE, db, fd_aware=True)
    assert set(again.tuples) == set(baseline.tuples)


def test_service_timeout_releases_worker():
    service = build_demo_service(tenants=1, max_workers=1, queue_depth=1, faults=quiet())
    with service:
        with pytest.raises(QueryTimeout) as excinfo:
            service.execute("tenant0", "main", TRIANGLE, deadline_s=0.0)
        assert excinfo.value.tenant == "tenant0"
        assert excinfo.value.extra["deadline_s"] == 0.0
        # The worker slot came back: a clean query on the same (single)
        # worker succeeds.
        result = service.execute("tenant0", "main", TRIANGLE)
        assert result.backend == DEGRADATION_STAGES[0][0]
        assert not result.degraded
        assert service.metrics()["timeouts"] == 1


def _clear_lp_memos(query) -> None:
    """Forget every memoized LP solve of ``query``'s lattice, so the next
    certified bound pivots from scratch."""
    lattice, _ = lattice_from_query(query)
    lattice.__dict__.get("_lp_memo", {}).clear()
    solver_mod._SOLVE_CACHE.clear()


def _memoized_solutions(query, db) -> list:
    lattice, _ = lattice_from_query(query)
    memo = lattice.__dict__.get("_lp_memo", {})
    return [
        key for key, value in memo.items() if isinstance(value, LLPSolution)
    ] + list(solver_mod._SOLVE_CACHE) + [
        entry for entry in db._queries.values() if "certified_bound" in entry
    ]


def test_deadline_stops_a_cold_admission():
    """A cold exact solve of the Fig. 9 query's bound takes tens of
    seconds; admission runs inside the query's deadline and the pivot
    loop checks in, so a 1 s deadline ends it with a typed timeout — and
    the interrupted solve memoizes nothing."""
    query, db = fig9_instance(8)
    service = QueryService(max_workers=1, queue_depth=1, faults=quiet())
    service.create_tenant("t")
    service.attach_database("t", "fig9", list(db.relations.values()),
                            udfs=list(db.udfs))
    _clear_lp_memos(query)
    with service:
        start = time.perf_counter()
        with pytest.raises(QueryTimeout):
            service.execute("t", "fig9", query, engine="generic",
                            deadline_s=1.0)
        assert time.perf_counter() - start < 5.0
        assert service.metrics()["timeouts"] == 1
    stored = service.tenant("t").databases["fig9"]
    assert _memoized_solutions(query, stored) == []


def test_interrupted_admission_then_solves_like_a_fresh_one():
    """Stop a cold certified bound mid-pivot; the next admission (no
    deadline) returns exactly the certificate of a solve that was never
    interrupted."""
    query, db = fig4_instance(8)
    _clear_lp_memos(query)
    pivots = [0]

    def stop_midway():
        pivots[0] += 1
        if pivots[0] > 40:
            raise QueryTimeout("interrupted mid-solve", deadline_s=0.0)

    with checkpoint_scope(stop_midway):
        with pytest.raises(QueryTimeout):
            admit(query, db, None)
    assert pivots[0] == 41
    assert _memoized_solutions(query, db) == []
    later = admit(query, db, None).solution
    assert _memoized_solutions(query, db)  # the check above can see one
    _clear_lp_memos(query)
    fresh_db = fig4_instance(8)[1]
    fresh = certified_bound(query, fresh_db)[1]
    assert later is not fresh
    assert later.objective == fresh.objective
    assert later.inequality.weights == fresh.inequality.weights
    assert later.certificate == fresh.certificate


def test_auto_reports_the_chosen_engines_tuples_touched():
    service = build_demo_service(tenants=1, faults=quiet())
    with service:
        for shape, query in demo_queries().items():
            name = "expand" if shape == "udf_expand" else "main"
            db = service.tenant("tenant0").databases[name]
            result = service.execute("tenant0", name, query, engine="auto")
            out, choice, touched = Planner(query, db).run()
            assert result.algorithm == choice.algorithm
            assert result.tuples_touched == touched
            assert isinstance(touched, int) and touched > 0
            assert result.rows == canonical_rows(out, query)[1]


# ----------------------------------------------------------------------
# Bounded admission queue
# ----------------------------------------------------------------------
def test_overload_is_typed_and_retryable_after_drain():
    gate = threading.Event()
    udfs = [UDF("gate", ("x",), "y", fn=lambda x: (gate.wait(10), x + 1)[1])]
    rel = Relation("R", ("x",), [(1,), (2,), (3,)])
    blocked = Query([Atom("R", ("x",))], FDSet([FD("x", "y")], "xy"))
    service = QueryService(max_workers=1, queue_depth=1, faults=quiet())
    with service:
        service.create_tenant("t")
        service.attach_database("t", "main", [rel], udfs=udfs)
        first = service.submit("t", "main", blocked, engine="generic")
        second = service.submit("t", "main", blocked, engine="generic")
        # Worker busy + queue slot taken: the third submit fails fast.
        with pytest.raises(ServiceOverloaded) as excinfo:
            service.submit("t", "main", blocked, engine="generic")
        assert excinfo.value.retryable
        assert excinfo.value.tenant == "t"
        gate.set()
        rows = {r.rows and tuple(r.rows) for r in
                (first.result(timeout=10), second.result(timeout=10))}
        assert rows == {((1, 2), (2, 3), (3, 4))}
        # Slots drained: submission works again.
        assert service.execute("t", "main", blocked, engine="generic").rows
        assert service.metrics()["rejected_overload"] == 1


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
def expected_rows(query=TRIANGLE, n=48):
    """The canonical rows of the naive value-level reference join."""
    db = Database(demo_relations(seed=0, n_edges=n))
    return canonical_rows(reference_join(query, db), query)[1]


@pytest.mark.parametrize("times", range(1, len(DEGRADATION_STAGES)))
def test_degradation_stages_answer_bit_identically(times):
    backend = DEGRADATION_STAGES[times][0]
    faults = FaultInjector(seed=1).arm("engine", times=times)
    service = build_demo_service(tenants=1, faults=faults)
    with service:
        result = service.execute("tenant0", "main", TRIANGLE, engine="generic")
    assert result.backend == backend
    assert result.degraded
    assert len(result.faults_absorbed) == times
    for ctx in result.faults_absorbed:
        assert ctx["type"] == "EngineFault"
        assert ctx["retryable"] is True
        assert ctx["tenant"] == "tenant0"
    assert result.rows == expected_rows()


def test_degradation_exhaustion_is_a_typed_fault():
    stages = DEGRADATION_STAGES
    faults = FaultInjector(seed=1).arm("engine", times=len(stages))
    service = build_demo_service(tenants=1, faults=faults)
    with service:
        with pytest.raises(EngineFault) as excinfo:
            service.execute("tenant0", "main", TRIANGLE, engine="generic")
    err = excinfo.value
    assert err.stage == "exhausted"
    assert len(err.extra["absorbed"]) == len(stages)
    assert [c["backend"] for c in err.extra["absorbed"]] == [
        label for label, _ in stages
    ]


def test_allocation_fault_classified_and_absorbed():
    faults = FaultInjector(seed=1).arm("alloc", times=1)
    service = build_demo_service(tenants=1, faults=faults)
    with service:
        result = service.execute("tenant0", "main", TRIANGLE, engine="generic")
    assert result.backend == DEGRADATION_STAGES[1][0]
    assert result.faults_absorbed[0]["kind"] == "allocation"
    assert result.rows == expected_rows()


def test_poisoned_codec_entry_ends_in_typed_engine_fault():
    # A cap of one value compacts after every query.
    service = build_demo_service(tenants=1, faults=quiet(), dictionary_cap=1)
    with service:
        tenant = service.tenant("tenant0")
        # Poison a value that appears in the result set: both stages die
        # at the decode boundary, so the query ends in a typed fault that
        # carries each stage's failure — never in a wrong answer.
        rows = expected_rows()
        assert rows, "demo workload must have results"
        victim = rows[0][0]
        code = tenant.codec.dictionaries["x"].values.index(victim)
        poison_codec(tenant.codec, "x", code)
        with pytest.raises(EngineFault) as excinfo:
            service.execute("tenant0", "main", TRIANGLE, engine="generic")
        err = excinfo.value
        assert err.stage == "exhausted"
        assert [c["backend"] for c in err.extra["absorbed"]] == [
            label for label, _ in DEGRADATION_STAGES
        ]
        assert all(c["type"] == "EngineFault" for c in err.extra["absorbed"])
        # The compaction after the failed query rebuilt the codec from the
        # stored value rows: the poison is gone and the query answers.
        assert tenant.compactions == 1
        result = service.execute("tenant0", "main", TRIANGLE, engine="generic")
        assert not result.degraded
        assert result.rows == rows


def test_worker_site_fault_degrades_nothing_but_is_typed():
    # The worker site fires *before* admission/engines: no degradation
    # chain to absorb it, the classified fault escapes to the client.
    faults = FaultInjector(seed=1).arm("worker", times=1)
    service = build_demo_service(tenants=1, faults=faults)
    with service:
        with pytest.raises(EngineFault) as excinfo:
            service.execute("tenant0", "main", TRIANGLE)
        assert excinfo.value.retryable
        assert excinfo.value.tenant == "tenant0"
        # The budget is consumed: the next query is clean.
        assert not service.execute("tenant0", "main", TRIANGLE).degraded


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def test_classify_wraps_foreign_exceptions():
    err = classify(ValueError("boom"), tenant="t", engine="generic")
    assert isinstance(err, EngineFault)
    assert err.retryable
    assert err.extra["kind"] == "exception"
    assert isinstance(err.__cause__, ValueError)
    assert err.context()["tenant"] == "t"


def test_classify_tags_allocation_failures():
    err = classify(MemoryError(), backend="encoded-ndarray")
    assert err.extra["kind"] == "allocation"
    assert err.backend == "encoded-ndarray"


def test_classify_passes_taxonomy_members_through_annotated():
    original = QueryTimeout("slow", deadline_s=1.5)
    err = classify(original, tenant="t", engine="lftj")
    assert err is original
    assert err.tenant == "t" and err.engine == "lftj"
    # annotate never overwrites already-set fields.
    assert classify(err, tenant="other").tenant == "t"


def test_context_is_machine_readable_no_string_matching():
    try:
        raise AdmissionRejected(
            "over budget", bound_log2=9.0, budget_log2=5.0, tenant="t"
        )
    except ReproError as err:
        ctx = err.context()
    assert (ctx["type"], ctx["retryable"]) == ("AdmissionRejected", False)
    assert ctx["bound_log2"] == 9.0 and ctx["budget_log2"] == 5.0
    assert ctx["certified"] is False


# ----------------------------------------------------------------------
# Shared-codec concurrency (two tenants' databases, one codec)
# ----------------------------------------------------------------------
def test_dictionary_interning_is_thread_safe():
    codec = Codec()
    d = codec.dictionary("x")
    results: list[dict] = []

    def intern(offset):
        local = {}
        for i in range(500):
            value = (i * 13 + offset * 7) % 250
            local[value] = d.encode(value)
        results.append(local)

    threads = [
        threading.Thread(target=copy_context().run, args=(intern, k))
        for k in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Codes are dense, stable and injective across all racing threads.
    assert len(d.values) == len(d._codes) == 250
    assert sorted(d._codes.values()) == list(range(250))
    for local in results:
        for value, code in local.items():
            assert d.encode(value) == code
            assert d.values[code] == value


def test_shared_codec_concurrent_queries_match_serial_work():
    # Two databases interning through one codec, queried from threads:
    # stable codes, and tuples_touched bit-identical to a serial run on
    # fresh per-database codecs.
    rels_a = demo_relations(seed=3, n_edges=40, value_base=0)
    rels_b = demo_relations(seed=4, n_edges=40, value_base=50)  # overlap
    serial = []
    for rels in (rels_a, rels_b):
        out, stats = generic_join(TRIANGLE, Database(rels), fd_aware=True)
        serial.append((set(out.tuples), stats.tuples_touched))

    shared = Codec()
    dbs = [
        Database(rels_a, codec=shared),
        Database(rels_b, codec=shared),
    ]
    outcomes: dict[int, tuple] = {}

    def run(i):
        out, stats = generic_join(TRIANGLE, dbs[i], fd_aware=True)
        outcomes[i] = (set(out.tuples), stats.tuples_touched)

    threads = [
        threading.Thread(target=copy_context().run, args=(run, i))
        for i in (0, 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in (0, 1):
        assert outcomes[i] == serial[i]


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compaction_drops_cold_entries_and_preserves_results():
    from collections import defaultdict

    service = build_demo_service(tenants=1, dictionary_cap=1, faults=quiet())
    with service:
        tenant = service.tenant("tenant0")
        udf_q = demo_queries()["udf_expand"]
        before = service.execute("tenant0", "expand", udf_q, engine="generic")
        # What a codec holding only the *stored* relations should intern.
        domains = defaultdict(set)
        for db in tenant.databases.values():
            for rel in db.relations.values():
                for attr, col in zip(rel.schema, rel.columns()):
                    domains[attr].update(col)
        live = sum(len(values) for values in domains.values())
        # The UDF interned mid-run values past the stored domain; the
        # post-query compaction (cap=1 forces one after every query)
        # rebuilt from stored relations only.
        assert tenant.compactions >= 1
        assert tenant.codec.total_values() == live
        after = service.execute("tenant0", "expand", udf_q, engine="generic")
        assert after.rows == before.rows
        tri = service.execute("tenant0", "main", TRIANGLE, engine="generic")
        assert tri.rows == expected_rows()
        assert service.metrics()["tenants"]["tenant0"]["compactions"] >= 2


# ----------------------------------------------------------------------
# REPRO_FAULTS parsing
# ----------------------------------------------------------------------
BAD_FAULT_SPECS = [
    ("engine:abc", "could not convert"),
    ("bogus:0.1", "unknown fault site 'bogus'"),
    (":0.1", "unknown fault site ''"),
    ("shard:0.05", "removed with the thread shard backend"),
    ("engine:1.5", r"must be in \[0, 1\]"),
    ("engine:-0.2", r"must be in \[0, 1\]"),
    ("engine:nan", r"must be in \[0, 1\]"),
]


@pytest.mark.parametrize(
    "spec,reason", BAD_FAULT_SPECS, ids=[spec for spec, _ in BAD_FAULT_SPECS]
)
def test_bad_fault_specs_raise_config_error(spec, reason):
    with pytest.raises(ConfigError) as excinfo:
        FaultInjector.from_env({"REPRO_FAULTS": f"worker:0.1,{spec}"})
    message = str(excinfo.value)
    assert "REPRO_FAULTS" in message
    assert repr(spec) in message
    assert re.search(reason, message), message


def test_fault_probabilities_zero_and_one_are_in_range():
    spec = {"REPRO_FAULTS": "engine:0, alloc:1,timeout"}
    assert FaultInjector.from_env(spec).armed

