"""The per-(query, database) compile memo: a warm read runs only the join.

A repeated read must reuse the query's lattice presentation, admission
bound, planner verdict, closure-trick expansion, generic-join access
paths and LFTJ tries, and every change to what those products depend on
(a new relation, a post-hoc fd or UDF, a codec rebuild) must drop them.
Memoizing is an optimization only: cold and warm reads return identical
rows, algorithms and work counts on every engine and every degradation
stage.
"""

import importlib
import sys
from collections import OrderedDict
from contextlib import nullcontext

import pytest

from repro.core.planner import Planner
from repro.datagen.worstcase import fig4_instance
import repro.engine.database as database_mod
from repro.engine import frontier, leapfrog
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF
from repro.lattice import builders
from repro.lattice.builders import lattice_from_query
from repro.lp.llp import LatticeLinearProgram
from repro.query.query import Atom, Query
from repro.serve.admission import certified_bound
from repro.serve.faults import FaultInjector
from repro.serve.service import (
    DEGRADATION_STAGES,
    QueryService,
    _run_engine,
    canonical_rows,
)
from repro.serve.workloads import (
    build_demo_service,
    demo_queries,
    demo_relations,
    demo_udfs,
)

# ``repro.engine`` re-exports the function under the module's name.
generic_join_mod = importlib.import_module("repro.engine.generic_join")

QUERIES = demo_queries()

#: (engine, shape) pairs the demo service answers; lftj and binary need
#: every variable in an atom, csma needs an expandable fd.
READS = [
    (engine, shape)
    for engine in ("auto", "generic", "lftj", "binary", "csma")
    for shape in QUERIES
    if not (engine in ("lftj", "binary") and shape == "udf_expand")
    and not (engine == "csma" and shape == "triangle")
]


def _database_for(shape: str) -> str:
    return "expand" if shape == "udf_expand" else "main"


@pytest.fixture
def counts(monkeypatch):
    """Call counters on every compile step a warm read must skip."""
    calls = {
        "closed_sets": 0, "llp": 0, "trie": 0, "expand_relation": 0,
        "access_paths": 0,
    }

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        FDSet, "closed_sets", counting("closed_sets", FDSet.closed_sets)
    )
    monkeypatch.setattr(
        LatticeLinearProgram,
        "__init__",
        counting("llp", LatticeLinearProgram.__init__),
    )
    monkeypatch.setattr(
        leapfrog.TrieIndex,
        "__init__",
        counting("trie", leapfrog.TrieIndex.__init__),
    )
    monkeypatch.setattr(
        Database,
        "expand_relation",
        counting("expand_relation", Database.expand_relation),
    )
    monkeypatch.setattr(
        generic_join_mod,
        "_access_paths",
        counting("access_paths", generic_join_mod._access_paths),
    )
    # The lattice memo is process-wide; start it empty so the cold pass
    # below really enumerates closed sets.
    monkeypatch.setattr(builders, "_QUERY_LATTICE_CACHE", OrderedDict())
    return calls


def _reset(calls: dict) -> None:
    for name in calls:
        calls[name] = 0


def test_repeated_read_compiles_nothing(counts):
    with build_demo_service(
        tenants=1, max_workers=2, faults=FaultInjector(seed=0)
    ) as service:
        for engine, shape in READS:
            service.execute("tenant0", _database_for(shape), QUERIES[shape],
                            engine)
        # The cold pass did the work the counters watch.
        assert all(counts.values()), counts
        _reset(counts)
        for engine, shape in READS:
            result = service.execute(
                "tenant0", _database_for(shape), QUERIES[shape], engine
            )
            assert not result.degraded
        assert not any(counts.values()), counts


def _guarded_db(**kwargs) -> Database:
    return Database(
        demo_relations(seed=3, n_edges=24),
        fds=FDSet([FD("y", "z")], "xyz"),
        **kwargs,
    )


def _answers(query, db):
    """Bound, planner verdict and canonical rows of one auto read."""
    bound, _, _ = certified_bound(query, db)
    relation, choice, _ = Planner(query, db).run()
    return bound, choice.algorithm, canonical_rows(relation, query)


def test_add_drops_the_memo_and_recomputes(counts):
    query = QUERIES["guarded_chain"]
    db = _guarded_db()
    cold = _answers(query, db)
    _reset(counts)
    assert _answers(query, db) == cold
    assert counts["llp"] == counts["expand_relation"] == 0
    db.add(Relation("U", ("u",), [(1,), (2,)]))
    assert not db._queries
    assert _answers(query, db) == cold
    assert counts["llp"] > 0 and counts["expand_relation"] > 0


def test_post_hoc_fd_and_udf_registration_drop_the_memo(counts):
    query = QUERIES["guarded_chain"]
    db = _guarded_db()
    cold = _answers(query, db)
    db.fds.add(FD("x", "y"))  # post-hoc fd: the salt changes
    _reset(counts)
    assert _answers(query, db) == cold
    assert counts["llp"] > 0 and counts["expand_relation"] > 0
    db.udfs.register(UDF("g", ("x", "y"), "w", fn=lambda x, y: x - y))
    _reset(counts)
    assert _answers(query, db) == cold
    assert counts["llp"] > 0 and counts["expand_relation"] > 0


def test_rebuild_codec_drops_the_memo(counts):
    query = QUERIES["guarded_chain"]
    db = _guarded_db()
    cold = _answers(query, db)
    db.rebuild_codec()
    assert not db._queries
    _reset(counts)
    assert _answers(query, db) == cold
    assert counts["llp"] > 0 and counts["expand_relation"] > 0


def test_reattached_database_gets_its_own_bound_and_verdict():
    """The memo lives on the Database, so a tenant that detaches a
    database and attaches a differently sized one under the same name is
    served the new bound and verdict, not the old database's.  (``add``
    cannot resize a stored relation, so this is how a read's
    cardinalities change under a service.)"""
    query, db = fig4_instance(27)
    smaller = Relation("R", db["R"].schema, sorted(db["R"].tuples)[:1])
    with QueryService(max_workers=1) as service:
        service.create_tenant("t")
        answers = []
        for relations in (
            [db[name] for name in "RSTU"],
            [smaller] + [db[name] for name in "STU"],
        ):
            service.attach_database(
                "t", "fig4", relations, fds=db.fds, udfs=list(db.udfs)
            )
            for _ in range(2):  # cold, then warm
                result = service.execute("t", "fig4", query)
                answers.append((result.algorithm, result.bound_log2))
            service.detach_database("t", "fig4")
    big_cold, big_warm, small_cold, small_warm = answers
    assert big_cold == big_warm and small_cold == small_warm
    assert big_cold[0] == "sma" and small_cold[0] == "chain"
    assert small_cold[1] < big_cold[1]


def test_memoized_inputs_are_never_mutated_by_callers():
    query = QUERIES["guarded_chain"]
    lattice, inputs = lattice_from_query(query)
    expected = dict(inputs)
    inputs.clear()
    again_lattice, again = lattice_from_query(query)
    assert again_lattice is lattice
    assert again == expected
    assert again is not lattice_from_query(query)[1]

    db = _guarded_db()
    planner = Planner(query, db)
    planner.inputs["R"] = -1
    Planner(query, db).run()
    assert lattice_from_query(query)[1] == expected
    # The memoized log-sizes stay the database's own after every reader.
    certified_bound(query, db)
    full = db.log_sizes()
    assert db.query_log_sizes(query) == {
        atom.name: full[atom.name] for atom in query.atoms
    }


def test_query_fd_added_after_a_read_is_not_served_stale():
    query = Query(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], FDSet([], "xyz")
    )
    key = query.content_key()
    before, _ = lattice_from_query(query)
    query.fds.add(FD("y", "z"))
    assert query.content_key() != key
    after, _ = lattice_from_query(query)
    fresh = Query(query.atoms, FDSet([FD("y", "z")], "xyz"))
    assert after is lattice_from_query(fresh)[0]
    assert after.n < before.n


def _databases(shape: str, encode: bool) -> Database:
    if shape == "udf_expand":
        return Database(
            [demo_relations(seed=3, n_edges=24)[0]],
            udfs=demo_udfs(),
            encode=encode,
        )
    return _guarded_db(encode=encode)


@pytest.mark.parametrize("engine,shape", READS)
def test_cold_and_warm_reads_agree_on_every_stage(engine, shape):
    query = QUERIES[shape]
    for label, mode in DEGRADATION_STAGES:
        db = _databases(shape, encode=label != "decoded-reference")
        runs = []
        for _ in range(2):  # cold memo, then warm
            override = frontier.mode_override(mode) if mode else nullcontext()
            with override:
                relation, algorithm, touched = _run_engine(engine, query, db)
            runs.append((canonical_rows(relation, query), algorithm, touched))
        assert runs[0] == runs[1], (label, engine, shape)


def test_concurrent_reads_under_eviction_pressure(monkeypatch):
    """More workers than cores share one service's memos while a cap of 1
    evicts on every insert: every read still answers undegraded with the
    rows a sequential read gave."""
    monkeypatch.setattr(database_mod, "PLAN_CACHE_MAX", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with build_demo_service(
            tenants=1, max_workers=4, queue_depth=256,
            faults=FaultInjector(seed=0),
        ) as service:
            def submit(engine, shape):
                return service.submit(
                    "tenant0", _database_for(shape), QUERIES[shape], engine
                )

            expected = {
                read: submit(*read).result(timeout=30).rows for read in READS
            }
            futures = [(read, submit(*read)) for read in READS * 8]
            for read, future in futures:
                result = future.result(timeout=30)
                assert not result.degraded, result.faults_absorbed
                assert result.rows == expected[read]
    finally:
        sys.setswitchinterval(interval)
