"""LRU caps on the kernel's memo caches (ROADMAP "heavy traffic" item).

Every capped cache memoizes a *pure* function, so eviction may cost a
recomputation but must never change observable behavior.  These property
tests force heavy eviction (caps shrunk to a handful of entries) and
assert the answers stay identical to fresh computation.
"""

import random
import threading
from collections import OrderedDict
from contextvars import copy_context

import pytest

import repro.engine.database as database_mod
import repro.engine.relation as relation_mod
import repro.lp.cllp as cllp_mod
import repro.lp.solver as solver_mod
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.lattice import builders
from repro.lp.llp import LatticeLinearProgram
from repro.lp.solver import solve_lp
from repro.query.query import Atom, Query
from repro.util.lru import lru_get, lru_put


# ----------------------------------------------------------------------
# Relation projection cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_projection_cache_eviction_preserves_semantics(seed, monkeypatch):
    monkeypatch.setattr(relation_mod, "PROJECTION_CACHE_MAX", 3)
    rng = random.Random(seed)
    schema = tuple("abcdef")
    rel = Relation(
        "R",
        schema,
        {tuple(rng.randrange(4) for _ in schema) for _ in range(50)},
    )
    # Far more distinct projections than the cap; revisit each twice in a
    # shuffled order so hits, misses and evictions interleave.
    requests = []
    for width in (1, 2, 3, 4):
        for start in range(len(schema) - width + 1):
            requests.append(schema[start:start + width])
    requests = requests * 2
    rng.shuffle(requests)
    for attrs in requests:
        cached = rel.project(attrs)
        fresh = Relation("F", schema, rel.tuples).project(attrs)
        assert cached.schema == fresh.schema == attrs
        assert set(cached.tuples) == set(fresh.tuples)
    assert len(rel._projections) <= 3


def test_projection_cache_lru_recency():
    """Re-projecting refreshes recency: the most recently used entry
    survives an eviction burst."""
    import repro.engine.relation as rm

    old = rm.PROJECTION_CACHE_MAX
    rm.PROJECTION_CACHE_MAX = 2
    try:
        rel = Relation("R", ("a", "b", "c"), [(1, 2, 3), (4, 5, 6)])
        first = rel.project(("a",))
        rel.project(("b",))
        assert rel.project(("a",)) is first  # hit refreshes recency
        rel.project(("c",))                  # evicts ("b",), not ("a",)
        assert rel.project(("a",)) is first
    finally:
        rm.PROJECTION_CACHE_MAX = old


# ----------------------------------------------------------------------
# Schema interning registry
# ----------------------------------------------------------------------
def test_schema_registry_eviction_preserves_semantics(monkeypatch):
    monkeypatch.setattr(relation_mod, "SCHEMA_REGISTRY_MAX", 4)
    # Dropping the whole registry is safe by construction (interning is a
    # sharing optimization); start empty so eviction pressure is real.
    relation_mod._SCHEMA_REGISTRY.clear()
    relations = []
    # Construct far more distinct schemas than the cap.
    for i in range(20):
        schema = (f"x{i}", f"y{i}")
        relations.append(Relation(f"R{i}", schema, [(1, 2), (3, 4)]))
    assert len(relation_mod._SCHEMA_REGISTRY) <= 4
    # Relations built before their schema was evicted keep working, and
    # rebuilding an evicted schema yields an equivalent relation.
    for i, rel in enumerate(relations):
        assert rel.positions((f"y{i}", f"x{i}")) == (1, 0)
        assert rel.varset == frozenset((f"x{i}", f"y{i}"))
        rebuilt = Relation(f"S{i}", rel.schema, rel.tuples)
        assert rebuilt.schema == rel.schema
        assert set(rebuilt.tuples) == set(rel.tuples)
        assert rebuilt.degree({f"x{i}": 1}) == rel.degree({f"x{i}": 1})


# ----------------------------------------------------------------------
# solve_lp byte-memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_solve_lp_eviction_preserves_solutions(seed, monkeypatch):
    """Under a tiny cap, re-solving an evicted program must reproduce the
    exact solution it produced the first time (LP solving is pure and the
    HiGHS pipeline is deterministic)."""
    monkeypatch.setattr(solver_mod, "_SOLVE_CACHE_MAX", 2)
    # Dropping the memo is safe by construction (it caches a pure
    # function); start empty so eviction pressure is real.
    solver_mod._SOLVE_CACHE.clear()
    rng = random.Random(seed)
    programs = []
    for _ in range(8):
        n = rng.randint(2, 4)
        costs = [rng.randint(1, 5) for _ in range(n)]
        a_ub = [[-1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
        b_ub = [-float(rng.randint(1, 4)) for _ in range(n)]
        programs.append((costs, a_ub, b_ub))
    first_pass = [
        solve_lp(costs, a_ub=a, b_ub=b) for costs, a, b in programs
    ]
    assert len(solver_mod._SOLVE_CACHE) <= 2
    # Everything early has been evicted; re-solving must agree bit-for-bit.
    for (costs, a, b), before in zip(programs, first_pass):
        again = solve_lp(costs, a_ub=a, b_ub=b)
        assert again.objective == before.objective
        assert list(again.x) == list(before.x)
        assert again.x_rational == before.x_rational
        assert list(again.duals_ub) == list(before.duals_ub)


def test_solve_lp_cache_hit_returns_same_object(monkeypatch):
    monkeypatch.setattr(solver_mod, "_SOLVE_CACHE_MAX", 8)
    solver_mod._SOLVE_CACHE.clear()
    a = solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    b = solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert a is b


# ----------------------------------------------------------------------
# Database plan caches (expansion/guard/udf kernels)
# ----------------------------------------------------------------------
def _chain_database() -> "database_mod.Database":
    """Six-attribute fd chain a→b→…→f, each fd guarded by a functional
    binary relation mapping v ↦ (3v + i) mod 8."""
    attrs = "abcdef"
    relations = []
    for i in range(len(attrs) - 1):
        pairs = [(v, (3 * v + i) % 8) for v in range(8)]
        relations.append(
            Relation(f"G{i}", (attrs[i], attrs[i + 1]), pairs)
        )
    fds = FDSet(
        [FD(attrs[i], attrs[i + 1]) for i in range(len(attrs) - 1)], attrs
    )
    return database_mod.Database(relations, fds=fds)


@pytest.mark.parametrize("seed", range(3))
def test_plan_cache_eviction_preserves_expansions(seed, monkeypatch):
    """Expansion plans are pure compilations: with the plan caches capped
    to 2 entries, revisiting evicted source schemas recompiles but every
    expansion stays identical to a fresh database's."""
    monkeypatch.setattr(database_mod, "PLAN_CACHE_MAX", 2)
    db = _chain_database()
    rng = random.Random(seed)
    # Far more distinct (source_schema, target) plan keys than the cap,
    # visited twice in shuffled order so evicted plans get recompiled.
    schemas = [("a",), ("b",), ("c",), ("d",), ("a", "c"), ("b", "d"),
               ("c", "e"), ("a", "d")]
    requests = schemas * 2
    rng.shuffle(requests)
    for schema in requests:
        target = db.fds.closure(frozenset(schema))
        out_schema = tuple(sorted(target))
        # Distinct rows: expand_rows_relation's distinct-output contract.
        rows = list(dict.fromkeys(
            tuple(rng.randrange(8) for _ in schema) for _ in range(6)
        ))
        got = db.expand_rows_relation("T", rows, schema, target, out_schema)
        fresh = _chain_database().expand_rows_relation(
            "T", rows, schema, target, out_schema
        )
        assert sorted(got.tuples) == sorted(fresh.tuples)
        assert len(db._tuple_plans) <= 2
        assert len(db._guard_lookups) <= 2


def test_relation_plan_cache_is_capped(monkeypatch):
    monkeypatch.setattr(database_mod, "PLAN_CACHE_MAX", 2)
    db = _chain_database()
    for schema in [("a",), ("b",), ("c",), ("d",), ("e",)]:
        plan = db.relation_plan(schema)
        # The compiled layout reaches the schema's fd-closure.
        assert set(plan.out_schema) == db.fds.closure(frozenset(schema))
        assert len(db._relation_plans) <= 2
    # A capacity hit returns the cached object (LRU refresh, no recompile).
    first = db.relation_plan(("d",))
    assert db.relation_plan(("d",)) is first


# ----------------------------------------------------------------------
# Long-uptime property: serving under plan caps + codec compaction
# ----------------------------------------------------------------------
def test_uptime_simulation_bounds_caches_and_preserves_answers(monkeypatch):
    """Simulated weeks of serving: every 'day' a tenant attaches a fresh
    database over new values, queries it, and detaches yesterday's.  With
    tiny plan caps and a tight dictionary cap, per-day answers must match
    a fresh single-use database bit-for-bit while the shared codec and
    plan caches stay bounded instead of growing with uptime."""
    monkeypatch.setattr(database_mod, "PLAN_CACHE_MAX", 4)
    from repro.engine.generic_join import generic_join
    from repro.serve.faults import FaultInjector
    from repro.serve.service import QueryService, canonical_rows
    from repro.serve.workloads import demo_queries, demo_relations

    triangle = demo_queries()["triangle"]
    days = 12
    with QueryService(max_workers=2, faults=FaultInjector(seed=0)) as service:
        service.create_tenant("t", dictionary_cap=60)
        tenant = service.tenant("t")
        for day in range(days):
            relations = demo_relations(
                seed=day, n_edges=32, value_base=day * 1000, value_range=16
            )
            service.attach_database("t", f"day{day}", relations)
            result = service.execute("t", f"day{day}", triangle)
            fresh_rel, _ = generic_join(
                triangle,
                database_mod.Database(relations, encode=False),
                fd_aware=True,
            )
            schema, rows = canonical_rows(fresh_rel, triangle)
            assert result.schema == schema
            assert result.rows == rows
            if day:
                service.detach_database("t", f"day{day - 1}")
            # Attached databases' plan caches respect the cap all along.
            for db in tenant.databases.values():
                assert len(db._tuple_plans) <= 4
                assert len(db._relation_plans) <= 4
        # Compaction ran and kept the shared codec near the live domain
        # (one day's values), not the union of all 12 days' values.
        assert tenant.compactions >= 1
        assert tenant.codec.total_values() <= 60 + 3 * 16
        assert service.metrics()["completed"] == days


# ----------------------------------------------------------------------
# The shared LRU helpers under concurrent eviction
# ----------------------------------------------------------------------
class _PausingCache(OrderedDict):
    """An LRU memo whose hits, in the thread named ``reader``, pause
    between the lookup and the recency refresh until another thread has
    run — the interleaving in which a concurrent insert evicts the key
    that was just found."""

    def __init__(self):
        super().__init__()
        self.hit_taken = threading.Event()
        self.evicted = threading.Event()

    def get(self, key, default=None):
        hit = super().get(key, default)
        if hit is not None and threading.current_thread().name == "reader":
            self.hit_taken.set()
            assert self.evicted.wait(10)
        return hit


def _run_race(cache: _PausingCache, read, evict) -> list:
    """Run ``read`` in a reader thread that pauses after its cache hit
    while ``evict`` runs here; returns the reader's exceptions."""
    errors = []

    def reader():
        try:
            read()
        except Exception as exc:  # reported to the caller
            errors.append(exc)

    thread = threading.Thread(
        target=copy_context().run, args=(reader,), name="reader"
    )
    thread.start()
    assert cache.hit_taken.wait(10)
    evict()
    cache.evicted.set()
    thread.join(10)
    assert not thread.is_alive()
    return errors


def test_plan_cache_hit_survives_a_concurrent_eviction(monkeypatch):
    """Two threads, cap 1: a hit whose key another thread's insert evicts
    before the recency refresh still returns its plan (the helpers used
    to raise ``KeyError`` from ``move_to_end``, which the service turned
    into an absorbed fault and a degraded response)."""
    monkeypatch.setattr(database_mod, "PLAN_CACHE_MAX", 1)
    db = _chain_database()
    plan = db.relation_plan(("a",))
    cache = _PausingCache()
    cache.update(db._relation_plans)
    db._relation_plans = cache
    got = []
    errors = _run_race(
        cache,
        lambda: got.append(db.relation_plan(("a",))),
        lambda: db.relation_plan(("b",)),
    )
    assert errors == []
    assert got == [plan]
    assert list(db._relation_plans) != [] and len(db._relation_plans) <= 1


def test_solve_memo_hit_survives_a_concurrent_eviction(monkeypatch):
    cache = _PausingCache()
    monkeypatch.setattr(solver_mod, "_SOLVE_CACHE", cache)
    monkeypatch.setattr(solver_mod, "_SOLVE_CACHE_MAX", 1)
    first = solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    got = []
    errors = _run_race(
        cache,
        lambda: got.append(
            solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        ),
        lambda: solve_lp([2.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0]),
    )
    assert errors == []
    assert got == [first]


def test_eviction_tolerates_a_memo_drained_concurrently():
    """An insert whose eviction loop finds the memo already drained by a
    concurrent insert stops instead of raising."""

    class Drained(OrderedDict):
        def popitem(self, last=True):
            self.clear()  # another thread evicted everything meanwhile
            return super().popitem(last=last)

    cache = Drained()
    lru_put(cache, "a", 1, 0)
    assert len(cache) == 0
    assert lru_get(cache, "a") is None


# ----------------------------------------------------------------------
# Process-wide memos: lattices, lattice presentations, per-lattice LPs
# ----------------------------------------------------------------------
def test_lattice_memos_stay_at_their_caps(monkeypatch):
    monkeypatch.setattr(builders, "FD_LATTICE_CACHE_MAX", 3)
    monkeypatch.setattr(builders, "QUERY_LATTICE_CACHE_MAX", 4)
    monkeypatch.setattr(builders, "_FD_LATTICE_CACHE", OrderedDict())
    monkeypatch.setattr(builders, "_QUERY_LATTICE_CACHE", OrderedDict())
    queries = []
    for i in range(10):
        # Ten distinct closed-set families: with or without a → b, over
        # zero to four extra free variables.
        extra = tuple(f"v{j}" for j in range(i % 5))
        fds = FDSet([FD("a", "b")] if i >= 5 else [], ("a", "b") + extra)
        queries.append(Query([Atom("R", ("a", "b") + extra)], fds))
    for query in queries * 2:
        lattice, inputs = builders.lattice_from_query(query)
        closed = query.fds.closed_sets(query.variables)
        assert set(lattice.elements) == closed | {query.varset}
        assert inputs == {"R": lattice.top}
        assert len(builders._FD_LATTICE_CACHE) <= 3
        assert len(builders._QUERY_LATTICE_CACHE) <= 4


def test_lattice_lp_memo_stays_at_its_cap(monkeypatch):
    monkeypatch.setattr(cllp_mod, "LP_MEMO_MAX", 4)
    lattice, inputs = builders.fig1_lattice()
    objectives = {}
    # One memo entry (or two) per distinct cardinality vector.
    for _ in range(2):
        for n in range(1, 9):
            log_sizes = {name: float(n + k) for k, name in enumerate(inputs)}
            program = LatticeLinearProgram(lattice, inputs, log_sizes)
            objective = program.solve().objective
            assert objectives.setdefault(n, objective) == objective
            assert len(cllp_mod.lattice_lp_cache(lattice)) <= 4
