"""The array-of-int64 frontier backend: blocks, masks, and both bugfixes.

Satellite coverage for the ndarray-frontier PR:

* **Block vocabulary** — row/column/block round trips, the lexicographic
  void view (multi-attribute keys sort and compare like their tuples),
  and ``block_isin`` membership against Python-set ground truth.
* **Backend equivalence** — every engine's ``tuples_touched`` is
  bit-identical with the block backend forced on vs off
  (:func:`differential.assert_ndarray_backend_equivalence`), and the
  aligned ``execute_batch`` outputs agree across both backends
  (row-loop, ndarray) and the scalar executor, and with
  ``assert_batch_backend_equivalence`` on the shared corpus.
* **Mid-run interning** — codes interned *after* a plan compiled its
  ``GUARD_DENSE`` table (or sparse lookup) must dangle on every backend:
  no ``IndexError``, no silent join, reference-identical counts.
* **Cross-type values** — ``==``-equal values of different types share a
  code and decode to the pinned first-seen representative; engines agree
  across planes on the mixed-type corpus.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from differential import (
    ENGINES,
    MANDATORY_ENGINES,
    assert_engines_agree,
    assert_ndarray_backend_equivalence,
    assert_plane_equivalence,
    decoded_plane_db,
    mixed_type_midrun_instance,
    ndarray_forced,
    random_simple_key_workload,
)
from repro.engine import frontier
from repro.engine.database import Database
from repro.engine.expansion_plan import GUARD, GUARD_DENSE
from repro.engine.generic_join import generic_join
from repro.engine.ops import WorkCounter
from repro.engine.reference import reference_expand_tuple
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF


# ----------------------------------------------------------------------
# Block vocabulary
# ----------------------------------------------------------------------

def test_block_round_trip_and_mask_alignment():
    rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    block = frontier.rows_to_block(rows, 3)
    assert block.shape == (3, 3)
    assert frontier.block_to_rows(block, None) == rows
    mask = np.array([True, False, True])
    assert frontier.block_to_rows(block, mask) == [rows[0], None, rows[2]]
    # Non-rectangular / non-int frontiers refuse (callers fall back).
    assert frontier.rows_to_block([(1, 2), (3,)], 2) is None
    assert frontier.rows_to_block([("a", 1)], 2) is None
    assert frontier.rows_to_block(rows, 2) is None


def test_void_view_orders_like_key_tuples():
    rng = random.Random(7)
    keys = [
        tuple(rng.randrange(50) for _ in range(3)) for _ in range(200)
    ]
    block = frontier.rows_to_block(keys, 3)
    voids = frontier.void_view(block)
    by_void = [keys[i] for i in np.argsort(voids, kind="stable")]
    assert by_void == sorted(keys)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_block_isin_matches_set_membership(width):
    rng = random.Random(width)
    stored = [tuple(rng.randrange(9) for _ in range(width)) for _ in range(40)]
    probes = [tuple(rng.randrange(12) for _ in range(width)) for _ in range(120)]
    struct, _ = frontier.sorted_key_block(frontier.rows_to_block(stored, width))
    hits = frontier.block_isin(
        frontier.rows_to_block(probes, width), tuple(range(width)), struct
    )
    truth = set(stored)
    assert [bool(h) for h in hits] == [p in truth for p in probes]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_key_join_matches_index_join(width):
    """``key_join`` emits exactly the per-tuple probe join's rows, in the
    same order, with the same match count — including probe components
    the build side has never seen (mid-run codes pack to a miss)."""
    rng = random.Random(width + 40)
    guard = [tuple(rng.randrange(7) for _ in range(width)) for _ in range(60)]
    probes = [
        tuple(rng.randrange(9) for _ in range(width)) for _ in range(80)
    ] + [(10 ** 9,) * width]  # far outside every radix
    index: dict = {}
    for i, key in enumerate(guard):
        index.setdefault(key, []).append(i)
    expected = []
    touched = 0
    for i, probe in enumerate(probes):
        matches = index.get(probe, [])
        touched += len(matches)
        expected.extend((i, j) for j in matches)
    struct, order = frontier.sorted_key_block(
        frontier.rows_to_block(guard, width)
    )
    reps, gather, got_touched = frontier.key_join(
        struct, frontier.rows_to_block(probes, width), tuple(range(width))
    )
    sorted_to_original = order.tolist()
    got = [
        (int(r), sorted_to_original[int(g)]) for r, g in zip(reps, gather)
    ]
    assert got == expected
    assert got_touched == touched


def test_engaged_respects_mode_and_threshold():
    from repro.engine import shard

    saved_mode, saved_min = frontier.NDARRAY_MODE, frontier.NDARRAY_MIN_ROWS
    saved_shard = shard.SHARD_MODE
    try:
        # Pin sharding to a non-forcing mode: REPRO_SHARD=on deliberately
        # forces the block backend on (shards only exist on blocks),
        # which would defeat the auto-threshold assertions below.
        shard.SHARD_MODE = "off"
        frontier.NDARRAY_MODE, frontier.NDARRAY_MIN_ROWS = "auto", 100
        assert not frontier.ndarray_engaged(99)
        assert frontier.ndarray_engaged(100)
        frontier.NDARRAY_MODE = "off"
        assert not frontier.ndarray_engaged(10 ** 6)
        frontier.NDARRAY_MODE = "on"
        assert frontier.ndarray_engaged(1)
        assert not frontier.ndarray_engaged(0)
        # The shard coupling itself: forcing shards forces blocks, except
        # when blocks are explicitly off (which wins).
        frontier.NDARRAY_MODE, shard.SHARD_MODE = "auto", "on"
        assert frontier.ndarray_engaged(1)
        assert frontier.ndarray_forced_on()
        frontier.NDARRAY_MODE = "off"
        assert not frontier.ndarray_engaged(10 ** 6)
        assert not frontier.ndarray_forced_on()
    finally:
        frontier.NDARRAY_MODE, frontier.NDARRAY_MIN_ROWS = saved_mode, saved_min
        shard.SHARD_MODE = saved_shard


# ----------------------------------------------------------------------
# Mid-run interning: stale compile-time tables must treat fresh codes
# as dangling on every backend
# ----------------------------------------------------------------------

def _dense_guard_db() -> Database:
    fds = FDSet([FD("y", "z")], ["y", "z"])
    guard = Relation("T", ("y", "z"), [(i, i * 10) for i in range(8)])
    return Database([guard], fds=fds)


def _all_backend_runs(plan, rows):
    """``execute_batch`` under every backend, plus the scalar executor."""
    outputs = {}
    with ndarray_forced("off"):
        outputs["row-loop"] = _counted(plan, rows)
    with ndarray_forced("on"):
        outputs["ndarray"] = _counted(plan, rows)
    counter = WorkCounter()
    outputs["scalar"] = (
        counter, [plan.execute(row, counter) for row in rows]
    )
    return outputs


def _counted(plan, rows):
    counter = WorkCounter()
    return counter, plan.execute_batch(list(rows), counter)


def test_midrun_interned_code_dangles_on_every_backend():
    """A code interned after the ``GUARD_DENSE`` table compiled is ≥ the
    table length; every backend must treat it as dangling — raising
    ``IndexError`` or silently joining onto a wrong image both fail."""
    db = _dense_guard_db()
    plan = db.expansion_plan(("y",), encoded=True)
    assert plan.steps[0][0] == GUARD_DENSE
    table_size = len(plan.steps[0][2])
    y_dict = db.codec.dictionary("y")
    fresh = [y_dict.encode(f"fresh-{i}") for i in range(5)]
    assert min(fresh) >= table_size
    stored = y_dict.encode(3)
    rows = [(code,) for code in fresh] + [(stored,)]
    expected = [None] * len(fresh) + [(stored, db.codec.dictionary("z").encode(30))]

    ref_counter = WorkCounter()
    for code in fresh:
        assert reference_expand_tuple(
            db, {"y": y_dict.decode(code)}, counter=ref_counter
        ) is None
    assert reference_expand_tuple(
        db, {"y": 3}, counter=ref_counter
    ) == {"y": 3, "z": 30}

    for backend, (counter, out) in _all_backend_runs(plan, rows).items():
        assert out == expected, f"{backend} mishandled a mid-run code"
        assert counter.tuples_touched == ref_counter.tuples_touched, backend


def test_midrun_interned_code_misses_sparse_guard_on_every_backend():
    """Same contract for multi-attribute (sparse, sort/searchsorted)
    guard steps: fresh key codes are misses, never matches."""
    fds = FDSet([FD(frozenset({"a", "b"}), "c")], ["a", "b", "c"])
    guard = Relation(
        "G", ("a", "b", "c"), [(i, i % 3, i + 100) for i in range(12)]
    )
    db = Database([guard], fds=fds)
    plan = db.expansion_plan(("a", "b"), encoded=True)
    assert plan.steps[0][0] == GUARD
    a_dict, b_dict = db.codec.dictionary("a"), db.codec.dictionary("b")
    fresh_a = a_dict.encode("fresh-a")
    fresh_b = b_dict.encode("fresh-b")
    rows = [
        (fresh_a, b_dict.encode(1)),
        (a_dict.encode(4), fresh_b),
        (fresh_a, fresh_b),
        (a_dict.encode(4), b_dict.encode(1)),
    ]
    expected = [None, None, None,
                (a_dict.encode(4), b_dict.encode(1),
                 db.codec.dictionary("c").encode(104))]
    for backend, (counter, out) in _all_backend_runs(plan, rows).items():
        assert out == expected, f"{backend} mishandled a fresh sparse key"
        assert counter.tuples_touched == len(rows), backend


def test_fd_inconsistent_dense_entries_dangle_on_every_backend():
    """An fd-violating guard key maps to INCONSISTENT in the compiled
    table; all backends must dangle it (not join the first image)."""
    fds = FDSet([FD("y", "z")], ["y", "z"])
    guard = Relation(
        "T", ("y", "z"), [(0, 1), (0, 2), (1, 5)]  # y=0 violates y→z
    )
    db = Database([guard], fds=fds)
    plan = db.expansion_plan(("y",), encoded=True)
    codec = db.codec
    rows = [(codec.dictionary("y").encode(0),),
            (codec.dictionary("y").encode(1),)]
    expected = [None, (codec.dictionary("y").encode(1),
                       codec.dictionary("z").encode(5))]
    for backend, (counter, out) in _all_backend_runs(plan, rows).items():
        assert out == expected, f"{backend} joined an inconsistent key"


# ----------------------------------------------------------------------
# Cross-type ==-equal values: the pinned first-seen semantics
# ----------------------------------------------------------------------

def test_cross_type_codes_collapse_and_decode_first_seen():
    db = Database([
        Relation("R", ("v",), [(1.0,)]),
        Relation("S", ("v",), [(True,)]),
        Relation("U", ("v",), [(1,)]),
    ])
    d = db.codec.dictionary("v")
    code = d.encode(1.0)
    assert d.encode(True) == code and d.encode(1) == code
    # First-seen representative: R was added first, so 1.0 it is.
    assert type(d.decode(code)) is float and d.decode(code) == 1


@pytest.mark.parametrize("seed", range(6))
def test_mixed_type_instances_agree_across_planes(seed):
    query, db = mixed_type_midrun_instance(seed)
    assert_engines_agree(query, db, context=f"mixed seed={seed}")
    assert_plane_equivalence(query, db)


def test_mixed_type_terminal_decode_is_the_interned_representative():
    """Encoded-plane terminal outputs surface the codec's first-seen
    representative — deterministic, and ``==``-equal to the decoded
    plane's output (the documented semantics, not canonicalization)."""
    query, db = mixed_type_midrun_instance(3)
    schema = tuple(sorted(query.variables))
    encoded_out = ENGINES["csma"](query, db, schema)
    decoded_out = ENGINES["csma"](query, decoded_plane_db(db), schema)
    assert encoded_out == decoded_out
    dicts = {a: db.codec.dictionary(a) for a in schema}
    for row in encoded_out:
        for attr, value in zip(schema, row):
            rep = dicts[attr].decode(dicts[attr].encode(value))
            assert value is rep, (
                f"{attr}={value!r} is not the interned representative"
            )


# ----------------------------------------------------------------------
# Backend equivalence across whole engines
# ----------------------------------------------------------------------

def test_ndarray_variants_registered_and_mandatory():
    for name in ("chain", "sma", "csma", "generic", "lftj"):
        assert f"{name}-ndarray-frontier" in ENGINES
    for name in ("csma", "generic", "lftj"):
        assert f"{name}-ndarray-frontier" in MANDATORY_ENGINES


@pytest.mark.parametrize("seed", range(6))
def test_ndarray_backend_work_equivalence(seed):
    query, db = random_simple_key_workload(seed)
    assert_ndarray_backend_equivalence(query, db)


@pytest.mark.parametrize("seed", range(3))
def test_ndarray_backend_work_equivalence_mixed(seed):
    query, db = mixed_type_midrun_instance(seed)
    assert_ndarray_backend_equivalence(query, db)


@pytest.mark.parametrize("instance", ["cyclic", "fdchain"])
def test_generic_join_block_frontier_matches_list_path(instance):
    """The level-wise BFS frontier as an int64 block: same results and
    stats as the tuple path, across frontiers that span determined and
    choose depths (single determined depths and multi-step chains)."""
    if instance == "cyclic":
        query, db = random_simple_key_workload(11)
        order = None
    else:
        from repro.datagen.large import fdchain_order, large_fdchain_workload

        query, db = large_fdchain_workload(600, k=4)
        order = fdchain_order(4)
    with ndarray_forced("on"):
        out_on, stats_on = generic_join(query, db, order=order, fd_aware=True)
    with ndarray_forced("off"):
        out_off, stats_off = generic_join(query, db, order=order, fd_aware=True)
    assert set(out_on.tuples) == set(out_off.tuples)
    assert stats_on.tuples_touched == stats_off.tuples_touched
    assert stats_on.per_depth == stats_off.per_depth


# ----------------------------------------------------------------------
# The expand_rows_relation seam
# ----------------------------------------------------------------------

def test_expand_rows_relation_seeds_columns_on_block_path():
    fds = FDSet([FD("y", "z")], ["x", "y", "z"])
    guard = Relation("T", ("y", "z"), [(i, i * 3) for i in range(64)])
    db = Database([guard], fds=fds)
    codec = db.codec
    x_dict, y_dict = codec.dictionary("x"), codec.dictionary("y")
    rows = [
        (x_dict.encode(f"x{i}"), y_dict.encode(i % 64)) for i in range(200)
    ]
    with ndarray_forced("on"):
        rel_block = db.expand_rows_relation(
            "T(join)", rows, ("x", "y"), frozenset("xyz"), ("x", "y", "z"),
            encoded=True,
        )
    with ndarray_forced("off"):
        rel_rows = db.expand_rows_relation(
            "T(join)", rows, ("x", "y"), frozenset("xyz"), ("x", "y", "z"),
            encoded=True,
        )
    assert rel_block.tuples == rel_rows.tuples
    assert rel_block.cached_columns() is not None
    assert rel_block.columns_all_int() == (True, True, True)
    assert rel_block.columns() == tuple(
        tuple(row[j] for row in rel_block.tuples) for j in range(3)
    )


def test_dangling_rows_probe_later_guards_safely():
    """A row dangled by an early guard skips its UDF write, yet later
    guard steps still probe its cells vectorized — those cells must hold
    safe codes (zeros), not heap garbage that could fancy-index a table
    out of bounds (guard → UDF → guard is the crash shape)."""
    fds = FDSet(
        [FD("x", "a"), FD("a", "b"), FD("b", "c")], ["x", "a", "b", "c"]
    )
    g1 = Relation("G1", ("x", "a"), [(i, i) for i in range(16)])
    db = Database(
        [g1, Relation("G3", ("b", "c"), [(i, i + 1) for i in range(64)])],
        fds=fds,
        udfs=[UDF("u", ("a",), "b", lambda a: a * 2)],
    )
    plan = db.expansion_plan(("x",), encoded=True)
    assert [step[0] for step in plan.steps] == [GUARD_DENSE, 1, GUARD_DENSE]
    x_dict = db.codec.dictionary("x")
    rows = [(x_dict.encode(3),), (x_dict.encode("dangling"),),
            (x_dict.encode(5),)]
    for backend, (counter, out) in _all_backend_runs(plan, rows).items():
        assert out[1] is None and out[0] is not None and out[2] is not None, (
            backend
        )


def test_decoded_lftj_joins_decimal_against_int():
    """``==``-equal numerics of *any* stdlib numeric type must meet in
    the decoded trie order — Decimal('1') joins 1 like 1.0 does."""
    from decimal import Decimal

    from repro.engine.leapfrog import leapfrog_triejoin
    from repro.query.query import Atom, Query

    query = Query([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("x", "y"), [(0, Decimal(1)), (1, 2)]),
            Relation("S", ("y", "z"), [(1, 7), (Decimal(2), 8)]),
        ],
        encode=False,
    )
    out, _ = leapfrog_triejoin(query, db)
    assert {tuple(map(int, t)) for t in out.tuples} == {(0, 1, 7), (1, 2, 8)}


def test_decoded_lftj_joins_cross_type_infinities():
    """``float('inf') == Decimal('Infinity')`` (and they share a hash),
    so the two must meet in the decoded trie order like any ``==``-equal
    pair."""
    from decimal import Decimal

    from repro.engine.leapfrog import leapfrog_triejoin
    from repro.query.query import Atom, Query

    query = Query([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("x", "y"), [(1, float("inf"))]),
            Relation("S", ("y", "z"), [(Decimal("Infinity"), 2)]),
        ],
        encode=False,
    )
    out, _ = leapfrog_triejoin(query, db)
    assert len(out.tuples) == 1 and out.tuples[0][0] == 1


def test_from_columns_refuses_desynced_store_on_dedup():
    """Without ``distinct=True`` the constructor may dedup; the pre-dedup
    column store must then NOT be installed (lazy transpose instead)."""
    rel = Relation.from_columns("X", ("a", "b"), [(1, 1, 2), (5, 5, 6)])
    assert rel.tuples == ((1, 5), (2, 6))
    assert rel.columns() == ((1, 2), (5, 6))
    distinct = Relation.from_columns(
        "Y", ("a", "b"), [(1, 2), (5, 6)], distinct=True
    )
    assert distinct.cached_columns() == ((1, 2), (5, 6))


def test_udf_steps_decode_only_masked_in_rows():
    """On the block backend a UDF runs once per *alive* row: rows dangled
    by an earlier guard step never evaluate the opaque predicate."""
    calls = []

    def probe(v):
        calls.append(v)
        return v

    fds = FDSet([FD("a", "b"), FD(frozenset({"a", "b"}), "c")], ["a", "b", "c"])
    guard = Relation("G", ("a", "b"), [(i, i + 10) for i in range(4)])
    db = Database(
        [guard], fds=fds, udfs=[UDF("p", ("b",), "c", probe)]
    )
    plan = db.expansion_plan(("a",), encoded=True)
    tags = [step[0] for step in plan.steps]
    assert tags[0] in (GUARD, GUARD_DENSE) and tags[-1] == 1  # UDF last
    a_dict = db.codec.dictionary("a")
    fresh = a_dict.encode("dangling")
    rows = [(a_dict.encode(2),), (fresh,), (a_dict.encode(3),)]
    with ndarray_forced("on"):
        counter = WorkCounter()
        out = plan.execute_batch(rows, counter)
    assert out[1] is None and out[0] is not None and out[2] is not None
    assert calls == [12, 13]  # the dangled row never reached the UDF
    # Charges: 3 rows at the guard step + 2 alive rows at the UDF step.
    assert counter.tuples_touched == 5
