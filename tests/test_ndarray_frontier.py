"""The array-of-int64 frontier backend: blocks, masks, and both bugfixes.

Satellite coverage for the ndarray-frontier PR:

* **Block vocabulary** — row/column/block round trips, the lexicographic
  void view (multi-attribute keys sort and compare like their tuples),
  and ``block_isin`` membership against Python-set ground truth, with
  the table branch pinned to searchsorted on every structure kind.
* **Executor choice** — frontier size picks the executor, and the
  row-threshold override holds for its own context only.
* **Backend equivalence** — every engine's ``tuples_touched`` is
  bit-identical with blocks at every seam vs the row-loop only
  (:func:`differential.assert_ndarray_backend_equivalence`), and the
  aligned outputs of both executors (row-loop, block pipeline) and the
  scalar executor agree, and with ``assert_batch_backend_equivalence``
  on the shared corpus.
* **Mid-run interning** — codes interned *after* a plan compiled its
  ``GUARD_DENSE`` table (or sparse lookup) must dangle on every backend:
  no ``IndexError``, no silent join, reference-identical counts.
* **Cross-type values** — ``==``-equal values of different types share a
  code and decode to the pinned first-seen representative; engines agree
  with the value-level reference join on the mixed-type corpus.
"""

from __future__ import annotations

import random
import threading
from contextvars import copy_context
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    ENGINES,
    MANDATORY_ENGINES,
    assert_engines_agree,
    assert_lazy_equivalence,
    assert_ndarray_backend_equivalence,
    block_rows,
    mixed_type_midrun_instance,
    ndarray_forced,
    random_simple_key_workload,
)
from repro.datagen.large import fdchain_order, large_fdchain_workload
from repro.engine import frontier
from repro.engine.database import Database
from repro.engine.expansion_plan import GUARD, GUARD_DENSE, ExpansionPlan
from repro.engine.generic_join import generic_join
from repro.engine.ops import WorkCounter
from repro.engine.reference import reference_expand_tuple, reference_join
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
    assert block_rows(block, np.arange(3), 3) == rows
    alive = np.array([0, 2])
    assert block_rows(block[alive], alive, 3) == [rows[0], None, rows[2]]
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


@st.composite
def membership_cases(draw):
    """A key structure of every kind over dense or sparse key ranges,
    and probes: stored keys, near misses, and components far above
    every radix (packed probes that pack to ``-1``)."""
    structure = draw(st.sampled_from(["int", "packed", "void", "empty"]))
    width = 1 if structure == "int" else draw(
        st.integers(2, 3) if structure != "empty" else st.integers(1, 3)
    )
    # Sparse ranges put keys up to 10**6 apart: far beyond 6x the counts,
    # so membership binary-searches; dense ones fit the table.
    high = draw(st.sampled_from([7, 10 ** 6]))
    code = st.integers(0, high)
    n_keys = 0 if structure == "empty" else draw(
        st.sampled_from([1, draw(st.integers(1, 40))])
    )
    keys = draw(
        st.lists(
            st.tuples(*[code] * width), min_size=n_keys, max_size=n_keys
        )
    )
    probe = st.tuples(*[st.integers(0, high + 2)] * width)
    above = st.tuples(*[st.sampled_from([0, 1, high + 1, 2 ** 40])] * width)
    options = [probe, above] + ([st.sampled_from(keys)] if keys else [])
    probes = draw(st.lists(st.one_of(*options), max_size=60))
    return structure, width, keys, probes


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_block_isin_table_matches_searchsorted(case):
    """Table membership ≡ searchsorted membership ≡ set membership, on
    every structure kind, key range, key count and probe."""
    structure, width, keys, probes = case
    radixes = (lambda block: None) if structure == "void" else (
        frontier._pack_radixes
    )
    with mock.patch.object(frontier, "_pack_radixes", radixes):
        struct, _ = frontier.sorted_key_block(
            np.array(keys, dtype=np.int64).reshape(-1, width)
        )
    assert struct[0] == structure
    # The key sits behind a junk column, as plan outputs hold it.
    block = np.array(
        [(9,) + p for p in probes], dtype=np.int64
    ).reshape(-1, width + 1)
    positions = tuple(range(1, width + 1))
    table = frontier.block_isin(block, positions, struct)
    searched, _ = frontier.key_hits(
        struct, [block[:, p] for p in positions]
    )
    truth = set(keys)
    assert table.tolist() == searched.tolist() == [p in truth for p in probes]


def test_block_isin_takes_the_table_on_dense_key_ranges(monkeypatch):
    kinds = []
    isin = np.isin

    def spy(*args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return isin(*args, **kwargs)

    monkeypatch.setattr(np, "isin", spy)
    probes = np.arange(50, dtype=np.int64).reshape(-1, 1)
    dense, _ = frontier.sorted_key_block(probes[::3])
    assert frontier.block_isin(probes, (0,), dense).sum() == 17
    assert kinds == ["table"]
    sparse, _ = frontier.sorted_key_block(
        np.array([[0], [10 ** 6]], dtype=np.int64)
    )
    assert frontier.block_isin(probes, (0,), sparse).sum() == 1
    assert kinds == ["table"]


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


def test_min_rows_override_is_context_local(monkeypatch):
    """Frontier size picks the executor; the override moves the
    threshold for its own context only — a thread started inside it sees
    the default — and under the service's ``encoded-rows`` stage a
    frontier above the default threshold makes no block call."""
    from repro.serve.service import DEGRADATION_STAGES

    default = frontier.NDARRAY_MIN_ROWS
    assert default == 4096
    assert not frontier.ndarray_engaged(default - 1)
    assert frontier.ndarray_engaged(default)
    seen = []

    def probe():
        seen.append(
            (frontier.ndarray_engaged(1), frontier.ndarray_engaged(default))
        )

    with frontier.min_rows_override(1):
        assert frontier.ndarray_engaged(1)
        assert not frontier.ndarray_engaged(0)
        # A plain thread starts from an empty context (the point of the
        # check); one started from a snapshot, as the service's workers
        # are, carries the override.
        plain = threading.Thread(target=probe)  # repro-lint: disable=context-propagation
        snapshot = threading.Thread(target=copy_context().run, args=(probe,))
        for thread in (plain, snapshot):
            thread.start()
            thread.join()
    assert seen == [(False, True), (True, True)]
    with frontier.min_rows_override(None):
        assert not frontier.ndarray_engaged(10 ** 6)
    assert frontier.ndarray_engaged(default)

    block_calls = []
    run_block = ExpansionPlan.execute_batch_ndarray

    def counted(plan, block, *args):
        block_calls.append(block.shape[0])
        return run_block(plan, block, *args)

    monkeypatch.setattr(ExpansionPlan, "execute_batch_ndarray", counted)
    query, db = large_fdchain_workload(8000, k=4)
    order = fdchain_order(4)
    default_out, _ = generic_join(query, db, order=order, fd_aware=True)
    assert max(block_calls) > default
    min_rows = dict(DEGRADATION_STAGES)["encoded-rows"]
    block_calls.clear()
    with frontier.min_rows_override(min_rows):
        rows_out, _ = generic_join(query, db, order=order, fd_aware=True)
    assert block_calls == []
    assert set(rows_out.tuples) == set(default_out.tuples)


# ----------------------------------------------------------------------
# Mid-run interning: stale compile-time tables must treat fresh codes
# as dangling on every backend
# ----------------------------------------------------------------------

def _dense_guard_db() -> Database:
    fds = FDSet([FD("y", "z")], ["y", "z"])
    guard = Relation("T", ("y", "z"), [(i, i * 10) for i in range(8)])
    return Database([guard], fds=fds)


def _all_backend_runs(plan, rows):
    """Aligned outputs of both batch executors and the scalar one."""
    outputs = {}
    counter = WorkCounter()
    outputs["row-loop"] = (counter, plan.execute_batch(list(rows), counter))
    counter = WorkCounter()
    block = frontier.rows_to_block(rows, len(plan.source_schema))
    outputs["ndarray"] = (
        counter,
        block_rows(*plan.execute_batch_ndarray(block, counter), len(rows)),
    )
    counter = WorkCounter()
    outputs["scalar"] = (
        counter, [plan.execute(row, counter) for row in rows]
    )
    return outputs


def test_midrun_interned_code_dangles_on_every_backend():
    """A code interned after the ``GUARD_DENSE`` table compiled is ≥ the
    table length; every backend must treat it as dangling — raising
    ``IndexError`` or silently joining onto a wrong image both fail."""
    db = _dense_guard_db()
    plan = db.expansion_plan(("y",))
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
    plan = db.expansion_plan(("a", "b"))
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
    plan = db.expansion_plan(("y",))
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
    assert_lazy_equivalence(query, db)


def test_mixed_type_terminal_decode_is_the_interned_representative():
    """Engine outputs surface the codec's first-seen representative —
    deterministic, and ``==``-equal to the value-level reference join's
    output (the documented semantics, not canonicalization)."""
    query, db = mixed_type_midrun_instance(3)
    schema = tuple(sorted(query.variables))
    encoded_out = ENGINES["csma"](query, db, schema)
    assert encoded_out == ENGINES["reference"](query, db, schema)
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
    """The block path materializes a code relation whose store is its own
    C-contiguous ``(width, n)`` array — rows equal to the row path's, and
    the next join step reads the array back as a block view, no copy."""
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
        )
    with ndarray_forced("off"):
        rel_rows = db.expand_rows_relation(
            "T(join)", rows, ("x", "y"), frozenset("xyz"), ("x", "y", "z"),
        )
    codes = rel_block.code_columns()
    assert codes.shape == (3, 200) and codes.flags.c_contiguous
    assert rel_block.tuples == rel_rows.tuples
    assert rel_block.columns_all_int() == (True, True, True)
    block = frontier.columns_to_block(rel_block.column_store(), len(rel_block))
    assert np.shares_memory(block, codes)


def test_expand_block_relation_never_freezes_the_callers_block():
    """A step-less expansion with the identity reorder still hands
    ``from_codes`` a fresh array: the caller's block stays writeable and
    unshared."""
    db = Database([Relation("T", ("y", "z"), [(1, 2)])])
    block = np.arange(12, dtype=np.int64).reshape(6, 2)
    rel = db.expand_block_relation(
        "T(out)", block, ("y", "z"), frozenset("yz"), ("y", "z")
    )
    assert block.flags.writeable
    assert not np.shares_memory(block, rel.code_columns())
    assert rel.tuples == tuple(map(tuple, block.tolist()))


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
    plan = db.expansion_plan(("x",))
    assert [step[0] for step in plan.steps] == [GUARD_DENSE, 1, GUARD_DENSE]
    x_dict = db.codec.dictionary("x")
    rows = [(x_dict.encode(3),), (x_dict.encode("dangling"),),
            (x_dict.encode(5),)]
    for backend, (counter, out) in _all_backend_runs(plan, rows).items():
        assert out[1] is None and out[0] is not None and out[2] is not None, (
            backend
        )


def _lftj_both_substrates(query, db):
    """LFTJ on both substrates, each checked against the reference join:
    the compiled one over code tries, the reference one over the value
    tries (``_sort_key`` order)."""
    from repro.engine.leapfrog import leapfrog_triejoin

    expected = set(reference_join(query, db).project(query.variables).tuples)
    for expansion in ("plan", "reference"):
        out, _ = leapfrog_triejoin(query, db, expansion=expansion)
        assert set(out.tuples) == expected, expansion
    return expected


def test_decoded_lftj_joins_decimal_against_int():
    """``==``-equal numerics of *any* stdlib numeric type must meet in
    the value trie order — Decimal('1') joins 1 like 1.0 does — and share
    one code in the encoded tries."""
    from decimal import Decimal

    from repro.query.query import Atom, Query

    query = Query([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("x", "y"), [(0, Decimal(1)), (1, 2)]),
            Relation("S", ("y", "z"), [(1, 7), (Decimal(2), 8)]),
        ],
    )
    out = _lftj_both_substrates(query, db)
    assert {tuple(map(int, t)) for t in out} == {(0, 1, 7), (1, 2, 8)}


def test_decoded_lftj_joins_cross_type_infinities():
    """``float('inf') == Decimal('Infinity')`` (and they share a hash),
    so the two must meet in the value trie order like any ``==``-equal
    pair, and share one code in the encoded tries."""
    from decimal import Decimal

    from repro.query.query import Atom, Query

    query = Query([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("x", "y"), [(1, float("inf"))]),
            Relation("S", ("y", "z"), [(Decimal("Infinity"), 2)]),
        ],
    )
    out = _lftj_both_substrates(query, db)
    assert len(out) == 1 and next(iter(out))[0] == 1


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
    plan = db.expansion_plan(("a",))
    tags = [step[0] for step in plan.steps]
    assert tags[0] in (GUARD, GUARD_DENSE) and tags[-1] == 1  # UDF last
    a_dict = db.codec.dictionary("a")
    fresh = a_dict.encode("dangling")
    rows = [(a_dict.encode(2),), (fresh,), (a_dict.encode(3),)]
    counter = WorkCounter()
    out = block_rows(
        *plan.execute_batch_ndarray(frontier.rows_to_block(rows, 1), counter),
        len(rows),
    )
    assert out[1] is None and out[0] is not None and out[2] is not None
    assert calls == [12, 13]  # the dangled row never reached the UDF
    # Charges: 3 rows at the guard step + 2 alive rows at the UDF step.
    assert counter.tuples_touched == 5
