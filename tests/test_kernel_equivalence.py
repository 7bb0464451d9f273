"""Differential property tests: compiled kernel ≡ naive reference path.

The positional execution kernel (compiled expansion plans, functional
guard lookups, index-inheriting relations, the batched frontier backend)
must be *observationally identical* to the retained naive path in
``repro.engine.reference``: identical output relations and identical
``tuples_touched``, over randomized lattice/FD instances from
``repro.datagen``.  The instance generators and assertion machinery live
in ``tests/differential.py`` (shared with the cross-engine fuzz suite).
"""

import random

import pytest

from differential import (
    all_instances,
    assert_batch_backend_equivalence,
    assert_leapfrog_substrate_equivalence,
)
from repro.datagen.from_lattice import worst_case_database
from repro.engine.database import Database
from repro.engine.ops import WorkCounter, natural_join
from repro.engine.reference import (
    reference_expand_relation,
    reference_expand_tuple,
    reference_natural_join,
    reference_udf_consistent,
)
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.lattice.builders import fig9_lattice

SEEDS = range(8)


# ----------------------------------------------------------------------
# expand_relation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_expand_relation_equivalence(seed):
    for query, db in all_instances(seed):
        for name, rel in db.relations.items():
            kernel_counter = WorkCounter()
            naive_counter = WorkCounter()
            kernel = db.expand_relation(rel, counter=kernel_counter)
            naive = reference_expand_relation(db, rel, counter=naive_counter)
            assert set(kernel.schema) == set(naive.schema), name
            aligned = naive.project(kernel.schema)
            assert set(kernel.tuples) == set(aligned.tuples), name
            assert (
                kernel_counter.tuples_touched == naive_counter.tuples_touched
            ), f"{name}: work counts diverge"


# ----------------------------------------------------------------------
# expand_tuple
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_expand_tuple_equivalence(seed):
    rng = random.Random(seed + 7)
    for query, db in all_instances(seed):
        for name, rel in db.relations.items():
            sample = list(rel.tuples)[:10]
            # Also probe dangling/garbage bindings.
            sample += [
                tuple(rng.randrange(10) for _ in rel.schema) for _ in range(5)
            ]
            for t in sample:
                binding = dict(zip(rel.schema, t))
                snapshot = dict(binding)
                kernel_counter = WorkCounter()
                naive_counter = WorkCounter()
                kernel = db.expand_tuple(binding, counter=kernel_counter)
                assert binding == snapshot, "expand_tuple must not mutate"
                naive = reference_expand_tuple(
                    db, binding, counter=naive_counter
                )
                assert kernel == naive, (name, t)
                assert (
                    kernel_counter.tuples_touched
                    == naive_counter.tuples_touched
                ), (name, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_expand_tuple_partial_target_equivalence(seed):
    for query, db in all_instances(seed):
        for name, rel in db.relations.items():
            closure = db.fds.closure(rel.varset)
            extra = sorted(closure - rel.varset)
            if not extra:
                continue
            # A strict sub-target between the schema and the closure.
            target = frozenset(rel.varset) | {extra[0]}
            for t in list(rel.tuples)[:10]:
                binding = dict(zip(rel.schema, t))
                kernel_counter = WorkCounter()
                naive_counter = WorkCounter()
                kernel = db.expand_tuple(
                    binding, target=target, counter=kernel_counter
                )
                naive = reference_expand_tuple(
                    db, binding, target=target, counter=naive_counter
                )
                assert kernel == naive, (name, t)
                assert (
                    kernel_counter.tuples_touched
                    == naive_counter.tuples_touched
                ), (name, t)


def test_udf_filter_respects_post_hoc_registration():
    """Compiled UDF filters are salted with the registry size: a UDF
    registered after the first compilation must be enforced."""
    from repro.fds.udf import UDF

    db = Database([Relation("R", ("x", "y"), [(1, 2)])])
    assert db.udf_consistent({"x": 1, "y": 99})
    db.udfs.register(UDF("f", ("x",), "y", lambda x: x + 1))
    assert not db.udf_consistent({"x": 1, "y": 99})
    assert db.udf_consistent({"x": 1, "y": 2})


def test_expand_tuple_inconsistent_guard_returns_none():
    """The 'all matches must agree' check: an fd-violating guard makes the
    tuple dangling in both paths instead of silently taking one image."""
    r = Relation("R", ("x",), [(1,), (2,)])
    guard = Relation("G", ("x", "y"), [(1, 10), (1, 11), (2, 20)])
    db = Database([r, guard], fds=FDSet([FD("x", "y")]))
    assert db.expand_tuple({"x": 1}) is None  # ambiguous image
    assert reference_expand_tuple(db, {"x": 1}) is None
    assert db.expand_tuple({"x": 2}) == {"x": 2, "y": 20}
    assert reference_expand_tuple(db, {"x": 2}) == {"x": 2, "y": 20}


def test_expand_relation_inconsistent_guard_keeps_all_images():
    """The whole-relation path keeps join set semantics: one output row per
    distinct image (and the counter charges each emitted row)."""
    r = Relation("R", ("x",), [(1,), (2,), (3,)])
    guard = Relation("G", ("x", "y"), [(1, 10), (1, 11), (2, 20)])
    db = Database([r, guard], fds=FDSet([FD("x", "y")]))
    kernel_counter = WorkCounter()
    naive_counter = WorkCounter()
    kernel = db.expand_relation(r, counter=kernel_counter)
    naive = reference_expand_relation(db, r, counter=naive_counter)
    assert set(kernel.tuples) == {(1, 10), (1, 11), (2, 20)}
    assert set(kernel.tuples) == set(naive.project(kernel.schema).tuples)
    assert kernel_counter.tuples_touched == naive_counter.tuples_touched == 3


# ----------------------------------------------------------------------
# natural_join (smaller-side build) and udf consistency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_natural_join_equivalence(seed):
    rng = random.Random(seed + 31)
    attrs = ("x", "y", "z")
    for _ in range(6):
        left_width = rng.randint(1, 3)
        right_width = rng.randint(1, 3)
        left = Relation(
            "L",
            attrs[:left_width],
            {
                tuple(rng.randrange(4) for _ in range(left_width))
                for _ in range(rng.randint(0, 25))
            },
        )
        right = Relation(
            "R",
            attrs[3 - right_width:],
            {
                tuple(rng.randrange(4) for _ in range(right_width))
                for _ in range(rng.randint(0, 25))
            },
        )
        kernel_counter = WorkCounter()
        naive_counter = WorkCounter()
        kernel = natural_join(left, right, counter=kernel_counter)
        naive = reference_natural_join(left, right, counter=naive_counter)
        assert kernel.schema == naive.schema
        assert set(kernel.tuples) == set(naive.tuples)
        assert kernel_counter.tuples_touched == naive_counter.tuples_touched


@pytest.mark.parametrize("seed", SEEDS)
def test_udf_consistency_equivalence(seed):
    rng = random.Random(seed + 63)
    for query, db in all_instances(seed):
        variables = sorted(query.variables)
        for _ in range(20):
            row = {v: rng.randrange(4) for v in variables}
            assert db.udf_consistent(row) == reference_udf_consistent(db, row)


# ----------------------------------------------------------------------
# Batched frontier backend and the leapfrog substrate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_backend_equivalence(seed):
    """Row-loop and block batch paths ≡ per-tuple reference
    (aligned outputs and bit-identical tuples_touched)."""
    rng = random.Random(seed + 4096)
    for query, db in all_instances(seed):
        assert_batch_backend_equivalence(db, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_leapfrog_substrate_equivalence(seed):
    """Kernel-ported LFTJ ≡ LFTJ on the naive reference substrate."""
    for query, db in all_instances(seed):
        assert_leapfrog_substrate_equivalence(query, db)


def test_batched_backend_mixed_types_falls_back():
    """A key column mixing ints and strings (encoded to codes on entry)
    runs through the row-loop ``execute_batch`` and still matches the
    per-tuple executor."""
    guard = Relation(
        "G", ("x", "y"), [(1, 10), ("a", 20), (2, 30), ("b", 40)]
    )
    db = Database(
        [Relation("R", ("x",), [(1,), ("a",), (2,)]), guard],
        fds=FDSet([FD("x", "y")]),
    )
    plan = db.expansion_plan(("x",))
    rows = [
        db.codec.encode_row(("x",), row)
        for row in [(1,), ("a",), (99,), ("b",), (2,)] * 40
    ]
    c_batch = WorkCounter()
    batch = plan.execute_batch(rows, c_batch)
    c_tuple = WorkCounter()
    per_tuple = [plan.execute(t, c_tuple) for t in rows]
    assert batch == per_tuple
    assert c_batch.tuples_touched == c_tuple.tuples_touched


# ----------------------------------------------------------------------
# Full-run differential: worst-case generator instances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [2, 3])
def test_worst_case_expansion_equivalence(scale):
    lat, inputs = fig9_lattice()
    query, db, _ = worst_case_database(lat, inputs, scale=scale)
    for name, rel in db.relations.items():
        kernel_counter = WorkCounter()
        naive_counter = WorkCounter()
        kernel = db.expand_relation(rel, counter=kernel_counter)
        naive = reference_expand_relation(db, rel, counter=naive_counter)
        assert set(kernel.tuples) == set(naive.project(kernel.schema).tuples)
        assert kernel_counter.tuples_touched == naive_counter.tuples_touched
