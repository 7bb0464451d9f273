"""LeapFrog TrieJoin (repro.engine.leapfrog)."""

import hashlib
import itertools
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datagen.large import large_lftj_workload
from repro.datagen.product import product_database, random_database
from repro.datagen.worstcase import (
    grid_instance_example_5_5,
    m3_modular_instance,
    skew_instance_example_5_8,
)
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import (
    TrieIndex,
    _sort_key,
    leapfrog_positions,
    leapfrog_triejoin,
)
from repro.engine.relation import Relation
from repro.query.query import triangle_query


class TestTrieIndex:
    def test_build_and_walk(self):
        rel = Relation("R", ("x", "y"), [(1, 20), (1, 10), (2, 30)])
        keys, cmp, children = TrieIndex(rel, ("x", "y")).root
        assert keys == [1, 2]
        assert cmp == [_sort_key(1), _sort_key(2)]
        assert children[0][0] == [10, 20]
        assert children[1][0] == [30]
        leaf_keys, _, leaf_children = children[0][2][1]
        assert not leaf_keys and not leaf_children

    def test_seek(self):
        rel = Relation("R", ("x",), [(i,) for i in (1, 3, 5, 9)])
        keys, cmp, _ = TrieIndex(rel, ("x",), int_keys=True).root
        assert cmp is keys  # the encoded plane bisects the keys themselves
        assert keys[bisect_left(cmp, 4)] == 5
        assert keys[bisect_left(cmp, 9)] == 9
        assert bisect_left(cmp, 10) == len(keys)

    def test_order_must_cover_schema(self):
        rel = Relation("R", ("x", "y"), [(1, 2)])
        with pytest.raises(ValueError):
            TrieIndex(rel, ("x",))

    def test_reorders_attributes(self):
        rel = Relation("R", ("x", "y"), [(1, 10), (2, 10)])
        keys, _, children = TrieIndex(rel, ("y", "x")).root
        assert keys == [10]  # first level is y now
        assert children[0][0] == [1, 2]


def _keys(levels):
    return [levels[e][at[e]] for e, at in leapfrog_positions(levels)]


class TestLeapfrogIntersection:
    def test_basic(self):
        levels = [[1, 3, 5, 7], [2, 3, 5, 8], [0, 3, 5, 9]]
        assert leapfrog_positions(levels) == [(2, (1, 1, 1)), (2, (2, 2, 2))]
        assert _keys(levels) == [3, 5]

    def test_disjoint(self):
        assert leapfrog_positions([[1, 2], [3, 4]]) == []

    def test_identical(self):
        assert _keys([[1, 2, 3], [1, 2, 3]]) == [1, 2, 3]

    def test_emitter_picks_representative(self):
        # True and 1 share a sort key; the level whose turn it is emits.
        values = [[True], [1]]
        levels = [[_sort_key(v) for v in level] for level in values]
        ((emitter, at),) = leapfrog_positions(levels)
        assert at == (0, 0)
        assert values[emitter][0] is True


def _check_positions(levels):
    matches = leapfrog_positions(levels)
    common = set(levels[0]).intersection(*levels[1:])
    assert [levels[e][at[e]] for e, at in matches] == sorted(common)
    for e, at in matches:
        key = levels[e][at[e]]
        assert at == tuple(bisect_left(level, key) for level in levels)


_MIXED = st.one_of(
    st.integers(-4, 4), st.booleans(), st.sampled_from(["a", "b", "c"])
)


@given(st.lists(st.sets(st.integers(0, 30)), min_size=1, max_size=4))
@example([{4, 7}])
@example([{1, 2}, set()])
@settings(max_examples=200, deadline=None)
def test_positions_property_int_keys(sets):
    _check_positions([sorted(s) for s in sets])


@given(st.lists(st.lists(_MIXED, max_size=12), min_size=1, max_size=4))
@example([[True, "a", 2]])
@example([[1, "b"], []])
@settings(max_examples=200, deadline=None)
def test_positions_property_sort_keys(value_lists):
    _check_positions(
        [sorted({_sort_key(v) for v in values}) for values in value_lists]
    )


class TestLeapfrogTriejoin:
    def test_triangle_matches_generic(self):
        query = triangle_query()
        db = random_database(query, 120, seed=3)
        a, _ = leapfrog_triejoin(query, db)
        b, _ = generic_join(query, db)
        assert set(a.tuples) == set(b.project(a.schema).tuples)

    def test_all_orders_agree(self):
        query = triangle_query()
        db = random_database(query, 60, seed=8)
        outs = set()
        for order in itertools.permutations("xyz"):
            out, _ = leapfrog_triejoin(query, db, order=order)
            outs.add(frozenset(out.project(("x", "y", "z")).tuples))
        assert len(outs) == 1

    def test_product_instance(self):
        query = triangle_query()
        db = product_database(query, {"x": 3, "y": 3, "z": 3})
        out, _ = leapfrog_triejoin(query, db)
        assert len(out) == 27

    def test_fd_aware_on_udf_query(self):
        query, db = grid_instance_example_5_5(36)
        a, _ = leapfrog_triejoin(query, db, order=("y", "z", "x", "u"))
        b, _ = generic_join(
            query, db, order=("y", "z", "x", "u"), fd_aware=True
        )
        assert set(a.tuples) == set(b.project(a.schema).tuples)

    def test_m3_query(self):
        query, db = m3_modular_instance(7)
        out, _ = leapfrog_triejoin(query, db, order=("x", "y", "z"))
        assert len(out) == 49

    def test_skew_quadratic_footnote1(self):
        """Footnote 1's FD binding does not rescue LFTJ from Ω(N²) on the
        skew instance — the paper's point in Ex. 5.8."""
        query, db = skew_instance_example_5_8(64)
        _, stats = leapfrog_triejoin(query, db, order=("y", "z", "x", "u"))
        assert stats.tuples_touched > (64 // 2) ** 2 / 2

    def test_empty_relation(self):
        query = triangle_query()
        db = random_database(query, 0, seed=0)
        out, _ = leapfrog_triejoin(query, db)
        assert len(out) == 0

    def test_invalid_order(self):
        query = triangle_query()
        db = random_database(query, 5, seed=0)
        with pytest.raises(ValueError):
            leapfrog_triejoin(query, db, order=("x", "y"))

    def test_repeated_variable_order(self):
        query = triangle_query()
        db = random_database(query, 5, seed=0)
        with pytest.raises(ValueError, match="permutation"):
            leapfrog_triejoin(query, db, order=("x", "y", "z", "x"))

    def test_mixed_value_types(self):
        # Strings and ints in the same column sort via the type-aware key.
        query = triangle_query()
        from repro.engine.database import Database

        edges = [("a", 1), (2, "b"), ("a", "b")]
        db = Database(
            [
                Relation("R", ("x", "y"), edges),
                Relation("S", ("y", "z"), edges),
                Relation("T", ("z", "x"), edges),
            ]
        )
        a, _ = leapfrog_triejoin(query, db)
        b, _ = generic_join(query, db)
        assert set(a.tuples) == set(b.project(a.schema).tuples)


#: (tuples_touched, seeks, row digest) of ``large_lftj_workload(2000)``,
#: recorded from the iterator-object implementation the array kernel
#: replaced.  The digest covers the output rows in order.
_LFTJ_2000_PINS = {
    True: (4368, 8736, "bfcc5f1e78631906"),
    False: (4368, 8736, "d45c89ec50628f68"),
}


@pytest.mark.parametrize("encode", [True, False], ids=["encoded", "decoded"])
def test_lftj_count_pin(encode):
    query, db = large_lftj_workload(2000, seed=2, encode=encode)
    assert db.encoded == encode
    out, stats = leapfrog_triejoin(query, db)
    reference, _ = generic_join(query, db)
    assert set(out.tuples) == set(reference.project(out.schema).tuples)
    digest = hashlib.sha256(repr(out.tuples).encode()).hexdigest()[:16]
    counts = (stats.tuples_touched, stats.seeks, digest)
    assert counts == _LFTJ_2000_PINS[encode]
