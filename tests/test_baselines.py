"""Baseline join algorithms (generic join, binary plans)."""

import itertools

import pytest

from repro.datagen.product import product_database, random_database
from repro.datagen.worstcase import skew_instance_example_5_8
from repro.engine.binary_join import binary_join_plan
from repro.engine.database import Database
from repro.engine.generic_join import generic_join
from repro.engine.relation import Relation
from repro.query.query import Atom, Query, triangle_query


class TestGenericJoin:
    def test_triangle_counts(self, triangle, triangle_db):
        out, stats = generic_join(triangle, triangle_db)
        assert len(out) == 6 * 5 * 4

    def test_empty_relation(self, triangle):
        db = Database(
            [
                Relation("R", ("x", "y"), []),
                Relation("S", ("y", "z"), [(1, 2)]),
                Relation("T", ("z", "x"), [(2, 3)]),
            ]
        )
        out, _ = generic_join(triangle, db)
        assert len(out) == 0

    def test_all_orders_agree(self, triangle, triangle_db):
        results = set()
        for order in itertools.permutations("xyz"):
            out, _ = generic_join(triangle, triangle_db, order=order)
            results.add(frozenset(out.project(("x", "y", "z")).tuples))
        assert len(results) == 1

    def test_invalid_order(self, triangle, triangle_db):
        with pytest.raises(ValueError):
            generic_join(triangle, triangle_db, order=("x", "y"))

    def test_repeated_variable_order(self, triangle, triangle_db):
        with pytest.raises(ValueError, match="permutation"):
            generic_join(triangle, triangle_db, order=("x", "y", "z", "x"))

    def test_matches_product_bound(self, triangle):
        db = product_database(triangle, {"x": 3, "y": 4, "z": 5})
        out, _ = generic_join(triangle, db)
        assert len(out) == 3 * 4 * 5

    def test_agrees_with_binary(self, triangle):
        db = random_database(triangle, 80, seed=7)
        a, _ = generic_join(triangle, db)
        b, _ = binary_join_plan(triangle, db)
        assert set(a.tuples) == set(b.project(a.schema).tuples)

    def test_dead_frontier_builds_no_indexes(self, triangle):
        """Index construction is deferred to first probe: a query whose
        frontier dies at depth 0 must not pay the O(N) index builds for
        the untouched atoms and depths (regression for the old eager
        per-(atom, depth) prologue)."""
        db = Database(
            [
                Relation("R", ("x", "y"), []),  # kills the depth-0 frontier
                Relation("S", ("y", "z"), [(i, i) for i in range(50)]),
                Relation("T", ("z", "x"), [(i, i) for i in range(50)]),
            ]
        )
        out, _ = generic_join(triangle, db)
        assert len(out) == 0
        # Depth 0 (x) sizes R and T on the empty prefix by their lengths,
        # so no index is built; S — and every deeper or verify index — is
        # never touched.  The engine probes the encoded twins, so that is
        # where the laziness is observable.
        assert db.runtime("S")._indexes == {}
        assert db.runtime("R")._indexes == {}
        assert db.runtime("T")._indexes == {}

    def test_fd_aware_binds_determined_variable(self):
        # y = f(x): fd-aware never enumerates y.
        from repro.fds.udf import UDF

        query = Query(
            [Atom("R", ("x",)), Atom("S", ("x", "y"))],
        )
        s_tuples = [(i, i + 1) for i in range(10)]
        db = Database(
            [
                Relation("R", ("x",), [(i,) for i in range(10)]),
                Relation("S", ("x", "y"), s_tuples),
            ],
            udfs=[UDF("f", ("x",), "y", lambda x: x + 1)],
        )
        out, stats = generic_join(query, db, order=("x", "y"), fd_aware=True)
        assert len(out) == 10
        # Depth 1 work is one expansion per x, not a scan of S.
        assert stats.per_depth[1] == 10

    def test_oblivious_rejects_atomless_variable(self):
        from repro.fds.fd import FD, FDSet

        query = Query(
            [Atom("R", ("x",)), Atom("S", ("y",))],
            FDSet([FD("xy", "z")], "xyz"),
        )
        db = Database(
            [Relation("R", ("x",), [(1,)]), Relation("S", ("y",), [(2,)])]
        )
        with pytest.raises(ValueError):
            generic_join(query, db)

    def test_skew_instance_quadratic_blowup(self):
        """Ex. 5.8: the y,z,x,u order touches Θ(N²/4) bindings even
        fd-aware — the motivating lower bound for the Chain Algorithm."""
        query, db = skew_instance_example_5_8(64)
        _, stats = generic_join(
            query, db, order=("y", "z", "x", "u"), fd_aware=True
        )
        n = 64
        assert stats.tuples_touched > (n // 2) ** 2  # Θ(N²/4) barrier


class TestBinaryJoin:
    def test_triangle(self, triangle, triangle_db):
        out, stats = binary_join_plan(triangle, triangle_db)
        assert len(out) == 120
        assert stats.intermediate_peak >= 120

    def test_intermediate_blowup_recorded(self):
        query, db = skew_instance_example_5_8(64)
        out, stats = binary_join_plan(query, db, order=["R", "S", "T"])
        # The R ⋈ S ⋈ T intermediate is quadratic (Sec. 1.1).
        assert stats.intermediate_peak > (64 // 2) ** 2

    def test_explicit_order(self, triangle, triangle_db):
        out, _ = binary_join_plan(triangle, triangle_db, order=["T", "S", "R"])
        assert len(out) == 120

    def test_udf_filter_applied(self):
        query, db = skew_instance_example_5_8(32)
        out, _ = binary_join_plan(query, db, order=["R", "S", "T"])
        # Every output tuple satisfies u = f(x, z) = x and x = g(y, u) = u.
        pos = {a: i for i, a in enumerate(out.schema)}
        for t in out.tuples:
            assert t[pos["u"]] == t[pos["x"]]
