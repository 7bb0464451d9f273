"""Statistics-driven constraints, the closure trick, reporting, drawing."""

import math
import random

import pytest

from repro.core.planner import Planner
from repro.core.report import analyze_query, classify_lattice, taxonomy_table
from repro.core.simple_keys import (
    all_guarded_simple_keys,
    closure_trick_join,
)
from repro.datagen.product import random_database
from repro.engine.binary_join import binary_join_plan
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.statistics import (
    data_aware_bound_log2,
    degree_profiles,
    derive_degree_constraints,
)
from repro.fds.fd import FD, FDSet
from repro.lattice.builders import (
    fig9_lattice,
    lattice_from_query,
    m3_query_lattice,
)
from repro.lattice.draw import cover_edges, function_table, hasse_ascii, ranks
from repro.query.query import Atom, Query, paper_example_query, triangle_query


def simple_key_setup(seed=0):
    rng = random.Random(seed)
    query = Query(
        [
            Atom("R", ("x", "y")), Atom("S", ("y", "z")),
            Atom("T", ("z", "u")), Atom("K", ("u", "x")),
        ],
        FDSet([FD("y", "z")], "xyzu"),
    )
    mk = lambda: {(rng.randrange(8), rng.randrange(8)) for _ in range(30)}
    db = Database(
        [
            Relation("R", ("x", "y"), mk()),
            Relation("S", ("y", "z"), {(y, (3 * y + 1) % 8) for y in range(8)}),
            Relation("T", ("z", "u"), mk()),
            Relation("K", ("u", "x"), mk()),
        ],
        fds=query.fds,
    )
    return query, db


class TestDegreeStatistics:
    def test_profiles(self):
        rel = Relation("R", ("x", "y"), [(1, 1), (1, 2), (2, 1)])
        db = Database([rel])
        profiles = degree_profiles(db, "R")
        by_group = {p.group: p for p in profiles}
        assert by_group[("x",)].max_degree == 2
        assert by_group[("y",)].max_degree == 2
        assert by_group[("x",)].distinct_groups == 2

    def test_derive_constraints_key_detected(self):
        query, db = simple_key_setup()
        lattice, inputs = lattice_from_query(query)
        constraints = derive_degree_constraints(db, lattice, inputs)
        # y -> z is absorbed into the lattice (y+ = yz is S itself); the
        # *measured* functional fact that z is also a key of this S
        # instance surfaces as the constraint (z, yz) with bound 0.
        z_el = lattice.index(frozenset("z"))
        s_constraints = [
            dc for dc in constraints if dc.guard == "S" and dc.x == z_el
        ]
        assert s_constraints
        assert min(dc.bound for dc in s_constraints) == pytest.approx(0.0)

    def test_data_aware_bound_never_worse(self):
        query, db = simple_key_setup()
        lattice, inputs = lattice_from_query(query)
        plain, aware = data_aware_bound_log2(db, lattice, inputs)
        assert aware <= plain + 1e-9

    def test_data_aware_strictly_better_on_skew(self):
        query = triangle_query()
        # R has bounded out-degree 2.
        nodes = 50
        r = {(x, (x * 7 + k) % nodes) for x in range(nodes) for k in range(2)}
        rng = random.Random(0)
        s = {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(100)}
        t = {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(100)}
        db = Database(
            [
                Relation("R", ("x", "y"), r),
                Relation("S", ("y", "z"), s),
                Relation("T", ("z", "x"), t),
            ]
        )
        lattice, inputs = lattice_from_query(query)
        plain, aware = data_aware_bound_log2(db, lattice, inputs)
        assert aware < plain - 0.5


class TestClosureTrick:
    def test_detection(self):
        query, _ = simple_key_setup()
        assert all_guarded_simple_keys(query)
        assert not all_guarded_simple_keys(paper_example_query())

    def test_correctness(self):
        query, db = simple_key_setup()
        out, _ = closure_trick_join(query, db)
        ref, _ = binary_join_plan(query, db)
        assert set(out.project(ref.schema).tuples) == set(ref.tuples)

    def test_planner_routes_to_closure_trick(self):
        query, db = simple_key_setup()
        out, choice, _ = Planner(query, db).run()
        assert choice.algorithm == "closure-trick"
        ref, _ = binary_join_plan(query, db)
        assert set(out.project(ref.schema).tuples) == set(ref.tuples)


class TestReport:
    def test_analyze_no_fds(self):
        query = triangle_query()
        analysis = analyze_query(query, {"R": 10, "S": 10, "T": 10})
        assert analysis.recommended == "generic-join"

    def test_analyze_fig1(self):
        analysis = analyze_query(
            paper_example_query(), {"R": 64, "S": 64, "T": 64}
        )
        assert analysis.recommended == "chain"
        assert analysis.classification.normal
        assert not analysis.classification.distributive
        assert analysis.classification.region() == "chain-tight"

    def test_classify_m3(self):
        lat, inputs = m3_query_lattice()
        c = classify_lattice(lat, inputs)
        assert not c.normal
        assert c.chain_tight
        assert c.region() == "chain-tight"
        assert c.glvv_log2 > c.coatomic_log2  # the non-normal gap

    def test_classify_fig9(self):
        lat, inputs = fig9_lattice()
        c = classify_lattice(lat, inputs, sm_search_steps=10)
        assert c.normal and not c.chain_tight and not c.sm_tight
        assert c.region() == "normal"

    def test_taxonomy_table(self):
        table = taxonomy_table({"m3": m3_query_lattice()})
        assert not table["m3"].normal


class TestDraw:
    def test_ranks(self):
        lat, _ = m3_query_lattice()
        r = ranks(lat)
        assert r[lat.bottom] == 0
        assert r[lat.top] == 2

    def test_hasse_contains_all_elements(self):
        lat, _ = fig9_lattice()
        text = hasse_ascii(lat)
        for i in range(lat.n):
            label = lat.label(i)
            assert str(label) in text

    def test_annotation(self):
        lat, _ = m3_query_lattice()
        text = hasse_ascii(lat, annotate=lambda i: "v")
        assert "x=v" in text

    def test_function_table(self):
        lat, _ = m3_query_lattice()
        text = function_table(lat, list(range(lat.n)), title="h*")
        assert "h*" in text
        assert text.count("\n") == lat.n

    def test_cover_edges(self):
        lat, _ = m3_query_lattice()
        edges = cover_edges(lat)
        assert ("x", "1") in edges
        assert ("0", "x") in edges
        assert len(edges) == 6
