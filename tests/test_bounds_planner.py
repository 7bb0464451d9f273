"""Bound calculators and the planner (repro.core.bounds / planner)."""

import math

import pytest

from repro.core.bounds import (
    agm_bound_log2,
    closure_bound_log2,
    coatomic_bound_log2,
    compute_bounds,
    glvv_bound_log2,
    normal_bound_log2,
)
from repro.core.planner import Planner
from repro.datagen.product import random_database
from repro.datagen.worstcase import (
    fig4_instance,
    grid_instance_example_5_5,
    m3_modular_instance,
)
from repro.engine.binary_join import binary_join_plan
from repro.fds.fd import FD, FDSet
from repro.lattice.builders import (
    fig1_lattice,
    fig4_lattice,
    fig9_lattice,
    lattice_from_query,
    m3_query_lattice,
)
from repro.query.query import Atom, Query, paper_example_query, triangle_query


class TestAGM:
    def test_triangle(self):
        query = triangle_query()
        sizes = {"R": 64, "S": 64, "T": 64}
        assert agm_bound_log2(query, sizes) == pytest.approx(9.0)

    def test_triangle_asymmetric_eq4(self):
        """Eq. (4): AGM = min(sqrt(R·S·T), R·S, R·T, S·T)."""
        query = triangle_query()
        sizes = {"R": 4, "S": 4, "T": 4096}
        # sqrt = 8, RS = 4: bound = 2^4 (log2 = 4).
        assert agm_bound_log2(query, sizes) == pytest.approx(4.0)


class TestClosureBound:
    def test_simple_key_tightens(self, simple_key_query):
        """Sec. 2: y→z in S adds the R·K cover option."""
        sizes = {"R": 4, "S": 1 << 20, "T": 4, "K": 4}
        plain = agm_bound_log2(simple_key_query, sizes)
        closed = closure_bound_log2(simple_key_query, sizes)
        # AGM = min(R·T, S·K) = 4 bits; AGM(Q+) adds R·K = 4 bits too —
        # use sizes making the difference visible:
        sizes = {"R": 4, "S": 1 << 20, "T": 1 << 20, "K": 4}
        plain = agm_bound_log2(simple_key_query, sizes)
        closed = closure_bound_log2(simple_key_query, sizes)
        assert closed < plain  # R·K beats both R·T and S·K

    def test_closure_fails_for_nonsimple(self):
        """Sec. 2's counterexample: R(x), S(y), T(x,y,z), xy→z with
        |T| = M >> N²: AGM(Q+) = M but GLVV = N²."""
        query = Query(
            [Atom("R", ("x",)), Atom("S", ("y",)), Atom("T", ("x", "y", "z"))],
            FDSet([FD("xy", "z")], "xyz"),
        )
        sizes = {"R": 4, "S": 4, "T": 1 << 20}
        closed = closure_bound_log2(query, sizes)
        glvv, _, _ = glvv_bound_log2(query, sizes)
        assert closed == pytest.approx(20.0)
        assert glvv == pytest.approx(4.0)


class TestBoundHierarchy:
    def test_fig1_report(self):
        query = paper_example_query()
        sizes = {"R": 256, "S": 256, "T": 256}
        report = compute_bounds(query, sizes)
        assert report.glvv == pytest.approx(12.0)       # N^{3/2}
        assert report.chain == pytest.approx(12.0)      # tight chain
        assert report.agm >= 15.9                       # N² without fds
        assert report.normal == pytest.approx(report.coatomic)

    def test_fig4_chain_gap(self):
        query, db = fig4_instance(64)
        report = compute_bounds(query, db.sizes())
        assert report.glvv == pytest.approx(8.0, abs=0.01)       # N^{4/3}
        assert report.chain == pytest.approx(9.0, abs=0.01)      # N^{3/2}
        assert report.glvv < report.chain

    def test_m3_gap_between_glvv_and_coatomic(self):
        # On M3, GLVV = 2 > coatomic cover = 3/2: non-normal lattice.
        lat, inputs = m3_query_lattice()
        logs = {name: 1.0 for name in inputs}
        glvv = 2.0
        coat = coatomic_bound_log2(lat, inputs, logs)
        norm = normal_bound_log2(lat, inputs, logs)
        assert coat == pytest.approx(1.5)
        assert norm == pytest.approx(1.5)
        assert glvv > coat

    def test_normal_equals_coatomic_always(self):
        # LP duality: the two computations agree on every lattice.
        for lat, inputs in [fig1_lattice(), fig4_lattice(), fig9_lattice(),
                            m3_query_lattice()]:
            logs = {name: 1.0 for name in inputs}
            assert normal_bound_log2(lat, inputs, logs) == pytest.approx(
                coatomic_bound_log2(lat, inputs, logs)
            )

    def test_glvv_below_agm(self):
        query = paper_example_query()
        sizes = {"R": 100, "S": 100, "T": 100}
        report = compute_bounds(query, sizes)
        assert report.glvv <= report.agm + 1e-9
        assert report.glvv <= report.closure + 1e-9
        assert report.glvv <= report.chain + 1e-9


class TestPlanner:
    def test_no_fds_generic_join(self):
        query = triangle_query()
        db = random_database(query, 50, seed=0)
        planner = Planner(query, db)
        choice = planner.choose()
        assert choice.algorithm == "generic-join"

    def test_fig1_chooses_chain(self):
        query, db = grid_instance_example_5_5(36)
        choice = Planner(query, db).choose()
        assert choice.algorithm == "chain"

    def test_fig4_chooses_sma(self):
        query, db = fig4_instance(27)
        choice = Planner(query, db).choose()
        assert choice.algorithm == "sma"

    def test_fig9_chooses_csma(self):
        from repro.datagen.from_lattice import worst_case_database
        from repro.lattice.builders import fig9_lattice

        lat0, inp0 = fig9_lattice()
        query, db, _ = worst_case_database(lat0, inp0, scale=2)
        choice = Planner(query, db).choose()
        assert choice.algorithm == "csma"

    @pytest.mark.parametrize("maker", [
        lambda: grid_instance_example_5_5(25),
        lambda: fig4_instance(27),
        lambda: m3_modular_instance(8),
    ])
    def test_run_matches_reference(self, maker):
        query, db = maker()
        out, choice, _ = Planner(query, db).run()
        ref, _ = binary_join_plan(query, db)
        assert set(out.project(tuple(sorted(query.variables))).tuples) == set(
            ref.project(tuple(sorted(query.variables))).tuples
        )
