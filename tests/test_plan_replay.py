"""Pinning tests for the shared symbolic-replay core.

``Database._compile_steps`` drives both plan variants (per-tuple
``expansion_plan`` and whole-relation ``relation_plan``).  These tests pin
the fd-application order — first applicable fd in FDSet order wins, every
iteration — and the three rules that intentionally differ between the
variants, so a refactor of the shared core cannot silently diverge either
one from its naive reference formulation.
"""

import pytest

from repro.engine.database import Database, ExpansionError
from repro.engine.expansion_plan import GUARD, GUARD_DENSE, UDF as UDF_STEP
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF


def _chain_db():
    """a→b guarded by G1, b→c guarded by G2, fds registered 'backwards'."""
    g1 = Relation("G1", ("a", "b"), [(1, 10), (2, 20)])
    g2 = Relation("G2", ("b", "c"), [(10, 100), (20, 200)])
    return Database([g1, g2], fds=FDSet([FD("b", "c"), FD("a", "b")]))


def test_fd_application_order_pinned_for_both_variants():
    """Applicability, not FDSet registration order, sequences the steps:
    from {a} only a→b applies, then b→c — for both plan variants (the
    tuple plan's single-key guards flatten to dense code tables)."""
    db = _chain_db()
    tuple_plan = db.expansion_plan(("a",))
    relation_plan = db.relation_plan(("a",))
    for plan, tag in ((tuple_plan, GUARD_DENSE), (relation_plan, GUARD)):
        assert plan.out_schema == ("a", "b", "c")
        assert [step[0] for step in plan.steps] == [tag, tag]
        # First step keys on position 0 (a), second on position 1 (b).
        assert plan.steps[0][1] == (0,)
        assert plan.steps[1][1] == (1,)
    assert db.expand_tuple({"a": 1}) == {"a": 1, "b": 10, "c": 100}
    one = Relation("Q", ("a",), [(1,)])
    assert db.expand_relation(one).tuples == ((1, 10, 100),)


def test_fdset_order_breaks_ties_identically():
    """With two fds applicable at once, the first in FDSet order is applied
    first — pinned for both variants via the output layout."""
    g1 = Relation("G1", ("a", "b"), [(1, 10)])
    g2 = Relation("G2", ("a", "c"), [(1, 30)])
    db = Database([g1, g2], fds=FDSet([FD("a", "c"), FD("a", "b")]))
    assert db.expansion_plan(("a",)).out_schema == ("a", "c", "b")
    assert db.relation_plan(("a",)).out_schema == ("a", "c", "b")


def test_udf_resolution_scope_differs_by_design():
    """The pinned divergence between the variants, mirroring their naive
    references: within one fd whose rhs needs chained UDFs (d = g(c),
    c = f(a)), the per-tuple variant resolves every missing attribute
    against the pre-fd bound set (as ``reference_expand_tuple`` does) and
    therefore fails, while the whole-relation variant grows the bound set
    per attribute (as ``reference_expand_relation`` does) and succeeds."""
    db = Database(
        [Relation("R", ("a",), [(1,), (2,)])],
        fds=FDSet([FD("a", "cd")], "acd"),
        udfs=[
            UDF("f", ("a",), "c", lambda a: a + 1),
            UDF("g", ("c",), "d", lambda c: c * 10),
        ],
    )
    plan = db.relation_plan(("a",))
    assert plan.out_schema == ("a", "c", "d")
    assert [tag for tag, _, _ in plan.steps] == [UDF_STEP, UDF_STEP]
    one = Relation("Q", ("a",), [(1,)])
    assert db.expand_relation(one).tuples == ((1, 2, 20),)
    with pytest.raises(ExpansionError):
        db.expansion_plan(("a",))


def test_partial_target_stops_early_only_for_tuple_plans():
    """Tuple plans honor a partial target ((rhs - bound) & goal); relation
    plans always chase the full closure."""
    db = _chain_db()
    partial = db.expansion_plan(("a",), target=frozenset(("a", "b")))
    assert partial.out_schema == ("a", "b")
    assert [tag for tag, _, _ in partial.steps] == [GUARD_DENSE]
    assert db.relation_plan(("a",)).out_schema == ("a", "b", "c")
