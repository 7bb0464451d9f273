"""Cross-engine fuzzing: every engine must agree on every workload.

Random queries with guarded simple-key fds (so every strategy applies)
plus the paper's fixed workloads, evaluated by every registered engine:
binary plans, generic join, LFTJ on both expansion substrates, the Chain
Algorithm, SMA (when a good proof exists), CSMA, and the closure trick —
each checked against the naive value-level reference join.  The instance
generators, engine registry and agreement assertions live in
``tests/differential.py``; this file drives them, and a Hypothesis
property checks the reference join itself against ``generic_join``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    MANDATORY_ENGINES,
    assert_engines_agree,
    assert_leapfrog_substrate_equivalence,
    assert_lp_backend_equivalence,
    random_simple_key_workload,
)
from repro.engine.database import Database
from repro.engine.generic_join import generic_join
from repro.engine.reference import reference_join
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF
from repro.lp.solver import HAVE_SCIPY
from repro.query.query import Atom, Query

requires_scipy = pytest.mark.skipif(
    not HAVE_SCIPY, reason="backend-differential run needs the scipy extra"
)
from repro.datagen.worstcase import (
    fig4_instance,
    grid_instance_example_5_5,
    m3_modular_instance,
    skew_instance_example_5_8,
)


def test_mandatory_engine_registry():
    """The batched-kernel engines stay registered as mandatory: leapfrog on
    the positional kernel, its reference-substrate twin, the batched
    generic join, and CSMA on the exact-only LP stack, alongside the
    binary baseline, scipy-backed CSMA and the naive reference join every
    engine is checked against."""
    assert set(MANDATORY_ENGINES) >= {
        "reference", "binary", "csma", "generic", "lftj",
        "lftj-reference-expansion", "csma-exact-lp",
    }


@pytest.mark.parametrize("seed", range(12))
def test_random_simple_key_workloads(seed):
    query, db = random_simple_key_workload(seed)
    outputs = assert_engines_agree(query, db, context=f"on seed {seed}")
    assert len(outputs) >= 4
    assert_leapfrog_substrate_equivalence(query, db)


@requires_scipy
@pytest.mark.parametrize("seed", range(12))
def test_lp_backend_work_equivalence(seed):
    """The same workloads, evaluated with the LP layer pinned to each
    backend policy — canonical-vertex selection makes every policy
    bit-identical in work across chain, SMA *and* CSMA (the old CSMA
    degenerate-dual exemption is retired), with the CLLP optimum compared
    as exact Fractions."""
    query, db = random_simple_key_workload(seed)
    assert_lp_backend_equivalence(query, db)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: grid_instance_example_5_5(36),
        lambda: skew_instance_example_5_8(50),
        lambda: fig4_instance(27),
        lambda: m3_modular_instance(6),
    ],
    ids=["grid", "skew", "fig4", "m3"],
)
def test_paper_workloads(maker):
    query, db = maker()
    assert_engines_agree(query, db)
    assert_leapfrog_substrate_equivalence(query, db)


# ----------------------------------------------------------------------
# The oracle itself: reference join ≡ generic join
# ----------------------------------------------------------------------

@st.composite
def fd_udf_instances(draw):
    """A triangle R(x,y) S(y,z) T(z,x) over a small int domain whose data
    satisfies every declared fd: ``z`` is determined by ``y`` through a
    functional guard (S itself) — optionally with a UDF for ``y → z``
    too, which only the final UDF-consistency filter enforces, since the
    guard wins in expansion — or by ``(x, y)`` through a UDF (no
    relation holds x, y and z together, so none can contradict it), or
    not at all; optionally a fourth atom U(w,x) with ``w`` a UDF of
    ``(x, y)``."""
    d = draw(st.integers(2, 5))
    cell = st.integers(0, d - 1)
    edges = st.sets(st.tuples(cell, cell), max_size=12)
    rows = {"R": draw(edges), "S": draw(edges), "T": draw(edges)}
    schemas = {"R": ("x", "y"), "S": ("y", "z"), "T": ("z", "x")}
    fds, udfs = [], []
    mode = draw(st.sampled_from(["guard", "guard+udf", "udf", "none"]))
    a = draw(cell)
    if mode.startswith("guard"):
        rows["S"] = {(y, draw(cell)) for y in sorted(draw(st.sets(cell)))}
        fds.append(FD("y", "z"))
    if mode == "guard+udf":
        udfs.append(UDF("g", ("y",), "z", lambda y: (a * y + 1) % d))
    elif mode == "udf":
        udfs.append(UDF("g", ("x", "y"), "z", lambda x, y: (a * x + y) % d))
    if draw(st.booleans()):
        k = draw(st.integers(2, 2 * d))
        udfs.append(UDF("h", ("x", "y"), "w", lambda x, y: (x + y) % k))
        schemas["U"] = ("w", "x")
        rows["U"] = draw(st.sets(st.tuples(st.integers(0, k - 1), cell)))
    variables = "".join(sorted(set().union(*schemas.values())))
    query = Query(
        [Atom(name, attrs) for name, attrs in schemas.items()],
        FDSet(fds + [udf.fd for udf in udfs], variables),
    )
    db = Database(
        [Relation(name, attrs, rows[name]) for name, attrs in schemas.items()],
        fds=FDSet(fds, variables),
        udfs=udfs,
    )
    return query, db


@settings(max_examples=60, deadline=None)
@given(fd_udf_instances())
def test_reference_join_equals_generic_join(instance):
    """The oracle and an engine that shares none of its code agree on
    every small fd/UDF instance — a wrong oracle fails here as surely as
    a wrong engine."""
    query, db = instance
    schema = tuple(sorted(query.variables))
    expected, _ = generic_join(query, db, fd_aware=True)
    got = reference_join(query, db).project(schema).tuples
    assert set(got) == set(expected.project(schema).tuples)


# ----------------------------------------------------------------------
# Block choose ≡ row choose
# ----------------------------------------------------------------------

@st.composite
def choose_before_determined_instances(draw):
    """A choose depth ``v`` followed by two determined depths
    ``v → f → g`` (guards G1, G2, possibly partial), after 0–3 prefix
    variables and before an optional trailing choose variable ``e``.
    One to three atoms hold ``v`` over random subsets of the prefix, in
    a random column order, over a tiny domain — so prefixes tie on their
    counts and miss buckets.  An atom that also holds ``e`` repeats
    ``(prefix, v)`` pairs; with ``e`` the frontier reaches its depth as
    a block.  An optional terminal atom on ``g`` filters the run."""
    d = draw(st.integers(2, 4))
    cell = st.integers(0, d - 1)

    def rows(width):
        return draw(
            st.sets(st.tuples(*[cell] * width), min_size=1, max_size=24)
        )

    prefix = ("p", "q", "r")[:draw(st.integers(0, 3))]
    trailing = ("e",) if draw(st.booleans()) else ()
    schemas, data = {}, {}
    if prefix:
        schemas["B"] = prefix
        data["B"] = rows(len(prefix))
    for i in range(draw(st.integers(1, 3))):
        key = tuple(a for a in prefix if draw(st.integers(0, 2)))
        extra = trailing if draw(st.booleans()) else ()
        schemas[f"A{i}"] = tuple(draw(st.permutations(key + ("v",) + extra)))
    if trailing and not any("e" in s for s in schemas.values()):
        schemas["E"] = ("v", "e")
    if draw(st.booleans()):
        schemas["U"] = ("g",) + prefix[:1]
    for name, schema in schemas.items():
        data.setdefault(name, rows(len(schema)))
    variables = prefix + ("v", "f", "g") + trailing
    fds = FDSet([FD("v", "f"), FD("f", "g")], variables)
    guards = [
        Relation(
            name, attrs,
            {(x, draw(cell)) for x in range(d) if draw(st.integers(0, 3))},
        )
        for name, attrs in (("G1", ("v", "f")), ("G2", ("f", "g")))
    ]
    query = Query([Atom(name, attrs) for name, attrs in schemas.items()], fds)
    db = Database(
        [Relation(name, schemas[name], data[name]) for name in schemas]
        + guards,
        fds=fds,
    )
    return query, db, variables


@pytest.mark.parametrize("structure", ["packed", "void"])
@settings(max_examples=150, deadline=None)
@given(choose_before_determined_instances())
def test_block_choose_equals_row_choose(structure, instance):
    """A choose depth run on int64 blocks emits the row loop's rows in
    the row loop's order and charges identical work, on every key
    structure (``void`` forces the packing-overflow fallback), and both
    equal the reference join."""
    import importlib
    from unittest import mock

    from repro.engine import frontier

    gj = importlib.import_module("repro.engine.generic_join")

    query, db, order = instance
    depth_v = order.index("v")
    block_calls = []
    choose_block = gj._choose_block

    def spy(*args):
        block_calls.append(1)
        return choose_block(*args)

    runs = {}
    with mock.patch.object(gj, "_choose_block", spy), mock.patch.object(
        frontier, "_pack_radixes",
        (lambda block: None) if structure == "void" else frontier._pack_radixes,
    ):
        for min_rows in (1, None):
            block_calls.clear()
            with frontier.min_rows_override(min_rows):
                out, stats = generic_join(query, db, order=order, fd_aware=True)
            runs[min_rows] = (out.tuples, stats.tuples_touched, stats.per_depth)
            # Blocks whenever any candidate reaches v; never without them.
            if min_rows is None or stats.per_depth[depth_v]:
                assert bool(block_calls) == (min_rows == 1)
    assert runs[1] == runs[None]
    expected = reference_join(query, db).project(order).tuples
    assert set(runs[1][0]) == set(expected)
