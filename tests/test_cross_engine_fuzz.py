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
