"""The block executor: gather-table composition and generated pipelines.

* **Gather-table composition** — runs of consecutive composable
  ``GUARD_DENSE`` steps collapse into one ``("fused", ...)`` spec whose
  ``surv`` table reproduces the per-step charges exactly; codes interned
  after the tables compiled (and rows keyed through fd-INCONSISTENT
  entries) dangle through the fused chain.
* **Pipelines against the row-loop oracle** — on the same input, the
  generated pipeline's alive rows equal the row-loop's
  (``ExpansionPlan._execute_batch_rows``), its dead rows are exactly the
  row-loop's ``None`` rows, and the counter totals agree; the per-step
  alive counts sum to that total.  Whole engines agree with the row-loop
  backend over the expansion-level corpus
  (:func:`differential.assert_ndarray_backend_equivalence`), and the
  generic join's determined-segment path keeps per-depth stats identical
  to the row path.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential import (
    all_instances,
    assert_ndarray_backend_equivalence,
    mixed_type_midrun_instance,
    ndarray_forced,
)
from repro.datagen.large import fdchain_order, large_fdchain_workload
from repro.engine import fused
from repro.engine.database import Database
from repro.engine.expansion_plan import (
    GUARD_DENSE,
    INCONSISTENT,
    ExpansionPlan,
)
from repro.engine.generic_join import generic_join
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet


def _chain_db(k: int = 3, size: int = 8) -> Database:
    """``x → a → b → …``: ``k`` dense guard steps in a row."""
    attrs = list("abcdefghij"[:k])
    fds = [FD("x", attrs[0])]
    fds += [FD(a, b) for a, b in zip(attrs, attrs[1:])]
    prev = "x"
    relations = []
    for j, attr in enumerate(attrs):
        relations.append(
            Relation(
                f"G{j}",
                (prev, attr),
                [(i, (i * 3 + j) % size) for i in range(size)],
            )
        )
        prev = attr
    return Database(relations, fds=FDSet(fds, ["x", *attrs]))


def _run_against_row_loop(plan, block):
    """Run ``block`` through the block executor and the row-loop oracle;
    assert they agree and return ``(mask, step_alive)``.

    Alive rows must equal the row-loop's rows, dead rows must be exactly
    its ``None`` rows, and the counter totals must match.  Each step
    charges the rows alive when it runs, so the per-step alive counts
    sum to the total."""
    counter = WorkCounter()
    step_alive: list[int] = []
    out, mask = plan.execute_batch_ndarray(
        block.copy(), counter, step_alive
    )
    row_counter = WorkCounter()
    expected = plan._execute_batch_rows(
        [tuple(row) for row in block.tolist()], row_counter
    )
    alive = [True] * len(expected) if mask is None else mask.tolist()
    for row, is_alive, want in zip(out.tolist(), alive, expected):
        if want is None:
            assert not is_alive
        else:
            assert is_alive and tuple(row) == want
    assert counter.tuples_touched == row_counter.tuples_touched
    assert sum(step_alive) == counter.tuples_touched
    return mask, step_alive


# ----------------------------------------------------------------------
# Gather-table composition
# ----------------------------------------------------------------------

def test_dense_chain_composes_to_one_fused_spec():
    db = _chain_db(k=4)
    plan = db.expansion_plan(("x",))
    assert [s[0] for s in plan.steps] == [GUARD_DENSE] * 4
    specs = plan._ndarray_specs()
    fused_specs = fused.compose_fused_specs(specs, len(plan.source_schema))
    assert len(fused_specs) == 1
    kind, pos, size, surv, images, width, k = fused_specs[0]
    assert (kind, pos, width, k) == ("fused", 0, 4, 4)
    # Every stored x code survives the whole chain (the tables are total
    # permutations of the same domain).
    assert int(surv.min()) == 4 and surv.shape == (size,)
    assert images.shape == (size, 4)


def test_single_dense_steps_stay_plain():
    db = _chain_db(k=1)
    plan = db.expansion_plan(("x",))
    specs = plan._ndarray_specs()
    fused_specs = fused.compose_fused_specs(specs, 1)
    assert fused_specs == tuple(specs)


def test_midrun_interned_codes_dangle_through_fused_chain():
    """A code interned after the chain's tables compiled is out of range
    for the composed table too: ``surv`` reads 0 via the in-range guard,
    the row dangles, and the charge is exactly one touch (step 0 saw it
    alive, step 1 never ran it) — as in the row-loop."""
    db = _chain_db(k=3)
    plan = db.expansion_plan(("x",))
    x_dict = db.codec.dictionary("x")
    fresh = x_dict.encode("fresh-value")
    stored = x_dict.encode(3)
    block = np.array([[fresh], [stored]], dtype=np.int64)
    mask, step_alive = _run_against_row_loop(plan, block)
    assert list(mask) == [False, True]
    assert step_alive == [2, 1, 1]


def test_inconsistent_entries_dangle_and_stop_the_survival_chain():
    """An fd-violating guard key compiles to an *invalid* dense entry:
    rows keyed through it dangle in the fused run exactly where the
    row-loop drops them, and never contribute later-step charges."""
    fds = FDSet([FD("x", "y"), FD("y", "z")], ["x", "y", "z"])
    relations = [
        # x=0 violates x→y (two images): INCONSISTENT, must dangle.
        Relation("G0", ("x", "y"), [(0, 0), (0, 1), (1, 2), (2, 0)]),
        Relation("G1", ("y", "z"), [(0, 5), (1, 6), (2, 7)]),
    ]
    db = Database(relations, fds=fds)
    plan = db.expansion_plan(("x",))
    assert [s[0] for s in plan.steps] == [GUARD_DENSE] * 2
    specs = plan._ndarray_specs()
    fused_specs = fused.compose_fused_specs(specs, 1)
    assert len(fused_specs) == 1 and fused_specs[0][0] == "fused"
    surv = fused_specs[0][3]
    code0 = db.codec.dictionary("x").encode(0)
    assert int(surv[code0]) == 0  # the INCONSISTENT entry never fuses on
    block = np.array(
        [[db.codec.dictionary("x").encode(v)] for v in (0, 1, 2)],
        dtype=np.int64,
    )
    mask, step_alive = _run_against_row_loop(plan, block)
    assert list(mask) == [False, True, True]
    assert step_alive == [3, 2]


# ----------------------------------------------------------------------
# Pipelines against the row-loop oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_pipeline_block_bit_identity(seed):
    db = _chain_db(k=5, size=16)
    plan = db.expansion_plan(("x",))
    rng = np.random.default_rng(seed)
    # Mix in out-of-range codes: they must dangle at the first step.
    block = rng.integers(0, 24, size=(64, 1), dtype=np.int64)
    _run_against_row_loop(plan, block)
    # Every written cell, dead rows included, is per-row deterministic
    # (row-independent execution): split runs rebuild the block.
    whole, _ = plan.execute_batch_ndarray(block)
    halves = [
        plan.execute_batch_ndarray(part)[0]
        for part in (block[:29], block[29:])
    ]
    assert np.array_equal(whole, np.concatenate(halves))


def test_lone_dense_step_with_holes_matches_row_loop():
    """A dense step with no run to compose into probes its table
    directly: missing keys, an fd-INCONSISTENT key and out-of-range
    codes all dangle."""
    table = [None] * 64
    for key in range(0, 64, 2):
        table[key] = (key % 7, key % 3)
    table[8] = INCONSISTENT
    plan = ExpansionPlan(
        ("a", "b"),
        ("a", "b", "x", "y"),
        ((GUARD_DENSE, (0,), table),),
    )
    rng = np.random.default_rng(3)
    block = rng.integers(0, 80, size=(200, 2), dtype=np.int64)
    mask, _ = _run_against_row_loop(plan, block)
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("seed", range(3))
def test_fusion_differential(seed):
    # World, guarded and mixed instances: the first two appear in no
    # other block-vs-row-loop sweep.
    for query, db in all_instances(seed):
        assert_ndarray_backend_equivalence(query, db)


def test_fusion_mixed_type_midrun():
    # Mid-run interning on extra seeds of the nastiest corpus.
    for seed in (7, 11):
        query, db = mixed_type_midrun_instance(seed)
        assert_ndarray_backend_equivalence(query, db)


def test_generic_join_fused_segment_matches_per_depth():
    """The determined-run segment plan (one pipeline across all fd
    depths) must be invisible: same rows, same per-depth stats, same
    counter total as the row path's per-depth execution."""
    query, db = large_fdchain_workload(4000)
    order = fdchain_order()

    def run(mode):
        counter = WorkCounter()
        with ndarray_forced(mode):
            rel, stats = generic_join(
                query, db, order=order, fd_aware=True, counter=counter
            )
        return rel, stats, counter

    rel_off, stats_off, counter_off = run("off")
    rel_on, stats_on, counter_on = run("on")
    assert sorted(rel_off.tuples) == sorted(rel_on.tuples)
    assert stats_off.tuples_touched == stats_on.tuples_touched
    assert stats_off.per_depth == stats_on.per_depth
    assert counter_off.tuples_touched == counter_on.tuples_touched
