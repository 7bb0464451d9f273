"""The sharded frontier backend: partition/merge laws and the
shard-count-invisibility contract.

Three layers of evidence that parallel execution cannot perturb results:

* **Partition/merge properties** (hypothesis): hash-partition emits a
  permutation of the input rows, co-keyed rows stay on one shard, and
  the merge is associative, commutative and independent of shard
  completion order (a shuffled-completion fake executor drives the real
  dispatch seam out of submission order).
* **Kernel equivalence**: ``execute_batch_ndarray`` sharded ≡ local for
  empty shards, all-dangling shards and mid-run-interned dangling codes.
* **The differential sweep**: every generated instance
  (:func:`tests.differential.all_instances`, including the
  mixed-type/mid-run-interning corpus) runs the full engine work profile
  at 1, 2 and 7 workers — ``tuples_touched`` and result digests must be
  bit-identical to the shard-off baseline and the decoded reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import frontier, shard
from repro.engine.expansion_plan import (
    GUARD,
    GUARD_DENSE,
    INCONSISTENT,
    UDF,
    ExpansionPlan,
)
from repro.engine.ops import WorkCounter

from differential import (
    all_instances,
    assert_shard_sweep_equivalence,
    mixed_type_midrun_instance,
    shard_forced,
)


# ----------------------------------------------------------------------
# Partition properties
# ----------------------------------------------------------------------

blocks = st.integers(1, 4).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
            min_size=0,
            max_size=400,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(wrows=blocks, n_shards=st.integers(1, 9), data=st.data())
def test_hash_partition_is_permutation(wrows, n_shards, data):
    width, rows = wrows
    block = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    positions = tuple(
        data.draw(
            st.lists(
                st.integers(0, width - 1), unique=True, min_size=0, max_size=width
            )
        )
    )
    parts = frontier.hash_partition(block, positions, n_shards)
    assert len(parts) == max(1, n_shards)
    gathered = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    assert np.array_equal(gathered, np.arange(block.shape[0]))


@settings(max_examples=30, deadline=None)
@given(wrows=blocks, n_shards=st.integers(2, 9))
def test_hash_partition_keeps_cokeyed_rows_together(wrows, n_shards):
    width, rows = wrows
    block = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    if block.shape[0] == 0:
        return
    positions = (0,)
    parts = frontier.hash_partition(block, positions, n_shards)
    owner: dict[int, int] = {}
    for s, idx in enumerate(parts):
        for key in block[idx, 0].tolist():
            assert owner.setdefault(key, s) == s, (
                f"key {key} split across shards {owner[key]} and {s}"
            )


def test_hash_partition_is_deterministic():
    rng = np.random.default_rng(3)
    block = rng.integers(0, 100, size=(500, 3)).astype(np.int64)
    a = frontier.hash_partition(block, (0, 2), 5)
    b = frontier.hash_partition(block, (0, 2), 5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_range_partition_covers_in_order():
    for n in (0, 1, 7, 100):
        for k in (1, 2, 7, 150):
            ranges = frontier.range_partition(n, k)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(n))


# ----------------------------------------------------------------------
# Merge laws: associative, commutative, completion-order independent
# ----------------------------------------------------------------------

def _random_parts(rng: random.Random, n: int, width: int):
    """A random disjoint partition of ``n`` rows into parts with random
    outputs, masks (some ``None``) and touched counts."""
    indices = list(range(n))
    rng.shuffle(indices)
    k = rng.randint(1, max(1, min(6, n))) if n else 1
    bounds = sorted(rng.sample(range(n + 1), k - 1)) if n and k > 1 else []
    pieces = np.split(np.array(indices, dtype=np.int64), bounds)
    nprng = np.random.default_rng(rng.randrange(2 ** 31))
    parts = []
    for piece in pieces:
        m = len(piece)
        out = nprng.integers(0, 1000, size=(m, width)).astype(np.int64)
        mask = (
            None
            if rng.random() < 0.3
            else nprng.random(m) < 0.7
        )
        parts.append((piece, out, mask, rng.randrange(10 ** 6)))
    return parts


def _finalized(n, width, parts):
    out, mask, touched = frontier.scatter_part(
        n, width, frontier.combine_shard_parts(parts)
    )
    mask_key = None if mask is None else mask.tobytes()
    return out.tobytes(), mask_key, touched


@pytest.mark.parametrize("seed", range(8))
def test_merge_is_associative_and_commutative(seed):
    rng = random.Random(seed)
    n, width = rng.randint(1, 200), rng.randint(1, 4)
    parts = _random_parts(rng, n, width)
    reference = _finalized(n, width, parts)
    for _ in range(5):
        shuffled = parts[:]
        rng.shuffle(shuffled)
        # Any permutation (commutativity).
        assert _finalized(n, width, shuffled) == reference
        # Any grouping (associativity): fold a random prefix into a
        # single combined part, then merge it with the rest.
        if len(shuffled) > 1:
            cut = rng.randint(1, len(shuffled) - 1)
            grouped = [frontier.combine_shard_parts(shuffled[:cut])]
            grouped.extend(shuffled[cut:])
            assert _finalized(n, width, grouped) == reference


def test_mask_merge_mixes_none_and_explicit():
    idx_a = np.array([0, 2], dtype=np.int64)
    idx_b = np.array([1, 3], dtype=np.int64)
    out = np.zeros((2, 1), dtype=np.int64)
    parts = [
        (idx_a, out, None, 1),                                # all alive
        (idx_b, out, np.array([True, False]), 2),             # one dangles
    ]
    _, mask, touched = frontier.scatter_part(
        4, 1, frontier.combine_shard_parts(parts)
    )
    assert mask.tolist() == [True, True, True, False]
    assert touched == 3
    # All-None parts merge to a None mask (no row dangled anywhere).
    _, mask_none, _ = frontier.scatter_part(
        4, 1, frontier.combine_shard_parts(
            [(idx_a, out, None, 0), (idx_b, out, None, 0)]
        )
    )
    assert mask_none is None


def test_scatter_rejects_non_partitions():
    part = (np.array([0, 1], dtype=np.int64), np.zeros((2, 1), np.int64), None, 0)
    with pytest.raises(ValueError):
        frontier.scatter_part(3, 1, part)


# ----------------------------------------------------------------------
# The dispatch seam: sharded ≡ local on real plans
# ----------------------------------------------------------------------

def _guard_plan(*, dense=False, udf=False, inconsistent=False):
    lookup = {(i,): (i % 7, i % 3) for i in range(0, 64, 2)}
    if inconsistent:
        lookup[(8,)] = INCONSISTENT
    steps = []
    if dense:
        table = [None] * 64
        for (k,), image in lookup.items():
            table[k] = image if image is not INCONSISTENT else image
        steps.append((GUARD_DENSE, (0,), table))
    else:
        steps.append((GUARD, (0,), lookup))
    out_schema = ["a", "b", "x", "y"]
    if udf:
        steps.append((UDF, (1,), lambda b: b * 2))
        out_schema.append("u")
    return ExpansionPlan(
        ("a", "b"), tuple(out_schema), tuple(steps), encoded=True
    )


def _compare_sharded(plan, block, workers=4):
    local_counter = WorkCounter()
    with shard_forced("off"):
        local_out, local_mask = plan.execute_batch_ndarray(block, local_counter)
    sharded_counter = WorkCounter()
    with shard_forced("on", workers=workers):
        out, mask = plan.execute_batch_ndarray(block, sharded_counter)
    assert np.array_equal(local_out, out)
    assert (local_mask is None) == (mask is None)
    if mask is not None:
        assert np.array_equal(local_mask, mask)
    assert local_counter.tuples_touched == sharded_counter.tuples_touched
    assert shard.active_tasks() == 0
    return out, mask


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("udf", [False, True])
def test_plan_sharded_equals_local(dense, udf):
    plan = _guard_plan(dense=dense, udf=udf, inconsistent=not dense)
    rng = np.random.default_rng(11)
    block = rng.integers(0, 80, size=(999, 2)).astype(np.int64)
    _compare_sharded(plan, block)


def test_empty_and_all_dangling_shards_roundtrip():
    plan = _guard_plan()
    # More workers than rows: most shards are empty.
    tiny = np.array([[2, 5], [4, 1], [3, 9]], dtype=np.int64)
    _compare_sharded(plan, tiny, workers=8)
    # Every key odd (all lookups miss): every shard is all-dangling.
    dangling = np.stack(
        [np.arange(1, 400, 2), np.arange(200, 0, -1)], axis=1
    ).astype(np.int64)
    out, mask = _compare_sharded(plan, dangling)
    assert mask is not None and not mask.any()
    # Mid-run-interned dangling codes: probes far past every table the
    # plan compiled against must miss on every shard.
    fresh = np.array([[10 ** 6, 0], [2 ** 40, 1], [64, 2]], dtype=np.int64)
    out, mask = _compare_sharded(plan, fresh, workers=3)
    assert mask is not None and not mask.any()


def test_shuffled_completion_order_is_invisible(monkeypatch):
    """Drive the real dispatch through a fake executor that *runs* the
    shard tasks in shuffled order: the merged result must still be
    bit-identical to local (the merge keys on row indices, never on
    completion order)."""
    plan = _guard_plan(inconsistent=True)
    rng = np.random.default_rng(23)
    block = rng.integers(0, 80, size=(1234, 2)).astype(np.int64)
    with shard_forced("off"):
        ref_counter = WorkCounter()
        ref_out, ref_mask = plan.execute_batch_ndarray(block, ref_counter)

    shuffler = random.Random(5)

    def shuffled_map(fn, arg_lists):
        order = list(range(len(arg_lists)))
        shuffler.shuffle(order)
        results = [None] * len(arg_lists)
        for i in order:  # completion order != submission order
            results[i] = fn(*arg_lists[i])
        return results

    monkeypatch.setattr(shard, "_map_shards", shuffled_map)
    for workers in (2, 3, 7):
        counter = WorkCounter()
        with shard_forced("on", workers=workers):
            out, mask = plan.execute_batch_ndarray(block, counter)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(mask, ref_mask)
        assert counter.tuples_touched == ref_counter.tuples_touched


def test_nested_sharding_is_suppressed():
    # A kernel re-entered from inside a shard task must not re-shard
    # (a saturated pool would deadlock on itself).
    with shard_forced("on", workers=4):
        token = shard._IN_SHARD.set(True)
        try:
            assert not shard.shard_engaged(10 ** 9)
        finally:
            shard._IN_SHARD.reset(token)


# ----------------------------------------------------------------------
# The differential sweep (1, 2, 7 workers × every generated instance)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_shard_sweep_differential(seed):
    for query, db in all_instances(seed):
        assert_shard_sweep_equivalence(query, db)


def test_shard_sweep_mixed_type_midrun():
    # The nastiest corpus gets extra seeds: mid-run interning while
    # shards run in parallel must not perturb digests.
    for seed in (7, 11):
        query, db = mixed_type_midrun_instance(seed)
        assert_shard_sweep_equivalence(query, db)
