"""Sharded parallel execution of frontier blocks.

The block backend (``ExpansionPlan.execute_batch_ndarray`` and the
``key_join``/``block_isin`` kernels in :mod:`repro.engine.frontier`) is
per-row deterministic, which makes an ``(n, w)`` int64 frontier block
trivially partitionable: split the rows, run each shard through the same
kernel, scatter the outputs back to the original row indices, and sum
the per-shard ``tuples_touched``.  The paper's degree-aware work measure
is a per-row sum (each row charges one touch per step it is alive for),
so the sharded total is *bit-identical* to the unsharded one for any
shard count — that is the deterministic-merge contract the differential
suite pins.

Knobs (mirroring the ``REPRO_BATCH_NDARRAY`` pattern):

* ``REPRO_SHARD`` — ``auto`` (engage above the row threshold when more
  than one worker is configured), ``on`` (shard every block; also forces
  the block backend on, since shards only exist on blocks), ``off``.
* ``REPRO_SHARD_WORKERS`` — worker count (default ``os.cpu_count()``).
* ``REPRO_SHARD_MIN`` — ``auto``-mode row threshold (default 65536).

Workers are threads: the numpy kernels release the GIL.  They run
inside a :func:`contextvars.copy_context` snapshot of the submitting
context, so the serving layer's cooperative-cancellation
hooks (:mod:`repro.engine.cancellation`), fault-injection hooks, and
per-query mode overrides all propagate into every shard: a
``QueryTimeout`` raised at a shard's checkpoint surfaces after *all*
shards have been joined (no leaked workers), deterministically as the
lowest-shard-index error.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar, copy_context

import numpy as np

from repro import config
from repro.engine import frontier
from repro.engine.cancellation import checkpoint


_ON = config.ON_VALUES
_OFF = config.OFF_VALUES

#: ``auto`` (threshold + >1 worker), ``on`` (every block), ``off``.
#: Mutable module state so the differential harness can force all modes.
SHARD_MODE = config.get("REPRO_SHARD")

#: Worker count.  Mutable module state (the shard-count sweep sets it);
#: the pool grows to the largest count ever requested.
SHARD_WORKERS = config.get("REPRO_SHARD_WORKERS")

#: ``auto``-mode row threshold: below it the submit/join overhead beats
#: any parallel win (a shard must amortize a pool handoff, ~100µs).
SHARD_MIN_ROWS = config.get("REPRO_SHARD_MIN")

#: Per-context overrides: the serving layer's degradation chain disables
#: sharding for one query's fallback stage without touching the global
#: knobs other worker threads are using.
_MODE_OVERRIDE: ContextVar[str | None] = ContextVar(
    "repro_shard_mode_override", default=None
)
_WORKERS_OVERRIDE: ContextVar[int | None] = ContextVar(
    "repro_shard_workers_override", default=None
)

#: Set inside a shard task: kernels re-entered from a worker never
#: re-shard (one level of parallelism; nested sharding would deadlock a
#: saturated pool).
_IN_SHARD: ContextVar[bool] = ContextVar("repro_in_shard", default=False)

#: Optional per-query hook run at every shard-task start (the chaos
#: suite's shard-killing fault site plugs in here).
_WORKER_HOOK: ContextVar[object] = ContextVar(
    "repro_shard_worker_hook", default=None
)


def active_mode() -> str:
    override = _MODE_OVERRIDE.get()
    return SHARD_MODE if override is None else override


def active_workers() -> int:
    override = _WORKERS_OVERRIDE.get()
    return SHARD_WORKERS if override is None else override


@contextmanager
def mode_override(mode: str | None, workers: int | None = None):
    """Force the shard mode (and optionally the worker count) for the
    dynamic extent of the block, in this thread/context only.  ``None``
    leaves the corresponding knob untouched."""
    mode_token = _MODE_OVERRIDE.set(mode) if mode is not None else None
    workers_token = (
        _WORKERS_OVERRIDE.set(workers) if workers is not None else None
    )
    try:
        yield
    finally:
        if workers_token is not None:
            _WORKERS_OVERRIDE.reset(workers_token)
        if mode_token is not None:
            _MODE_OVERRIDE.reset(mode_token)


@contextmanager
def worker_hook_scope(hook):
    """Install ``hook`` to run at the start of every shard task submitted
    from this context (propagated into workers with the rest of the
    context).  ``None`` is a no-op scope."""
    token = _WORKER_HOOK.set(hook)
    try:
        yield
    finally:
        _WORKER_HOOK.reset(token)


def shard_forced_on() -> bool:
    """Is sharding *forced* (``REPRO_SHARD=on``)?  Consulted by
    :func:`repro.engine.frontier.ndarray_forced_on` so forcing shards
    forces blocks everywhere they can run."""
    return active_mode() in _ON


def shard_engaged(n: int) -> bool:
    """Should a block kernel over ``n`` rows dispatch through the shard
    backend under the current mode?  Never inside a shard task."""
    if n < 2 or _IN_SHARD.get():
        return False
    mode = active_mode()
    if mode in _OFF:
        return False
    if mode in _ON:
        return True
    return n >= SHARD_MIN_ROWS and active_workers() > 1


def shard_available() -> bool:
    """Can the current configuration shard at all?  (The serving layer's
    degradation chain only advertises an ``encoded-sharded`` stage when
    this holds.)"""
    if active_mode() in _OFF:
        return False
    return active_workers() > 1 or active_mode() in _ON


# ----------------------------------------------------------------------
# The worker pool (threads; grow-only, lazily created)
# ----------------------------------------------------------------------

_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()


def _pool(size: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < size:
            old = _POOL
            _POOL = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-shard"
            )
            _POOL_SIZE = size
            if old is not None:
                old.shutdown(wait=False)
        return _POOL


def active_tasks() -> int:
    """Shard tasks currently submitted-but-unfinished (the chaos suite's
    no-leak assertion: zero once a query has returned or raised)."""
    return _ACTIVE


def _run_task(fn, *args):
    """The in-worker wrapper: mark the context as in-shard, run the
    per-query worker hook (fault injection), check in with the
    cancellation checkpoint, then run the kernel."""
    global _ACTIVE
    token = _IN_SHARD.set(True)
    try:
        hook = _WORKER_HOOK.get()
        if hook is not None:
            hook()
        checkpoint()
        return fn(*args)
    finally:
        _IN_SHARD.reset(token)
        with _ACTIVE_LOCK:
            _ACTIVE -= 1


def _map_shards(fn, arg_lists):
    """Run ``fn(*args)`` for each entry across the pool and return the
    results in submission (shard-index) order.

    Every future is joined before this returns — a failing shard never
    leaks workers — and when shards fail the *lowest-shard-index*
    exception is raised, so errors are deterministic regardless of
    completion order.  Each task runs in a ``copy_context`` snapshot of
    the submitting context: cancellation/fault hooks and per-query mode
    overrides travel into the workers.
    """
    global _ACTIVE
    k = len(arg_lists)
    pool = _pool(max(active_workers(), k if k <= 64 else 64))
    futures = []
    for args in arg_lists:
        ctx = copy_context()
        with _ACTIVE_LOCK:
            _ACTIVE += 1
        futures.append(pool.submit(ctx.run, _run_task, fn, *args))
    results, first_error = [], None
    for future in futures:
        try:
            results.append(future.result())
        # Capture-then-re-raise: every future is drained before the
        # first failure propagates (the raise sits after the loop).
        except BaseException as exc:  # noqa: BLE001  # repro-lint: disable=error-taxonomy
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


# ----------------------------------------------------------------------
# Sharded kernels
# ----------------------------------------------------------------------


def _plan_shard(plan, shard_block, want_steps=False):
    counter = _Counter()
    steps = [] if want_steps else None
    out, mask = plan.execute_batch_ndarray_local(shard_block, counter, steps)
    return out, mask, counter.tuples_touched, steps


class _Counter:
    """A local stand-in for :class:`repro.engine.ops.WorkCounter` (which
    lives above this module in the import graph)."""

    __slots__ = ("tuples_touched",)

    def __init__(self):
        self.tuples_touched = 0

    def add(self, amount: int = 1) -> None:
        self.tuples_touched += amount


def run_plan_sharded(plan, block, counter=None, step_alive=None):
    """``ExpansionPlan.execute_batch_ndarray``, sharded.

    Hash-partitions the block on the plan's first guard-key columns,
    runs each shard through the unsharded kernel on the worker pool, and
    merges with :func:`repro.engine.frontier.combine_shard_parts` /
    :func:`~repro.engine.frontier.scatter_part` — the returned
    ``(out, mask)`` and the counter charge are bit-identical to the
    unsharded call for any worker count.  Per-step alive counts
    (``step_alive``) merge by exact per-step integer sums across shards
    — associative and partition-independent like the touch totals.
    """
    n = block.shape[0]
    k = min(max(1, active_workers()), n)
    if k <= 1:
        return plan.execute_batch_ndarray_local(block, counter, step_alive)
    plan._ndarray_specs()  # compile once, outside the pool
    plan._fused_pipeline()  # likewise the generated pipeline
    positions = plan.shard_positions()
    indices = [
        idx for idx in frontier.hash_partition(block, positions, k) if len(idx)
    ]
    if len(indices) <= 1:
        return plan.execute_batch_ndarray_local(block, counter, step_alive)
    want_steps = step_alive is not None
    results = _map_shards(
        _plan_shard,
        [(plan, block[idx], want_steps) for idx in indices],
    )
    parts = [
        (idx, out, mask, touched)
        for idx, (out, mask, touched, _) in zip(indices, results)
    ]
    if want_steps:
        merged = [sum(counts) for counts in zip(*(r[3] for r in results))]
        step_alive.extend(merged)
    out, mask, touched = frontier.scatter_part(
        n, len(plan.out_schema), frontier.combine_shard_parts(parts)
    )
    if counter is not None and touched:
        counter.add(touched)
    return out, mask


def _key_join_shard(struct, shard_block, positions):
    return frontier.key_join(struct, shard_block, positions)


def key_join(struct, block, positions):
    """:func:`repro.engine.frontier.key_join`, sharded over contiguous
    row ranges.

    ``key_join`` emits left-row-major output, so a contiguous range
    partition concatenated in range order (with the ``reps`` offset
    restored) reproduces the unsharded ``(reps, gather, touched)``
    arrays bit-identically for any worker count.
    """
    n = block.shape[0]
    if not shard_engaged(n):
        return frontier.key_join(struct, block, positions)
    k = min(max(1, active_workers()), n)
    ranges = [(lo, hi) for lo, hi in frontier.range_partition(n, k) if hi > lo]
    if len(ranges) <= 1:
        return frontier.key_join(struct, block, positions)
    results = _map_shards(
        _key_join_shard,
        [(struct, block[lo:hi], positions) for lo, hi in ranges],
    )
    reps = np.concatenate(
        [r + lo for (lo, _), (r, _, _) in zip(ranges, results)]
    )
    gather = np.concatenate([g for _, g, _ in results])
    touched = sum(t for _, _, t in results)
    return reps, gather, touched


def _isin_shard(shard_block, positions, struct):
    return frontier.block_isin(shard_block, positions, struct)


def block_isin(block, positions, struct):
    """:func:`repro.engine.frontier.block_isin`, sharded over contiguous
    row ranges (per-row membership: order-preserving concat merge)."""
    n = block.shape[0]
    if not shard_engaged(n):
        return frontier.block_isin(block, positions, struct)
    k = min(max(1, active_workers()), n)
    ranges = [(lo, hi) for lo, hi in frontier.range_partition(n, k) if hi > lo]
    if len(ranges) <= 1:
        return frontier.block_isin(block, positions, struct)
    results = _map_shards(
        _isin_shard,
        [(block[lo:hi], positions, struct) for lo, hi in ranges],
    )
    return np.concatenate(results)
