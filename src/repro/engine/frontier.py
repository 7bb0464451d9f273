"""Array-of-int64 frontier blocks — the block executor's substrate.

Every frontier cell the engines carry is a small non-negative int
dictionary code, so a frontier of ``n`` rows over ``w`` attributes is
exactly an ``(n, w)`` int64 matrix.  This module provides the block
vocabulary the block executor (``ExpansionPlan.execute_batch_ndarray``,
which runs the generated pipelines of :mod:`repro.engine.fused`) and
the engines' frontier seams share:

* **executor choice** — a seam runs a batch on blocks when it holds at
  least :data:`NDARRAY_MIN_ROWS` rows (:func:`ndarray_engaged`), else on
  the generated row-loop.  Both executors charge bit-identical
  ``tuples_touched``; :func:`min_rows_override` moves the threshold for
  one context (the service's ``encoded-rows`` stage, the differential
  harness);
* **blocks** — ``rows_to_block`` / ``columns_to_block`` convert Python
  tuple frontiers and column stores into int64 matrices at the seams;
* **dangling masks** — a block travels with an optional boolean mask
  (``None`` = every row alive); dead rows keep garbage cells that are
  never read;
* **key joins** — multi-attribute guard probes and membership tests run
  as sort/searchsorted joins over mixed-radix packed int64 keys (with a
  lexicographic void-view fallback: rows cast to big-endian int64 and
  reinterpreted as fixed-width byte strings compare exactly like the
  corresponding key tuples, since codes are non-negative).

Raw values are arbitrary Python objects and never enter a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.engine.cancellation import checkpoint


#: Row count from which a seam runs its batch on the block executor.
#: Below it the generated row-loop's lower constant wins; above it
#: ``np.take``/searchsorted amortize the conversion into a block.  No
#: benchmark workload sits near it: serve_mix's row-loop batches average
#: 45 rows (blocks on every batch cost its ``latency_ms`` +12 %), while
#: fdchain runs one 78,672-row block call (the row-loop alone cost its
#: ``latency_ms`` 6.3x; 2-CPU host).
NDARRAY_MIN_ROWS = 4096

#: The threshold in force for the current context; ``None`` = never.
_MIN_ROWS: ContextVar[int | None] = ContextVar(
    "repro_ndarray_min_rows", default=NDARRAY_MIN_ROWS
)


@contextmanager
def min_rows_override(min_rows: int | None):
    """Run the block under row threshold ``min_rows`` (``1`` = blocks on
    every non-empty batch, ``None`` = the row-loop only), in this
    thread/context only — other worker threads keep their own."""
    token = _MIN_ROWS.set(min_rows)
    try:
        yield
    finally:
        _MIN_ROWS.reset(token)


def ndarray_engaged(n: int) -> bool:
    """Does a seam run a batch of ``n`` rows on the block executor?"""
    min_rows = _MIN_ROWS.get()
    return min_rows is not None and n >= min_rows


# ----------------------------------------------------------------------
# Block construction
# ----------------------------------------------------------------------

def rows_to_block(rows, width: int):
    """``[tuple, ...] → (n, width) int64`` block, or ``None`` when the rows
    are not a rectangular all-int frontier (callers fall back to the
    row-loop; code frontiers always qualify)."""
    try:
        block = np.array(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if block.ndim != 2 or block.shape[1] != width:
        return None
    return block


def columns_to_block(columns, n: int):
    """Column store (``Relation.column_store()``) → ``(n, len(columns))``
    int64 block (or ``None``).  A code array converts for free: the block
    is its transposed view."""
    if isinstance(columns, np.ndarray):
        return columns.T
    if not columns:
        return np.empty((n, 0), dtype=np.int64)
    try:
        block = np.array(columns, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if block.ndim != 2 or block.shape != (len(columns), n):
        return None
    return block.T


# ----------------------------------------------------------------------
# Sorted-key structures: mixed-radix packed int64 (with a lexicographic
# void-view fallback) for sort/searchsorted key joins
# ----------------------------------------------------------------------
#
# A key structure is a ``(kind, sorted_array, radixes)`` triple:
#
# * ``("int", arr, None)`` — single-column keys, sorted int64;
# * ``("packed", arr, radixes)`` — multi-column keys mixed-radix-packed
#   into one int64 (radix per column = max code + 1 on the *build* side;
#   probe components outside a radix — e.g. codes interned mid-run —
#   cannot be present and pack to the impossible key ``-1``).  Packing
#   keeps numpy's fast int64 searchsorted; the build-side order equals
#   the lexicographic row order by construction.
# * ``("void", arr, None)`` — overflow fallback: rows as big-endian
#   fixed-width byte keys (bytewise order = lexicographic order; codes
#   are non-negative so the sign bit never flips it).  Void searchsorted
#   is an order of magnitude slower than int64, hence fallback-only.
# * ``("empty", None, None)`` — zero keys; every probe misses.


def void_view(block):
    """Rows of an ``(n, k)`` int64 block as a 1-D array of ``k*8``-byte
    keys whose bytewise order equals the lexicographic row order (codes
    are non-negative, so big-endian two's complement sorts correctly)."""
    be = np.ascontiguousarray(block.astype(">i8"))
    return be.view(f"V{block.shape[1] * 8}").ravel()


def _pack_radixes(block):
    """Per-column radixes for mixed-radix packing, or ``None`` when the
    packed key space would overflow int64."""
    radixes = [int(r) + 1 for r in block.max(axis=0)]
    capacity = 1
    for radix in radixes:
        capacity *= max(1, radix)
        if capacity >= 1 << 62:
            return None
    return radixes


def _pack_build(block, radixes):
    packed = block[:, 0].astype(np.int64, copy=True)
    for j in range(1, block.shape[1]):
        packed *= radixes[j]
        packed += block[:, j]
    return packed


def _pack_probe(block, positions, radixes):
    """Probe-side packing under the build side's radixes: any component
    outside its radix (a code the build side has never seen) packs to
    the impossible key ``-1`` — an automatic miss, never a collision."""
    cols = [block[:, p] for p in positions]
    packed = cols[0].astype(np.int64, copy=True)
    invalid = cols[0] >= radixes[0]
    for j in range(1, len(cols)):
        packed *= radixes[j]
        packed += cols[j]
        invalid |= cols[j] >= radixes[j]
    if invalid.any():
        packed[invalid] = -1
    return packed


def sorted_key_block(block):
    """A searchable key structure from an ``(n, k)`` int64 key block.

    Returns ``(struct, order)`` where ``struct`` sorts the keys (see the
    kind table above) and ``order`` is the stable argsort permutation, so
    callers can align per-key payload rows with the sorted keys.
    """
    checkpoint()  # block-granularity deadline/fault check-in
    n, k = block.shape
    if n == 0:
        return ("empty", None, None), np.empty(0, dtype=np.int64)
    if k == 1:
        flat = np.ascontiguousarray(block[:, 0])
        order = np.argsort(flat, kind="stable")
        return ("int", flat[order], None), order
    radixes = _pack_radixes(block)
    if radixes is not None:
        packed = _pack_build(block, radixes)
        order = np.argsort(packed, kind="stable")
        return ("packed", packed[order], radixes), order
    voids = void_view(block)
    order = np.argsort(voids, kind="stable")
    return ("void", voids[order], None), order


def _probe_array(struct, block, positions):
    kind, _, radixes = struct
    if kind == "int":
        return np.ascontiguousarray(block[:, positions[0]])
    if kind == "packed":
        return _pack_probe(block, positions, radixes)
    return void_view(block[:, list(positions)])


def key_hits(struct, block, positions):
    """``(hit, slot)``: per-row membership of ``block``'s ``positions``
    key in the sorted structure, and the first matching sorted index
    (clipped; only meaningful where ``hit``)."""
    kind, sorted_keys, _ = struct
    n = block.shape[0]
    if kind == "empty":
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    probes = _probe_array(struct, block, positions)
    nk = sorted_keys.shape[0]
    idx = np.searchsorted(sorted_keys, probes)
    slot = np.minimum(idx, nk - 1)
    return (idx < nk) & (sorted_keys[slot] == probes), slot


def block_isin(block, positions, struct):
    """Membership of ``block``'s ``positions``-key rows in a sorted key
    structure built by :func:`sorted_key_block` (bool per row)."""
    hit, _ = key_hits(struct, block, positions)
    return hit


def key_join(struct, block, positions):
    """The vectorized core of an index-nested-loops join.

    ``struct`` is the key-sorted guard side (``sorted_key_block``);
    probes come from ``block``'s ``positions`` columns.  Returns
    ``(reps, gather, touched)``: emitting ``left[reps[i]] ++
    guard_payload[gather[i]]`` for every ``i`` reproduces the probe join
    in left-row-major order with guard matches in stable
    (original-relation) order per key — exactly the rows the per-tuple
    probe loop would emit, in the same order.  ``touched`` is the total
    match count (the per-tuple counter charges, summed).
    """
    checkpoint()  # block-granularity deadline/fault check-in
    kind, sorted_keys, _ = struct
    n = block.shape[0]
    if kind == "empty":
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    probes = _probe_array(struct, block, positions)
    lo = np.searchsorted(sorted_keys, probes, side="left")
    hi = np.searchsorted(sorted_keys, probes, side="right")
    counts = hi - lo
    touched = int(counts.sum())
    reps = np.repeat(np.arange(n), counts)
    shift = np.cumsum(counts) - counts
    gather = np.repeat(lo - shift, counts) + np.arange(touched)
    return reps, gather, touched
