"""Array-of-int64 frontier blocks — the ndarray batch backend's substrate.

On the dictionary-encoded plane every frontier cell is a small non-negative
int code, so a frontier of ``n`` rows over ``w`` attributes is exactly an
``(n, w)`` int64 matrix.  This module provides the block vocabulary the
block executor (``ExpansionPlan.execute_batch_ndarray``, which runs the
generated pipelines of :mod:`repro.engine.fused`) and the engines'
frontier seams share:

* **blocks** — ``rows_to_block`` / ``columns_to_block`` /
  ``block_to_rows`` convert between Python tuple frontiers and int64
  matrices at the (few) remaining row boundaries;
* **dangling masks** — a block travels with an optional boolean mask
  (``None`` = every row alive); dead rows keep garbage cells that are
  never read;
* **key joins** — multi-attribute guard probes and membership tests run
  as sort/searchsorted joins over mixed-radix packed int64 keys (with a
  lexicographic void-view fallback: rows cast to big-endian int64 and
  reinterpreted as fixed-width byte strings compare exactly like the
  corresponding key tuples, since codes are non-negative);
* **mode knobs** — ``REPRO_BATCH_NDARRAY`` (``auto``/``on``/``off``) and
  ``REPRO_BATCH_NDARRAY_MIN`` select when encoded plans route batches
  through the block backend.  ``auto`` engages above the row threshold;
  the CI smoke pins ``on`` vs ``off`` to bit-identical
  ``tuples_touched``.

Everything here is encoded-plane only: raw-plane values are arbitrary
Python objects and never enter a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro import config
from repro.engine.cancellation import checkpoint


#: Row count at which ``auto`` mode routes an encoded batch through the
#: block backend.  Below it the generated row-loop's lower constant wins;
#: above it ``np.take``/searchsorted amortize the boundary conversions.
NDARRAY_MIN_ROWS = config.get("REPRO_BATCH_NDARRAY_MIN")

_ON = config.ON_VALUES
_OFF = config.OFF_VALUES

#: ``auto`` (threshold), ``on`` (every encoded batch) or ``off`` (never).
#: Mutable module state so the differential harness can force both modes.
NDARRAY_MODE = config.get("REPRO_BATCH_NDARRAY")

#: Per-context mode override: the serving layer's degradation chain runs
#: one query's fallback stage with the block backend off *without*
#: touching the process-global mode other worker threads are using.
_MODE_OVERRIDE: ContextVar[str | None] = ContextVar(
    "repro_ndarray_mode_override", default=None
)


def active_mode() -> str:
    """The mode in force for the current context: the contextual override
    when one is installed, the module-global knob otherwise."""
    override = _MODE_OVERRIDE.get()
    return NDARRAY_MODE if override is None else override


@contextmanager
def mode_override(mode: str):
    """Force ``mode`` (``auto``/``on``/``off``) for the dynamic extent of
    the block, in this thread/context only."""
    token = _MODE_OVERRIDE.set(mode)
    try:
        yield
    finally:
        _MODE_OVERRIDE.reset(token)


def ndarray_engaged(n: int) -> bool:
    """Does the block backend handle an encoded batch of ``n`` rows under
    the current mode?  (Callers have already checked ``plan.encoded``.)"""
    if n <= 0:
        return False
    mode = active_mode()
    if mode in _OFF:
        return False
    if mode in _ON:
        return True
    return n >= NDARRAY_MIN_ROWS


def ndarray_forced_on() -> bool:
    """Is the backend *forced* on (``REPRO_BATCH_NDARRAY=on``)?  Callers
    with extra engagement heuristics (e.g. generic join's determined-run
    length) bypass them under force, so the differential variants and
    the CI cross gate exercise the block path everywhere it can run."""
    return active_mode() in _ON


def ndarray_roundtrip_engaged(n: int) -> bool:
    """Should a *row-tuple* entry point (``execute_batch``) route through
    the block backend?  Those calls convert tuples → block **and** back,
    and the E17 suite measures that roundtrip at best neutral (the step
    work saved roughly equals the two conversions), so under ``auto`` it
    never engages — the block backend is reserved for the direct seams
    (``execute_batch_ndarray`` callers), where frontiers stay blocks.
    Forcing ``on`` still routes every encoded batch through it, which is
    what the differential variants and the CI cross gate rely on."""
    return n > 0 and ndarray_forced_on()


# ----------------------------------------------------------------------
# Block construction / deconstruction
# ----------------------------------------------------------------------

def rows_to_block(rows, width: int):
    """``[tuple, ...] → (n, width) int64`` block, or ``None`` when the rows
    are not a rectangular all-int frontier (callers fall back to the
    row-loop; encoded frontiers always qualify)."""
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


def block_to_rows(block, mask) -> list:
    """Block + dangling mask → the aligned tuple list ``execute_batch``
    promises (``None`` marks dangling rows)."""
    if mask is None:
        return list(map(tuple, block.tolist()))
    out: list = [None] * block.shape[0]
    alive = np.flatnonzero(mask).tolist()
    for i, row in zip(alive, map(tuple, block[mask].tolist())):
        out[i] = row
    return out


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
