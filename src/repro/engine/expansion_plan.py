"""Compiled positional expansion plans — the engine's execution kernel.

The paper charges the expansion procedure (Sec. 2) Õ(N), but a naive
implementation pays a large *constant* factor per tuple: rebuilding
attr→value dicts, re-deriving ``applicable_fds``, and linearly scanning the
stored relations for a guard on every single tuple.  None of that work is
data-dependent — for a fixed (source schema, target varset) pair the
sequence of FD applications, the guard relations, and the attribute
positions are all determined symbolically.

This module compiles that sequence **once** into an :class:`ExpansionPlan`:
a flat list of positional steps executed directly on dictionary-code
tuples.

* a *guard step* is ``(key positions, functional lookup)`` where the lookup
  maps a key tuple to the new attribute values (precomputed from the guard
  relation, with the fd's "all images agree" consistency verified at build
  time — Sec. 2's guard invariant);
* a *dense guard step* replaces the hash probe with a flat ``list``
  index: the key is a single attribute whose code domain is dense, so
  ``table[code]`` *is* the functional lookup;
* a *UDF step* is ``(callable, input positions)`` for unguarded fds (the
  callable decodes its arguments lazily, applies the opaque predicate,
  and interns the result — see ``Database._encoded_udf_fn``).

Plans are cached on the :class:`~repro.engine.database.Database` (compiled
at most once per source schema / target), and shared by every
algorithm in ``repro.core``.  Work counters are incremented exactly as in
the reference path (``repro.engine.reference``): one touch per guarded fd
application (hit or miss) and one per UDF evaluation — the *measured work
shapes are bit-identical*, only the constant factor drops.

A plan runs a batch on one of two executors, and frontier size picks
which (:func:`repro.engine.frontier.ndarray_engaged`).  Row-tuple
batches run the generated row-loop, ``execute_batch``.  A seam holding
at least ``frontier.NDARRAY_MIN_ROWS`` rows hands an int64 block
(:mod:`repro.engine.frontier`) to ``execute_batch_ndarray`` instead: the
plan's generated pipeline from :mod:`repro.engine.fused` (dense gathers
composed across consecutive guard steps, sort/searchsorted key joins,
UDFs on alive rows only, the caller's membership checks, and columns
gathered for the surviving rows only).  Both executors charge identical
counts.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

import numpy as _np

from repro.engine import frontier as _frontier
from repro.engine import fused as _fused
from repro.engine.cancellation import checkpoint

GUARD = 0
UDF = 1
GUARD_DENSE = 2


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``t -> tuple(t[p] for p in positions)`` compiled to C speed.

    ``operator.itemgetter`` already returns a tuple for two or more
    positions; the 0/1-arity cases are wrapped to keep the contract.
    """
    positions = tuple(positions)
    if not positions:
        return lambda t: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda t: (t[p],)
    return itemgetter(*positions)


def fused_udf(fn: Callable, positions: Sequence[int]) -> Callable[[tuple], object]:
    """``t -> fn(t[p0], t[p1], ...)`` with the common arities unrolled."""
    positions = tuple(positions)
    if not positions:
        return lambda t: fn()
    if len(positions) == 1:
        (p,) = positions
        return lambda t: fn(t[p])
    if len(positions) == 2:
        p0, p1 = positions
        return lambda t: fn(t[p0], t[p1])
    get = itemgetter(*positions)
    return lambda t: fn(*get(t))

#: Sentinel stored in a functional guard lookup when a key maps to several
#: distinct images, i.e. the guard relation violates its fd.  Tuples hitting
#: such a key are treated as dangling (the expansion returns ``None``)
#: instead of silently inheriting the first image.
INCONSISTENT = object()


def densify_lookup(lookup: dict, domain_size: int, slack: int = 8) -> list | None:
    """A flat decode table for a single-int-key functional lookup.

    Returns ``table`` with ``table[code] = image`` (``None`` for keys not
    in the guard) when the attribute's code domain is dense enough that
    the table stays within ``slack``× the number of keys (never below a
    small floor, so tiny guards always densify); ``None`` when the domain
    is too sparse for a table to pay off.
    """
    if domain_size > max(1024, slack * len(lookup)):
        return None
    table: list = [None] * domain_size
    for (code,), image in lookup.items():
        table[code] = image
    return table


class ExpansionPlan:
    """A compiled expansion ``source schema → closure/target`` (Sec. 2).

    ``steps`` is a tuple of ``(tag, positions, payload)`` triples:

    * ``(GUARD, key_positions, lookup)`` — probe the functional lookup with
      the positionally-extracted key; append the image values.
    * ``(GUARD_DENSE, (position,), table)`` — index a flat list with the
      single key code (out-of-range codes — values interned after the
      plan compiled — are misses, like any unseen key).
    * ``(UDF, input_positions, fn)`` — append ``fn(*inputs)``.

    ``out_schema`` is the source schema followed by the appended attributes
    in application order.  Inputs are code tuples, so every column is
    statically known to be ints.

    ``execute`` is *generated code*: the step list is flattened into one
    Python function at construction, so per-tuple execution pays a single
    call frame plus the UDF calls themselves.

    ``execute_batch`` runs the plan over a whole row frontier at once
    through a generated loop (the row-loop, one call frame per *batch*).
    It returns a list aligned with the input (``None`` marks dangling
    rows) and charges the counter the exact per-tuple total: one touch
    per step a tuple reaches, nothing past the step where it dangles.
    ``execute_batch_ndarray`` is the int64 block executor.
    """

    __slots__ = (
        "source_schema", "out_schema", "steps", "_positions",
        "execute", "_execute_batch_rows", "_nd_specs", "_pipelines",
    )

    def __init__(
        self,
        source_schema: tuple[str, ...],
        out_schema: tuple[str, ...],
        steps: tuple[tuple, ...],
    ):
        self.source_schema = source_schema
        self.out_schema = out_schema
        self.steps = steps
        self._positions = {a: i for i, a in enumerate(out_schema)}
        self.execute = self._compile()
        self._execute_batch_rows = self._compile_batch()
        self._nd_specs = None  # ndarray step specs, compiled on first use
        # Fused pipelines per check-position signature, compiled on
        # first use.
        self._pipelines: dict = {}

    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Positions of ``attrs`` in :attr:`out_schema`."""
        return tuple(self._positions[a] for a in attrs)

    def _compile(self):
        """Generate ``execute(t, counter=None) -> tuple | None``.

        Returns the extended tuple, or ``None`` when a guard lookup misses
        (dangling tuple) or hits an fd-inconsistent key.  Counter semantics
        match the naive per-tuple expansion exactly: one touch per guarded
        fd application (hit or miss) and one per UDF evaluation, charged
        before the step runs so a dangling tuple stops the count exactly
        where the naive loop would.
        """
        namespace: dict[str, object] = {"INCONSISTENT": INCONSISTENT}
        lines = ["def execute(t, counter=None):"]
        for i, (tag, positions, payload) in enumerate(self.steps):
            lines.append("    if counter is not None: counter.add()")
            cells = ", ".join(f"t[{p}]" for p in positions)
            if tag == GUARD:
                namespace[f"lookup{i}"] = payload
                key = f"({cells},)" if len(positions) == 1 else f"({cells})"
                lines.append(f"    v = lookup{i}.get({key})")
                lines.append("    if v is None or v is INCONSISTENT: return None")
                lines.append("    t = t + v")
            elif tag == GUARD_DENSE:
                namespace[f"table{i}"] = payload
                lines.append(f"    c = t[{positions[0]}]")
                lines.append(
                    f"    v = table{i}[c] if c < {len(payload)} else None"
                )
                lines.append("    if v is None or v is INCONSISTENT: return None")
                lines.append("    t = t + v")
            else:
                namespace[f"fn{i}"] = payload
                lines.append(f"    t = t + (fn{i}({cells}),)")
        lines.append("    return t")
        exec("\n".join(lines), namespace)
        return namespace["execute"]

    def _compile_batch(self):
        """Generate the row-loop batch executor.

        Same per-row semantics as :meth:`execute`, but the whole frontier
        runs inside one generated function and the counter is charged once
        with the accumulated total, so a batch costs one call frame plus
        the step work itself.
        """
        namespace: dict[str, object] = {"INCONSISTENT": INCONSISTENT}
        lines = [
            "def execute_batch(ts, counter=None):",
            "    out = []",
            "    append = out.append",
            "    touched = 0",
            "    for t in ts:",
        ]
        for i, (tag, positions, payload) in enumerate(self.steps):
            lines.append("        touched += 1")
            cells = ", ".join(f"t[{p}]" for p in positions)
            if tag == GUARD:
                namespace[f"lookup{i}"] = payload
                key = f"({cells},)" if len(positions) == 1 else f"({cells})"
                lines.append(f"        v = lookup{i}.get({key})")
            elif tag == GUARD_DENSE:
                namespace[f"table{i}"] = payload
                lines.append(f"        c = t[{positions[0]}]")
                lines.append(
                    f"        v = table{i}[c] if c < {len(payload)} else None"
                )
            else:
                namespace[f"fn{i}"] = payload
                lines.append(f"        t = t + (fn{i}({cells}),)")
                continue
            lines.append("        if v is None or v is INCONSISTENT:")
            lines.append("            append(None)")
            lines.append("            continue")
            lines.append("        t = t + v")
        lines.append("        append(t)")
        lines.append("    if counter is not None and touched:")
        lines.append("        counter.add(touched)")
        lines.append("    return out")
        exec("\n".join(lines), namespace)
        return namespace["execute_batch"]

    def execute_batch(self, tuples, counter=None) -> list:
        """Run the plan over a row frontier on the generated row-loop;
        aligned output, ``None`` = dangling."""
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        if not self.steps:
            # Nothing to apply: the aligned output IS the input (a plan
            # over an already-closed schema).  One C-level copy, no
            # generated loop, no counter charges — as the step-less
            # row-loop would (zero touches).
            return list(tuples)
        n = len(tuples)
        if n == 0:
            return []
        checkpoint()  # frontier-block granularity deadline/fault check-in
        return self._execute_batch_rows(tuples, counter)

    # ------------------------------------------------------------------
    # The ndarray frontier backend
    # ------------------------------------------------------------------
    def _ndarray_specs(self) -> tuple:
        """Per-step numpy payloads, compiled once per plan on first use.

        Guard payloads are snapshots of the same compile-time tables the
        scalar/row-loop backends consult, re-shaped for vectorized
        probing; fd-inconsistent entries are dropped (a missing key and
        an :data:`INCONSISTENT` key both dangle, so the semantics are
        unchanged).  Lazy compilation is safe because guard lookups and
        dense tables are immutable after the plan compiles — only the
        *dictionaries* grow mid-run, and every probe below treats an
        out-of-range code as a miss.
        """
        specs = self._nd_specs
        if specs is not None:
            return specs
        built: list[tuple] = []
        for tag, positions, payload in self.steps:
            if tag == UDF:
                built.append(("udf", tuple(positions), payload, 1))
            elif tag == GUARD_DENSE:
                table = payload
                size = len(table)
                # One Python pass to collect the valid entries, then
                # C-level array construction and a boolean scatter — the
                # per-entry numpy row assignment was the compile
                # bottleneck on ~10⁶-key dense guards.
                entries = [
                    entry
                    for entry in table
                    if entry is not None and entry is not INCONSISTENT
                ]
                width = len(entries[0]) if entries else 0
                valid = _np.fromiter(
                    (
                        entry is not None and entry is not INCONSISTENT
                        for entry in table
                    ),
                    dtype=bool,
                    count=size,
                )
                images = _np.zeros((size, width), dtype=_np.int64)
                if entries and width == 1:
                    # ~3x faster than np.array on millions of 1-tuples.
                    images[valid, 0] = _np.fromiter(
                        (entry[0] for entry in entries),
                        dtype=_np.int64,
                        count=len(entries),
                    )
                elif entries and width:
                    images[valid] = _np.array(entries, dtype=_np.int64)
                built.append(("dense", positions[0], size, valid, images, width))
            else:
                items = [
                    (key, image)
                    for key, image in payload.items()
                    if image is not INCONSISTENT
                ]
                width = len(items[0][1]) if items else 0
                if items:
                    keys = _np.array([key for key, _ in items], dtype=_np.int64)
                    images = _np.array(
                        [image for _, image in items], dtype=_np.int64
                    ).reshape(len(items), width)
                    struct, order = _frontier.sorted_key_block(keys)
                    images = images[order]
                else:
                    struct = ("empty", None, None)
                    images = _np.zeros((0, width), dtype=_np.int64)
                built.append(
                    ("sparse", tuple(positions), struct, images, width)
                )
        self._nd_specs = specs = tuple(built)
        return specs

    def execute_batch_ndarray(
        self, block, counter=None, step_alive=None, checks=()
    ):
        """Run the plan over an ``(n, len(source_schema))`` int64 frontier
        block, then the membership ``checks``.

        ``checks`` is a sequence of ``(positions, key_struct)`` pairs: a
        row survives check ``(positions, struct)`` when its
        ``positions`` columns (of :attr:`out_schema`) form a key of the
        sorted key structure ``struct``
        (:func:`repro.engine.frontier.sorted_key_block`).

        Returns ``(rows, alive)``: ``rows`` is the ``(m,
        len(out_schema))`` int64 block of the rows that survive every
        step and every check, and ``alive`` their input row indexes
        (ascending, as ``np.flatnonzero``).  Dense guard steps gather
        through their flat table (out-of-range codes — values interned
        after the plan compiled — are misses); sparse guard steps run
        sort/searchsorted key joins on sorted key structures; UDF steps
        decode and evaluate only the rows still alive.  Counter totals
        are bit-identical to the row-loop backend: each step charges
        exactly the rows alive when it runs, and checks charge nothing.
        ``step_alive`` (optional list) receives each step's alive-row
        count (0 for steps short-circuited by a dead frontier), counted
        before the checks.

        The whole spec list and the checks run as one generated pipeline
        (:func:`repro.engine.fused.compile_pipeline`), with consecutive
        dense gathers composed into fused tables, compiled on first use
        per check-position signature; the key structures are arguments.
        Every block caller (the chain/CSMA/SMA/generic seams and
        ``Database.expand_block_relation``) goes through this one method.
        """
        signature = tuple(tuple(positions) for positions, _ in checks)
        pipeline = self._pipelines.get(signature)
        if pipeline is None:
            pipeline = self._pipelines[signature] = _fused.compile_pipeline(
                self, signature
            )
        return pipeline(
            block, counter, step_alive, tuple(struct for _, struct in checks)
        )


class RelationExpansionPlan:
    """A compiled whole-relation expansion ``R → R⁺`` (Sec. 2).

    Same step vocabulary as :class:`ExpansionPlan` (minus the dense-table
    specialization), but guard steps carry a *multi-image* lookup (key →
    tuple of distinct images) replicating the set semantics of joining
    with ``Π_{X∪Y}(guard)``: dangling tuples are dropped and an
    fd-violating guard key contributes one output row per distinct image,
    exactly as the reference join does.
    """

    __slots__ = ("source_schema", "out_schema", "steps", "_compiled")

    def __init__(
        self,
        source_schema: tuple[str, ...],
        out_schema: tuple[str, ...],
        steps: tuple[tuple, ...],
    ):
        self.source_schema = source_schema
        self.out_schema = out_schema
        self.steps = steps
        self._compiled = tuple(
            (tag, tuple_getter(positions) if tag == GUARD
             else fused_udf(payload, positions), payload)
            for tag, positions, payload in steps
        )

    def execute_all(self, tuples, counter=None) -> list[tuple]:
        """Run the plan over a tuple collection, step by step.

        Counter semantics match the reference ``natural_join`` chain: one
        touch per emitted row on guard steps, one per tuple on UDF steps.
        """
        current = tuples
        for tag, extract, payload in self._compiled:
            checkpoint()  # per plan step over the whole relation
            out = []
            if tag == GUARD:
                for t in current:
                    images = payload.get(extract(t))
                    if images is None:
                        continue
                    for img in images:
                        out.append(t + img)
                if counter is not None:
                    counter.add(len(out))
            else:
                if counter is not None:
                    counter.add(len(current))
                for t in current:
                    out.append(t + (extract(t),))
            current = out
        return list(current) if current is tuples else current


def build_guard_lookup(
    guard, key_attrs: tuple[str, ...], value_attrs: tuple[str, ...]
) -> dict:
    """Functional lookup ``key → image`` from a guard relation.

    Verifies the fd on the guard once at build time: keys whose buckets
    disagree on the image map to :data:`INCONSISTENT` (the per-tuple
    expansion then treats them as dangling).  O(|guard|) once, O(1) per
    probed tuple thereafter.

    On an encoded twin the lookup builds in one C pass over just the
    key and image code columns — ``dict(zip(keys, images))``, without
    building the guard's rows — and the build is done if every key was
    unique (a unique-keyed guard is trivially consistent).  Duplicate
    keys, and guards without a code array, take the bucket-checking
    build.
    """
    codes = guard.code_columns()
    if codes is not None and len(guard):
        key_positions = guard.positions(key_attrs)
        value_positions = guard.positions(value_attrs)
        columns = {
            p: codes[p].tolist() for p in {*key_positions, *value_positions}
        }
        lookup = dict(
            zip(
                zip(*(columns[p] for p in key_positions)),
                zip(*(columns[p] for p in value_positions)),
            )
        )
        if len(lookup) == len(guard):
            return lookup
    index = guard.index_on(key_attrs)
    value_positions = guard.positions(value_attrs)
    lookup: dict[tuple, object] = {}
    for key, bucket in index.items():
        first = bucket[0]
        vals = tuple(first[p] for p in value_positions)
        for m in bucket[1:]:
            if tuple(m[p] for p in value_positions) != vals:
                vals = INCONSISTENT
                break
        lookup[key] = vals
    return lookup


def build_multi_guard_lookup(
    guard, key_attrs: tuple[str, ...], value_attrs: tuple[str, ...]
) -> dict:
    """Multi-image lookup ``key → tuple of distinct images``.

    Mirrors joining with the deduplicated projection ``Π_{key∪value}``:
    per key, one image per *distinct* value combination.
    """
    index = guard.index_on(key_attrs)
    value_positions = guard.positions(value_attrs)
    lookup: dict[tuple, tuple] = {}
    for key, bucket in index.items():
        lookup[key] = tuple(
            dict.fromkeys(tuple(m[p] for p in value_positions) for m in bucket)
        )
    return lookup
