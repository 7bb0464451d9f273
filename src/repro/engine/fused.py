"""Fused plan pipelines — the block executor.

Every int64 frontier block an encoded plan runs goes through one
exec-compiled function per plan and check signature, built here.  It
applies the plan's step specs (``ExpansionPlan._ndarray_specs``) in
order, then the caller's membership checks, and returns the surviving
rows only.  Three constant-factor savings over interpreting the specs
one by one — compose, compile, then materialize late:

* **Gather-table composition** (:func:`compose_fused_specs`): a run of
  consecutive ``GUARD_DENSE`` steps whose key column is the run's entry
  column or a column the run itself appended collapses into one flat
  table over the entry attribute's code domain.  Per entry code the
  composed table stores the full appended image row *and* ``surv`` — how
  many of the run's steps that entry survives before dangling (capped at
  the run length).  One gather then replaces k gathers, one ``sv == k``
  compare replaces k mask ANDs, and ``min(sv+1, k)`` *is* the exact
  per-row charge of the k steps (each step charges the rows alive when
  it runs — bit-identical ``tuples_touched``).  Out-of-range codes
  (values interned after the plan compiled) and
  fd-:data:`~repro.engine.expansion_plan.INCONSISTENT` entries dangle
  exactly as in the row-loop: both compose to ``surv`` short of the run
  length.  Dead rows follow the clipped slot-0 chain, so a column a
  later step reads is defined on every row.
* **Generated pipelines** (:func:`compile_pipeline`): one function per
  plan and check-position signature — mirroring the per-tuple executor
  codegen in :mod:`~repro.engine.expansion_plan` — that runs the whole
  fused spec list and the checks with no per-step dispatch, no
  dead-branch checks (mask-is-None and empty-table branches resolve at
  *codegen* time), and mask short-circuiting baked in.
  ``execute_batch_ndarray`` is a thin call into the cached pipeline, so
  every block seam (chain stage-2/3, SMA/CSMA SM-joins, generic BFS,
  LFTJ) runs through it.
* **Late materialization** (after Abadi et al., "Materialization
  Strategies in a Column-Oriented DBMS", ICDE 2007): columns travel as
  1-D arrays, and only those a later step or a check reads are gathered
  for every row.  The rest are gathered once, for the survivors only,
  through each step's kept slot array; the result block is assembled at
  the end and holds no dead rows.

Frontier size decides which batches reach it
(:func:`repro.engine.frontier.ndarray_engaged`).  The differential suite
(``tests/differential.py``) pins the block executor against the
row-loop: bit-identical work profiles across all five engines, and
in-pipeline checks equal to the row-loop's output filtered by key-set
membership.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cancellation import checkpoint
from repro.engine.frontier import key_hits, key_isin


# ----------------------------------------------------------------------
# Gather-table composition
# ----------------------------------------------------------------------

def _width(spec) -> int:
    """How many columns a (plain or fused) spec appends."""
    kind = spec[0]
    if kind == "udf":
        return spec[3]
    return spec[4] if kind == "sparse" else spec[5]


def _composable(spec) -> bool:
    """Dense specs worth composing: a non-empty table appending at least
    one column.  (A zero-width or empty-table dense guard kills every
    row at that step; it stays a plain spec and the pipeline's
    short-circuit handles it.)"""
    return spec[0] == "dense" and spec[2] > 0 and spec[5] > 0


def compose_fused_specs(specs, source_width: int):
    """Collapse runs of consecutive composable dense specs whose key
    column is already materialized *within the run* (the entry column or
    a column the run appended) into ``("fused", entry_pos, size, surv,
    images, width, nsteps)`` specs.

    ``surv[c]`` is how many run steps entry code ``c`` survives (capped
    at ``nsteps``); ``images[c]`` is the full appended row gathered
    through the clipped slot-0 chain — exactly the cells a plain
    ``dense`` spec per step would write, dangling rows included.  Runs of
    length 1 stay plain ``dense`` specs.
    """
    out: list = []
    cursor = source_width
    # [entry_pos, run_cursor, size, surv, cols, k, first spec]
    run: list | None = None

    def flush():
        nonlocal run
        if run is None:
            return
        entry_pos, _, size, surv, cols, k, plain = run
        run = None
        if k == 1:
            out.append(plain)
            return
        images = (
            np.column_stack(cols)
            if cols
            else np.zeros((size, 0), dtype=np.int64)
        )
        out.append(
            ("fused", entry_pos, size, surv, images, images.shape[1], k)
        )

    for spec in specs:
        width = _width(spec)
        if _composable(spec):
            _, pos, size, valid, images, w = spec
            if run is not None:
                entry_pos, run_cursor, size0, surv, cols, k, _plain = run
                if pos == entry_pos:
                    key = np.arange(size0, dtype=np.int64)
                elif run_cursor <= pos < run_cursor + len(cols):
                    key = cols[pos - run_cursor]
                else:
                    key = None
                if key is not None:
                    # Compose: probe this step's table with each entry's
                    # current chain value.  ``slot`` clips exactly like
                    # a plain dense spec, so dangled entries keep
                    # following the deterministic slot-0 garbage chain.
                    inrange = key < size
                    slot = np.where(inrange, key, 0)
                    hit = inrange & valid[slot]
                    surv += (surv == k) & hit
                    gathered = images[slot]
                    for j in range(w):
                        cols.append(np.ascontiguousarray(gathered[:, j]))
                    run[5] = k + 1
                    cursor += width
                    continue
                flush()
            # Start a new run at this spec (its own table is step 0:
            # key = the entry code itself).
            surv = valid.astype(np.int64)
            cols = [np.ascontiguousarray(images[:, j]) for j in range(w)]
            run = [spec[1], cursor, size, surv, cols, 1, spec]
            cursor += width
            continue
        flush()
        out.append(spec)
        cursor += width
    flush()
    return tuple(out)


# ----------------------------------------------------------------------
# Pipeline codegen
# ----------------------------------------------------------------------

def _appended_ranges(fused_specs, source_width: int) -> list:
    """Per fused spec, the ``(start, width)`` of the columns it appends."""
    ranges = []
    cursor = source_width
    for spec in fused_specs:
        ranges.append((cursor, _width(spec)))
        cursor += _width(spec)
    return ranges


def compile_pipeline(plan, check_positions=()):
    """Exec-compile one function running ``plan``'s whole fused spec
    list, then the membership checks on ``check_positions``, over an
    int64 block: ``pipeline(block, counter=None, step_alive=None,
    structs=()) -> (rows, alive)``.

    ``structs[i]`` is the sorted key structure check ``i`` probes with
    the row's ``check_positions[i]`` columns
    (:func:`repro.engine.frontier.key_isin`).  ``rows`` holds the
    surviving rows only — every step's miss and every check applied —
    and ``alive`` their input row indexes, ascending.

    Columns travel as 1-D arrays: source columns are views of ``block``,
    and an appended column is gathered for every row only when a later
    step's key, a UDF or a check reads it.  Every other appended column
    is gathered once, for the survivors only, from the step's kept slot
    array — late materialization — and the result block is assembled
    once, at the end.

    Composition is invisible: the surviving rows and the counter total
    are those of applying the specs one step at a time, each step
    charging the rows alive when it runs (the row-loop's counts).
    Checks charge nothing.  ``step_alive``, when a list is passed,
    receives the alive-row count of every *original* plan step (fused
    runs fan their per-step counts back out via a ``surv`` bincount;
    short-circuited steps append 0) — the generic join's determined-run
    seam uses it to keep per-depth stats exact.

    Dead branches are resolved at codegen time: whether ``mask`` can
    still be ``None``, whether a table is empty, which columns a later
    reader needs — none of it is re-checked per call.
    """
    specs = plan._ndarray_specs()
    ncols = len(plan.source_schema)
    fused_specs = compose_fused_specs(specs, ncols)
    ranges = _appended_ranges(fused_specs, ncols)
    total_orig = len(specs)
    w_out = len(plan.out_schema)

    # Columns some reader needs in full: step keys, UDF inputs, checks.
    read: set[int] = {p for positions in check_positions for p in positions}
    for spec in fused_specs:
        if spec[0] in ("dense", "fused"):
            read.add(spec[1])
        else:
            read.update(spec[1])

    ns: dict = {
        "np": np,
        "checkpoint": checkpoint,
        "key_hits": key_hits,
        "key_isin": key_isin,
    }
    lines = [
        "def pipeline(block, counter=None, step_alive=None, structs=()):",
        "    n = block.shape[0]",
        "    touched = 0",
    ]
    for p in sorted(read):
        if p < ncols:
            lines.append(f"    c{p} = block[:, {p}]")

    def cols(positions) -> str:
        return "[" + ", ".join(f"c{p}" for p in positions) + "]"

    # Emitted once all rows are known: ``(kind, spec index)`` per
    # appended range — "slot" ranges gather from their image table,
    # "udf" columns from their full-length column.
    finish: list[tuple] = []
    empty = (
        f"np.empty((0, {w_out}), dtype=np.int64), np.empty(0, dtype=np.intp)"
    )
    mask_none = True  # compile-time: no masking spec emitted yet
    orig_done = 0

    def alive_expr() -> str:
        return "n" if mask_none else "m"

    def charge():
        lines.append(f"    touched += {alive_expr()}")
        lines.append("    if step_alive is not None:")
        lines.append(f"        step_alive.append({alive_expr()})")

    def emit_gathers(i: int, table_rows: int):
        """Full-length gathers of spec ``i``'s read columns, and its
        survivors-only gather at the end."""
        start, width = ranges[i]
        if not width or not table_rows:
            return
        images = ns[f"images{i}"]
        for j in range(width):
            if start + j in read:
                ns[f"col{i}_{j}"] = np.ascontiguousarray(images[:, j])
                lines.append(f"    c{start + j} = col{i}_{j}[slot{i}]")
        finish.append(("slot", i))

    for i, spec in enumerate(fused_specs):
        kind = spec[0]
        lines.append("    checkpoint()")
        start, width = ranges[i]
        if kind == "udf":
            _, positions, fn, _ = spec
            ns[f"fn{i}"] = fn
            charge()
            if mask_none:
                args = ", ".join(f"c{p}.tolist()" for p in positions)
                call = (
                    f"map(fn{i}, {args})" if positions
                    else f"(fn{i}() for _ in range(n))"
                )
                lines.append(
                    f"    c{start} = np.fromiter({call}, np.int64, count=n)"
                )
            else:
                # Dead rows keep code 0: a later key probe reads them,
                # and code 0 always probes safely.
                args = ", ".join(f"c{p}[live].tolist()" for p in positions)
                call = (
                    f"map(fn{i}, {args})" if positions
                    else f"(fn{i}() for _ in range(m))"
                )
                lines.append("    live = np.flatnonzero(mask)")
                lines.append(f"    c{start} = np.zeros(n, dtype=np.int64)")
                lines.append(
                    f"    c{start}[live] = np.fromiter({call}, np.int64, "
                    "count=m)"
                )
            finish.append(("udf", i))
            orig_done += 1
            continue
        if kind == "dense":
            _, pos, size, valid, images, _ = spec
            charge()
            if size:
                ns[f"valid{i}"] = valid
                ns[f"images{i}"] = images
                # Out-of-range codes clip to slot 0 and miss.
                lines.append(f"    inr = c{pos} < {size}")
                lines.append(f"    slot{i} = np.where(inr, c{pos}, 0)")
                lines.append(f"    hit = inr & valid{i}[slot{i}]")
                emit_gathers(i, size)
            else:
                lines.append("    hit = np.zeros(n, dtype=bool)")
            orig_done += 1
        elif kind == "sparse":
            _, positions, struct, images, _ = spec
            ns[f"struct{i}"] = struct
            ns[f"images{i}"] = images
            charge()
            lines.append(
                f"    hit, slot{i} = key_hits(struct{i}, {cols(positions)})"
            )
            emit_gathers(i, images.shape[0])
            orig_done += 1
        else:  # fused dense run
            _, pos, size, surv, images, _, k = spec
            ns[f"surv{i}"] = surv
            ns[f"images{i}"] = images
            lines.append(f"    inr = c{pos} < {size}")
            lines.append(f"    slot{i} = np.where(inr, c{pos}, 0)")
            lines.append(f"    sv = np.where(inr, surv{i}[slot{i}], 0)")
            # Each original step charges the rows alive when its fused
            # run executes: a row surviving s < k steps was charged by
            # steps 0..s (s+1 touches), a full survivor by all k.
            if mask_none:
                lines.append(
                    f"    touched += int(np.minimum(sv + 1, {k}).sum())"
                )
            else:
                lines.append(
                    f"    touched += int(np.minimum(sv + 1, {k})[mask].sum())"
                )
            lines.append("    if step_alive is not None:")
            lines.append(
                "        _svm = sv" if mask_none else "        _svm = sv[mask]"
            )
            lines.append(
                f"        _c = np.bincount(_svm, minlength={k + 1})"
            )
            lines.append("        _a = int(_svm.shape[0])")
            for j in range(k):
                if j:
                    lines.append(f"        _a -= int(_c[{j - 1}])")
                lines.append("        step_alive.append(_a)")
            lines.append(f"    hit = sv == {k}")
            emit_gathers(i, size)
            orig_done += k
        # Masking specs: fold the hit into the mask, short-circuit when
        # the frontier dies.
        lines.append("    mask = hit" if mask_none else "    mask &= hit")
        mask_none = False
        lines.append("    m = int(np.count_nonzero(mask))")
        lines.append("    if not m:")
        remaining = total_orig - orig_done
        if remaining:
            lines.append("        if step_alive is not None:")
            lines.append(
                f"            step_alive.extend((0,) * {remaining})"
            )
        lines.append("        if counter is not None and touched:")
        lines.append("            counter.add(touched)")
        lines.append(f"        return {empty}")
    lines.append("    if counter is not None and touched:")
    lines.append("        counter.add(touched)")
    # Membership checks: filter on the columns they read, before any
    # other column is gathered.
    for ci, positions in enumerate(check_positions):
        lines.append(f"    hit = key_isin(structs[{ci}], {cols(positions)})")
        lines.append("    mask = hit" if mask_none else "    mask &= hit")
        mask_none = False
        lines.append("    m = int(np.count_nonzero(mask))")
        lines.append("    if not m:")
        lines.append(f"        return {empty}")

    # Assemble the surviving rows once.
    if mask_none:
        take = ""
        lines.append("    alive = np.arange(n)")
        lines.append(f"    rows = np.empty((n, {w_out}), dtype=np.int64)")
        if ncols:
            lines.append(f"    rows[:, :{ncols}] = block")
    else:
        take = "[alive]"
        lines.append("    alive = np.flatnonzero(mask)")
        lines.append(f"    rows = np.empty((m, {w_out}), dtype=np.int64)")
        if ncols:
            lines.append(f"    rows[:, :{ncols}] = block[alive]")
    for kind, i in finish:
        start, width = ranges[i]
        if kind == "udf":
            lines.append(f"    rows[:, {start}] = c{start}{take}")
        else:
            lines.append(
                f"    rows[:, {start}:{start + width}] = "
                f"images{i}[slot{i}{take}]"
            )
    lines.append("    return rows, alive")
    exec("\n".join(lines), ns)
    return ns["pipeline"]
