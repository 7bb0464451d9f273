"""Fused plan pipelines — the block executor.

Every int64 frontier block an encoded plan runs goes through one
exec-compiled function per plan, built here.  It applies the plan's
step specs (``ExpansionPlan._ndarray_specs``) in order, with two
constant-factor savings over interpreting them one by one — first
compose, then compile:

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
  length.  Dead rows keep gathering the clipped slot-0 chain, so every
  written cell is per-row deterministic.
* **Generated pipelines** (:func:`compile_pipeline`): one function per
  plan — mirroring the per-tuple executor codegen in
  :mod:`~repro.engine.expansion_plan` — that runs the whole fused spec
  list with no per-step dispatch, no dead-branch checks (mask-is-None
  and empty-table branches resolve at *codegen* time), and mask
  short-circuiting baked in.  ``execute_batch_ndarray`` is a thin
  call into the cached pipeline, so every block seam (chain stage-2/3,
  SMA/CSMA SM-joins, generic BFS, LFTJ) runs through it.

Frontier size decides which batches reach it
(:func:`repro.engine.frontier.ndarray_engaged`).  The differential suite
(``tests/differential.py``) pins the block executor against the
row-loop: bit-identical work profiles across all five engines.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cancellation import checkpoint
from repro.engine.frontier import key_hits


# ----------------------------------------------------------------------
# Gather-table composition
# ----------------------------------------------------------------------

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
        width = spec[5] if spec[0] == "dense" else (
            1 if spec[0] == "udf" else spec[4]
        )
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

def compile_pipeline(plan):
    """Exec-compile one function running ``plan``'s whole fused spec
    list over an int64 block: ``pipeline(block, counter=None,
    step_alive=None) -> (out, mask)``.

    Composition is invisible: the output block (dead cells included),
    mask and counter total are those of applying the specs one step at
    a time, each step charging the rows alive when it runs (the
    row-loop's counts).  ``step_alive``, when a list is passed, receives
    the alive-row count of every *original* plan step (fused runs fan
    their per-step counts back out via a ``surv`` bincount;
    short-circuited steps append 0) — the generic join's determined-run
    seam uses it to keep per-depth stats exact.

    Dead branches are resolved at codegen time: whether ``mask`` can
    still be ``None``, whether a table is empty, whether a step appends
    columns — none of it is re-checked per call.
    """
    specs = plan._ndarray_specs()
    fused_specs = compose_fused_specs(specs, len(plan.source_schema))
    total_orig = len(specs)

    ns: dict = {"np": np, "checkpoint": checkpoint, "key_hits": key_hits}
    w_out = len(plan.out_schema)
    ncols = len(plan.source_schema)
    # zeros, not empty: appended cells of rows that dangle mid-plan are
    # never read as results, but later guard steps probe them
    # vectorized — heap garbage there could index a table out of
    # bounds, while code 0 always probes safely.
    lines = [
        "def pipeline(block, counter=None, step_alive=None):",
        "    n = block.shape[0]",
        f"    out = np.zeros((n, {w_out}), dtype=np.int64)",
    ]
    if ncols:
        lines.append(f"    out[:, :{ncols}] = block")
    lines.append("    mask = None")
    lines.append("    touched = 0")

    cursor = ncols
    mask_none = True  # compile-time: no masking spec emitted yet
    orig_done = 0

    def alive_expr() -> str:
        return "n" if mask_none else "m"

    def emit_early_return(remaining: int):
        lines.append("    if not m:")
        if remaining:
            lines.append("        if step_alive is not None:")
            lines.append(
                f"            step_alive.extend((0,) * {remaining})"
            )
        lines.append("        if counter is not None and touched:")
        lines.append("            counter.add(touched)")
        lines.append("        return out, mask")

    for i, spec in enumerate(fused_specs):
        kind = spec[0]
        lines.append("    checkpoint()")
        if kind == "udf":
            _, positions, fn, width = spec
            ns[f"fn{i}"] = fn
            lines.append(f"    touched += {alive_expr()}")
            lines.append("    if step_alive is not None:")
            lines.append(f"        step_alive.append({alive_expr()})")
            if mask_none:
                if positions:
                    args = ", ".join(
                        f"out[:, {p}].tolist()" for p in positions
                    )
                    lines.append(
                        f"    out[:, {cursor}] = np.fromiter("
                        f"map(fn{i}, {args}), np.int64, count=n)"
                    )
                else:
                    lines.append(
                        f"    out[:, {cursor}] = np.fromiter("
                        f"(fn{i}() for _ in range(n)), np.int64, count=n)"
                    )
            else:
                lines.append("    alive = np.flatnonzero(mask)")
                if positions:
                    args = ", ".join(
                        f"out[alive, {p}].tolist()" for p in positions
                    )
                    lines.append(
                        f"    out[alive, {cursor}] = np.fromiter("
                        f"map(fn{i}, {args}), np.int64, count=m)"
                    )
                else:
                    lines.append(
                        f"    out[alive, {cursor}] = np.fromiter("
                        f"(fn{i}() for _ in range(m)), np.int64, count=m)"
                    )
            cursor += width
            orig_done += 1
            continue
        if kind == "dense":
            _, pos, size, valid, images, width = spec
            lines.append(f"    touched += {alive_expr()}")
            lines.append("    if step_alive is not None:")
            lines.append(f"        step_alive.append({alive_expr()})")
            if size:
                ns[f"valid{i}"] = valid
                ns[f"images{i}"] = images
                # Out-of-range codes clip to slot 0 and miss.
                lines.append(f"    codes = out[:, {pos}]")
                lines.append(f"    inr = codes < {size}")
                lines.append("    slot = np.where(inr, codes, 0)")
                lines.append(f"    hit = inr & valid{i}[slot]")
                if width:
                    lines.append(
                        f"    out[:, {cursor}:{cursor + width}] = "
                        f"images{i}[slot]"
                    )
            else:
                lines.append("    hit = np.zeros(n, dtype=bool)")
            cursor += width
            orig_done += 1
        elif kind == "sparse":
            _, positions, struct, images, width = spec
            ns[f"struct{i}"] = struct
            ns[f"positions{i}"] = positions
            lines.append(f"    touched += {alive_expr()}")
            lines.append("    if step_alive is not None:")
            lines.append(f"        step_alive.append({alive_expr()})")
            lines.append(
                f"    hit, slot = key_hits(struct{i}, out, positions{i})"
            )
            if width and images.shape[0]:
                ns[f"images{i}"] = images
                lines.append(
                    f"    out[:, {cursor}:{cursor + width}] = "
                    f"images{i}[slot]"
                )
            cursor += width
            orig_done += 1
        else:  # fused dense run
            _, pos, size, surv, images, width, k = spec
            ns[f"surv{i}"] = surv
            ns[f"images{i}"] = images
            lines.append(f"    codes = out[:, {pos}]")
            lines.append(f"    inr = codes < {size}")
            lines.append("    slot = np.where(inr, codes, 0)")
            lines.append(f"    sv = np.where(inr, surv{i}[slot], 0)")
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
            if width:
                lines.append(
                    f"    out[:, {cursor}:{cursor + width}] = images{i}[slot]"
                )
            cursor += width
            orig_done += k
        # Masking specs: fold the hit into the mask, short-circuit when
        # the frontier dies.
        if mask_none:
            lines.append("    mask = hit")
            mask_none = False
        else:
            lines.append("    mask = mask & hit")
        lines.append("    m = int(np.count_nonzero(mask))")
        if orig_done < total_orig:
            emit_early_return(total_orig - orig_done)
    lines.append("    if counter is not None and touched:")
    lines.append("        counter.add(touched)")
    lines.append("    return out, mask")
    exec("\n".join(lines), ns)
    return ns["pipeline"]
