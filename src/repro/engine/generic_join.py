"""Generic worst-case-optimal join (NPRR / Generic-Join / LFTJ family).

This is the FD-*oblivious* baseline: it runs in time Õ(N + AGM(Q)) but
cannot exploit functional dependencies analytically (Sec. 1.2).  With
``fd_aware=True`` it adds LFTJ's practical FD handling (footnote 1 of the
paper): a variable functionally determined by the bound prefix is computed
via the expansion procedure instead of enumerated — this prunes per-branch
work but provably does not change the Ω(N²) worst case of Ex. 5.8.

Prefix bindings are code rows over ``order[:depth]``, evaluated
level-wise: the whole depth-d frontier extends to depth d+1 in one pass,
so FD-determined variables bind through a single batched plan execution.
A frontier is a list of tuples or, once large enough for the block
executor (:func:`repro.engine.frontier.ndarray_engaged`), an int64 block
that stays one to the terminal: determined runs extend it through fused
plans whose pipelines also run the depth's verification, so only
verified rows are gathered; a choose depth picks each prefix's
candidates on it with searchsorted over the atoms' sorted join blocks —
the same rows, order and ``tuples_touched`` as the tuple path's
per-prefix loop; and the terminal block decodes column-wise.  Candidate
indexes, verification keys, FD closures and expansion plans are derived
once per depth and memoized per (query, order, database), and the
indexes themselves are built on first probe — a frontier that dies
early never pays for the depths below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine import frontier as frontier_blocks
from repro.engine.cancellation import checkpoint
from repro.engine.database import Database
from repro.engine.expansion_plan import tuple_getter
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.query.query import Query


@dataclass
class GenericJoinStats:
    """Work accounting for one generic-join run."""

    tuples_touched: int = 0
    intermediate_peak: int = 0
    per_depth: list[int] = field(default_factory=list)


def _access_paths(
    query: Query, db: Database, order: tuple[str, ...], fd_aware: bool
) -> tuple:
    """The join's per-depth compiled access paths, FD-determined depths,
    lazily filled expansion-plan slots, determined-run lengths and UDF
    filter for ``order`` on ``db``'s encoded twins.  A pure function of
    the query, the order and the database, so :func:`generic_join`
    memoizes it per database (:meth:`Database.compiled`); the lazily
    filled slots only ever receive the relation's or database's own
    cached index, key set, key block or plan, so concurrent joins may
    share them."""
    # Prefixes, candidate probes and verification all run on codes.
    relations = {atom.name: db.runtime(atom.name) for atom in query.atoms}

    # Per-depth compiled access paths.  ``choose``: key getter over the
    # prefix + candidate-value position per atom containing the variable,
    # keyed on the attrs bound *before* it, and the key's prefix columns
    # for blocks.  ``verify``: the same per atom but with the variable
    # itself bound.  The hash indexes and key sets (slot 4 of both) are
    # deferred to the first probe at their depth, so a query whose
    # frontier dies at depth d builds nothing below d.
    choose_paths: list[list[list]] = []
    verify_paths: list[list[list]] = []
    determined: list[bool] = []
    plans: list = []
    for depth, var in enumerate(order):
        bound = order[:depth]
        bound_set = frozenset(bound)
        extended_attrs = bound + (var,)
        choose_atoms: list[list] = []
        verify_atoms: list[list] = []
        for atom in query.atoms:
            if var not in atom.varset:
                continue
            rel = relations[atom.name]
            battrs = tuple(
                a for a in rel.schema if a in bound_set and a in atom.varset
            )
            key = tuple(bound.index(a) for a in battrs)
            choose_atoms.append(
                [
                    rel,
                    battrs,
                    tuple_getter(key),
                    rel.positions((var,))[0],
                    None,  # index, built on first probe
                    key,  # prefix columns of the key, for blocks
                ]
            )
            vattrs = tuple(
                a
                for a in rel.schema
                if (a in bound_set or a == var) and a in atom.varset
            )
            # Verification is membership-only: probe the relation's
            # C-built key set (bare values for single-attribute keys — no
            # 1-tuple allocation per probe), deferred to first use.
            verify_atoms.append(
                [
                    rel,
                    vattrs,
                    (
                        extended_attrs.index(vattrs[0])
                        if len(vattrs) == 1
                        else tuple_getter(
                            extended_attrs.index(a) for a in vattrs
                        )
                    ),
                    len(vattrs) == 1,
                    None,  # key set, built on first probe
                    tuple(extended_attrs.index(a) for a in vattrs),
                    None,  # sorted key block, built on first block probe
                ]
            )
        choose_paths.append(choose_atoms)
        verify_paths.append(verify_atoms)
        determined.append(
            fd_aware and var in db.fds.closure(bound_set)
        )
        plans.append(None)  # expansion plans compile lazily per depth
    # Length of the consecutive determined-depth run starting at each
    # depth: converting a tuple frontier to an int64 block pays off only
    # when the block survives ≥ 2 plan steps (a single determined depth
    # sandwiched between choose depths would convert and immediately
    # re-tuple, costing more than the vectorized step saves).
    det_run = [0] * (len(order) + 1)
    for depth in range(len(order) - 1, -1, -1):
        det_run[depth] = det_run[depth + 1] + 1 if determined[depth] else 0

    consistent = db.udf_filter(order)
    return choose_paths, verify_paths, determined, plans, det_run, consistent


def _choose_spans(block, paths, var: str):
    """Each choose path's matches per prefix row of ``block``, and each
    prefix's chosen path: ``(spans, choice, minima)``.

    ``spans[j] = (lo, counts, values)``: path ``j``'s matches for prefix
    ``i`` are ``values[lo[i] : lo[i] + counts[i]]``, in :meth:`index_on`
    bucket order (``Relation.join_block`` sorts stably).  An empty-key
    path matches its whole relation.  ``choice`` is each prefix's first
    path of fewest matches — the row loop's strict ``<`` — and
    ``minima`` its match count."""
    n = block.shape[0]
    spans = []
    for path in paths:
        rel, battrs = path[0], path[1]
        if battrs:
            struct, payload = rel.join_block(battrs, (var,))
            lo, counts = frontier_blocks.key_spans(struct, block, path[5])
            spans.append((lo, counts, payload[:, 0]))
        else:
            spans.append((
                np.zeros(n, dtype=np.int64),
                np.full(n, len(rel), dtype=np.int64),
                np.asarray(rel.column_store()[path[3]], dtype=np.int64),
            ))
    if len(spans) == 1:
        return spans, np.zeros(n, dtype=np.intp), spans[0][1]
    counts = np.stack([span[1] for span in spans])
    choice = counts.argmin(axis=0)
    return spans, choice, counts[choice, np.arange(n)]


def _choose_block(block, paths, verify, spans, choice, minima):
    """One choose depth on an int64 prefix block: the row loop's output
    rows, in its order.  Each prefix takes its chosen path's matches,
    keeps the first occurrence of each value and verifies the extended
    row against every atom on the variable — except the atom that
    supplied every candidate, where the check holds by construction."""
    checkpoint()  # block-granularity deadline/fault check-in
    depth = block.shape[1]
    # Candidate ``i`` is match ``offset[i]`` of prefix ``reps[i]``.
    reps, offset, touched = frontier_blocks.expand_spans(
        np.zeros_like(minima), minima
    )
    if not touched:
        return np.empty((0, depth + 1), dtype=np.int64), 0
    used = np.unique(choice[minima > 0]).tolist()
    if len(used) == 1:
        lo, _, values = spans[used[0]]
        values = values[lo[reps] + offset]
    else:
        chosen = choice[reps]
        values = np.empty(touched, dtype=np.int64)
        for j in used:
            rows = np.flatnonzero(chosen == j)
            lo, _, column = spans[j]
            values[rows] = column[lo[reps[rows]] + offset[rows]]
    # A bucket repeats a value only when its atom has attributes beyond
    # the bound key and the variable (relations are sets).
    if any(len(paths[j][0].schema) > len(paths[j][1]) + 1 for j in used):
        order = np.lexsort((values, reps))
        sorted_reps, sorted_values = reps[order], values[order]
        first = np.ones(touched, dtype=bool)
        first[1:] = (sorted_reps[1:] != sorted_reps[:-1]) | (
            sorted_values[1:] != sorted_values[:-1]
        )
        keep = np.zeros(touched, dtype=bool)
        keep[order[first]] = True
        reps, values = reps[keep], values[keep]
    extended = np.empty((reps.shape[0], depth + 1), dtype=np.int64)
    extended[:, :depth] = block[reps]
    extended[:, depth] = values
    keep = None
    for j, path in enumerate(verify):
        if used == [j]:
            continue
        keys = path[6]
        if keys is None:
            keys = path[6] = path[0].key_block(path[1])
        hit = frontier_blocks.block_isin(extended, path[5], keys)
        keep = hit if keep is None else keep & hit
    return (extended if keep is None else extended[keep]), touched


def generic_join(
    query: Query,
    db: Database,
    order: Sequence[str] | None = None,
    fd_aware: bool = False,
    counter: WorkCounter | None = None,
) -> tuple[Relation, GenericJoinStats]:
    """Evaluate ``query`` on ``db`` by variable elimination.

    ``order`` is the global variable order (defaults to the query's variable
    order).  For each prefix binding, the candidate set for the next
    variable is the intersection of the matching values across all atoms
    containing it, iterated from the smallest candidate list — the classic
    worst-case-optimality argument.  UDF-defined predicates participate
    only through ``fd_aware`` (an oblivious engine cannot see them as
    relations it can scan).
    """
    order = tuple(order) if order is not None else query.variables
    if (len(order) != len(query.variables)
            or set(order) != set(query.variables)):
        raise ValueError("order must be a permutation of the query variables")
    stats = GenericJoinStats(per_depth=[0] * len(order))
    choose_paths, verify_paths, determined, plans, det_run, consistent = (
        db.compiled(
            query,
            ("generic_join", order, fd_aware),
            lambda: _access_paths(query, db, order, fd_aware),
        )
    )

    def verify_binding(candidate: tuple, depth: int) -> bool:
        """Check the new value against every atom fully bound so far."""
        for path in verify_paths[depth]:
            keys = path[4]
            if keys is None:
                keys = path[4] = path[0].key_set(path[1])
            if path[3]:
                if candidate[path[2]] not in keys:
                    return False
            elif path[2](candidate) not in keys:
                return False
        return True

    def block_checks(depth: int) -> list:
        """Verification at ``depth`` as block membership checks: each
        atom's key columns and its sorted key block, built on first
        use."""
        checks = []
        for path in verify_paths[depth]:
            keys = path[6]
            if keys is None:
                keys = path[6] = path[0].key_block(path[1])
            checks.append((path[5], keys))
        return checks

    def choose_rows(frontier: list, paths: list, depth: int):
        """One choose depth on tuple prefixes: ``(next_frontier,
        touched)``.  An empty-key path matches its whole relation, so it
        counts by ``len`` and reads the rows only when chosen."""
        next_frontier: list[tuple] = []
        append = next_frontier.append
        # Per-depth counter charges accumulate locally and post once —
        # the total is bit-identical to the per-prefix ``add`` calls.
        touched = 0
        for prefix_i, prefix in enumerate(frontier):
            if not prefix_i & 2047:  # re-check every 2048 prefixes
                checkpoint()
            # Choose the atom with the fewest matching extensions.
            best = None
            best_count = None
            for path in paths:
                if path[1]:
                    index = path[4]
                    if index is None:
                        index = path[4] = path[0].index_on(path[1])
                    count = len(index.get(path[2](prefix), ()))
                else:
                    count = len(path[0])
                if best_count is None or count < best_count:
                    best, best_count = path, count
            if not best_count:
                continue
            matches = (
                best[4].get(best[2](prefix), ()) if best[1] else best[0].tuples
            )
            touched += best_count
            var_position = best[3]
            seen: set = set()
            for t in matches:
                value = t[var_position]
                if value in seen:
                    continue
                seen.add(value)
                candidate = prefix + (value,)
                if verify_binding(candidate, depth):
                    append(candidate)
        return next_frontier, touched

    # Level-wise evaluation: the prefix frontier for depth d+1 is computed
    # from the whole depth-d frontier, so FD-determined variables bind by
    # one batched plan execution instead of one call per prefix.  Child
    # order within a prefix matches the recursive formulation, so results
    # (and all counted work) are identical to the depth-first original.
    # A large frontier entering a run of two or more determined depths
    # — or a choose depth that feeds one — becomes an int64 block
    # (``is_block``) and stays one: plans run on the block backend,
    # choose depths on sorted join blocks, verification probes sorted
    # key blocks, and rows re-tuple only at the terminal decode.
    frontier: list[tuple] = [()]
    is_block = False
    skip_until = 0  # depths already executed by a fused segment plan
    for depth, var in enumerate(order):
        if depth < skip_until:
            continue
        checkpoint()  # frontier-block granularity deadline/fault check-in
        n = frontier.shape[0] if is_block else len(frontier)
        if not n:
            break
        if determined[depth]:
            plan = plans[depth]
            if plan is None:
                plan = plans[depth] = db.expansion_plan(
                    order[:depth], frozenset(order[:depth]) | {var}
                )
            stats.per_depth[depth] += n
            stats.tuples_touched += n
            if counter is not None:
                counter.add(n)
            if (
                not is_block
                and det_run[depth] >= 2
                and frontier_blocks.ndarray_engaged(n)
            ):
                block = frontier_blocks.rows_to_block(frontier, depth)
                if block is not None:
                    frontier, is_block = block, True
            if is_block:
                # Fused segment: extend the whole determined run through
                # ONE concatenated plan (one pipeline call, dense chains
                # composed to a single gather) instead of one plan per
                # depth.  Only the segment's last depth may carry
                # verification (intermediate verify would interleave
                # filtering with plan steps); it runs as the pipeline's
                # membership checks, before the survivors' columns are
                # gathered.  The segment is the concatenation of the
                # per-depth single-step plans, so per-depth
                # stats/counter charges stay bit-identical —
                # ``step_alive[j]`` is exactly the frontier size the
                # per-depth path would have seen at ``depth + j``.
                seg = 1
                while (
                    seg < det_run[depth]
                    and not verify_paths[depth + seg - 1]
                ):
                    seg += 1
                seg_plan = (
                    db.run_plan(order[:depth], order[depth:depth + seg])
                    if seg >= 2
                    else None
                )
                if seg_plan is not None:
                    step_alive: list[int] = []
                    frontier, _ = seg_plan.execute_batch_ndarray(
                        frontier, counter, step_alive,
                        block_checks(depth + seg - 1),
                    )
                    for j in range(1, seg):
                        alive = step_alive[j]
                        stats.per_depth[depth + j] += alive
                        stats.tuples_touched += alive
                        if counter is not None and alive:
                            counter.add(alive)
                    skip_until = depth + seg
                    continue
                frontier, _ = plan.execute_batch_ndarray(
                    frontier, counter, None, block_checks(depth)
                )
                continue
            # The plan appends exactly {var}: extended IS prefix + (value,).
            frontier = [
                extended
                for extended in plan.execute_batch(frontier, counter)
                if extended is not None and verify_binding(extended, depth)
            ]
            continue
        paths = choose_paths[depth]
        if not paths:
            # Variable in no atom: it must be FD-determined; oblivious
            # engines cannot handle it.
            raise ValueError(
                f"variable {var!r} appears in no atom; "
                "use fd_aware=True or the core algorithms"
            )
        chosen = None
        if is_block:
            chosen = _choose_spans(frontier, paths, var)
        elif det_run[depth + 1] >= 2 and frontier_blocks.ndarray_engaged(
            n * min(len(path[0]) for path in paths)
        ):
            # A choose depth feeding a determined run: count on a block,
            # and keep it when the candidates are enough for blocks.
            block = frontier_blocks.rows_to_block(frontier, depth)
            if block is not None:
                chosen = _choose_spans(block, paths, var)
                if frontier_blocks.ndarray_engaged(int(chosen[2].sum())):
                    frontier, is_block = block, True
                else:
                    chosen = None
        if chosen is not None:
            frontier, touched = _choose_block(
                frontier, paths, verify_paths[depth], *chosen
            )
        else:
            frontier, touched = choose_rows(frontier, paths, depth)
        stats.tuples_touched += touched
        stats.per_depth[depth] += touched
        if counter is not None and touched:
            counter.add(touched)

    if is_block and consistent is not None:
        frontier = frontier.tolist()
    if consistent is not None:
        frontier = [t for t in frontier if consistent(t)]
    # Terminal blocks decode column-wise.  Rows are distinct by
    # provenance: each depth extends a prefix by distinct values, and
    # decoding is injective.
    out = Relation(
        "Q", order, db.decode_tuples(order, frontier), distinct=True
    )
    stats.intermediate_peak = len(out)
    return out, stats
