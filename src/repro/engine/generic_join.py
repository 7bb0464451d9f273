"""Generic worst-case-optimal join (NPRR / Generic-Join / LFTJ family).

This is the FD-*oblivious* baseline: it runs in time Õ(N + AGM(Q)) but
cannot exploit functional dependencies analytically (Sec. 1.2).  With
``fd_aware=True`` it adds LFTJ's practical FD handling (footnote 1 of the
paper): a variable functionally determined by the bound prefix is computed
via the expansion procedure instead of enumerated — this prunes per-branch
work but provably does not change the Ω(N²) worst case of Ex. 5.8.

Prefix bindings are raw tuples over ``order[:depth]``, evaluated
level-wise: the whole depth-d frontier extends to depth d+1 in one pass,
so FD-determined variables bind through a single batched plan execution.
Candidate indexes, verification keys, FD closures and expansion plans are
derived once per depth and memoized per (query, order, database), and the
hash indexes themselves are built on first probe — a frontier that dies
early never pays for the depths below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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

    # Per-depth compiled access paths.  ``choose``: key positions in the
    # prefix + candidate-value position per atom containing the variable,
    # keyed on the attrs bound *before* it.  ``verify``: the same per atom
    # but with the variable itself bound.  The hash indexes themselves
    # (slot 4 / 3) are deferred to the first probe at their depth, so a
    # query whose frontier dies at depth d builds nothing below d.
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
            choose_atoms.append(
                [
                    rel,
                    battrs,
                    tuple_getter(bound.index(a) for a in battrs),
                    rel.positions((var,))[0],
                    None,  # index, built on first probe
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

    # Level-wise evaluation: the prefix frontier for depth d+1 is computed
    # from the whole depth-d frontier, so FD-determined variables bind by
    # one batched plan execution instead of one call per prefix.  Child
    # order within a prefix matches the recursive formulation, so results
    # (and all counted work) are identical to the depth-first original.
    # A large frontier entering a run of two or more determined depths
    # travels as an int64 block (``is_block``) across it: the plan runs
    # on the block backend and verification probes sorted key blocks —
    # rows re-tuple only at a data-dependent choose depth or the terminal.
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
                # filtering with plan steps), and the segment is the
                # concatenation of the per-depth single-step plans, so
                # per-depth stats/counter charges stay bit-identical —
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
                    extended, keep = seg_plan.execute_batch_ndarray(
                        frontier, counter, step_alive
                    )
                    for j in range(1, seg):
                        alive = step_alive[j]
                        stats.per_depth[depth + j] += alive
                        stats.tuples_touched += alive
                        if counter is not None and alive:
                            counter.add(alive)
                    for path in verify_paths[depth + seg - 1]:
                        keys = path[6]
                        if keys is None:
                            keys = path[6] = path[0].key_block(path[1])
                        hit = frontier_blocks.block_isin(
                            extended, path[5], keys
                        )
                        keep = hit if keep is None else keep & hit
                    frontier = extended if keep is None else extended[keep]
                    skip_until = depth + seg
                    continue
                extended, keep = plan.execute_batch_ndarray(frontier, counter)
                for path in verify_paths[depth]:
                    keys = path[6]
                    if keys is None:
                        keys = path[6] = path[0].key_block(path[1])
                    hit = frontier_blocks.block_isin(extended, path[5], keys)
                    keep = hit if keep is None else keep & hit
                frontier = extended if keep is None else extended[keep]
                continue
            # The plan appends exactly {var}: extended IS prefix + (value,).
            frontier = [
                extended
                for extended in plan.execute_batch(frontier, counter)
                if extended is not None and verify_binding(extended, depth)
            ]
            continue
        if is_block:
            frontier = [tuple(row) for row in frontier.tolist()]
            is_block = False
        paths = choose_paths[depth]
        if not paths:
            # Variable in no atom: it must be FD-determined; oblivious
            # engines cannot handle it.
            raise ValueError(
                f"variable {var!r} appears in no atom; "
                "use fd_aware=True or the core algorithms"
            )
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
                index = path[4]
                if index is None:
                    index = path[4] = path[0].index_on(path[1])
                count = len(index.get(path[2](prefix), ()))
                if best_count is None or count < best_count:
                    best, best_count = path, count
            matches = best[4].get(best[2](prefix), ())
            if not matches:
                continue
            touched += len(matches)
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
        stats.tuples_touched += touched
        stats.per_depth[depth] += touched
        if counter is not None and touched:
            counter.add(touched)
        frontier = next_frontier

    if is_block:
        # Terminal re-tupling happens through the decode boundary below:
        # the block rows feed the consistency filter / decoder as lists.
        frontier = frontier.tolist()
    if consistent is not None:
        frontier = [t for t in frontier if consistent(t)]
    out = Relation("Q", order, db.decode_tuples(order, frontier))
    stats.intermediate_peak = len(out)
    return out, stats
