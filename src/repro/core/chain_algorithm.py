"""The Chain Algorithm — Algorithm 1 of the paper (Sec. 5.1).

Given a good chain C, the algorithm climbs the chain computing
``Q_i = (⋈_j Π_{R_j ∧ C_i}(R_j))⁺`` via per-tuple intersections: for each
tuple of ``Q_{i-1}`` it iterates over the *cheapest* covering relation
(chosen per tuple by an O(1) degree lookup) and verifies candidates against
the others — the combinatorial counterpart of Radhakrishnan's telescoping
proof, with runtime Õ(N + Π_j N_j^{w_j}) for any fractional edge cover w of
the chain hypergraph (Thm. 5.7).

The frontier is kept as raw tuples over the sorted attributes of C_{i-1}
and flows through the kernel in whole-frontier batches: per-tuple work is
only the data-dependent cover argmin; candidate expansion and the
footnote-8 verification push one batch per covering relation through the
compiled plans (``ExpansionPlan.execute_batch``).  The counted work is
identical to the row-dict formulation, only the constant factor drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.engine import frontier as frontier_blocks
from repro.engine.database import Database
from repro.engine.expansion_plan import tuple_getter
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.lattice.chains import Chain, is_good_chain, shearer_chain
from repro.lattice.lattice import Lattice
from repro.query.query import Query


@dataclass
class ChainAlgorithmStats:
    tuples_touched: int = 0
    per_step_sizes: list[int] = field(default_factory=list)


@dataclass
class _CoverInfo:
    """Per-(step, covering relation) positional access paths."""

    name: str
    proj: Relation
    # Degree/match lookups keyed on the attrs shared with the frontier.
    index: dict
    key: object
    # Extension: projection attrs not yet in the frontier.
    extra_attrs: tuple[str, ...]
    extra_key: object
    # Verification: candidate → full projection-schema key; the
    # membership set is built lazily on first verify (single-cover steps
    # never need it).
    cand_key: object
    cand_extra_key: object
    members: set | None = None
    # Sorted key block over the full projection schema — the vectorized
    # membership structure the footnote-8 block path probes.
    members_block: object = None
    # Compiled expansion (prefix ++ extra → C_i), lazily built.
    plan: object = None
    reorder: object = None


def chain_algorithm(
    query: Query,
    db: Database,
    lattice: Lattice,
    inputs: Mapping[str, int],
    chain: Chain | None = None,
) -> tuple[Relation, ChainAlgorithmStats]:
    """Evaluate ``query`` along ``chain`` (defaults to the Corollary 5.9
    chain).  ``inputs`` maps atom names to their *closed* lattice elements.

    Raises ``ValueError`` when the chain is not good for the inputs or has
    an uncovered step (footnote 7: the bound would be infinite).
    """
    if chain is None:
        chain = shearer_chain(lattice, list(inputs.values()))
    if not is_good_chain(chain, inputs.values()):
        raise ValueError(f"chain {chain!r} is not good for the inputs")
    counter = WorkCounter()
    stats = ChainAlgorithmStats()

    # Step 1: expand inputs to their closures (line 1 of Algorithm 1).
    # ``expand_runtime`` keeps the result on codes: the whole climb —
    # degree argmins, candidate expansion, the footnote-8 verification —
    # runs on dictionary codes, and only the terminal output decodes.
    expanded: dict[str, Relation] = {}
    for name in inputs:
        expanded[name] = db.expand_runtime(name, counter=counter)
        if frozenset(expanded[name].schema) != lattice.label(inputs[name]):
            raise ValueError(
                f"input {name} expands to {expanded[name].schema}, "
                f"expected {sorted(lattice.label(inputs[name]))}"
            )

    k = len(chain.elements) - 1
    covering: list[list[str]] = [[]]
    for i in range(1, k + 1):
        names = [name for name, r in inputs.items() if chain.covers(r, i)]
        if not names:
            raise ValueError(f"chain step {i} is covered by no input")
        covering.append(names)

    # Per-step projections Π_{R_j ∧ C_i}(R_j⁺), built lazily (and memoized
    # again inside Relation.project).
    projections: dict[tuple[int, str], Relation] = {}

    def projection(i: int, name: str) -> Relation:
        key = (i, name)
        if key not in projections:
            shared = lattice.label(inputs[name]) & lattice.label(chain.elements[i])
            projections[key] = expanded[name].project(sorted(shared))
        return projections[key]

    # Q_0 = {()} (line 2).  Frontier tuples are laid out over prev_attrs.
    frontier: list[tuple] = [()]
    prev_attrs: tuple[str, ...] = ()
    stats.per_step_sizes.append(1)

    for i in range(1, k + 1):
        ci: frozenset = lattice.label(chain.elements[i])
        ci_sorted = tuple(sorted(ci))
        if not frontier:
            # Nothing to extend: skip building the per-step access paths
            # (the naive path built its projections lazily and likewise did
            # no work here), but keep the per-step stats trajectory.
            prev_attrs = ci_sorted
            stats.per_step_sizes.append(0)
            continue
        prev_set = frozenset(prev_attrs)
        infos: list[_CoverInfo] = []
        for name in covering[i]:
            proj = projection(i, name)
            bound_attrs = tuple(a for a in proj.schema if a in prev_set)
            extra_attrs = tuple(a for a in proj.schema if a not in prev_set)
            infos.append(
                _CoverInfo(
                    name=name,
                    proj=proj,
                    index=proj.index_on(bound_attrs),
                    key=tuple_getter(
                        prev_attrs.index(a) for a in bound_attrs
                    ),
                    extra_attrs=extra_attrs,
                    extra_key=tuple_getter(proj.positions(extra_attrs)),
                    cand_key=tuple_getter(
                        ci_sorted.index(a) for a in proj.schema
                    ),
                    cand_extra_key=tuple_getter(
                        ci_sorted.index(a) for a in extra_attrs
                    ),
                )
            )

        def ensure_plan(info: _CoverInfo):
            if info.plan is None:
                info.plan = db.expansion_plan(
                    prev_attrs + info.extra_attrs, ci
                )
                info.reorder = tuple_getter(info.plan.positions(ci_sorted))
            return info.plan

        # Stage 1 — per-tuple cover choice (the argmin is data-dependent,
        # so the degree probes stay per tuple), accumulating each tuple's
        # matches into the chosen cover's frontier batch.
        # Stage-1 counter charges (one per degree probe, one per emitted
        # match) accumulate locally and post once per step — the total is
        # bit-identical to the per-probe ``add`` calls.
        # The chosen cover's extension columns extract once per distinct
        # key (`extras` memo per cover — same core as
        # ``ops.memoized_join_rows``; hot keys repeat on skewed data);
        # rows concatenate via C-level ``tuple.__add__``.
        batches: list[list[tuple]] = [[] for _ in infos]
        extras_memos: list[dict] = [{} for _ in infos]
        touched = 0
        if len(infos) == 1:
            # Single cover: the argmin is trivial — probe, extend.
            (info,) = infos
            index, info_key, extra_key = info.index, info.key, info.extra_key
            batch = batches[0]
            memo = extras_memos[0]
            for t in frontier:
                key = info_key(t)
                matches = index.get(key)
                touched += 1
                if not matches:
                    continue
                touched += len(matches)
                extras = memo.get(key)
                if extras is None:
                    extras = memo[key] = [extra_key(m) for m in matches]
                batch.extend(map(t.__add__, extras))
        else:
            keys: list = [None] * len(infos)
            n_infos = len(infos)
            for t in frontier:
                # Pick j* = argmin |t ⋈ Π_{R_j ∧ C_i}(R_j)| by degree
                # lookup.
                best_idx = 0
                best_count: int | None = None
                for j, info in enumerate(infos):
                    keys[j] = key = info.key(t)
                    count = len(info.index.get(key, ()))
                    if best_count is None or count < best_count:
                        best_idx, best_count = j, count
                touched += n_infos
                if not best_count:
                    continue
                best = infos[best_idx]
                touched += best_count
                key = keys[best_idx]
                memo = extras_memos[best_idx]
                extras = memo.get(key)
                if extras is None:
                    extra_key = best.extra_key
                    extras = memo[key] = [
                        extra_key(m) for m in best.index[key]
                    ]
                batches[best_idx].extend(map(t.__add__, extras))
        counter.add(touched)

        # Stage 2 — each batch goes through its cover's compiled plan in
        # one call (goodness guarantees the closure is C_i); the prefix of
        # a surviving candidate is recovered positionally (the plan's
        # layout starts with prev_attrs).
        n_prev = len(prev_attrs)
        next_frontier: dict[tuple, None] = {}

        def run_batch_block(chosen: _CoverInfo, rows: list[tuple]) -> bool:
            """Stages 2-3 on the int64 block backend: candidate expansion,
            per-cover membership and the footnote-8 re-expansion all stay
            array blocks; rows re-tuple only at the frontier-dedup
            boundary.  Counter charges mirror the tuple path exactly
            (plan batches charge inside the backend; each other cover
            charges the surviving candidate count before its checks).
            Returns False when the batch does not convert to a block (the
            caller falls back to the tuple path)."""
            np = frontier_blocks.np
            plan = ensure_plan(chosen)
            block = frontier_blocks.rows_to_block(
                rows, len(plan.source_schema)
            )
            if block is None:
                return False
            ext, _ = plan.execute_batch_ndarray(block, counter)
            cand_positions = list(plan.positions(ci_sorted))
            for info in infos:
                if info is chosen or not ext.shape[0]:
                    continue
                counter.add(ext.shape[0])
                keys = info.members_block
                if keys is None:
                    keys = info.members_block = info.proj.key_block(
                        info.proj.schema
                    )
                hit = frontier_blocks.block_isin(
                    ext, plan.positions(info.proj.schema), keys
                )
                ext = ext[hit]
                if not ext.shape[0]:
                    continue
                info_plan = ensure_plan(info)
                rebuilt, rebuilt_alive = info_plan.execute_batch_ndarray(
                    np.concatenate(
                        (
                            ext[:, :n_prev],
                            ext[:, list(plan.positions(info.extra_attrs))],
                        ),
                        axis=1,
                    ),
                    counter,
                )
                ok = (
                    rebuilt[:, list(info_plan.positions(ci_sorted))]
                    == ext[rebuilt_alive][:, cand_positions]
                ).all(axis=1)
                ext = ext[rebuilt_alive[ok]]
            for candidate in map(tuple, ext[:, cand_positions].tolist()):
                next_frontier[candidate] = None
            return True

        for chosen, rows in zip(infos, batches):
            if not rows:
                continue
            if (
                frontier_blocks.ndarray_engaged(len(rows))
                and run_batch_block(chosen, rows)
            ):
                continue
            plan = ensure_plan(chosen)
            reorder = chosen.reorder
            survivors = [
                (reorder(e), e[:n_prev])
                for e in plan.execute_batch(rows, counter)
                if e is not None
            ]
            # Stage 3 — line 6's intersection, batched per other covering
            # relation: the candidate's R_j ∧ C_i projection must be
            # present in Π_{R_j ∧ C_i}(R_j), and re-expanding the prefix
            # joined with that projection must reproduce the candidate
            # (the subtle step of footnote 8).  A candidate failing one
            # cover never reaches the next — exactly the per-tuple
            # early-exit, so the counted work is identical.
            for info in infos:
                if info is chosen or not survivors:
                    continue
                counter.add(len(survivors))
                members = info.members
                if members is None:
                    members = info.members = info.proj.tuple_set()
                cand_key = info.cand_key
                passed = [
                    (c, p) for c, p in survivors if cand_key(c) in members
                ]
                if not passed:
                    survivors = passed
                    continue
                info_plan = ensure_plan(info)
                cand_extra_key = info.cand_extra_key
                rebuilt = info_plan.execute_batch(
                    [p + cand_extra_key(c) for c, p in passed], counter
                )
                info_reorder = info.reorder
                survivors = [
                    (c, p)
                    for (c, p), rb in zip(passed, rebuilt)
                    if rb is not None and info_reorder(rb) == c
                ]
            for candidate, _ in survivors:
                next_frontier[candidate] = None
        frontier = list(next_frontier)
        prev_attrs = ci_sorted
        stats.per_step_sizes.append(len(frontier))

    schema = tuple(sorted(lattice.label(chain.elements[k])))
    consistent = db.udf_filter(schema)
    if consistent is not None:
        frontier = [t for t in frontier if consistent(t)]
    out = Relation(
        "Q", schema, db.decode_tuples(schema, frontier), distinct=True
    )
    stats.tuples_touched = counter.tuples_touched
    return out, stats
