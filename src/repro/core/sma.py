"""The Sub-Modularity Algorithm — Algorithm 2 of the paper (Sec. 5.2).

SMA executes an SM-proof sequence: each SM-step (X, Y) → (X∧Y, X∨Y)
becomes an *SM-join* that splits Π_{X∧Y}(T(Y)) into light and heavy values
at the threshold 2^{h*(Y) - h*(X∧Y)}:

* ``T(X∨Y) = (T(X) ⋈ (T(Y) ⋉ Lite))⁺``  — bounded by 2^{h*(X∨Y)},
* ``T(X∧Y) = Π_Z(T(X)) ∩ Π_Z(T(Y)) ∩ Heavy``  — bounded by 2^{h*(X∧Y)},

by Lemma 5.24's invariant ``log |T(B)| <= h*(B)`` (which this
implementation asserts).  With a *good* proof sequence (Def. 5.26) the
union of the T(1̂) tables, semi-join reduced against the inputs, is exactly
the query output (Thm. 5.28), in time Õ(N + Π_j N_j^{w*_j}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.proofs import SMProof, find_good_sm_proof
from repro.engine import frontier as frontier_blocks
from repro.engine.database import Database
from repro.engine.expansion_plan import tuple_getter
from repro.engine.ops import WorkCounter, memoized_join_rows
from repro.engine.relation import Relation
from repro.lattice.lattice import Lattice
from repro.lattice.polymatroid import LatticeFunction
from repro.lp.llp import LatticeLinearProgram
from repro.query.query import Query


class SMAError(RuntimeError):
    """SMA could not run (no good proof sequence, or invariant violated)."""


@dataclass
class SMAStats:
    tuples_touched: int = 0
    table_sizes: dict[int, int] = field(default_factory=dict)
    heavy_sizes: list[int] = field(default_factory=list)
    budget_log2: float = 0.0


def submodularity_algorithm(
    query: Query,
    db: Database,
    lattice: Lattice,
    inputs: Mapping[str, int],
    proof: SMProof | None = None,
    h_star: LatticeFunction | None = None,
    slack_bits: float = 1.0,
) -> tuple[Relation, SMAStats]:
    """Evaluate ``query`` with SMA.

    ``proof``/``h_star`` default to the dual-optimal LLP certificate and a
    good proof sequence found by search; raises :class:`SMAError` when no
    good sequence exists (e.g. Fig. 9 / Ex. 5.31 — use CSMA there).
    ``slack_bits`` loosens the Lemma 5.24 assertion to absorb the integer
    rounding the paper also ignores.
    """
    log_sizes = db.log_sizes()
    if any(len(db[name]) == 0 for name in inputs):
        top_attrs = tuple(sorted(lattice.label(lattice.top)))
        return Relation("Q", top_attrs, ()), SMAStats()
    if h_star is None or proof is None:
        program = LatticeLinearProgram(
            lattice, inputs, {name: log_sizes[name] for name in inputs}
        )
        solution = program.solve()
        h_star = solution.h
        weights = solution.inequality.weights
        proof = find_good_sm_proof(lattice, weights, inputs)
        if proof is None:
            raise SMAError(
                "no good SM-proof sequence exists for the optimal dual "
                "weights; CSMA handles this case"
            )
    counter = WorkCounter()
    stats = SMAStats(budget_log2=float(h_star.values[lattice.top]))
    encoded = db.encoded

    # Initial temporary tables: one expanded copy of R_j per multiset item
    # (on the active plane — with a codec every SM-join, light/heavy split
    # and projection below runs on dictionary codes; ``final_filter`` is
    # the decode boundary).
    tables: dict[int, Relation] = {}
    for item, name in proof.initial.items():
        expanded = db.expand_runtime(name, counter=counter)
        tables[item] = expanded
        _assert_budget(expanded, h_star, inputs[name], lattice, slack_bits)

    for step, (meet_item, join_item) in zip(proof.steps, proof.produced):
        t_x = tables.pop(step.left)
        t_y = tables.pop(step.right)
        x = proof.elements[step.left]
        y = proof.elements[step.right]
        z = lattice.meet(x, y)
        xy = lattice.join(x, y)
        z_attrs = tuple(sorted(lattice.label(z)))
        # Light iff log2(degree) <= h*(Y) - h*(Z), tested with a small
        # slack in bits so that boundary degrees (exactly at the
        # threshold) stay light despite the rationalization of h*.
        threshold = 2.0 ** (
            float(h_star.values[y] - h_star.values[z]) + 1e-6
        )

        # Partition Π_Z(T(Y)) into light and heavy hitters (lines 5-6).
        y_z_index = t_y.index_on(z_attrs)
        z_positions_y = t_y.positions(z_attrs)
        lite_keys: set[tuple] = set()
        heavy_keys: set[tuple] = set()
        for key, bucket in y_z_index.items():
            counter.add()
            if len(bucket) <= threshold:
                lite_keys.add(key)
            else:
                heavy_keys.add(key)
        stats.heavy_sizes.append(len(heavy_keys))

        # T(X∧Y) = Π_Z(T(X)) ∩ Π_Z(T(Y)) ∩ Heavy (line 8).
        z_positions_x = t_x.positions(tuple(a for a in z_attrs))
        x_z_proj = {tuple(t[p] for p in z_positions_x) for t in t_x.tuples}
        meet_tuples = [key for key in heavy_keys if key in x_z_proj]
        tables[meet_item] = Relation(
            f"T({meet_item})", z_attrs, meet_tuples, distinct=True
        )

        # T(X∨Y) = (T(X) ⋈ (T(Y) ⋉ Lite))⁺ (line 9), executed on the
        # compiled expansion plan for the concatenated (X ++ Y-extra)
        # layout.  The join frontier materializes through the shared
        # per-key memoized core (``memoized_join_rows`` — the ``keep``
        # filter is the light-hitter test); counter charges are the
        # pre-filter match counts, as in the naive loop.  On the encoded
        # plane with a large T(X) the whole SM-join runs vectorized
        # instead: ``frontier.key_join`` over T(Y)'s sorted key block,
        # the light-hitter test as a key-block membership, and the
        # frontier an int64 block end to end — same rows, same order,
        # same pre-filter match charges.
        xy_attrs = lattice.label(xy)
        y_extra = tuple(a for a in t_y.schema if a not in t_x.varset)
        y_lookup_attrs = tuple(a for a in t_y.schema if a in t_x.varset)
        z_key_of = tuple_getter(z_positions_y)
        out_schema = tuple(sorted(xy_attrs))
        tables[join_item] = None
        # The block join engages only when the downstream plan has steps:
        # a step-less join materializes straight into relation tuples,
        # where the per-key memoized C loop beats gather-and-retuple.
        if (
            encoded
            and y_lookup_attrs
            and z_attrs
            and frontier_blocks.ndarray_engaged(len(t_x))
            and db.expansion_plan(
                t_x.schema + y_extra, xy_attrs, encoded=True
            ).steps
        ):
            np = frontier_blocks.np
            left_block = frontier_blocks.columns_to_block(
                t_x.column_store(), len(t_x)
            )
            if left_block is not None:
                sorted_keys, payload = t_y.join_block(
                    y_lookup_attrs, y_extra + z_attrs
                )
                reps, gather, touched = frontier_blocks.key_join(
                    sorted_keys, left_block, t_x.positions(y_lookup_attrs)
                )
                counter.add(touched)
                if lite_keys:
                    lite_sorted, _ = frontier_blocks.sorted_key_block(
                        frontier_blocks.rows_to_block(
                            list(lite_keys), len(z_attrs)
                        )
                    )
                else:
                    lite_sorted = ("empty", None, None)
                # Light-hitter test on the z columns only, then gather
                # just the survivors — a heavy split is supposed to drop
                # most matches, so the full-width join block is never
                # materialized pre-filter.
                keep = frontier_blocks.block_isin(
                    payload[:, len(y_extra):][gather],
                    tuple(range(len(z_attrs))),
                    lite_sorted,
                )
                rows_block = left_block[reps[keep]]
                if y_extra:
                    rows_block = np.concatenate(
                        (rows_block, payload[gather[keep], : len(y_extra)]),
                        axis=1,
                    )
                tables[join_item] = db.expand_block_relation(
                    f"T({join_item})",
                    rows_block,
                    t_x.schema + y_extra,
                    xy_attrs,
                    out_schema,
                    counter=counter,
                )
        if tables[join_item] is None:
            rows, touched = memoized_join_rows(
                t_x.tuples,
                t_x.positions(y_lookup_attrs),
                t_y.index_on(y_lookup_attrs),
                tuple_getter(t_y.positions(y_extra)),
                keep=lambda match: z_key_of(match) in lite_keys,
            )
            counter.add(touched)
            # The join frontier flows through the compiled plan as one
            # batch and materializes as T(X∨Y) column-wise — no
            # re-tupling detour between the plan's output block and the
            # relation's column store.
            tables[join_item] = db.expand_rows_relation(
                f"T({join_item})",
                rows,
                t_x.schema + y_extra,
                xy_attrs,
                out_schema,
                counter=counter,
                encoded=encoded,
            )
        _assert_budget(tables[meet_item], h_star, z, lattice, slack_bits)
        _assert_budget(tables[join_item], h_star, xy, lattice, slack_bits)
        stats.table_sizes[meet_item] = len(tables[meet_item])
        stats.table_sizes[join_item] = len(tables[join_item])

    # Union of top tables, filtered exactly against all inputs (line 10).
    top_attrs = tuple(sorted(lattice.label(lattice.top)))
    candidates: dict[tuple, None] = {}
    for item, rel in tables.items():
        if proof.elements[item] != lattice.top:
            continue
        aligned = rel.project(top_attrs)
        for t in aligned.tuples:
            candidates.setdefault(t, None)
    result = db.final_filter(
        top_attrs, candidates, inputs, counter=counter, encoded=encoded
    )
    stats.tuples_touched = counter.tuples_touched
    return Relation("Q", top_attrs, result), stats


def _assert_budget(
    table: Relation,
    h_star: LatticeFunction,
    element: int,
    lattice: Lattice,
    slack_bits: float,
) -> None:
    """Lemma 5.24: log |T(B)| <= h*(B) (up to integrality slack)."""
    if len(table) == 0:
        return
    actual = math.log2(len(table))
    allowed = float(h_star.values[element]) + slack_bits
    if actual > allowed:
        raise SMAError(
            f"budget invariant violated at {lattice.label(element)!r}: "
            f"log|T| = {actual:.3f} > h* + slack = {allowed:.3f}"
        )
