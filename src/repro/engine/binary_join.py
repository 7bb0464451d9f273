"""Traditional pairwise join plans — the pre-WCOJ baseline (Sec. 1).

A left-deep plan materializes every intermediate result, which is exactly
what makes it Ω(N²) on the paper's intro example: the intermediate
R(x,y) ⋈ S(y,z) ⋈ T(z,u) has N² tuples before the UDF predicates apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.database import Database
from repro.engine.ops import WorkCounter, natural_join
from repro.engine.relation import Relation
from repro.query.query import Query


@dataclass
class BinaryJoinStats:
    tuples_touched: int = 0
    intermediate_sizes: list[int] = field(default_factory=list)

    @property
    def intermediate_peak(self) -> int:
        return max(self.intermediate_sizes, default=0)


def binary_join_plan(
    query: Query,
    db: Database,
    order: Sequence[str] | None = None,
    apply_fd_filters: bool = True,
) -> tuple[Relation, BinaryJoinStats]:
    """Left-deep hash-join plan over the query atoms.

    ``order`` is the atom order (defaults to ascending size, a common
    greedy heuristic).  After the joins, FD/UDF predicates are applied as a
    final selection when ``apply_fd_filters`` is set — mirroring a classical
    engine that evaluates interpreted predicates last, and variables
    determined only by UDFs are filled by expansion at the end.
    """
    stats = BinaryJoinStats()
    counter = WorkCounter()
    atom_names = (
        list(order)
        if order is not None
        else sorted(
            (atom.name for atom in query.atoms), key=lambda n: len(db[n])
        )
    )
    # The whole plan runs on the encoded twins; only the terminal relation
    # decodes.
    current = db.runtime(atom_names[0])
    stats.intermediate_sizes.append(len(current))
    for name in atom_names[1:]:
        current = natural_join(current, db.runtime(name), counter=counter)
        stats.intermediate_sizes.append(len(current))
    if apply_fd_filters and set(current.schema) != set(query.variables):
        # Fill UDF-determined variables and drop inconsistent tuples: the
        # whole intermediate goes through the compiled expansion plan in
        # one batch.
        filled = []
        target = frozenset(query.variables)
        if len(current):
            plan = db.expansion_plan(current.schema, target)
            from repro.engine.expansion_plan import tuple_getter

            out_key = tuple_getter(plan.positions(query.variables))
            consistent = db.udf_filter(plan.out_schema)
            counter.add(len(current))
            filled = [
                out_key(expanded)
                for expanded in plan.execute_batch(current.tuples, counter)
                if expanded is not None
                and (consistent is None or consistent(expanded))
            ]
        current = Relation(
            "Q", query.variables, db.decode_tuples(query.variables, filled)
        )
    elif apply_fd_filters:
        # Check every fd that has a UDF witness (predicates u = f(x, z)).
        consistent = db.udf_filter(current.schema)
        counter.add(len(current))
        if consistent is None:
            kept = list(current.tuples)
        else:
            kept = [t for t in current.tuples if consistent(t)]
        current = Relation(
            "Q", current.schema, db.decode_tuples(current.schema, kept),
            distinct=True,
        ).project(query.variables, name="Q")
    else:
        current = db.codec.decode_relation(current, name=current.name)
    stats.tuples_touched = counter.tuples_touched
    return current, stats
