#!/usr/bin/env python3
"""Quickstart: bounds and FD-aware evaluation in five minutes.

Builds the paper's running example — the UDF query (1) of Sec. 1.1 —

    Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u), u = f(x,z), x = g(y,u)

computes its whole bound hierarchy, lets the planner pick an algorithm,
and checks the answer against a naive plan.

Run:  python examples/quickstart.py
"""

from repro.core.bounds import compute_bounds
from repro.core.planner import Planner
from repro.engine.binary_join import binary_join_plan
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.fds.udf import UDF
from repro.query.parse import parse_query


def main() -> None:
    # 1. Declare the query.  FDs after ';', UDFs supply the unguarded ones.
    query = parse_query("Q :- R(x,y), S(y,z), T(z,u); xz -> u, yu -> x")
    print(f"query: {query}")

    # 2. Build a database: √N × √N grids plus the two UDFs (Ex. 5.5).
    side = 16  # N = 256 tuples per relation
    grid = [(i, j) for i in range(side) for j in range(side)]
    db = Database(
        [
            Relation("R", ("x", "y"), grid),
            Relation("S", ("y", "z"), grid),
            Relation("T", ("z", "u"), grid),
        ],
        udfs=[
            UDF("f", ("x", "z"), "u", lambda x, z: x),
            UDF("g", ("y", "u"), "x", lambda y, u: u),
        ],
    )
    n = len(db["R"])
    print(f"database: |R| = |S| = |T| = {n}")

    # 3. The bound hierarchy (all log2).
    report = compute_bounds(query, db.sizes())
    print("\nbound hierarchy (log2 of tuple counts):")
    for name, value in report.as_dict().items():
        print(f"  {name:>9}: {value:6.2f}  (= {2**value:12.0f} tuples)")
    print(f"  AGM treats the UDFs as invisible: N^2 = {n**2}")
    print(f"  GLVV exploits them:           N^1.5 = {n**1.5:.0f}")

    # 4. Let the planner choose and run.
    planner = Planner(query, db)
    out, choice, _ = planner.run()
    print(f"\nplanner chose: {choice.algorithm}  ({choice.reason})")
    print(f"|Q| = {len(out)}")

    # 5. Cross-check against a traditional binary plan.
    reference, stats = binary_join_plan(query, db)
    assert set(out.project(reference.schema).tuples) == set(reference.tuples)
    print(
        f"binary plan agrees, but materialized a peak intermediate of "
        f"{stats.intermediate_peak} tuples"
    )


if __name__ == "__main__":
    main()
