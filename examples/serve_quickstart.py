#!/usr/bin/env python3
"""The serving layer in five acts: admit, execute, degrade, reject, report.

A two-tenant :class:`~repro.serve.QueryService` front-ends the paper's
engines with the machinery a real deployment needs:

1. **Certified admission** — before a query runs, its exact CLLP/LLP
   output bound is computed; a query whose bound exceeds the tenant's
   budget is rejected *with the LP certificate attached*, so the caller
   can see precisely why (Sec. 4's bounds, used as an admission oracle).
2. **Deadlines** — cooperative checkpoints inside every engine cancel
   over-deadline queries with a typed ``QueryTimeout``.
3. **Graceful degradation** — injected engine faults push execution down
   the two-stage fallback chain (ndarray blocks → row loop); the answer
   stays bit-identical, the response records what was absorbed.
4. **Typed errors** — nothing escapes as a bare string; every failure
   carries machine-readable context.
5. **Metrics** — per-service counters and per-tenant dictionary sizes.

Run:  PYTHONPATH=src python examples/serve_quickstart.py
"""

from repro.errors import AdmissionRejected
from repro.serve import FaultInjector, QueryService
from repro.serve.workloads import demo_queries, demo_relations, demo_udfs

TRIANGLE = demo_queries()["triangle"]
EXPAND = demo_queries()["udf_expand"]


def main() -> None:
    faults = FaultInjector(seed=0)
    with QueryService(max_workers=2, faults=faults) as service:
        # Two tenants, disjoint value ranges, one shared codec per tenant.
        for i, name in enumerate(("acme", "globex")):
            service.create_tenant(name, budget_log2=20.0)
            service.attach_database(
                name, "graph", demo_relations(seed=i, value_base=i * 100_000)
            )
            service.attach_database(
                name,
                "calc",
                demo_relations(seed=i, value_base=i * 100_000)[:1],
                udfs=demo_udfs(),
            )

        # --- act 1/2: a clean certified run under a deadline ----------
        result = service.execute("acme", "graph", TRIANGLE, deadline_s=5.0)
        print(f"triangle({result.engine}): {result.row_count} rows, "
              f"certified bound 2^{result.bound_log2:.2f}, "
              f"backend {result.backend}")

        # --- act 3: an engine fault degrades, the answer does not -----
        faults.arm("engine", times=1)
        degraded = service.execute("acme", "graph", TRIANGLE)
        print(f"under fault: backend {degraded.backend}, "
              f"absorbed {[f['backend'] for f in degraded.faults_absorbed]}, "
              f"rows identical: {degraded.rows == result.rows}")

        # --- act 4: an over-budget query is rejected with proof -------
        service.create_tenant("freetier", budget_log2=2.0)
        service.attach_database(
            "freetier", "graph", demo_relations(seed=9, value_base=900_000)
        )
        try:
            service.execute("freetier", "graph", TRIANGLE)
        except AdmissionRejected as err:
            print(f"freetier rejected: bound 2^{err.bound_log2:.2f} > "
                  f"budget 2^{err.budget_log2:.2f}; dual weights "
                  f"{ {k: round(v, 2) for k, v in err.extra['weights'].items()} }")

        # --- act 5: UDF interning + the service's own accounting ------
        service.execute("globex", "calc", EXPAND, engine="generic")
        metrics = service.metrics()
        print(f"counters: submitted {metrics['submitted']}, "
              f"completed {metrics['completed']}, "
              f"degraded {metrics['degraded']}, "
              f"rejected {metrics['rejected_admission']}")
        for tenant, row in sorted(metrics["tenants"].items()):
            print(f"  {tenant}: {row['dictionary_values']} interned values "
                  f"across {row['databases']} databases")


if __name__ == "__main__":
    main()
