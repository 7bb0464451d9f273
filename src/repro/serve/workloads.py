"""Canned multi-tenant workloads for the serving bench, CLI and examples.

Pure-int demo data (so every degradation stage, and the value-level
reference join, produce byte-identical canonical rows), with per-tenant
disjoint value ranges so cross-tenant corruption is *detectable*: a
tenant's result or dictionary containing a value outside its range is
proof of a leak, and the chaos suite asserts exactly that.

The query mix covers the planner's taxonomy: a triangle (no fds —
generic join / AGM), a guarded-simple-key chain (closure trick), and a
UDF query (unguarded fd, mid-run dictionary interning — the workload
that actually grows a tenant's dictionaries and exercises compaction).
"""

from __future__ import annotations

import random

from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF
from repro.query.query import Atom, Query
from repro.serve.service import QueryService

#: Value-range stride between tenants — tenant ``i`` draws from
#: ``[i * TENANT_STRIDE, i * TENANT_STRIDE + range)``.
TENANT_STRIDE = 100_000


def demo_relations(
    seed: int, n_edges: int = 48, value_base: int = 0, value_range: int = 20
) -> list[Relation]:
    """R(x,y) / S(y,z) / T(z,x) over a tenant-private int range; S is
    functional in ``y`` so it can guard the fd ``y → z``."""
    rng = random.Random(seed)
    lo, hi = value_base, value_base + value_range
    r = {(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(n_edges)}
    t = {(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(n_edges)}
    ys = sorted({y for _, y in r} | {z for z, _ in t})
    s = {(y, lo + (y * 7 + 3) % value_range) for y in ys}
    return [
        Relation("R", ("x", "y"), sorted(r)),
        Relation("S", ("y", "z"), sorted(s)),
        Relation("T", ("z", "x"), sorted(t)),
    ]


def demo_queries() -> dict[str, Query]:
    """The demo query mix, keyed by shape name."""
    triangle = Query(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    )
    guarded_chain = Query(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z"))],
        FDSet([FD("y", "z")], "xyz"),
    )
    udf_expand = Query(
        [Atom("R", ("x", "y"))], FDSet([FD("xy", "z")], "xyz")
    )
    return {
        "triangle": triangle,
        "guarded_chain": guarded_chain,
        "udf_expand": udf_expand,
    }


def demo_udfs() -> list[UDF]:
    return [UDF("add", ("x", "y"), "z", fn=lambda x, y: x + y)]


def tenant_name(i: int) -> str:
    return f"tenant{i}"


def tenant_range(i: int, value_range: int = 20) -> tuple[int, int]:
    """The closed-open int range tenant ``i``'s *stored* values live in
    (UDF outputs ``x + y`` may reach twice the upper bound)."""
    return i * TENANT_STRIDE, i * TENANT_STRIDE + value_range


def build_demo_service(
    tenants: int = 2,
    max_workers: int = 4,
    queue_depth: int = 8,
    seed: int = 0,
    n_edges: int = 48,
    budget_log2: float | None = None,
    dictionary_cap: int | None = None,
    faults=None,
) -> QueryService:
    """A service with ``tenants`` tenants, each holding two databases over
    its private value range: ``main`` (R/S/T, no UDFs — a database-level
    fd asserts the *data* satisfies it, and the triangle data doesn't
    satisfy ``z = x + y``) and ``expand`` (R plus the ``add`` UDF, whose
    mid-run interning of ``x + y`` outputs is what bloats the tenant's
    shared dictionaries and exercises compaction)."""
    service = QueryService(
        max_workers=max_workers, queue_depth=queue_depth, faults=faults
    )
    for i in range(tenants):
        name = tenant_name(i)
        service.create_tenant(
            name, budget_log2=budget_log2, dictionary_cap=dictionary_cap
        )
        relations = demo_relations(
            seed + i, n_edges=n_edges, value_base=i * TENANT_STRIDE
        )
        # S is functional in y by construction, so "main" legitimately
        # guards the fd y → z — the planner's closure trick needs the
        # *database* to hold the fd, not just the query.
        service.attach_database(
            name, "main", relations, fds=FDSet([FD("y", "z")], "xyz")
        )
        service.attach_database(
            name, "expand", [relations[0]], udfs=demo_udfs()
        )
    return service


def demo_requests(
    tenants: int = 2,
    rounds: int = 10,
    engines: tuple[str, ...] = ("auto", "generic", "lftj"),
    deadline_s: float | None = None,
    seed: int = 0,
) -> list[dict]:
    """A deterministic shuffled request list cycling tenants × queries ×
    engines — kwargs dicts for :meth:`QueryService.execute`/``submit``."""
    queries = demo_queries()
    rng = random.Random(seed)
    requests: list[dict] = []
    for _ in range(rounds):
        for i in range(tenants):
            for shape, query in queries.items():
                engine = engines[rng.randrange(len(engines))]
                if engine in ("binary", "lftj") and shape == "udf_expand":
                    engine = "generic"  # lftj/binary need every var in an atom
                requests.append(
                    {
                        "tenant": tenant_name(i),
                        "database": (
                            "expand" if shape == "udf_expand" else "main"
                        ),
                        "query": query,
                        "engine": engine,
                        "deadline_s": deadline_s,
                    }
                )
    rng.shuffle(requests)
    return requests
