"""E17 — large-frontier scaling of the dictionary-encoded data plane.

E16 gates the paper's *shapes* (growth exponents, bit-identical
``tuples_touched``) on sub-second instances; E17 runs the engines on
≥1M-row frontiers of nested composite keys
(``repro.datagen.large.composite``), which the engines probe as small
int codes, flat dense tables or whole int64 columns.  Each workload runs
twice on identical data — with the block executor off (the generated
row-loop kernel), and as shipped (frontier size picks the executor:
blocks through the fused pipeline from ``frontier.NDARRAY_MIN_ROWS``
rows) — and must satisfy **backend equivalence**: identical result sets
and bit-identical ``tuples_touched`` across both runs (the block backend
charges the row-loop's exact counts; any drift is a kernel bug, asserted
here *and* in ``tests/test_ndarray_frontier.py``).  Counts and digests are gated
against the committed trajectory by ``check_regression.py``; walls are
recorded, never gated.

Six workloads cover the five engine families: the Chain Algorithm on
guarded query (1) skew, SMA's SM-joins on a dense triangle, FD-aware
generic join on a cyclic-key query *and* on the k-step guarded fd chain
(``fdchain`` — the pure expansion-frontier shape the array-of-int64
backend was built for), LFTJ on a dense triangle (seek-dominated), and
CSMA on the degree-bounded triangle of query (2).

The pytest entry point runs the smoke sizes only (CI's ``--quick`` gate);
``python benchmarks/bench_e17_large_frontier.py`` runs the full ≥1M-row
sweep and is what ``benchmarks/run_all.py`` records into
``BENCH_<tag>.json``: per-workload ``tuples_touched``, per-configuration
ingest time (datagen + Relation construction + dictionary interning —
the once-per-database cost), the cold first-query time (lazy plan /
dense-table / pipeline / index compilation, amortized exactly like
ingest — ``first_query_s``), the *warm* query wall-clock (the
steady-state cost a serving system actually pays; the oldest BENCH
files timed cold first queries instead), and the process peak RSS after each run (the ``ru_maxrss`` high-water mark,
monotone over the sweep).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from repro.core.chain_algorithm import chain_algorithm
from repro.core.csma import csma
from repro.core.sma import submodularity_algorithm
from repro.datagen.large import (
    fdchain_order,
    large_chain_workload,
    large_csma_workload,
    large_fdchain_workload,
    large_generic_workload,
    large_lftj_workload,
    large_sma_workload,
)
from repro.engine import frontier as frontier_blocks
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.lattice.builders import lattice_from_query
from repro.lattice.chains import best_chain_bound
from repro.lp.cllp import DegreeConstraint

#: The two execution configurations every workload runs.  ``encoded``
#: is the shipped kernel (frontier size picks the executor — blocks at
#: every E17 size, through the fused pipeline); ``encoded-ndoff`` runs
#: the row-loop only (``frontier.min_rows_override(None)``) so the sweep
#: itself certifies block-vs-row-loop count equality at scale.
PLANES = ("encoded-ndoff", "encoded")

#: Smoke sizes run in CI (seconds); full sizes are the ≥1M-row frontiers
#: recorded in BENCH_<tag>.json.  Both are recorded by the full sweep so
#: the CI smoke cross-checks counts against the committed trajectory.
SIZES = {
    "chain": {"smoke": 20_000, "full": 250_000, "reps": 3},
    "sma": {"smoke": 20_000, "full": 100_000, "reps": 3},
    "generic": {"smoke": 20_000, "full": 350_000, "reps": 3},
    "fdchain": {"smoke": 50_000, "full": 1_000_000, "reps": 2},
    "lftj": {"smoke": 4_000, "full": 60_000, "reps": 2},
    "csma": {"smoke": 20_000, "full": 150_000, "reps": 3},
}


def _prepare_chain(n: int):
    query, db = large_chain_workload(n)
    lattice, inputs = lattice_from_query(query)
    logs = {k: db.log_sizes()[k] for k in inputs}
    _, chain, _ = best_chain_bound(lattice, inputs, logs)

    def execute():
        out, stats = chain_algorithm(query, db, lattice, inputs, chain)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_generic(n: int):
    query, db = large_generic_workload(n)

    def execute():
        out, stats = generic_join(query, db, fd_aware=True)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_lftj(n: int):
    query, db = large_lftj_workload(n)

    def execute():
        out, stats = leapfrog_triejoin(query, db)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_fdchain(n: int):
    query, db = large_fdchain_workload(n)
    order = fdchain_order()

    def execute():
        out, stats = generic_join(query, db, order=order, fd_aware=True)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_sma(n: int):
    query, db = large_sma_workload(n)
    lattice, inputs = lattice_from_query(query)

    def execute():
        out, stats = submodularity_algorithm(query, db, lattice, inputs)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_csma(n: int):
    query, db = large_csma_workload(n)
    lattice, inputs = lattice_from_query(query)
    x = lattice.index(frozenset("x"))
    xy = lattice.index(frozenset("xy"))
    d = db["R"].max_degree(("x",))
    constraint = DegreeConstraint(x, xy, math.log2(max(2, d)), guard="R")

    def execute():
        result = csma(
            query, db, lattice, inputs, extra_degree_constraints=[constraint]
        )
        return set(result.relation.tuples), result.stats.tuples_touched

    return execute


#: name → prepare(n) -> execute() -> (result set, tuples_touched).
#: ``prepare`` covers datagen + ingest (Relation construction, dictionary
#: interning, plan-independent query analysis) — the once-per-database
#: cost; ``execute`` is the timed query run, as a serving system would
#: amortize it.  Ingest time is recorded separately per configuration.
RUNNERS = {
    "chain": _prepare_chain,
    "sma": _prepare_sma,
    "generic": _prepare_generic,
    "fdchain": _prepare_fdchain,
    "lftj": _prepare_lftj,
    "csma": _prepare_csma,
}


def peak_rss_kb() -> int:
    """The process RSS high-water mark (kB on Linux), monotone."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def result_digest(out) -> str:
    """An order-independent digest of the (value) result set.

    Per-row sha1s are summed modulo 2¹²⁸, so the digest never materializes
    the multi-hundred-MB joined-repr string the old sorted-concat digest
    built on ≥10⁵-row outputs; row order (which differs legitimately
    across engines and backends) cannot affect the sum.
    """
    total = 0
    for row in out:
        total += int.from_bytes(
            hashlib.sha1(repr(row).encode()).digest()[:16], "big"
        )
    return f"{total % (1 << 128):032x}"


def run_one(name: str, n: int, plane: str) -> dict:
    """One (workload, size, plane) run in *this* process.

    ``plane`` is one of :data:`PLANES`: ``encoded-ndoff`` runs the
    kernel on the row-loop only, ``encoded`` runs the shipped
    configuration (frontier size picks the executor).  Each run times
    the query twice: the cold first query (lazy plan/pipeline/index compilation —
    recorded as ``first_query_s``) and a warm second run, whose wall is
    ``wall_s`` — the steady-state cost.  Returns the measurement plus a
    digest of the (value) result set, so
    isolated runs can be compared across processes.
    """
    min_rows = frontier_blocks.NDARRAY_MIN_ROWS
    if plane == "encoded-ndoff":
        min_rows = None  # the row-loop only
    with frontier_blocks.min_rows_override(min_rows):
        prepare = RUNNERS[name]
        gc.collect()
        start = time.perf_counter()
        execute = prepare(n)
        ingest = time.perf_counter() - start
        gc.collect()
        # Warm-up query: expansion plans, guard lookups, dense tables,
        # per-(atom, depth) indexes and fused pipelines all compile
        # lazily on first use, so the first query pays a once-per-
        # database cost a serving system amortizes (exactly like ingest,
        # which is why it is recorded separately as ``first_query_s``).
        # The recorded wall is the second, warm run: the steady-state
        # query cost.  Cold first queries are compile-dominated at full
        # scale and understate every kernel delta, so warm walls are not
        # comparable to the cold walls of the oldest BENCH files.
        start = time.perf_counter()
        out, touched = execute()
        first_query = time.perf_counter() - start
        del out
        gc.collect()
        start = time.perf_counter()
        out, touched = execute()
        wall = time.perf_counter() - start
    return {
        "ingest_s": round(ingest, 4),
        "first_query_s": round(first_query, 4),
        "wall_s": round(wall, 4),
        "tuples_touched": touched,
        "output_rows": len(out),
        "digest": result_digest(out),
        "peak_rss_kb": peak_rss_kb(),
    }


def _run_isolated(name: str, n: int, plane: str) -> dict:
    """``run_one`` in a fresh interpreter: no allocator or cache state
    bleeds between the configurations, and ``peak_rss_kb`` is
    per-run."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{repo_root / 'src'}:{repo_root / 'benchmarks'}"
    proc = subprocess.run(
        [sys.executable, __file__, "--one", name, str(n), plane],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"E17 child run {name} n={n} {plane} failed "
            f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(
    name: str, n: int, isolate: bool = True, reps: int = 1
) -> dict:
    """One workload at one size, in both configurations, with
    equivalence asserts.

    The ``encoded-ndoff`` run is the row-loop kernel: identical code
    paths with the block backend toggled.  Result digests and
    ``tuples_touched`` must match exactly across every run — the ndarray
    frontier backend is
    certified bit-identical to the row-loop backend *at full scale*, per
    workload, on every sweep.  ``reps`` isolated runs per configuration
    are taken
    and the *minimum* wall recorded — the standard noise filter on shared
    machines (the workload is deterministic; anything above the min is
    interference).
    """
    record: dict = {"n": n}
    results = {}
    for plane in PLANES:
        rows = [
            _run_isolated(name, n, plane)
            if isolate
            else run_one(name, n, plane)
            for _ in range(max(1, reps))
        ]
        for other in rows[1:]:
            assert other["digest"] == rows[0]["digest"]
            assert other["tuples_touched"] == rows[0]["tuples_touched"]
        row = min(rows, key=lambda r: r["wall_s"])
        key = plane.replace("-", "_")
        record[f"ingest_{key}_s"] = min(r["ingest_s"] for r in rows)
        record[f"first_query_{key}_s"] = min(
            r["first_query_s"] for r in rows
        )
        record[f"wall_{key}_s"] = row["wall_s"]
        record[f"peak_rss_kb_{key}"] = max(r["peak_rss_kb"] for r in rows)
        results[plane] = row
    ndoff, enc = results["encoded-ndoff"], results["encoded"]
    assert enc["digest"] == ndoff["digest"], (
        f"{name}: encoded result diverges from encoded-ndoff"
    )
    assert enc["tuples_touched"] == ndoff["tuples_touched"], (
        f"{name}: tuples_touched drifts between backends "
        f"({enc['tuples_touched']} != {ndoff['tuples_touched']})"
    )
    record["tuples_touched"] = enc["tuples_touched"]
    record["output_rows"] = enc["output_rows"]
    # The cross-process/cross-config drift gate for check_regression:
    # the digest is order-independent and identical across both
    # configurations (just asserted), so every sweep of the same tree
    # must record the same value per workload.
    record["digest"] = enc["digest"]
    record["ndarray_speedup"] = round(
        record["wall_encoded_ndoff_s"] / max(record["wall_encoded_s"], 1e-9),
        2,
    )
    return record


def run_sweep(level: str = "full") -> dict:
    """The E17 sweep: smoke sizes always, full sizes when ``level=full``.

    Returns the ``e17`` payload for ``BENCH_<tag>.json``.
    """
    start = time.perf_counter()
    workloads: dict[str, dict] = {}
    for name, sizes in SIZES.items():
        run_sizes = [sizes["smoke"]]
        if level == "full":
            run_sizes.append(sizes["full"])
        for n in run_sizes:
            key = f"{name}_n{n}"
            # Full sizes get min-of-N per configuration; smoke stays
            # single-shot to keep CI fast.
            workloads[key] = run_workload(
                name,
                n,
                reps=sizes.get("reps", 2) if n == sizes.get("full") else 1,
            )
            print(
                f"  {key:<18} touched={workloads[key]['tuples_touched']:>9}"
                f"  ndoff={workloads[key]['wall_encoded_ndoff_s']:>8.2f}s"
                f"  encoded={workloads[key]['wall_encoded_s']:>8.2f}s"
                f"  ndarray_speedup="
                f"{workloads[key]['ndarray_speedup']:>6.2f}x",
                flush=True,
            )
    payload = {
        "level": level,
        "workloads": workloads,
        "wall_clock_s": round(time.perf_counter() - start, 4),
        "peak_rss_kb": peak_rss_kb(),
    }
    if level == "full":
        total_enc = sum(w["wall_encoded_s"] for w in workloads.values())
        total_ndoff = sum(
            w["wall_encoded_ndoff_s"] for w in workloads.values()
        )
        payload["overall_ndarray_speedup"] = round(total_ndoff / total_enc, 2)
    return payload


# ----------------------------------------------------------------------
# pytest entry point (CI --quick smoke)
# ----------------------------------------------------------------------

def test_e17_smoke(benchmark):
    """Smoke sizes: backend equivalence on every workload (wall-clock is
    recorded but not gated at smoke scale — CI runners are noisy)."""
    payload = benchmark.pedantic(
        lambda: run_sweep(level="smoke"), rounds=1, iterations=1
    )
    assert set(payload["workloads"]) == {
        f"{name}_n{sizes['smoke']}" for name, sizes in SIZES.items()
    }
    # run_workload already asserted result/count equivalence per workload.
    for record in payload["workloads"].values():
        assert record["tuples_touched"] > 0


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[1] == "--one":
        # Child mode for _run_isolated: one (workload, size, plane) run,
        # JSON on the last stdout line.
        name, n, plane = argv[2], int(argv[3]), argv[4]
        if plane not in PLANES:
            raise SystemExit(f"unknown plane {plane!r} (expected {PLANES})")
        print(json.dumps(run_one(name, n, plane)))
        return 0
    print("E17 large-frontier sweep (full):")
    payload = run_sweep(level="full")
    print(f"overall ndarray speedup {payload['overall_ndarray_speedup']}x "
          f"(wall {payload['wall_clock_s']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
