"""E17 — large-frontier scaling: the dictionary-encoded data plane.

E16 gates the paper's *shapes* (growth exponents, bit-identical
``tuples_touched``) on sub-second instances; E17 gates the *engineering*
claim of the columnar data plane on ≥1M-row frontiers.  Each workload
runs four times on identical data — decoded plane (``encode=False``,
the PR3 kernel), encoded plane with the ndarray frontier backend forced
*off* (the generated row-loop kernel), encoded plane as shipped
(the array-of-int64 frontier engages per ``REPRO_BATCH_NDARRAY``,
``auto`` by default, and runs the fused block executor; sharding per
``REPRO_SHARD``), and encoded plane with the PR7 sharded worker-pool
dispatch forced *on* — and must satisfy:

* **Plane equivalence** — identical result sets and bit-identical
  ``tuples_touched`` across all four runs (encoding is a bijection, the
  block backend charges the row-loop's exact counts, and the sharded
  merge is shard-count-independent by construction; any drift is a
  kernel bug, asserted here *and* in ``tests/test_ndarray_frontier.py``
  / ``tests/test_shard_frontier.py``).
* **Speedup** (full sizes only) — the shipped encoded plane must beat
  the decoded plane wall-clock by each workload's gated floor (2× by
  default; see ``SIZES`` for documented per-workload overrides).
  Attribute values are nested composite keys
  (``repro.datagen.large.composite``): the decoded plane re-hashes eight
  components per probe, the encoded plane probes with small ints, flat
  dense tables, or whole int64 columns.
* **Shard speedup** (full sizes, ≥4-CPU hosts only) — the forced-shard
  plane must beat the single-worker encoded plane by ≥1.5× on at least
  two workloads.  On fewer cores the ratio is still measured and
  recorded (``shard_speedup`` per workload) but not gated: a worker
  pool cannot beat one core on one core, and a floor that encodes the
  machine rather than the code is noise.

Six workloads cover the five engine families: the Chain Algorithm on
guarded query (1) skew, SMA's SM-joins on a dense triangle, FD-aware
generic join on a cyclic-key query *and* on the k-step guarded fd chain
(``fdchain`` — the pure expansion-frontier shape the array-of-int64
backend was built for), LFTJ on a dense triangle (seek-dominated), and
CSMA on the degree-bounded triangle of query (2).

The pytest entry point runs the smoke sizes only (CI's ``--quick`` gate);
``python benchmarks/bench_e17_large_frontier.py`` runs the full ≥1M-row
sweep and is what ``benchmarks/run_all.py`` records into
``BENCH_<tag>.json``: per-workload ``tuples_touched``, per-plane ingest
time (datagen + Relation construction + dictionary interning — the
once-per-database cost), the cold first-query time (lazy plan /
dense-table / pipeline / index compilation, amortized exactly like
ingest — ``first_query_s``), the *warm* query wall-clock (the
steady-state cost a serving system actually pays; the gated speedups
compare these — since PR 9, so walls are not comparable to earlier
BENCH files, which timed cold first queries), and the process peak RSS
after each run (the ``ru_maxrss`` high-water mark, monotone over the
sweep).
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

from repro import config
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
from repro.engine import fused as frontier_fused
from repro.engine import shard as frontier_shard
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.lattice.builders import lattice_from_query
from repro.lattice.chains import best_chain_bound
from repro.lp.cllp import DegreeConstraint

MIN_SPEEDUP = 2.0

#: The shard-speedup floor (``encoded`` vs ``encoded-sharded`` wall) is
#: only gated on machines that can physically exhibit parallel speedup:
#: on a 1-CPU container every extra worker is pure scheduling overhead
#: and a hard floor would gate on hardware, not code.  On ≥4-CPU hosts
#: at least SHARD_GATE_MIN_WORKLOADS workloads must clear the floor.
SHARD_MIN_SPEEDUP = 1.5
SHARD_GATE_MIN_CPUS = 4
SHARD_GATE_MIN_WORKLOADS = 2

#: The four execution configurations every workload runs.  ``encoded``
#: is the shipped kernel (ndarray frontier per REPRO_BATCH_NDARRAY, auto
#: by default — engaged at every E17 size, through the fused block
#: executor; sharding per REPRO_SHARD, which defaults to ``auto`` and
#: stays single-worker on 1-CPU hosts);
#: ``encoded-ndoff`` pins the block backend *and* sharding off (the
#: generated row-loop kernel) so the sweep itself certifies
#: block-vs-row-loop count equality at scale; ``encoded-sharded`` forces
#: the PR7 sharded dispatch on at :func:`shard_worker_count` workers, so
#: every sweep certifies shard-vs-single-worker bit-identity at full
#: scale and records the measured shard speedup.
PLANES = (
    "decoded",
    "encoded-ndoff",
    "encoded",
    "encoded-sharded",
)


def shard_worker_count() -> int:
    """Workers for the ``encoded-sharded`` plane: ``REPRO_SHARD_WORKERS``
    when set, else min(4, cpu_count) but never fewer than 2 — the plane
    must actually fan out even on a 1-CPU box (there it measures the
    overhead honestly; the speedup floor is cpu-gated separately)."""
    workers = config.get("REPRO_SHARD_WORKERS", default=0)
    if workers:
        return max(1, workers)
    return max(2, min(4, os.cpu_count() or 1))

#: Smoke sizes run in CI (seconds); full sizes are the ≥1M-row frontiers
#: recorded in BENCH_<tag>.json.  Both are recorded by the full sweep so
#: the CI smoke cross-checks counts against the committed trajectory.
#: ``min_speedup`` overrides the 2× gate per workload: CSMA's true
#: encoded-vs-decoded ratio sits at ~2.0 ± machine noise since the
#: decoded plane's seek fix re-based the baseline (its hot loops are the
#: CD bucketing and step-less memo joins, which the encoding speeds but
#: the block backend deliberately leaves alone) — a gate that flips on
#: scheduler jitter is worse than a documented 1.5× floor.
SIZES = {
    "chain": {"smoke": 20_000, "full": 250_000, "reps": 3},
    "sma": {"smoke": 20_000, "full": 100_000, "reps": 3},
    "generic": {"smoke": 20_000, "full": 350_000, "reps": 3},
    "fdchain": {"smoke": 50_000, "full": 1_000_000, "reps": 2},
    "lftj": {"smoke": 4_000, "full": 60_000, "reps": 2},
    "csma": {"smoke": 20_000, "full": 150_000, "reps": 3, "min_speedup": 1.5},
}


def _prepare_chain(n: int, encode: bool):
    query, db = large_chain_workload(n, encode=encode)
    lattice, inputs = lattice_from_query(query)
    logs = {k: db.log_sizes()[k] for k in inputs}
    _, chain, _ = best_chain_bound(lattice, inputs, logs)

    def execute():
        out, stats = chain_algorithm(query, db, lattice, inputs, chain)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_generic(n: int, encode: bool):
    query, db = large_generic_workload(n, encode=encode)

    def execute():
        out, stats = generic_join(query, db, fd_aware=True)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_lftj(n: int, encode: bool):
    query, db = large_lftj_workload(n, encode=encode)

    def execute():
        out, stats = leapfrog_triejoin(query, db)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_fdchain(n: int, encode: bool):
    query, db = large_fdchain_workload(n, encode=encode)
    order = fdchain_order()

    def execute():
        out, stats = generic_join(query, db, order=order, fd_aware=True)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_sma(n: int, encode: bool):
    query, db = large_sma_workload(n, encode=encode)
    lattice, inputs = lattice_from_query(query)

    def execute():
        out, stats = submodularity_algorithm(query, db, lattice, inputs)
        return set(out.tuples), stats.tuples_touched

    return execute


def _prepare_csma(n: int, encode: bool):
    query, db = large_csma_workload(n, encode=encode)
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


#: name → prepare(n, encode) -> execute() -> (result set, tuples_touched).
#: ``prepare`` covers datagen + ingest (Relation construction, dictionary
#: interning, plan-independent query analysis) — the once-per-database
#: cost; ``execute`` is the timed query run, as a serving system would
#: amortize it.  Ingest time is recorded separately per plane.
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
    """An order-independent digest of the (decoded-value) result set.

    Per-row sha1s are summed modulo 2¹²⁸, so the digest never materializes
    the multi-hundred-MB joined-repr string the old sorted-concat digest
    built on ≥10⁵-row outputs; row order (which differs legitimately
    across engines and planes) cannot affect the sum.
    """
    total = 0
    for row in out:
        total += int.from_bytes(
            hashlib.sha1(repr(row).encode()).digest()[:16], "big"
        )
    return f"{total % (1 << 128):032x}"


def run_one(name: str, n: int, plane: str) -> dict:
    """One (workload, size, plane) run in *this* process.

    ``plane`` is one of :data:`PLANES`: ``decoded`` disables the codec,
    ``encoded-ndoff`` runs the encoded kernel with the ndarray frontier
    backend (and sharding) pinned off, ``encoded`` runs the shipped
    configuration (``REPRO_BATCH_NDARRAY`` / ``REPRO_SHARD`` env
    respected, both ``auto`` by default),
    ``encoded-sharded`` forces the sharded dispatch on at
    :func:`shard_worker_count` workers.  Each run times the query
    twice: the cold first query (lazy plan/pipeline/index compilation —
    recorded as ``first_query_s``) and a warm second run, whose wall is
    ``wall_s`` — the steady-state cost every speedup and floor
    compares.  Returns
    the measurement plus a digest of the decoded-value result set, so
    isolated runs can be compared across processes.
    """
    encode = plane != "decoded"
    saved_mode = frontier_blocks.NDARRAY_MODE
    saved_shard = (frontier_shard.SHARD_MODE, frontier_shard.SHARD_WORKERS)
    if plane == "encoded-ndoff":
        frontier_blocks.NDARRAY_MODE = "off"
        frontier_shard.SHARD_MODE = "off"
    elif plane == "encoded-sharded":
        frontier_shard.SHARD_MODE = "on"
        frontier_shard.SHARD_WORKERS = shard_worker_count()
    profiled = frontier_fused.PROFILE_STEPS
    try:
        prepare = RUNNERS[name]
        gc.collect()
        start = time.perf_counter()
        execute = prepare(n, encode)
        ingest = time.perf_counter() - start
        gc.collect()
        # Warm-up query: expansion plans, guard lookups, dense tables,
        # per-(atom, depth) indexes and fused pipelines all compile
        # lazily on first use, so the first query pays a once-per-
        # database cost a serving system amortizes (exactly like ingest,
        # which is why it is recorded separately as ``first_query_s``).
        # The gated wall is the second, warm run: the steady-state query
        # cost the planes are actually compared on.  Before PR 9 the
        # recorded walls were cold first queries — compile-dominated at
        # full scale, which systematically understated every kernel
        # delta — so PR 9 walls re-baseline and are not comparable to
        # earlier BENCH files.
        start = time.perf_counter()
        out, touched = execute()
        first_query = time.perf_counter() - start
        del out
        gc.collect()
        if profiled:
            frontier_fused.profile_snapshot()  # reset before the timed run
        start = time.perf_counter()
        out, touched = execute()
        wall = time.perf_counter() - start
    finally:
        # Restore for in-process callers (run_workload(isolate=False)):
        # leaking "off" into the subsequent "encoded" run would silently
        # measure the row-loop kernel twice.
        frontier_blocks.NDARRAY_MODE = saved_mode
        frontier_shard.SHARD_MODE, frontier_shard.SHARD_WORKERS = saved_shard
    record = {
        "ingest_s": round(ingest, 4),
        "first_query_s": round(first_query, 4),
        "wall_s": round(wall, 4),
        "tuples_touched": touched,
        "output_rows": len(out),
        "digest": result_digest(out),
        "peak_rss_kb": peak_rss_kb(),
    }
    if profiled:
        # REPRO_PROFILE_STEPS=1: per-spec-kind calls/rows/wall during the
        # timed run, so a fusion win is attributable per step kind.
        record["step_profile"] = frontier_fused.profile_snapshot()
    return record


def _run_isolated(name: str, n: int, plane: str) -> dict:
    """``run_one`` in a fresh interpreter: no allocator or cache state
    bleeds between the planes, and ``peak_rss_kb`` is per-run."""
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
    """One workload at one size, on all four planes, with equivalence
    asserts.

    The decoded run IS the PR3 kernel, the ``encoded-ndoff`` run IS the
    PR4 kernel, and the ``encoded-sharded`` run IS the PR7 worker-pool
    dispatch: identical code paths with the codec / block backend /
    sharding toggled.  Result digests and ``tuples_touched`` must match
    exactly across every run — in particular the ndarray frontier
    backend is certified bit-identical to the row-loop backend AND the
    sharded dispatch bit-identical to single-worker *at full scale*, per
    workload, on every sweep.  ``reps`` isolated runs per plane are taken
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
    dec, enc = results["decoded"], results["encoded"]
    for plane in PLANES[1:]:
        assert results[plane]["digest"] == dec["digest"], (
            f"{name}: {plane} result diverges from decoded"
        )
        assert results[plane]["tuples_touched"] == dec["tuples_touched"], (
            f"{name}: tuples_touched drifts at {plane} "
            f"({results[plane]['tuples_touched']} != {dec['tuples_touched']})"
        )
    record["tuples_touched"] = enc["tuples_touched"]
    record["output_rows"] = enc["output_rows"]
    # The cross-process/cross-config drift gate for check_regression:
    # the digest is order-independent and identical across all planes
    # (just asserted), so REPRO_SHARD=on and =off sweeps of the same
    # tree must record the same value per workload.
    record["digest"] = enc["digest"]
    record["speedup"] = round(
        record["wall_decoded_s"] / max(record["wall_encoded_s"], 1e-9), 2
    )
    record["ndarray_speedup"] = round(
        record["wall_encoded_ndoff_s"] / max(record["wall_encoded_s"], 1e-9),
        2,
    )
    # encoded vs encoded-sharded: only a speedup when REPRO_SHARD is not
    # forcing the "encoded" plane to shard too (default env: auto →
    # single-worker below the row threshold / on 1-CPU hosts).
    record["shard_speedup"] = round(
        record["wall_encoded_s"]
        / max(record["wall_encoded_sharded_s"], 1e-9),
        2,
    )
    record["shard_workers"] = shard_worker_count()
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
            # Full (gated) sizes get min-of-N per plane; smoke stays
            # single-shot to keep CI fast.
            workloads[key] = run_workload(
                name,
                n,
                reps=sizes.get("reps", 2) if n == sizes.get("full") else 1,
            )
            print(
                f"  {key:<18} touched={workloads[key]['tuples_touched']:>9}"
                f"  decoded={workloads[key]['wall_decoded_s']:>8.2f}s"
                f"  ndoff={workloads[key]['wall_encoded_ndoff_s']:>8.2f}s"
                f"  encoded={workloads[key]['wall_encoded_s']:>8.2f}s"
                f"  sharded={workloads[key]['wall_encoded_sharded_s']:>8.2f}s"
                f"  speedup={workloads[key]['speedup']:>6.2f}x",
                flush=True,
            )
    cpus = os.cpu_count() or 1
    payload = {
        "level": level,
        "min_speedup_required": MIN_SPEEDUP,
        "workloads": workloads,
        "wall_clock_s": round(time.perf_counter() - start, 4),
        "peak_rss_kb": peak_rss_kb(),
        "shard": {
            "workers": shard_worker_count(),
            "cpu_count": cpus,
            "mode_env": config.get("REPRO_SHARD"),
            "min_speedup_required": SHARD_MIN_SPEEDUP,
            "speedup_gated": cpus >= SHARD_GATE_MIN_CPUS,
        },
    }
    if level == "full":
        total_dec = sum(w["wall_decoded_s"] for w in workloads.values())
        total_enc = sum(w["wall_encoded_s"] for w in workloads.values())
        total_ndoff = sum(
            w["wall_encoded_ndoff_s"] for w in workloads.values()
        )
        payload["overall_speedup"] = round(total_dec / total_enc, 2)
        # The PR4-kernel aggregate against the *same* decoded baseline:
        # the apples-to-apples trajectory comparison now that the
        # decoded plane's seek pathology is fixed (PR 4's recorded 8.1×
        # was measured against the pathological baseline and is not
        # comparable across that fix).
        payload["overall_speedup_ndoff"] = round(total_dec / total_ndoff, 2)
        payload["overall_ndarray_speedup"] = round(total_ndoff / total_enc, 2)
        total_sharded = sum(
            w["wall_encoded_sharded_s"] for w in workloads.values()
        )
        payload["overall_shard_speedup"] = round(total_enc / total_sharded, 2)
    return payload


# ----------------------------------------------------------------------
# pytest entry point (CI --quick smoke)
# ----------------------------------------------------------------------

def test_e17_smoke(benchmark):
    """Smoke sizes: plane equivalence on every workload (wall-clock is
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
    print(f"overall speedup {payload['overall_speedup']}x "
          f"(wall {payload['wall_clock_s']}s)")
    failures = []
    for name, sizes in SIZES.items():
        record = payload["workloads"][f"{name}_n{sizes['full']}"]
        floor = sizes.get("min_speedup", MIN_SPEEDUP)
        if record["speedup"] < floor:
            failures.append(
                f"{name}: speedup {record['speedup']}x < {floor}x"
            )
    # Shard-speedup floor: physically meaningless on <4-CPU hosts (a
    # worker pool cannot beat one core on one core), so report there and
    # gate only where hardware permits parallelism.
    shard_meta = payload["shard"]
    full_shard = {
        name: payload["workloads"][f"{name}_n{sizes['full']}"]["shard_speedup"]
        for name, sizes in SIZES.items()
    }
    winners = [
        name for name, s in full_shard.items() if s >= SHARD_MIN_SPEEDUP
    ]
    if shard_meta["speedup_gated"]:
        if len(winners) < SHARD_GATE_MIN_WORKLOADS:
            failures.append(
                f"shard: only {len(winners)} workload(s) reached "
                f"{SHARD_MIN_SPEEDUP}x shard speedup at "
                f"{shard_meta['workers']} workers "
                f"(need {SHARD_GATE_MIN_WORKLOADS}): {full_shard}"
            )
    else:
        print(
            f"NOTE: shard speedup floor ({SHARD_MIN_SPEEDUP}x on "
            f">={SHARD_GATE_MIN_WORKLOADS} workloads) not gated: "
            f"{shard_meta['cpu_count']} CPU(s) < {SHARD_GATE_MIN_CPUS}; "
            f"measured {full_shard} at {shard_meta['workers']} workers"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
