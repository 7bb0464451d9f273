"""Run the full bench suite and emit a BENCH_<tag>.json trajectory file.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_all.py            # → BENCH_PR2.json
    PYTHONPATH=src python benchmarks/run_all.py --tag PR3  # → BENCH_PR3.json
    PYTHONPATH=src python benchmarks/run_all.py --quick    # E16 metrics only

After emitting a trajectory, compare it against the committed baseline
with ``python benchmarks/check_regression.py BENCH_<tag>.json`` (CI runs
this on every push: fail on exponent / tuples_touched drift, warn on
wall-clock regression).

The trajectory file records, per PR, everything needed to compare engine
generations honestly:

* ``benches`` — wall-clock per bench_*.py file (the paper-claim suite,
  each asserting shapes, not absolute timings);
* ``e16`` — the flagship scaling sweep: per-workload ``tuples_touched``
  (the machine-independent work measure, which the positional kernel must
  keep bit-identical across refactors) plus measured growth exponents and
  the sweep wall-clock (which refactors should shrink);
* ``e17`` — the large-frontier suite (``bench_e17_large_frontier``):
  per-workload ``tuples_touched`` and result digests (bit-identical
  as shipped and on the row-loop only, asserted in-run), both
  configurations' wall-clock, the ndarray speedups and peak RSS.
  ``--quick`` runs the smoke sizes only; the full ≥1M-row sweep runs
  otherwise;
* ``host`` — the machine's parallelism (``cpu_count``), so wall-clock
  comparisons between trajectories from different machines can be
  qualified by ``check_regression.py``;
* ``serve`` — the PR6 serving suite (``bench_pr6_serve``): closed-loop
  latency percentiles and QPS, open-loop overload behavior, and the
  chaos run's rejection/degradation/failure rates.  Compared warn-only
  by ``check_regression.py`` (latency and rates are machine-dependent).

See PERFORMANCE.md for how to read tuples_touched vs wall-clock.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))


def run_bench_files() -> dict[str, dict]:
    """Each bench file in its own pytest run, timed."""
    results: dict[str, dict] = {}
    for bench in sorted(BENCH_DIR.glob("bench_*.py")):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(bench), "-q", "--no-header"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={
                **dict(__import__("os").environ),
                "PYTHONPATH": f"{REPO_ROOT / 'src'}:{BENCH_DIR}",
            },
        )
        results[bench.stem] = {
            "wall_clock_s": round(time.perf_counter() - start, 4),
            "passed": proc.returncode == 0,
        }
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"  {bench.stem:<28} {results[bench.stem]['wall_clock_s']:7.3f}s  {status}")
    return results


def run_e16_sweep() -> dict:
    """The E16 scaling sweep, natively, with full work accounting."""
    from repro.core.chain_algorithm import chain_algorithm
    from repro.core.csma import csma
    from repro.core.sma import submodularity_algorithm
    from repro.datagen.from_lattice import worst_case_database
    from repro.datagen.worstcase import fig4_instance, skew_instance_example_5_8
    from repro.engine.binary_join import binary_join_plan
    from repro.engine.generic_join import generic_join
    from repro.lattice.builders import fig9_lattice, lattice_from_query
    from repro.lattice.chains import best_chain_bound

    from helpers import measured_exponent

    workloads: dict[str, dict] = {}
    start = time.perf_counter()

    sizes, ca_w, gj_w, bj_w = [], [], [], []
    for n in (64, 128, 256):
        query, db = skew_instance_example_5_8(n)
        lattice, inputs = lattice_from_query(query)
        logs = {k: db.log_sizes()[k] for k in inputs}
        _, chain, _ = best_chain_bound(lattice, inputs, logs)
        _, st = chain_algorithm(query, db, lattice, inputs, chain)
        _, gj = generic_join(
            query, db, order=("y", "z", "x", "u"), fd_aware=True
        )
        _, bj = binary_join_plan(query, db, order=["R", "S", "T"])
        sizes.append(n)
        ca_w.append(st.tuples_touched)
        gj_w.append(gj.tuples_touched)
        bj_w.append(bj.tuples_touched)
        workloads[f"skew_n{n}"] = {
            "chain": st.tuples_touched,
            "generic": gj.tuples_touched,
            "binary": bj.tuples_touched,
        }

    fig4_sizes, fig4_w = [], []
    for n in (27, 125, 343):
        query, db = fig4_instance(n)
        lattice, inputs = lattice_from_query(query)
        _, st = submodularity_algorithm(query, db, lattice, inputs)
        fig4_sizes.append(len(db["R"]))
        fig4_w.append(st.tuples_touched)
        workloads[f"fig4_n{n}"] = {"sma": st.tuples_touched}

    fig9_sizes, fig9_w = [], []
    for scale in (2, 3, 4, 5):
        lat0, inp0 = fig9_lattice()
        query, db, _ = worst_case_database(lat0, inp0, scale=scale)
        lattice, inputs = lattice_from_query(query)
        result = csma(query, db, lattice, inputs)
        fig9_sizes.append(len(db["M"]))
        fig9_w.append(result.stats.tuples_touched)
        workloads[f"fig9_scale{scale}"] = {
            "csma": result.stats.tuples_touched,
            "branches": result.stats.branches,
            "restarts": result.stats.restarts,
        }

    wall = time.perf_counter() - start
    exponents = {
        "chain @ skew": measured_exponent(sizes, ca_w),
        "generic @ skew": measured_exponent(sizes, gj_w),
        "binary @ skew": measured_exponent(sizes, bj_w),
        "sma @ fig4": measured_exponent(fig4_sizes, fig4_w),
        "csma @ fig9": measured_exponent(fig9_sizes, fig9_w),
    }
    return {
        "wall_clock_s": round(wall, 4),
        "tuples_touched": workloads,
        "exponents": {k: round(v, 4) for k, v in exponents.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tag", default="PR2", help="trajectory tag (file suffix)")
    parser.add_argument(
        "--out", default=None, help="output path (default BENCH_<tag>.json)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the per-file pytest runs; emit the E16 metrics and the "
        "E17 smoke sizes only",
    )
    args = parser.parse_args()

    import os

    payload = {
        "tag": args.tag,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Host parallelism, recorded at the top level so that
        # check_regression.py can qualify wall-clock comparisons between
        # trajectories taken on differently-provisioned machines.
        "host": {"cpu_count": os.cpu_count() or 1},
    }
    if not args.quick:
        print("bench suite:")
        payload["benches"] = run_bench_files()
    print("e16 sweep:")
    payload["e16"] = run_e16_sweep()
    print(
        f"  wall {payload['e16']['wall_clock_s']}s, exponents "
        f"{payload['e16']['exponents']}"
    )
    from bench_e17_large_frontier import peak_rss_kb, run_sweep as run_e17_sweep

    level = "smoke" if args.quick else "full"
    print(f"e17 sweep ({level}):")
    payload["e17"] = run_e17_sweep(level=level)
    from bench_pr6_serve import run_serve_bench

    print(f"serve bench ({level}):")
    payload["serve"] = run_serve_bench(level=level)
    closed = payload["serve"]["closed_loop"]
    chaos = payload["serve"]["chaos"]
    print(
        f"  closed-loop p50 {closed['p50_ms']}ms p99 {closed['p99_ms']}ms "
        f"({closed['qps']} qps); chaos failure rate "
        f"{chaos['failure_rate']}"
    )
    payload["peak_rss_kb"] = peak_rss_kb()

    out = Path(args.out) if args.out else REPO_ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    failed = [
        name
        for name, row in payload.get("benches", {}).items()
        if not row["passed"]
    ]
    if failed:
        print(f"FAILED benches: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
