"""End-to-end benchmark: a query's whole life, and a service under load.

Run from the repository root (the program is imported from ``src/``)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--out FILE]

Each workload runs in a fresh child interpreter, with
``NUMPY_MADVISE_HUGEPAGE=0`` (numpy's hugepage advice made warm fdchain
queries bimodal, 1.15 s or 1.62 s at random) and ``PYTHONHASHSEED=0``.
The benchmark measures the program's defaults, so it refuses to run
when any ``REPRO_*`` knob is set.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of ``BENCHMARK.json`` without
``--trace``, its ``per_layer`` metrics with it.  A traced run is two
children on the same seed — untraced, then traced — so the tracing
overhead is measured, and the spans go to ``out/trace_<workload>.json``
next to this file.  ``--out FILE`` appends the full record (host, seed,
metrics) as one JSON line; ``compare.py`` reads those files.

The exit status is 0 when every answer and validity check passed, 1
when one failed (the JSON line says which), and 2 when the program or
the environment is not fit to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
#: A child that runs longer than this is killed; the run fails.
CHILD_TIMEOUT_S = 170


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 checks against the stored pins")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from spans")
    parser.add_argument("--out", help="append full records (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the schema smoke test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    return args


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


# ----------------------------------------------------------------------
# Child: one workload run in this process
# ----------------------------------------------------------------------

def child(args) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    try:
        record = workloads.run(args.workload, args.seed, args.seconds,
                               tracer, args.smoke)
    finally:
        if args.trace:
            tracer.uninstall()
    result = {
        "correct": not record["checks"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "checks": record["checks"],
        "e2e": record["e2e"],
        "tail": {"p99_ms": record["layer"]["traffic.p99_ms"],
                 "operations": record["layer"]["traffic.samples"]},
        "samples": record["samples"],
        "layer": None,
    }
    if args.trace:
        layer = tracing.layer_metrics(
            tracer.spans, record["phase_counts"], record["submitted"]
        )
        layer.update(record["layer"])
        totals = tracing.span_totals(tracer.spans)
        compactions = layer.get("service.compactions", 0)
        layer["database.rebuild_codec_s"] = (
            totals.get("database.rebuild_codec", (0, 0.0))[1] / compactions
            if compactions else 0.0
        )
        silent = [name for name in record["layers"] if name not in totals]
        if silent:
            result["checks"].append(
                f"traced run recorded no call of: {', '.join(silent)}"
            )
            result["correct"] = False
        result["layer"] = layer
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace_{args.workload}.json",
                    {"workload": args.workload, "seed": args.seed})
    return result


# ----------------------------------------------------------------------
# Parent: fresh children, merged results
# ----------------------------------------------------------------------

def spawn(args, workload: str, trace: int) -> dict:
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0", PYTHONHASHSEED="0")
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict, workload: str) -> dict:
    untraced = spawn(args, workload, 0)
    runs = [untraced]
    if args.trace:
        traced = spawn(args, workload, 1)
        runs.append(traced)
        metrics = traced["layer"]
        base = untraced["e2e"]["end_to_end_s"]
        metrics["trace.overhead_pct"] = (
            100.0 * (traced["e2e"]["end_to_end_s"] - base) / base
        )
        listed = spec["per_layer"]
    else:
        metrics = untraced["e2e"]
        listed = spec["end_to_end"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host(),
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "checks": [check for run in runs for check in run["checks"]],
        "metrics": {m["name"]: metrics.get(m["name"], 0.0) for m in listed},
        "units": {m["name"]: m["unit"] for m in listed},
        "untraced": untraced["e2e"] if args.trace else None,
        "tail": untraced["tail"],
        "samples": untraced["samples"],
    }


def report(record: dict) -> None:
    h = record["host"]
    print(f"{record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  ({h['cpus']} CPUs, {h['machine']}, "
          f"Python {h['python']}, numpy {h['numpy']})")
    for name, value in record["metrics"].items():
        print(f"  {name:<32} {value:>14.6g} {record['units'][name]}")
    tail = record["tail"]
    print(f"  (p99 {tail['p99_ms']:.6g} ms over {tail['operations']} "
          f"operations, untraced)")
    for check in record["checks"]:
        print(f"  FAILED CHECK: {check}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": record["units"][name]}
            for name, value in record["metrics"].items()
        },
    }), flush=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import config

    knobs = sorted(name for name in config.KNOBS if config.is_set(name))
    if knobs:
        print(f"refusing to measure with knobs set: {', '.join(knobs)}",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    ok = True
    for workload in args.workloads:
        record = run_workload(args, spec, workload)
        report(record)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        ok = ok and record["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
