"""Schema smoke test of the end-to-end benchmark.

Runs every workload of ``BENCHMARK.json`` at smoke size through
``run.py --trace`` (so each workload runs untraced, then traced) and
checks what the benchmark promises: the last-line JSON schema, every
per-layer metric with its unit, the untraced end-to-end metrics in the
``--out`` record, and passing answer checks.  Timings are not asserted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_reports_every_metric(tmp_path):
    # The benchmark measures defaults and refuses REPRO_* knobs, which
    # the test suite sets for itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--smoke", "--seconds", "0.2", "--trace", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert [r["workload"] for r in records] == workloads
    assert len(lines) == len(workloads)
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for line, record in zip(lines, records):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == (
            layer_units
        )
        for metric in SPEC["end_to_end"]:
            assert record["untraced"][metric["name"]] > 0, metric["name"]
        for key in ("cpus", "python", "numpy"):
            assert record["host"][key]
