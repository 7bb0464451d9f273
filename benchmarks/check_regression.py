"""Bench-trajectory regression gate (used by CI after the E16 sweep).

Compares a freshly-produced ``BENCH_<tag>.json`` against the committed
trajectory baseline::

    python benchmarks/check_regression.py FRESH.json [BASELINE.json]

Baseline defaults to the newest committed ``BENCH_PR*.json`` in the repo
root.  Policy (mirrors PERFORMANCE.md):

* **fail** when a measured E16 growth exponent drifts from the baseline by
  more than ``EXPONENT_TOLERANCE`` — the exponents are the paper's claims
  and must not move across engine generations;
* **fail** when a workload's ``tuples_touched`` changed for an engine the
  kernel contract covers — the counted work is bit-identical by design,
  so any drift means the kernel changed semantics, not just speed;
* **fail** when an E17 large-frontier workload's ``tuples_touched``
  drifts (compared over the workloads present in both files, so a
  ``--quick`` smoke sweep is gated against the committed full sweep's
  smoke sizes);
* **fail** when an E17 workload's result-set ``digest`` drifts, when
  both files record one (they do since PR7) — the digest is
  order-independent over the result values, so the gate pins the
  *answers*, not just the counts;
* **warn** (never fail) when the E16 sweep wall-clock or an E17
  workload's encoded wall-clock regressed beyond ``WALL_CLOCK_SLACK`` —
  timing noise on shared CI runners is not a correctness signal, but
  the trajectory should be
  visible in the log.  When the two trajectories record differing host
  CPU counts (the top-level ``host`` block, emitted since PR9), every
  timing warning is annotated as cross-host.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPONENT_TOLERANCE = 0.05
WALL_CLOCK_SLACK = 1.5  # fresh may take up to 1.5x the baseline before warning

#: Per-workload counters that are run-shape metadata, not kernel work
#: (branch/restart counts follow the CLLP solve, not the expansion kernel).
_METADATA_KEYS = frozenset({"branches", "restarts"})


def find_default_baseline() -> Path | None:
    """The committed trajectory with the highest PR number."""
    candidates = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            candidates.append((int(match.group(1)), path))
    return max(candidates)[1] if candidates else None


def host_note(baseline: dict, fresh: dict) -> str:
    """Cross-host qualifier for wall-clock comparisons.

    Trajectories record their machine's parallelism in a top-level
    ``host`` block (``cpu_count``) since PR9.  When the two files come
    from differently-provisioned machines, every wall-clock comparison
    is apples to oranges.  Returns a suffix to
    append to timing warnings, or ``""`` when the hosts match (or
    either file predates the ``host`` block).
    """
    base_host = baseline.get("host") or {}
    fresh_host = fresh.get("host") or {}
    base_cpus = base_host.get("cpu_count")
    fresh_cpus = fresh_host.get("cpu_count")
    if not base_cpus or not fresh_cpus or base_cpus == fresh_cpus:
        return ""
    return (
        f" [cross-host: baseline ran on {base_cpus} CPUs, fresh on "
        f"{fresh_cpus} — wall-clock comparisons are not like-for-like]"
    )


def compare(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """Returns (failures, warnings)."""
    failures: list[str] = []
    warnings: list[str] = []
    note = host_note(baseline, fresh)
    base_e16 = baseline.get("e16", {})
    fresh_e16 = fresh.get("e16", {})

    base_exp = base_e16.get("exponents", {})
    fresh_exp = fresh_e16.get("exponents", {})
    for name, value in base_exp.items():
        if name not in fresh_exp:
            failures.append(f"exponent {name!r} missing from fresh sweep")
            continue
        drift = abs(fresh_exp[name] - value)
        if drift > EXPONENT_TOLERANCE:
            failures.append(
                f"exponent drift at {name!r}: baseline {value:.4f} vs "
                f"fresh {fresh_exp[name]:.4f} (|Δ| = {drift:.4f} > "
                f"{EXPONENT_TOLERANCE})"
            )

    base_work = base_e16.get("tuples_touched", {})
    fresh_work = fresh_e16.get("tuples_touched", {})
    for workload, engines in base_work.items():
        fresh_engines = fresh_work.get(workload)
        if fresh_engines is None:
            failures.append(f"workload {workload!r} missing from fresh sweep")
            continue
        for engine, count in engines.items():
            if engine in _METADATA_KEYS:
                continue
            fresh_count = fresh_engines.get(engine)
            if fresh_count != count:
                failures.append(
                    f"tuples_touched drift at {workload}/{engine}: "
                    f"baseline {count} vs fresh {fresh_count}"
                )

    base_wall = base_e16.get("wall_clock_s")
    fresh_wall = fresh_e16.get("wall_clock_s")
    if base_wall and fresh_wall and fresh_wall > base_wall * WALL_CLOCK_SLACK:
        warnings.append(
            f"E16 wall-clock regressed: baseline {base_wall}s vs fresh "
            f"{fresh_wall}s (> {WALL_CLOCK_SLACK}x; timing only — not "
            f"failing the gate){note}"
        )

    _compare_e17(
        baseline.get("e17", {}), fresh.get("e17", {}), failures, warnings,
        note=note,
    )
    _compare_serve(baseline.get("serve"), fresh.get("serve"), warnings)
    return failures, warnings


#: Absolute drift in a serving *rate* (rejection/degradation/failure,
#: all in [0, 1]) before the trajectory warns.
SERVE_RATE_SLACK = 0.25
#: Fresh p99 may be up to this multiple of the baseline p99.
SERVE_P99_SLACK = 2.0


def _compare_serve(
    base_serve: dict | None, fresh_serve: dict | None, warnings: list[str]
) -> None:
    """The serving trajectory: warn-only, never fail.

    Latency and throughput are machine- and load-dependent, and the
    chaos rates move with the injected-fault seed — none of that is a
    correctness signal (the serve test suites gate correctness).  But a
    doubled p99 or a rejection rate jumping by 0.25 should be visible in
    the CI log.  Silently skipped when the baseline predates the
    ``serve`` section.
    """
    if not base_serve or not fresh_serve:
        return
    for section in ("closed_loop", "open_loop", "chaos"):
        base_row = base_serve.get(section)
        fresh_row = fresh_serve.get(section)
        if not base_row or not fresh_row:
            continue
        base_p99 = base_row.get("p99_ms")
        fresh_p99 = fresh_row.get("p99_ms")
        if base_p99 and fresh_p99 and fresh_p99 > base_p99 * SERVE_P99_SLACK:
            warnings.append(
                f"serve {section} p99 regressed: baseline {base_p99}ms vs "
                f"fresh {fresh_p99}ms (> {SERVE_P99_SLACK}x; timing only)"
            )
        for rate in ("rejection_rate", "degradation_rate", "failure_rate"):
            base_val = base_row.get(rate)
            fresh_val = fresh_row.get(rate)
            if base_val is None or fresh_val is None:
                continue
            drift = abs(fresh_val - base_val)
            if drift > SERVE_RATE_SLACK:
                warnings.append(
                    f"serve {section} {rate} drifted: baseline {base_val} "
                    f"vs fresh {fresh_val} (|Δ| = {drift:.3f} > "
                    f"{SERVE_RATE_SLACK}; warn-only)"
                )


def _compare_e17(
    base_e17: dict,
    fresh_e17: dict,
    failures: list[str],
    warnings: list[str],
    note: str = "",
) -> None:
    """The large-frontier gate: counts fail, timings warn.

    Workloads are compared over the intersection of the two files — a
    smoke sweep legitimately lacks the full-size entries — but a baseline
    with an ``e17`` section and a fresh sweep sharing *none* of its
    workloads is a failure (the suite silently vanished).  ``note``
    (from :func:`host_note`) is appended to every
    timing warning when the two trajectories come from hosts with
    differing CPU counts.
    """
    base_workloads = base_e17.get("workloads", {})
    fresh_workloads = fresh_e17.get("workloads", {})
    if not base_workloads:
        return
    common = set(base_workloads) & set(fresh_workloads)
    if not common:
        failures.append("no common E17 workloads between baseline and fresh")
        return
    for name in sorted(common):
        base_row = base_workloads[name]
        fresh_row = fresh_workloads[name]
        if fresh_row.get("tuples_touched") != base_row.get("tuples_touched"):
            failures.append(
                f"E17 tuples_touched drift at {name}: baseline "
                f"{base_row.get('tuples_touched')} vs fresh "
                f"{fresh_row.get('tuples_touched')}"
            )
        # Result-set digests (recorded since PR7; older baselines lack
        # them and are skipped).  The digest is order-independent over
        # the result values, so two sweeps of the same tree must agree
        # exactly; a drift is a wrong *answer*, worse than a wrong count.
        base_digest = base_row.get("digest")
        fresh_digest = fresh_row.get("digest")
        if base_digest and fresh_digest and base_digest != fresh_digest:
            failures.append(
                f"E17 result digest drift at {name}: baseline "
                f"{base_digest} vs fresh {fresh_digest}"
            )
        base_enc = base_row.get("wall_encoded_s")
        fresh_enc = fresh_row.get("wall_encoded_s")
        if base_enc and fresh_enc and fresh_enc > base_enc * WALL_CLOCK_SLACK:
            warnings.append(
                f"E17 encoded wall-clock regressed at {name}: baseline "
                f"{base_enc}s vs fresh {fresh_enc}s{note}"
            )


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    if len(args) < 1 or len(args) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path = Path(args[0])
    if len(args) == 2:
        baseline_path = Path(args[1])
    else:
        baseline_path = find_default_baseline()
        if baseline_path is None:
            print("no committed BENCH_PR*.json baseline found", file=sys.stderr)
            return 2
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    print(f"baseline: {baseline_path.name} (tag {baseline.get('tag')})")
    print(f"fresh:    {fresh_path} (tag {fresh.get('tag')})")

    failures, warnings = compare(baseline, fresh)
    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        print(f"{len(failures)} regression(s) against {baseline_path.name}")
        return 1
    print("bench trajectory ok: exponents and tuples_touched match baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
