"""Central registry of every ``REPRO_*`` environment knob.

Nine PRs grew ~18 tuning knobs, each parsed by a private one-liner next
to its consumer.  This module is now the **single source of truth**: a
knob exists iff it is declared here, with its type, default, allowed
values and a one-line meaning.  Everything else flows from the registry:

* :func:`get` is the only sanctioned way to read a knob (the
  ``knob-discipline`` rule of ``repro-lint`` flags raw ``os.environ``
  access to ``REPRO_*`` names anywhere outside this file);
* undeclared or retired knob names are typed errors
  (:class:`ConfigError`), not silent defaults — the staleness class PR 8
  cleaned up by hand (``REPRO_LP_EXACT_MAX_VARS`` & co.) can no longer
  creep back in;
* the PERFORMANCE.md knob matrix is *generated* from the registry
  (:func:`knob_matrix_markdown`) and drift-checked by
  ``repro-lint --check-docs`` (:func:`check_docs`).

Declaring a new knob
--------------------
Add one :class:`Knob` entry to ``_DECLARATIONS`` below (name, kind,
default, meaning, consumer module), read it through
``config.get("REPRO_MY_KNOB")`` at the consumer, and regenerate the
PERFORMANCE.md matrix with ``repro-lint --write-docs``.  Kinds:

* ``choice`` — one of an explicit token tuple (e.g. LP policies).
* ``int`` — ``int(raw)``; empty means the default.
* ``flag`` — boolean: on-synonyms → True, off-synonyms → False, empty →
  the default.
* ``str`` — free-form (validated downstream, e.g. fault specs).

Parsing is *strict*: a token outside the declared domain raises
:class:`ConfigError` (which is both a :class:`~repro.errors.ReproError`
and a ``ValueError``) instead of silently behaving like some default.
Defaults are bit-identical to what the old scattered readers used —
pinned by ``tests/test_config.py``.

This module must stay stdlib-only (``repro-lint`` imports it on the
no-scipy CI leg).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ReproError


class ConfigError(ReproError, ValueError):
    """An undeclared, retired, or unparseable ``REPRO_*`` knob.

    Doubles as a ``ValueError`` so legacy callers (and tests) that guard
    knob parsing with ``except ValueError`` keep working.
    """


#: The house on/off synonym sets shared by every ``flag`` knob.
ON_VALUES = frozenset({"1", "on", "force", "always", "true", "yes"})
OFF_VALUES = frozenset({"0", "off", "never", "false", "no"})

_UNSET = object()


@dataclass(frozen=True)
class Knob:
    """One declared ``REPRO_*`` environment knob."""

    name: str
    kind: str  # "choice" | "int" | "flag" | "str"
    default: object = None
    #: How the docs name the default, when ``str(default)`` would not.
    default_doc: str | None = None
    choices: tuple[str, ...] = ()
    #: Smallest accepted value of an ``int`` knob (``None`` = unbounded).
    minimum: int | None = None
    description: str = ""
    #: The module(s) consuming the knob — documentation only.
    consumers: tuple[str, ...] = ()

    def documented_default(self) -> str:
        if self.default_doc is not None:
            return self.default_doc
        if self.kind == "flag":
            return "on" if self.default else "off"
        return str(self.default)

    def documented_domain(self) -> str:
        if self.kind == "choice":
            return " / ".join(self.choices)
        if self.kind == "flag":
            return "on / off"
        if self.minimum is not None:
            return f"{self.kind} ≥ {self.minimum}"
        return self.kind

    def parse(self, raw: str):
        """Parse one env string; raises :class:`ConfigError` on values
        outside the declared domain.  Empty (after strip) → default."""
        token = raw.strip()
        if token == "":
            return self.default
        if self.kind == "int":
            try:
                value = int(token)
            except ValueError:
                raise ConfigError(
                    f"{self.name} expects an integer, got {raw!r}"
                ) from None
            if self.minimum is not None and value < self.minimum:
                raise ConfigError(
                    f"{self.name} must be >= {self.minimum}, got {raw!r}"
                )
            return value
        token = token.lower()
        if self.kind == "choice":
            if token not in self.choices:
                raise ConfigError(
                    f"{self.name} must be one of {self.choices}, got {raw!r}"
                )
            return token
        if self.kind == "flag":
            if token in ON_VALUES:
                return True
            if token in OFF_VALUES:
                return False
            raise ConfigError(
                f"{self.name} is a flag: use an on-synonym "
                f"{sorted(ON_VALUES)} or an off-synonym "
                f"{sorted(OFF_VALUES)}, got {raw!r}"
            )
        # "str" — free-form, validated by the consumer.
        return raw.strip()


_DECLARATIONS: tuple[Knob, ...] = (
    # -- data plane ----------------------------------------------------
    Knob(
        "REPRO_PLAN_CACHE_MAX",
        "int",
        default=512,
        minimum=0,
        description=(
            "LRU cap shared by the per-database compiled-plan caches "
            "(tuple/relation plans, guard lookups, udf filters) and the "
            "per-query compile memo (bound, planner verdict, closure-trick "
            "expansion)"
        ),
        consumers=("repro.engine.database",),
    ),
    Knob(
        "REPRO_CHECK_DISTINCT",
        "flag",
        default=False,
        description=(
            "Re-validate every distinct=True fast-path construction at "
            "runtime (the test suite turns it on)"
        ),
        consumers=("repro.engine.relation",),
    ),
    # -- LP policy -----------------------------------------------------
    Knob(
        "REPRO_LP_BACKEND",
        "choice",
        default="auto",
        choices=("auto", "exact", "scipy", "both"),
        description=(
            "LP policy: auto/exact solve on the canonical exact backend; "
            "scipy/both additionally cross-check every solve against "
            "scipy (requires the [scipy] extra)"
        ),
        consumers=("repro.lp.solver",),
    ),
    # -- serving / fault injection -------------------------------------
    Knob(
        "REPRO_FAULTS",
        "str",
        default="",
        default_doc="unset",
        description=(
            "fault-injection spec site:prob,... arming every "
            "QueryService in the process (sites: worker, engine, alloc, "
            "timeout)"
        ),
        consumers=("repro.serve.faults",),
    ),
    Knob(
        "REPRO_FAULTS_SEED",
        "int",
        default=0,
        description="deterministic seed for the fault-injection stream",
        consumers=("repro.serve.faults",),
    ),
)

#: name → Knob for every declared knob.
KNOBS: dict[str, Knob] = {k.name: k for k in _DECLARATIONS}

#: Retired knob names → why they are gone.  Referencing one anywhere is
#: a ``repro-lint`` error *and* a :class:`ConfigError` at read time.
RETIRED: dict[str, str] = {
    "REPRO_ENCODE": (
        "every Database runs on the dictionary-encoded plane; the decoded "
        "plane it switched to lost every E17 warm query (1.78-16.7x in "
        "the committed trajectory), and the engines' oracle is the "
        "value-level reference join in repro.engine.reference"
    ),
    "REPRO_LP_EXACT_MAX_VARS": (
        "PR 8 removed the auto size cutoff; every solve is exact"
    ),
    "REPRO_LP_EXACT_MAX_ROWS": (
        "PR 8 removed the auto size cutoff; every solve is exact"
    ),
    "REPRO_ADMIT_EXACT_MAX": (
        "PR 8: every admission bound is certified on every path"
    ),
    "REPRO_FUSE": (
        "the fused pipeline is the only block executor; the per-step "
        "spec loop (off) ran generic_join on fdchain 100k in 155-159 ms "
        "vs 91-93 ms fused (best of 9 warm runs, 2-CPU host)"
    ),
    "REPRO_FUSE_NATIVE": (
        "the numba kernel seam is deleted; numba was never installed, "
        "so the seam never ran"
    ),
    "REPRO_SHARD_BACKEND": (
        "shards run on threads only; the process+SharedMemory backend "
        "ran the same fdchain 100k query in 202-212 ms vs 91-93 ms on "
        "threads"
    ),
    "REPRO_BATCH_COLUMN_MIN": (
        "the generated row-loop is the only row executor; the columnwise "
        "backend never ran on the e2e workloads and was slower or at "
        "parity on every E17 engine (decoded fdchain 200k 3.77 s vs "
        "3.28 s row-loop); its one win, the decoded binary_join_plan "
        "fill on large_fdchain_workload, is accepted as a loss (n=8000: "
        "0.26 s vs 0.32 s row-loop; n=30000: 3.46 s vs 4.84 s; 2-CPU "
        "host), on a path no benchmark workload runs"
    ),
    "REPRO_BATCH_NUMPY_MIN": (
        "numpy unique-key dedup is deleted with the columnwise backend; "
        "np.unique ran zero times on the e2e and E17 workloads"
    ),
    "REPRO_BATCH_NUMPY_MIN_ENCODED": (
        "numpy unique-key dedup is deleted with the columnwise backend; "
        "np.unique ran zero times on the e2e and E17 workloads"
    ),
    "REPRO_SHARD": (
        "the thread shard backend is deleted; it never paid for itself: "
        "E17 overall shard speedup 0.97x (fdchain 1M 0.67x, csma 150k "
        "0.88x; BENCH_PR9), and with shards off the e2e fdchain "
        "latency_ms median read 101.9 vs 99.5 ms with them on (parity; "
        "6 alternating pairs, 2-CPU host) and peak_rss_mb 331.9 vs "
        "348.8 MB, lower in all 6 pairs"
    ),
    "REPRO_SHARD_WORKERS": (
        "the thread shard backend and its pool are deleted; shards ran "
        "at 0.97x overall on E17 (BENCH_PR9) and at parity on the e2e "
        "fdchain workload (2-CPU host)"
    ),
    "REPRO_BATCH_NDARRAY": (
        "frontier size picks the executor (blocks from 4096 rows, "
        "engine.frontier); forcing blocks onto every batch cost "
        "serve_mix latency_ms +12% (0.326-0.337 vs 0.362-0.370 ms; 66 "
        "row-loop calls per 120 requests, 45 rows each) and forcing the "
        "row-loop cost fdchain latency_ms 6.3x (44-45 vs 279-285 ms; one "
        "78,672-row block call); alternating pairs, 2-CPU host"
    ),
    "REPRO_BATCH_NDARRAY_MIN": (
        "the 4096-row block threshold is a constant in engine.frontier: "
        "serve_mix's row-loop batches average 45 rows and fdchain's block "
        "batch holds 78,672, so no workload sits near it and no caller "
        "set another value"
    ),
    "REPRO_PROFILE_STEPS": (
        "per-spec-kind block profiling is deleted with its profiled "
        "codegen; the e2e --trace spans expansion_plan.execute_s and "
        "fused.compile_s time the block executor per call"
    ),
    "REPRO_SHARD_MIN": (
        "the thread shard backend is deleted; at the 65536-row auto "
        "threshold shards were slower than off at fdchain 100k (97/122 "
        "vs 83/94 ms warm) and at parity at 400k (2-CPU host)"
    ),
}


def knob(name: str) -> Knob:
    """The declaration for ``name``; :class:`ConfigError` when the name
    is unknown or retired."""
    entry = KNOBS.get(name)
    if entry is not None:
        return entry
    if name in RETIRED:
        raise ConfigError(f"knob {name} is retired: {RETIRED[name]}")
    raise ConfigError(
        f"unknown knob {name!r} — declare it in repro/config.py"
    )


def get(name: str, environ: Mapping[str, str] | None = None, default=_UNSET):
    """Read knob ``name`` from ``environ`` (``os.environ`` by default).

    Unset or empty values yield the declared default — or ``default``
    when the caller passes one (for call sites whose fallback is not the
    knob's).  Values outside the declared domain raise
    :class:`ConfigError`, and so does any retired knob set non-empty in
    ``environ``: a stale setting must fail loudly rather than silently
    run the surviving path.
    """
    entry = knob(name)
    source = os.environ if environ is None else environ
    for retired, reason in RETIRED.items():
        stale = source.get(retired)
        if stale is not None and stale.strip():
            raise ConfigError(
                f"knob {retired} is retired but set to {stale!r}: {reason}"
            )
    raw = source.get(name)
    if raw is None or raw.strip() == "":
        return entry.default if default is _UNSET else default
    return entry.parse(raw)


def is_set(name: str, environ: Mapping[str, str] | None = None) -> bool:
    """Is the (declared) knob explicitly set to a non-empty value?"""
    entry = knob(name)
    source = os.environ if environ is None else environ
    raw = source.get(entry.name)
    return raw is not None and raw.strip() != ""


# ----------------------------------------------------------------------
# Generated documentation (the PERFORMANCE.md knob matrix)
# ----------------------------------------------------------------------

#: Markers bounding the generated matrix inside PERFORMANCE.md.
DOCS_BEGIN = "<!-- repro-lint:knob-matrix:begin -->"
DOCS_END = "<!-- repro-lint:knob-matrix:end -->"


def knob_matrix_markdown() -> str:
    """The generated knob matrix (between the PERFORMANCE.md markers).

    One row per declared knob plus a retired-knob list; regenerated by
    ``repro-lint --write-docs`` and drift-checked by ``--check-docs``.
    """
    lines = [
        "| knob | kind | default | values | consumer | meaning |",
        "|---|---|---|---|---|---|",
    ]
    for entry in sorted(KNOBS.values(), key=lambda k: k.name):
        consumer = ", ".join(
            c.removeprefix("repro.") for c in entry.consumers
        )
        lines.append(
            f"| `{entry.name}` | {entry.kind} "
            f"| `{entry.documented_default()}` "
            f"| {entry.documented_domain()} | `{consumer}` "
            f"| {entry.description} |"
        )
    lines.append("")
    lines.append("Retired knobs (referencing one is a `repro-lint` error):")
    lines.append("")
    for name in sorted(RETIRED):
        lines.append(f"* `{name}` — {RETIRED[name]}")
    return "\n".join(lines)


def check_docs(markdown: str) -> list[str]:
    """Drift problems between ``markdown`` (PERFORMANCE.md's content)
    and the registry — empty when the generated section is in sync."""
    problems: list[str] = []
    begin = markdown.find(DOCS_BEGIN)
    end = markdown.find(DOCS_END)
    if begin < 0 or end < 0 or end < begin:
        return [
            f"PERFORMANCE.md is missing the generated knob matrix "
            f"markers {DOCS_BEGIN} ... {DOCS_END}"
        ]
    committed = markdown[begin + len(DOCS_BEGIN) : end].strip()
    expected = knob_matrix_markdown().strip()
    if committed != expected:
        problems.append(
            "PERFORMANCE.md knob matrix has drifted from repro/config.py "
            "— regenerate it with `repro-lint --write-docs`"
        )
    return problems


def rewrite_docs(markdown: str) -> str:
    """``markdown`` with the generated section replaced (the
    ``--write-docs`` implementation); raises :class:`ConfigError` when
    the markers are missing."""
    begin = markdown.find(DOCS_BEGIN)
    end = markdown.find(DOCS_END)
    if begin < 0 or end < 0 or end < begin:
        raise ConfigError(
            f"cannot rewrite docs: markers {DOCS_BEGIN} ... {DOCS_END} "
            "not found"
        )
    head = markdown[: begin + len(DOCS_BEGIN)]
    tail = markdown[end:]
    return f"{head}\n{knob_matrix_markdown()}\n{tail}"
