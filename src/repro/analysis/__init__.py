"""``repro-lint`` — AST invariant checking for the repo's own contracts.

Nine PRs of engine growth rest on repo-specific *conventions*: every
``REPRO_*`` knob read goes through :mod:`repro.config`, every pool
submit snapshots contextvars, scipy only imports behind guards,
``exec`` lives only in the codegen modules, errors speak the
:mod:`repro.errors` taxonomy, and locked fields are written under their
lock.  This package turns those conventions into machine-checked
contracts — a stdlib-``ast`` static analyzer in the spirit of the
paper's own thesis that certified, machine-checkable reasoning beats
reviewer memory.

Entry points::

    repro-lint src tests benchmarks --strict   # console script
    python -m repro.analysis src               # same thing

The rule framework lives in :mod:`repro.analysis.core` (findings,
pragmas, the registry, the runner), the six codebase rules in
:mod:`repro.analysis.rules`, and the CLI (JSON/human output, the
committed zero-findings baseline, the PERFORMANCE.md ``--check-docs``
drift gate) in :mod:`repro.analysis.cli`.

Suppressing a finding is explicit and greppable::

    something_odd()  # repro-lint: disable=rule-name
    # repro-lint: disable-file=rule-name   (anywhere, whole file)

The analyzer itself depends on nothing beyond the stdlib plus
:mod:`repro.config`/:mod:`repro.errors` (both stdlib-only) — CI runs it
on the no-scipy leg.
"""

from repro.analysis.core import (  # noqa: F401
    Analysis,
    AnalysisContext,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
)
