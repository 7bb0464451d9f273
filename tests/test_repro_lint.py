"""The analyzer's own suite: every rule fires on its fixture, stays
silent on the conforming twin, pragmas suppress, the baseline and CLI
behave, and — the acceptance gate — the real tree is clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import config
from repro.analysis import Analysis, ModuleInfo
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def run_rule(rule: str, path: Path, *, is_engine: bool = True):
    """Run one rule over one fixture file, scanned as engine code (the
    strictest scope — conforming fixtures must pass even there)."""
    module = ModuleInfo(
        str(path), path.read_text(encoding="utf-8"), is_engine=is_engine
    )
    return Analysis([rule]).run_modules([module])


CASES = [
    ("knob-discipline", "knob_discipline"),
    ("context-propagation", "context_propagation"),
    ("optional-dep-guard", "optional_dep"),
    ("codegen-hygiene", "codegen_hygiene"),
    ("error-taxonomy", "error_taxonomy"),
    ("lock-discipline", "lock_discipline"),
]


@pytest.mark.parametrize("rule,stem", CASES)
def test_rule_fires_on_bad_fixture(rule, stem):
    findings = run_rule(rule, FIXTURES / f"{stem}_bad.py")
    assert findings, f"{rule} should fire on {stem}_bad.py"
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize("rule,stem", CASES)
def test_rule_silent_on_ok_fixture(rule, stem):
    assert run_rule(rule, FIXTURES / f"{stem}_ok.py") == []


def test_knob_discipline_message_kinds():
    findings = run_rule("knob-discipline", FIXTURES / "knob_discipline_bad.py")
    messages = "\n".join(f.message for f in findings)
    assert "raw environment read of REPRO_PLAN_CACHE_MAX;" in messages
    assert "raw environment read of REPRO_CHECK_DISTINCT;" in messages
    assert "raw environment read of REPRO_LP_BACKEND" in messages
    assert "undeclared knob REPRO_NO_SUCH_KNOB" in messages
    assert "retired knob REPRO_ADMIT_EXACT_MAX" in messages


def test_error_taxonomy_covers_all_four_shapes():
    findings = run_rule("error-taxonomy", FIXTURES / "error_taxonomy_bad.py")
    messages = "\n".join(f.message for f in findings)
    assert "bare except" in messages
    assert "broad except" in messages
    assert "string-matching" in messages
    assert "raise of LocalError" in messages


def test_lock_discipline_exempts_init():
    findings = run_rule("lock-discipline", FIXTURES / "lock_discipline_bad.py")
    # Exactly the two writes in bump(); the __init__ writes are exempt.
    assert len(findings) == 2
    assert {f.message for f in findings} == {
        "write to locked field 'total' outside a with-lock block",
        "write to locked field 'by_key' outside a with-lock block",
    }


def test_codegen_whitelist_is_path_scoped():
    source = "def gen(src, ns):\n    exec(src, ns)\n"
    inside = ModuleInfo("src/repro/engine/fused.py", source)
    outside = ModuleInfo("src/repro/engine/frontier.py", source)
    analysis = Analysis(["codegen-hygiene"])
    assert analysis.run_modules([inside]) == []
    [finding] = analysis.run_modules([outside])
    assert "outside the codegen whitelist" in finding.message

    bare = ModuleInfo("src/repro/engine/fused.py", "exec('x = 1')\n")
    [finding] = analysis.run_modules([bare])
    assert "explicit namespace" in finding.message


def test_line_pragma_suppresses_only_its_line():
    source = (
        "import os\n"
        "a = os.environ.get('REPRO_CHECK_DISTINCT')  # repro-lint: disable=knob-discipline\n"
        "b = os.environ.get('REPRO_PLAN_CACHE_MAX')\n"
    )
    findings = Analysis(["knob-discipline"]).run_modules(
        [ModuleInfo("x.py", source)]
    )
    assert [f.line for f in findings] == [3]


def test_file_pragma_suppresses_everywhere():
    source = (
        "# repro-lint: disable-file=knob-discipline\n"
        "import os\n"
        "a = os.environ.get('REPRO_CHECK_DISTINCT')\n"
        "b = os.environ.get('REPRO_PLAN_CACHE_MAX')\n"
    )
    findings = Analysis(["knob-discipline"]).run_modules(
        [ModuleInfo("x.py", source)]
    )
    assert findings == []


def test_unknown_rule_is_an_error():
    with pytest.raises(ValueError, match="unknown rules"):
        Analysis(["no-such-rule"])


def test_registry_has_exactly_the_documented_rules():
    from repro.analysis import all_rules

    assert sorted(all_rules()) == [
        "codegen-hygiene",
        "context-propagation",
        "error-taxonomy",
        "knob-discipline",
        "lock-discipline",
        "optional-dep-guard",
    ]


# ---------------------------------------------------------------------------
# CLI, baseline, docs drift
# ---------------------------------------------------------------------------


def test_cli_json_output_and_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    bad = FIXTURES / "codegen_hygiene_bad.py"
    rc = lint_main(["--json", "--strict", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["docs_drift"] == []
    assert {f["rule"] for f in payload["findings"]} == {"codegen-hygiene"}
    assert {"rule", "path", "line", "col", "message", "severity"} <= set(
        payload["findings"][0]
    )

    ok = FIXTURES / "codegen_hygiene_ok.py"
    assert lint_main(["--strict", str(ok)]) == 0
    assert "clean" in capsys.readouterr().out


def test_baseline_accepts_and_strict_ignores(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    bad = FIXTURES / "codegen_hygiene_bad.py"
    baseline = tmp_path / "baseline.json"
    assert (
        lint_main(["--write-baseline", "--baseline", str(baseline), str(bad)])
        == 0
    )
    capsys.readouterr()
    # Baselined findings stop failing the default run …
    assert lint_main(["--baseline", str(baseline), str(bad)]) == 0
    capsys.readouterr()
    # … but --strict ignores the baseline entirely.
    assert lint_main(["--strict", "--baseline", str(baseline), str(bad)]) == 1
    capsys.readouterr()


def test_committed_baseline_is_empty():
    committed = json.loads(
        (REPO_ROOT / "src/repro/analysis/baseline.json").read_text()
    )
    assert committed == {"version": 1, "findings": []}


def test_docs_matrix_in_sync_and_drift_detected():
    markdown = (REPO_ROOT / "PERFORMANCE.md").read_text(encoding="utf-8")
    assert config.check_docs(markdown) == []
    drifted = markdown.replace("`REPRO_PLAN_CACHE_MAX` | int | `512`", "`REPRO_PLAN_CACHE_MAX` | int | `1`")
    assert config.check_docs(drifted)
    assert config.check_docs("no markers at all")


# ---------------------------------------------------------------------------
# The acceptance gate: the real tree is clean under --strict
# ---------------------------------------------------------------------------


def test_real_tree_is_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    rc = lint_main(["--strict", "--check-docs", "src", "tests", "benchmarks"])
    out = capsys.readouterr().out
    assert rc == 0, f"repro-lint found violations:\n{out}"
