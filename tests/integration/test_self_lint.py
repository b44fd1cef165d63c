"""Self-lint: the repo must satisfy its own sim-safety rule pack.

This is the acceptance gate for the analysis subsystem — the CI
invocations must exit 0 on the tree as committed:

* ``PYTHONPATH=src python -m repro lint src/repro tests`` (per-file
  rules), and
* ``PYTHONPATH=src python -m repro lint src/repro tests --deep
  --baseline check`` (the whole-program SPC1xx pack behind the
  committed-baseline ratchet).

Each distinct sweep of the tree runs once per session (module-scoped
fixtures); the tests assert against the shared result.

Any new wall-clock call, unseeded RNG, unpaired lifecycle, float
equality on a measurement, dead attribute, swallowed exception,
call-graph determinism leak, telemetry-name typo, or stale suppression
fails this test before it reaches CI.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import LintConfig, analyze_paths
from repro.analysis.baseline import DEFAULT_BASELINE_FILE, load_baseline
from repro.analysis.flow.project import module_name_for

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LINT_TARGETS = ["src/repro", "tests"]


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


@pytest.fixture(scope="module")
def deep_violations():
    """One in-process deep sweep of the tree.  A deep sweep runs the
    per-file rules too, so it serves both in-process gates."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return analyze_paths(LINT_TARGETS, LintConfig(), deep=True)


@pytest.fixture(scope="module")
def deep_cli_run():
    """The deep CI gate, run once: the baseline ratchet, reported as
    SARIF.  With the committed baseline empty, its output is exactly
    the SARIF artifact export, so one run serves both CLI gates."""
    return run_cli(*LINT_TARGETS, "--deep", "--baseline", "check",
                   "--format", "sarif")


def test_repo_is_clean_in_process(deep_violations):
    project_codes = {rule.code
                     for rule in LintConfig().active_project_rules()}
    violations = [v for v in deep_violations if v.rule not in project_codes]
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_is_deep_clean_in_process(deep_violations):
    """The whole-program pack has zero un-baselined findings — and the
    committed baseline is empty, so it has zero findings, full stop."""
    violations = deep_violations
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_is_clean_via_cli():
    result = run_cli(*LINT_TARGETS)
    assert result.returncode == 0, (
        f"repro lint found violations:\n{result.stdout}{result.stderr}"
    )
    assert "clean" in result.stdout


def test_deep_baseline_check_via_cli(deep_cli_run):
    """The CI ratchet invocation stays green."""
    result = deep_cli_run
    assert result.returncode == 0, (
        f"deep lint found un-baselined findings:\n"
        f"{result.stdout}{result.stderr}"
    )


def test_committed_baseline_is_empty():
    """The ratchet has ratcheted all the way down: every SPC1xx finding
    the deep pass ever grandfathered has been fixed.  New findings must
    be fixed, not re-baselined — this test makes growth loud."""
    baseline = load_baseline(str(REPO_ROOT / DEFAULT_BASELINE_FILE))
    assert baseline is not None, "committed lint-baseline.json unreadable"
    assert baseline == {}, (
        f"baseline grew to {len(baseline)} grandfathered findings; "
        f"fix them instead"
    )


def test_sarif_export_via_cli(deep_cli_run):
    """The deep run produces a valid, empty SARIF run."""
    result = deep_cli_run
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"] == []


def test_benchmarks_are_clean_too(monkeypatch):
    """Benchmarks aren't in the CI gate but should stay clean."""
    monkeypatch.chdir(REPO_ROOT)
    violations = analyze_paths(["benchmarks"], LintConfig(), deep=True)
    assert violations == [], "\n".join(v.render() for v in violations)


def unindexed_defs(body, where):
    """Defs in a module or class *body* that ``ProjectIndex`` skips.

    The index walks only the defs written directly in a module's or a
    class's body, and keeps the first of two defs with one name.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    seen = set()
    for node in body:
        if not isinstance(node, defs):
            # A def under a module- or class-level if/try/with/for.
            yield from (f"{where}:{sub.lineno} {sub.name} is nested under "
                        f"a {type(node).__name__.lower()}"
                        for sub in ast.walk(node) if isinstance(sub, defs))
            continue
        if node.name in seen:
            yield f"{where}:{node.lineno} {node.name} is defined again"
        seen.add(node.name)
        if isinstance(node, ast.ClassDef):
            yield from unindexed_defs(node.body, f"{where}.{node.name}")


def test_deep_index_sees_every_def(monkeypatch):
    """The deep pass checks only the defs ``ProjectIndex`` indexes.

    Three kinds of def would escape every SPC1xx rule, so ``src/repro``
    must have none: one nested under a module- or class-level compound
    statement, a second def of an already-defined name, and any def in
    a file whose module name another file also maps to.
    """
    monkeypatch.chdir(REPO_ROOT)
    files = sorted(pathlib.Path("src/repro").rglob("*.py"))
    found = [problem for path in files
             for problem in unindexed_defs(
                 ast.parse(path.read_text(encoding="utf-8")).body,
                 path.as_posix())]
    known = {path.as_posix() for path in files}
    modules = collections.Counter(module_name_for(path.as_posix(), known)
                                  for path in files)
    found += [f"{name} is the module name of {count} files"
              for name, count in modules.items() if count > 1]
    assert found == [], "\n".join(found)
