"""The ``spectra-bench/1`` document schema and its validator.

``repro bench`` emits one JSON document per suite —
``BENCH_decision.json`` (microbenchmarks) and ``BENCH_scenarios.json``
(scenario throughput) — committed at the repository root so the numbers
are diffable PR-over-PR.  Timings drift with the host; the *shape* must
not.  CI therefore validates structure only: a missing key, a wrong
type, or an unknown schema tag fails the build, a slow machine never
does.

Validation is hand-rolled (no jsonschema dependency) and reports every
problem path-qualified, e.g.::

    benchmarks.decision.speedup: expected number, got str
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

SCHEMA = "spectra-bench/1"

#: keys every best-of-N measurement dict must carry
MEASUREMENT_KEYS = ("number", "repeats", "best_s", "mean_s", "worst_s")

#: microbenchmark names BENCH_decision must contain
DECISION_BENCHMARKS = ("snapshot", "predict", "solve", "decision")

#: per-scenario keys BENCH_scenarios must carry
SCENARIO_KEYS = ("profile", "repeats", "wall_s", "ops", "completed",
                 "ops_per_s", "sim_time_s", "sim_s_per_wall_s")

#: benchmark names BENCH_kernel must contain
KERNEL_BENCHMARKS = ("event_throughput", "timer_churn", "contended_medium")


class BenchSchemaError(ValueError):
    """A bench document does not conform to ``spectra-bench/1``."""


def _fail(problems: List[str]) -> None:
    if problems:
        raise BenchSchemaError("\n".join(problems))


def _check_number(doc: Dict[str, Any], path: str, key: str,
                  problems: List[str],
                  nonnegative: bool = True) -> None:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}.{key}: expected number, "
                        f"got {type(value).__name__}")
        return
    if value != value or value in (float("inf"), float("-inf")):
        problems.append(f"{path}.{key}: must be finite, got {value!r}")
    elif nonnegative and value < 0:
        problems.append(f"{path}.{key}: must be >= 0, got {value!r}")


def _check_measurement(doc: Any, path: str, problems: List[str]) -> None:
    if not isinstance(doc, dict):
        problems.append(f"{path}: expected measurement object, "
                        f"got {type(doc).__name__}")
        return
    for key in MEASUREMENT_KEYS:
        if key not in doc:
            problems.append(f"{path}.{key}: missing")
        else:
            _check_number(doc, path, key, problems)


def _check_header(doc: Dict[str, Any], suite: str,
                  problems: List[str]) -> None:
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema: expected {SCHEMA!r}, "
                        f"got {doc.get('schema')!r}")
    if doc.get("suite") != suite:
        problems.append(f"suite: expected {suite!r}, got {doc.get('suite')!r}")
    if not isinstance(doc.get("quick"), bool):
        problems.append("quick: expected bool, "
                        f"got {type(doc.get('quick')).__name__}")
    if not isinstance(doc.get("python"), str):
        problems.append("python: expected str, "
                        f"got {type(doc.get('python')).__name__}")


def validate_decision_doc(doc: Any) -> None:
    """Raise :class:`BenchSchemaError` unless *doc* is a valid
    ``BENCH_decision`` document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document: expected object, "
                               f"got {type(doc).__name__}")
    _check_header(doc, "decision", problems)
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict):
        problems.append("benchmarks: expected object, "
                        f"got {type(benchmarks).__name__}")
        _fail(problems)
        return
    for name in DECISION_BENCHMARKS:
        if name not in benchmarks:
            problems.append(f"benchmarks.{name}: missing")
    for name, entry in benchmarks.items():
        path = f"benchmarks.{name}"
        if name == "decision":
            if not isinstance(entry, dict):
                problems.append(f"{path}: expected object, "
                                f"got {type(entry).__name__}")
                continue
            _check_measurement(entry.get("baseline"),
                               f"{path}.baseline", problems)
            _check_measurement(entry.get("optimized"),
                               f"{path}.optimized", problems)
            _check_number(entry, path, "speedup", problems)
            if not isinstance(entry.get("same_choice"), bool):
                problems.append(f"{path}.same_choice: expected bool, "
                                f"got {type(entry.get('same_choice')).__name__}")
            elif not entry["same_choice"]:
                # Not a schema nicety: the cache must be semantically
                # invisible, so a divergent pick is a correctness bug.
                problems.append(f"{path}.same_choice: baseline and "
                                "optimized picked different alternatives")
        else:
            _check_measurement(entry, path, problems)
    _fail(problems)


def validate_scenarios_doc(doc: Any) -> None:
    """Raise :class:`BenchSchemaError` unless *doc* is a valid
    ``BENCH_scenarios`` document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document: expected object, "
                               f"got {type(doc).__name__}")
    _check_header(doc, "scenarios", problems)
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict):
        problems.append("benchmarks: expected object, "
                        f"got {type(benchmarks).__name__}")
        _fail(problems)
        return
    if not benchmarks:
        problems.append("benchmarks: empty — at least one scenario required")
    for name, entry in benchmarks.items():
        path = f"benchmarks.{name}"
        if not isinstance(entry, dict):
            problems.append(f"{path}: expected object, "
                            f"got {type(entry).__name__}")
            continue
        for key in SCENARIO_KEYS:
            if key not in entry:
                problems.append(f"{path}.{key}: missing")
            elif key == "profile":
                if not isinstance(entry[key], str):
                    problems.append(f"{path}.{key}: expected str, "
                                    f"got {type(entry[key]).__name__}")
            else:
                _check_number(entry, path, key, problems)
    _fail(problems)


def validate_kernel_doc(doc: Any) -> None:
    """Raise :class:`BenchSchemaError` unless *doc* is a valid
    ``BENCH_kernel`` document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document: expected object, "
                               f"got {type(doc).__name__}")
    _check_header(doc, "kernel", problems)
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict):
        problems.append("benchmarks: expected object, "
                        f"got {type(benchmarks).__name__}")
        _fail(problems)
        return
    for name in KERNEL_BENCHMARKS:
        if name not in benchmarks:
            problems.append(f"benchmarks.{name}: missing")
    for name, entry in benchmarks.items():
        path = f"benchmarks.{name}"
        if name == "contended_medium":
            if not isinstance(entry, dict):
                problems.append(f"{path}: expected object, "
                                f"got {type(entry).__name__}")
                continue
            _check_measurement(entry.get("baseline"),
                               f"{path}.baseline", problems)
            _check_measurement(entry.get("optimized"),
                               f"{path}.optimized", problems)
            _check_number(entry, path, "speedup", problems)
            _check_number(entry, path, "jobs", problems)
            _check_number(entry, path, "events_per_s", problems)
            if not isinstance(entry.get("same_results"), bool):
                problems.append(
                    f"{path}.same_results: expected bool, "
                    f"got {type(entry.get('same_results')).__name__}")
            elif not entry["same_results"]:
                # Not a schema nicety: the virtual-time scheduler must be
                # behaviorally invisible, so a divergent completion
                # sequence is a correctness bug, not a slow host.
                problems.append(f"{path}.same_results: legacy and "
                                "virtual-time completion sequences differ")
        else:
            _check_measurement(entry, path, problems)
            if isinstance(entry, dict):
                _check_number(entry, path, "events_per_s", problems)
    _fail(problems)


VALIDATORS = {
    "decision": validate_decision_doc,
    "scenarios": validate_scenarios_doc,
    "kernel": validate_kernel_doc,
}


def validate_bench_doc(doc: Any) -> str:
    """Validate any bench document; returns its suite name."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document: expected object, "
                               f"got {type(doc).__name__}")
    suite = doc.get("suite")
    validator = VALIDATORS.get(suite)
    if validator is None:
        raise BenchSchemaError(
            f"suite: unknown {suite!r}; known: "
            f"{', '.join(sorted(VALIDATORS))}"
        )
    validator(doc)
    return suite


def validate_bench_file(path: str) -> str:
    """Validate a bench JSON file on disk; returns its suite name."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchSchemaError(f"{path}: cannot read/parse: {exc}")
    return validate_bench_doc(doc)
