"""Unit tests for the perf layer: timing primitives, schema, CLI plumbing.

Timing *values* are never asserted against thresholds here — wall-clock
numbers on a shared CI box are noise — only structure, bookkeeping, and
schema enforcement.
"""

import json

import pytest

from repro.perf.cli import ratchet_kernel
from repro.perf.schema import (
    SCHEMA,
    BenchSchemaError,
    validate_bench_doc,
    validate_bench_file,
    validate_decision_doc,
    validate_kernel_doc,
    validate_scenarios_doc,
)
from repro.perf.timing import Measurement, measure, stopwatch


class TestMeasure:
    def test_counts_and_ordering(self):
        calls = []
        result = measure("m", lambda: calls.append(1), number=4, repeats=3)
        assert len(calls) == 12
        assert result.number == 4 and result.repeats == 3
        assert result.best_s <= result.mean_s <= result.worst_s

    def test_setup_runs_per_repeat_outside_timing(self):
        setups = []
        measure("m", lambda: None, number=2, repeats=5,
                setup=lambda: setups.append(1))
        assert len(setups) == 5

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            measure("m", lambda: None, number=0)
        with pytest.raises(ValueError):
            measure("m", lambda: None, repeats=0)

    def test_to_dict_keys(self):
        result = measure("m", lambda: None, number=1, repeats=1)
        assert isinstance(result, Measurement)
        assert set(result.to_dict()) == {
            "number", "repeats", "best_s", "mean_s", "worst_s",
        }

    def test_stopwatch_monotone(self):
        elapsed = stopwatch()
        first = elapsed()
        assert first >= 0.0
        assert elapsed() >= first


def measurement_dict():
    return {"number": 3, "repeats": 2, "best_s": 0.001, "mean_s": 0.002,
            "worst_s": 0.003}


def decision_doc():
    return {
        "schema": SCHEMA,
        "suite": "decision",
        "quick": True,
        "python": "3.11.0",
        "platform": "linux",
        "benchmarks": {
            "snapshot": measurement_dict(),
            "predict": measurement_dict(),
            "solve": measurement_dict(),
            "decision": {
                "baseline": measurement_dict(),
                "optimized": measurement_dict(),
                "speedup": 2.0,
                "same_choice": True,
            },
        },
    }


def scenarios_doc():
    return {
        "schema": SCHEMA,
        "suite": "scenarios",
        "quick": True,
        "python": "3.11.0",
        "platform": "linux",
        "benchmarks": {
            "walk-in-office": {
                "profile": "smoke", "repeats": 1, "wall_s": 1.5,
                "ops": 2, "completed": 2, "ops_per_s": 1.33,
                "sim_time_s": 40.0, "sim_s_per_wall_s": 26.7,
            },
        },
    }


def rate_measurement_dict():
    doc = measurement_dict()
    doc["events_per_s"] = 500_000.0
    return doc


def kernel_doc():
    return {
        "schema": SCHEMA,
        "suite": "kernel",
        "quick": True,
        "python": "3.11.0",
        "platform": "linux",
        "benchmarks": {
            "event_throughput": rate_measurement_dict(),
            "timer_churn": rate_measurement_dict(),
            "contended_medium": {
                "baseline": measurement_dict(),
                "optimized": measurement_dict(),
                "speedup": 20.0,
                "jobs": 500,
                "events_per_s": 250_000.0,
                "same_results": True,
            },
        },
    }


class TestSchema:
    def test_valid_docs_pass(self):
        validate_decision_doc(decision_doc())
        validate_scenarios_doc(scenarios_doc())
        validate_kernel_doc(kernel_doc())
        assert validate_bench_doc(decision_doc()) == "decision"
        assert validate_bench_doc(scenarios_doc()) == "scenarios"
        assert validate_bench_doc(kernel_doc()) == "kernel"

    def test_wrong_schema_tag_fails(self):
        doc = decision_doc()
        doc["schema"] = "spectra-bench/999"
        with pytest.raises(BenchSchemaError, match="schema"):
            validate_decision_doc(doc)

    def test_missing_benchmark_fails(self):
        doc = decision_doc()
        del doc["benchmarks"]["solve"]
        with pytest.raises(BenchSchemaError, match="benchmarks.solve"):
            validate_decision_doc(doc)

    def test_non_numeric_timing_fails_path_qualified(self):
        doc = decision_doc()
        doc["benchmarks"]["snapshot"]["best_s"] = "fast"
        with pytest.raises(BenchSchemaError,
                           match=r"benchmarks.snapshot.best_s"):
            validate_decision_doc(doc)

    def test_nan_and_negative_rejected(self):
        doc = decision_doc()
        doc["benchmarks"]["solve"]["mean_s"] = float("nan")
        with pytest.raises(BenchSchemaError, match="finite"):
            validate_decision_doc(doc)
        doc = decision_doc()
        doc["benchmarks"]["solve"]["mean_s"] = -1.0
        with pytest.raises(BenchSchemaError, match=">= 0"):
            validate_decision_doc(doc)

    def test_divergent_choice_is_a_schema_error(self):
        doc = decision_doc()
        doc["benchmarks"]["decision"]["same_choice"] = False
        with pytest.raises(BenchSchemaError, match="different alternatives"):
            validate_decision_doc(doc)

    def test_bool_is_not_a_number(self):
        doc = decision_doc()
        doc["benchmarks"]["decision"]["speedup"] = True
        with pytest.raises(BenchSchemaError, match="speedup"):
            validate_decision_doc(doc)

    def test_scenarios_empty_benchmarks_fails(self):
        doc = scenarios_doc()
        doc["benchmarks"] = {}
        with pytest.raises(BenchSchemaError, match="empty"):
            validate_scenarios_doc(doc)

    def test_kernel_divergent_results_is_a_schema_error(self):
        doc = kernel_doc()
        doc["benchmarks"]["contended_medium"]["same_results"] = False
        with pytest.raises(BenchSchemaError, match="sequences differ"):
            validate_kernel_doc(doc)

    def test_kernel_missing_rate_fails_path_qualified(self):
        doc = kernel_doc()
        del doc["benchmarks"]["timer_churn"]["events_per_s"]
        with pytest.raises(BenchSchemaError,
                           match=r"benchmarks.timer_churn.events_per_s"):
            validate_kernel_doc(doc)

    def test_kernel_missing_benchmark_fails(self):
        doc = kernel_doc()
        del doc["benchmarks"]["contended_medium"]
        with pytest.raises(BenchSchemaError,
                           match="benchmarks.contended_medium"):
            validate_kernel_doc(doc)

    def test_unknown_suite_fails(self):
        doc = decision_doc()
        doc["suite"] = "mystery"
        with pytest.raises(BenchSchemaError, match="unknown"):
            validate_bench_doc(doc)

    def test_every_problem_reported_not_just_first(self):
        doc = decision_doc()
        doc["benchmarks"]["snapshot"]["best_s"] = "fast"
        doc["benchmarks"]["solve"]["mean_s"] = -1.0
        with pytest.raises(BenchSchemaError) as excinfo:
            validate_decision_doc(doc)
        message = str(excinfo.value)
        assert "snapshot" in message and "solve" in message


class TestValidateFile:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_decision.json"
        path.write_text(json.dumps(decision_doc()))
        assert validate_bench_file(str(path)) == "decision"

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="cannot read/parse"):
            validate_bench_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            validate_bench_file(str(tmp_path / "absent.json"))


class TestBenchCli:
    def test_check_flags_bad_file(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "BENCH_decision.json"
        doc = decision_doc()
        del doc["benchmarks"]["predict"]
        bad.write_text(json.dumps(doc))
        assert main(["bench", "--check", str(bad)]) == 1
        assert "SCHEMA ERROR" in capsys.readouterr().err

    def test_check_passes_good_files(self, tmp_path, capsys):
        from repro.cli import main
        good = tmp_path / "BENCH_scenarios.json"
        good.write_text(json.dumps(scenarios_doc()))
        assert main(["bench", "--check", str(good)]) == 0
        assert "ok (scenarios)" in capsys.readouterr().out

    def test_check_accepts_kernel_doc(self, tmp_path, capsys):
        from repro.cli import main
        good = tmp_path / "BENCH_kernel.json"
        good.write_text(json.dumps(kernel_doc()))
        assert main(["bench", "--check", str(good)]) == 0
        assert "ok (kernel)" in capsys.readouterr().out


class TestKernelRatchet:
    """The regression gates `repro bench --suite kernel --ratchet` applies.

    All dimensionless or order-of-magnitude — a slower CI runner must
    never fail the ratchet, a scheduler regression always should.
    """

    def test_healthy_run_passes(self):
        assert ratchet_kernel(kernel_doc(), kernel_doc()) == []

    def test_speedup_below_absolute_floor_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["speedup"] = 1.2
        failures = ratchet_kernel(fresh, kernel_doc())
        assert any("absolute floor" in f for f in failures)

    def test_speedup_slip_vs_committed_fails(self):
        committed = kernel_doc()
        committed["benchmarks"]["contended_medium"]["speedup"] = 40.0
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["speedup"] = 5.0
        failures = ratchet_kernel(fresh, committed)
        assert any("committed" in f for f in failures)

    def test_host_speed_variation_passes(self):
        # Same speedup ratio, 4x slower absolute rates: a slow runner,
        # not a regression.
        fresh = kernel_doc()
        for entry in fresh["benchmarks"].values():
            entry["events_per_s"] /= 4.0
        assert ratchet_kernel(fresh, kernel_doc()) == []

    def test_rate_collapse_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["event_throughput"]["events_per_s"] /= 100.0
        failures = ratchet_kernel(fresh, kernel_doc())
        assert any("collapsed" in f for f in failures)

    def test_divergent_results_fail(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["same_results"] = False
        failures = ratchet_kernel(fresh, kernel_doc())
        assert any("diverged" in f for f in failures)

    def test_cli_ratchet_round_trip(self, tmp_path, capsys, monkeypatch):
        # A real quick kernel run gated against its own output must pass.
        from repro.cli import main
        import repro.perf.cli as cli_mod
        import repro.perf.kernel as kernel_mod
        # Shrink the workloads and neutralize the speedup floors: the
        # CLI round-trip is about plumbing, not timing fidelity (the
        # gates themselves are unit-tested above), and tiny workloads
        # have noisy speedups.
        monkeypatch.setattr(kernel_mod, "DRAIN_EVENTS", 200)
        monkeypatch.setattr(kernel_mod, "CHURN_TIMERS", 200)
        monkeypatch.setattr(kernel_mod, "CONTENDED_JOBS", 40)
        monkeypatch.setattr(cli_mod, "RATCHET_MIN_SPEEDUP", 0.0)
        monkeypatch.setattr(cli_mod, "RATCHET_SPEEDUP_SLIP", 0.0)
        monkeypatch.setattr(cli_mod, "RATCHET_RATE_SLIP", 0.0)
        out = tmp_path / "out"
        assert main(["bench", "--suite", "kernel", "--quick",
                     "--output", str(out), "--quiet"]) == 0
        committed = out / "BENCH_kernel.json"
        assert validate_bench_file(str(committed)) == "kernel"
        out2 = tmp_path / "out2"
        assert main(["bench", "--suite", "kernel", "--quick",
                     "--output", str(out2), "--quiet",
                     "--ratchet", str(committed)]) == 0
