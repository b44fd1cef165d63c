"""Unit tests for the predictor store (repro.predictors.store)."""

import json

import pytest

from repro.predictors import (
    OperationDemandPredictor,
    PredictorStore,
    PredictorStoreError,
    STORE_SCHEMA,
    merge_logs,
    rebuild_predictor,
)
from repro.predictors.store import _encode_name, document_digest
from repro.telemetry import Telemetry


def make_predictor(n=6, plan="local"):
    predictor = OperationDemandPredictor(feature_names=["x"])
    for i in range(n):
        predictor.observe_operation(
            timestamp=float(i),
            discrete={"plan": plan, "vocab": ("full", i % 2)},
            continuous={"x": 1.0 + i},
            usage={"cpu:local": 100.0 + 10.0 * i, "net:bytes": 50.0 * i},
            file_accesses={"/v/lm": 1000},
            data_object="doc" if i % 2 else None,
        )
    return predictor


class TestRoundTrip:
    def test_save_load_preserves_log_and_config(self, tmp_path):
        store = PredictorStore(tmp_path)
        predictor = make_predictor()
        digest = store.save("op", predictor)
        stored = store.load("op")
        assert stored is not None
        assert stored.operation == "op"
        assert stored.digest == digest
        assert stored.feature_names == ("x",)
        assert stored.decay == predictor.decay
        assert stored.window == predictor.window
        assert stored.log.samples() == predictor.log.samples()
        assert store.load_document("op")["schema"] == STORE_SCHEMA

    def test_save_is_digest_stable(self, tmp_path):
        store = PredictorStore(tmp_path)
        predictor = make_predictor()
        assert store.save("op", predictor) == store.save("op", predictor)

    def test_rebuilt_predictor_predicts_identically(self, tmp_path):
        store = PredictorStore(tmp_path)
        predictor = make_predictor()
        store.save("op", predictor)
        rebuilt = rebuild_predictor(store.load("op"))
        context = {"plan": "local", "vocab": ("full", 1)}
        for resource in ("cpu:local", "net:bytes"):
            assert rebuilt.demand(resource, context, {"x": 3.0}) == \
                predictor.demand(resource, context, {"x": 3.0})

    def test_missing_document_is_plain_cold_start(self, tmp_path):
        telemetry = Telemetry()
        store = PredictorStore(tmp_path, telemetry=telemetry)
        assert store.load("never-saved") is None
        assert telemetry.metrics.counter(
            "spectra.predictors.store.errors").value == 0

    def test_operation_names_are_filesystem_safe(self, tmp_path):
        store = PredictorStore(tmp_path)
        name = "op/with:odd charsé"
        store.save(name, make_predictor(n=2))
        assert store.operations() == [name]
        assert store.load(name).operation == name
        # the encoded path stays inside the store directory
        assert store.path_for(name).parent == store.root

    def test_encode_name_injective_on_distinct_names(self):
        names = ["a/b", "a%2fb", "a.b", "a_b", "a b"]
        assert len({_encode_name(n) for n in names}) == len(names)


class TestCorruptionRecovery:
    def setup_store(self, tmp_path):
        telemetry = Telemetry()
        store = PredictorStore(tmp_path, telemetry=telemetry)
        store.save("op", make_predictor())
        return store, telemetry

    def errors(self, telemetry):
        return telemetry.metrics.counter(
            "spectra.predictors.store.errors").value

    def test_corrupt_json_degrades_to_cold_start(self, tmp_path):
        store, telemetry = self.setup_store(tmp_path)
        store.path_for("op").write_text("{not json at all")
        assert store.load("op") is None
        assert self.errors(telemetry) == 1

    def test_truncated_document_degrades_to_cold_start(self, tmp_path):
        store, telemetry = self.setup_store(tmp_path)
        path = store.path_for("op")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load("op") is None
        assert self.errors(telemetry) == 1

    def test_schema_bump_degrades_to_cold_start(self, tmp_path):
        store, telemetry = self.setup_store(tmp_path)
        path = store.path_for("op")
        document = json.loads(path.read_text())
        document["schema"] = "spectra-predictor-store/99"
        path.write_text(json.dumps(document))
        assert store.load("op") is None
        assert self.errors(telemetry) == 1

    def test_tampered_body_fails_integrity_check(self, tmp_path):
        store, telemetry = self.setup_store(tmp_path)
        path = store.path_for("op")
        document = json.loads(path.read_text())
        document["log"]["samples"][0]["usage"][0][1] += 1.0
        path.write_text(json.dumps(document))
        assert store.load("op") is None
        assert self.errors(telemetry) == 1

    def test_load_document_is_loud(self, tmp_path):
        store, _telemetry = self.setup_store(tmp_path)
        store.path_for("op").write_text("[]")
        with pytest.raises(PredictorStoreError):
            store.load_document("op")
        with pytest.raises(PredictorStoreError):
            store.load_document("missing")

    def test_successful_load_counts_loads_not_errors(self, tmp_path):
        store, telemetry = self.setup_store(tmp_path)
        assert store.load("op") is not None
        assert telemetry.metrics.counter(
            "spectra.predictors.store.loads").value == 1
        assert self.errors(telemetry) == 0

    def test_operations_skips_corrupt_documents(self, tmp_path):
        store, _telemetry = self.setup_store(tmp_path)
        (store.root / "junk.json").write_text("%%%")
        assert store.operations() == ["op"]


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        store = PredictorStore(tmp_path)
        store.save("op", make_predictor())
        assert not list(store.root.glob("*.tmp"))

    def test_rewrite_replaces_in_place(self, tmp_path):
        store = PredictorStore(tmp_path)
        store.save("op", make_predictor(n=2))
        first = store.load("op").n_samples
        store.save("op", make_predictor(n=5))
        assert first == 2
        assert store.load("op").n_samples == 5
        assert len(list(store.root.glob("*.json"))) == 1


class TestDigests:
    def test_document_digest_is_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert document_digest(a) == document_digest(b)

    def test_state_digest_tracks_content(self, tmp_path):
        store = PredictorStore(tmp_path)
        empty = store.state_digest()
        store.save("op", make_predictor(n=2))
        two = store.state_digest()
        store.save("op", make_predictor(n=3))
        assert empty != two != store.state_digest()

    def test_state_digest_is_path_independent(self, tmp_path):
        a = PredictorStore(tmp_path / "a")
        b = PredictorStore(tmp_path / "somewhere" / "else")
        a.save("op", make_predictor())
        b.save("op", make_predictor())
        assert a.state_digest() == b.state_digest()


class TestMerge:
    def test_merge_into_empty_copies_wholesale(self, tmp_path):
        source = PredictorStore(tmp_path / "src")
        dest = PredictorStore(tmp_path / "dst")
        source.save("op", make_predictor())
        merged = dest.merge(source)
        assert merged == {"op": 6}
        assert dest.state_digest() == source.state_digest()

    def test_merge_is_idempotent(self, tmp_path):
        source = PredictorStore(tmp_path / "src")
        dest = PredictorStore(tmp_path / "dst")
        source.save("op", make_predictor())
        dest.merge(source)
        once = dest.state_digest()
        dest.merge(source)
        assert dest.state_digest() == once

    def test_merge_self_is_identity(self, tmp_path):
        store = PredictorStore(tmp_path)
        store.save("op", make_predictor())
        before = store.state_digest()
        store.merge(store)
        assert store.state_digest() == before

    def test_merge_order_does_not_matter(self, tmp_path):
        a = PredictorStore(tmp_path / "a")
        b = PredictorStore(tmp_path / "b")
        a.save("op", make_predictor(n=3, plan="local"))
        b.save("op", make_predictor(n=5, plan="remote"))
        ab = PredictorStore(tmp_path / "ab")
        ba = PredictorStore(tmp_path / "ba")
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        ab_log = ab.load("op").log.samples()
        ba_log = ba.load("op").log.samples()
        assert ab_log == ba_log
        assert len(ab_log) == 8

    def test_merge_logs_dedupes_exact_duplicates(self):
        log = make_predictor(n=4).log
        union = merge_logs(log, log)
        assert union.samples() == log.samples()

    def test_merge_logs_bounds_keep_newest(self):
        a = make_predictor(n=6).log
        union = merge_logs(a, make_predictor(n=6, plan="remote").log,
                           max_samples=4)
        assert len(union) == 4
        assert max(s.timestamp for s in a) in {
            s.timestamp for s in union
        }


class TestScoping:
    def test_scoped_stores_are_disjoint(self, tmp_path):
        root = PredictorStore(tmp_path)
        root.scoped("alice").save("op", make_predictor(n=2))
        root.scoped("bob").save("op", make_predictor(n=5))
        assert root.scoped("alice").load("op").n_samples == 2
        assert root.scoped("bob").load("op").n_samples == 5
        assert root.operations() == []
