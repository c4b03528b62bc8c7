"""Tests for the storage substrate: document store (MongoDB stand-in),
dataset store, and the §3.3 CAP cache."""
import dataclasses

import pandas as pd
import pytest

from repro.core.types import CAP, MiscelaParams
from repro.store import CapCache, DatasetStore, DocumentStore
from repro.store.datasets import content_fingerprint


class TestDocumentStore:
    def test_insert_and_get(self, tmp_path):
        db = DocumentStore(tmp_path)
        i = db.insert("col", {"a": 1})
        assert db.get("col", i) == {"a": 1}

    def test_get_missing_returns_none(self, tmp_path):
        assert DocumentStore(tmp_path).get("col", "nope") is None

    def test_explicit_id_overwrites(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"v": 1}, doc_id="k")
        db.insert("col", {"v": 2}, doc_id="k")
        assert db.get("col", "k") == {"v": 2}
        assert db.count("col") == 1

    def test_find_by_equality(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"name": "a", "x": 1})
        db.insert("col", {"name": "b", "x": 1})
        db.insert("col", {"name": "a", "x": 2})
        assert len(list(db.find("col", name="a"))) == 2
        assert len(list(db.find("col", name="a", x=2))) == 1
        assert list(db.find("col", name="zzz")) == []

    def test_delete(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"v": 1}, doc_id="k")
        assert db.delete("col", "k") is True
        assert db.delete("col", "k") is False
        assert db.get("col", "k") is None

    def test_collections_are_isolated(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("c1", {"v": 1}, doc_id="k")
        assert db.get("c2", "k") is None

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "a.b"])
    def test_bad_collection_names_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError):
            DocumentStore(tmp_path).insert(bad, {})

    def test_nested_documents_roundtrip(self, tmp_path):
        db = DocumentStore(tmp_path)
        doc = {"caps": [{"sensors": ["a", "b"], "support": 3}], "params": {"psi": 5}}
        db.insert("col", doc, doc_id="k")
        assert db.get("col", "k") == doc


class TestDatasetStore:
    def test_save_load_roundtrip(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        readings = spark.createDataFrame(
            pd.DataFrame({"sensor_id": ["a", "a"], "t": [0, 1], "value": [1.0, None]}),
            "sensor_id string, t long, value double",
        )
        locations = spark.createDataFrame(
            pd.DataFrame({"sensor_id": ["a"], "attribute": ["temp"], "lat": [1.0], "lon": [2.0]}),
            "sensor_id string, attribute string, lat double, lon double",
        )
        store.save("d1", readings, locations, ["temp"], meta={"k": "v"})
        r, l, doc = store.load(spark, "d1")
        assert r.count() == 2 and l.count() == 1
        assert doc["attributes"] == ["temp"] and doc["meta"] == {"k": "v"}

    def test_exists_and_names(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        assert not store.exists("x")
        readings = spark.range(1).selectExpr("'a' sensor_id", "id t", "1.0 value")
        locations = spark.range(1).selectExpr("'a' sensor_id", "'t' attribute", "0.0 lat", "0.0 lon")
        store.save("x", readings, locations, ["t"])
        store.save("y", readings, locations, ["t"])
        assert store.exists("x") and store.names() == ["x", "y"]

    def test_load_missing_raises(self, spark, tmp_path):
        with pytest.raises(KeyError, match="not uploaded"):
            DatasetStore(tmp_path).load(spark, "ghost")

    def test_read_one_relation_with_its_saved_schema(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        readings = spark.range(3).selectExpr("'a' sensor_id", "id t", "1.0 value")
        locations = spark.range(1).selectExpr("'a' sensor_id", "'t' attribute", "0.0 lat", "0.0 lon")
        store.save("x", readings, locations, ["t"])
        got = store.read(spark, "x", "readings")
        assert [(f.name, f.dataType) for f in got.schema] == [
            (f.name, f.dataType) for f in readings.schema
        ]
        assert got.count() == 3
        with pytest.raises(KeyError):
            store.read(spark, "ghost", "readings")

    def test_doc_without_saved_schemas_still_loads(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        readings = spark.range(2).selectExpr("'a' sensor_id", "id t", "1.0 value")
        locations = spark.range(1).selectExpr("'a' sensor_id", "'t' attribute", "0.0 lat", "0.0 lon")
        store.save("x", readings, locations, ["t"])
        doc = store.doc("x")
        del doc["schemas"]
        store.docs.insert("datasets", doc, doc_id="x")
        r, l, _ = store.load(spark, "x")
        assert r.count() == 2 and l.columns == ["sensor_id", "attribute", "lat", "lon"]


class TestContentFingerprint:
    READINGS = pd.DataFrame({"sensor_id": ["a", "a"], "t": [0, 1], "value": [1.0, float("nan")]})
    LOCATIONS = pd.DataFrame({"sensor_id": ["a"], "attribute": ["x"], "lat": [1.0], "lon": [2.0]})

    def test_equal_contents_equal_fingerprints(self):
        assert content_fingerprint(self.READINGS, self.LOCATIONS, ["x"]) == content_fingerprint(
            self.READINGS.copy(), self.LOCATIONS.copy(), ["x"]
        )

    @pytest.mark.parametrize("change", ["value", "location", "attributes"])
    def test_any_change_changes_the_fingerprint(self, change):
        readings, locations, attributes = self.READINGS.copy(), self.LOCATIONS.copy(), ["x"]
        if change == "value":
            readings.loc[1, "value"] = 2.0
        elif change == "location":
            locations.loc[0, "lat"] = 1.5
        else:
            attributes = ["x", "y"]
        assert content_fingerprint(readings, locations, attributes) != content_fingerprint(
            self.READINGS, self.LOCATIONS, ["x"]
        )


CAPS = [CAP(("a", "b"), ("x", "y"), 5, "a"), CAP(("b", "c"), ("y", "z"), 3, "a")]


class TestCapCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        assert cache.get("d", p) is None
        cache.put("d", p, CAPS)
        assert cache.get("d", p) == sorted(CAPS, key=lambda c: c.sensors)
        assert cache.hits == 1 and cache.misses == 1

    def test_different_params_are_different_entries(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p1 = MiscelaParams(psi=5)
        p2 = MiscelaParams(psi=6)
        cache.put("d", p1, CAPS)
        assert cache.get("d", p2) is None
        assert cache.get("d", p1) is not None

    def test_different_dataset_different_entry(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d1", p, CAPS)
        assert cache.get("d2", p) is None

    def test_empty_result_is_cached_too(self, tmp_path):
        # "no CAPs" is a valid, cacheable answer — must not re-mine
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d", p, [])
        assert cache.get("d", p) == []

    def test_changed_dataset_misses_until_mined_again(self, tmp_path):
        docs = DocumentStore(tmp_path)
        cache = CapCache(docs)
        p = MiscelaParams()
        docs.insert("datasets", {"name": "d", "fingerprint": "v1"}, doc_id="d")
        cache.put("d", p, CAPS)
        assert cache.get("d", p) is not None
        docs.insert("datasets", {"name": "d", "fingerprint": "v2"}, doc_id="d")
        assert cache.get("d", p) is None
        cache.put("d", p, CAPS[:1])
        assert cache.get("d", p) == CAPS[:1]
        assert docs.count("cap_results") == 1  # the stale entry was replaced

    def test_invalidate(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d", p, CAPS)
        assert cache.invalidate("d", p) is True
        assert cache.get("d", p) is None

    def test_stored_document_shape_matches_paper(self, tmp_path):
        # §3.3: "the name of the dataset, parameters, and CAPs"
        docs = DocumentStore(tmp_path)
        cache = CapCache(docs)
        p = MiscelaParams()
        cache.put("d", p, CAPS)
        doc = docs.get("cap_results", p.cache_key("d"))
        assert doc["dataset"] == "d"
        assert doc["params"]["psi"] == p.psi
        assert {tuple(c["sensors"]) for c in doc["caps"]} == {("a", "b"), ("b", "c")}
