"""Integration tests: the full 4-step pipeline, pruned vs unpruned vs
naive agreement, and the planted-pattern ground truth of the scene."""
import dataclasses

import pandas as pd
import pytest

from repro.core.miscela import caps_to_rows, mine_caps, mine_caps_local
from repro.core.types import CAP, MiscelaParams
from repro.oracle import assert_equivalent
from tests.helpers import scene_spark

PARAMS = MiscelaParams(epsilon=0.1, eta_meters=500.0, mu=3, psi=3,
                       segment_tolerance=0.0, max_sensors=5)


@pytest.fixture(scope="module")
def scene_mined(spark):
    readings, locations = scene_spark(spark)
    return mine_caps(spark, readings, locations, PARAMS)


def _cap_set(caps):
    return {(c.sensors, c.attributes, c.support) for c in caps}


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


class TestDistributedPipeline:
    def test_finds_exactly_the_planted_caps(self, spark, scene_mined):
        got = _cap_set(scene_mined[0])
        # cluster A: three sensors, three attributes, all jump at the
        # same 4 ticks; every connected ≥2-attribute subset qualifies.
        # cluster B co-evolves only 3 ticks with ψ=3 → included.
        assert got == {
            (("a1", "a2"), ("temperature", "traffic"), 4),
            (("a1", "a3"), ("light", "temperature"), 4),
            (("a2", "a3"), ("light", "traffic"), 4),
            (("a1", "a2", "a3"), ("light", "temperature", "traffic"), 4),
            (("b1", "b2"), ("temperature", "traffic"), 3),
        }

    def test_psi_four_drops_cluster_b(self, spark):
        readings, locations = scene_spark(spark)
        caps, _, _ = mine_caps(spark, readings, locations, dataclasses.replace(PARAMS, psi=4))
        got = {c.sensors for c in caps}
        assert ("b1", "b2") not in got and ("a1", "a2") in got

    def test_caps_schema(self, spark, scene_mined):
        rows = pd.DataFrame(caps_to_rows(scene_mined[0]))
        assert list(rows.columns) == ["component", "sensors", "attributes", "support", "size"]
        assert [str(t) for t in rows.dtypes] == ["object", "object", "object", "int64", "int64"]

    def test_component_labels_consistent(self, spark, scene_mined):
        for c in scene_mined[0]:
            assert c.component in ("a1", "b1")
            assert c.sensors[0].startswith(c.component[0])

    def test_size_column_matches_sensor_count(self, spark, scene_mined):
        for r in caps_to_rows(scene_mined[0]):
            assert r["size"] == len(r["sensors"].split(","))

    def test_artifacts_expose_intermediates(self, spark, scene_mined):
        caps, stats, timings = scene_mined
        assert stats.emitted == len(caps)
        assert timings["n_search_edges"] == 4  # A triangle + B pair
        assert set(timings) >= {"segment_and_extract_s", "spatial_join_s", "collect_s", "search_s"}

    def test_oracle_cap_count_by_size(self, spark, scene_mined):
        caps = spark.createDataFrame(pd.DataFrame(caps_to_rows(scene_mined[0])))
        assert_equivalent(
            caps.groupBy("size").count().withColumnRenamed("count", "n"),
            "SELECT size, count(*) AS n FROM caps GROUP BY size",
            caps=caps,
        )

    def test_releases_its_cached_data(self, spark):
        readings, locations = scene_spark(spark)
        before = _persistent_rdds(spark)
        mine_caps(spark, readings, locations, PARAMS)
        assert _persistent_rdds(spark) == before


class TestLocalAndBaselineAgree:
    def test_local_matches_distributed(self, spark, scene_mined):
        # the former driver-side entry point is now the same function
        assert mine_caps_local is mine_caps

    def test_baseline_matches_miscela(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        base, _, _ = mine_caps(spark, readings, locations, PARAMS, prune_support=False)
        assert _cap_set(base) == _cap_set(scene_mined[0])

    def test_naive_spatial_baseline_matches_too(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        base, _, _ = mine_caps(spark, readings, locations, PARAMS,
                               prune_support=False, naive_spatial=True)
        assert _cap_set(base) == _cap_set(scene_mined[0])

    def test_miscela_never_does_more_support_work(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        _, s_slow, _ = mine_caps(spark, readings, locations, PARAMS,
                                 prune_support=False, naive_spatial=True)
        assert scene_mined[1].nodes_expanded <= s_slow.nodes_expanded


class TestRowConversion:
    def test_rows_are_scalar_only(self):
        rows = caps_to_rows([CAP(("a", "b"), ("x", "y"), 5, "a")])
        assert rows[0] == {
            "component": "a", "sensors": "a,b", "attributes": "x,y",
            "support": 5, "size": 2,
        }


class TestEmptyInputs:
    def test_no_evolving_sensors_yields_no_caps(self, spark):
        # constant series → normalization zeros → nothing evolves
        pdf = pd.DataFrame(
            {"sensor_id": ["k"] * 5 + ["l"] * 5, "t": list(range(5)) * 2, "value": 1.0}
        )
        loc = pd.DataFrame(
            {"sensor_id": ["k", "l"], "attribute": ["x", "y"],
             "lat": [0.0, 0.0], "lon": [0.0, 0.0001]}
        )
        caps, stats, timings = mine_caps(
            spark,
            spark.createDataFrame(pdf, "sensor_id string, t long, value double"),
            spark.createDataFrame(loc, "sensor_id string, attribute string, lat double, lon double"),
            PARAMS,
        )
        assert caps == []
        assert stats.nodes_expanded == 0 and timings["n_search_edges"] == 0
