"""Tests for the API facade: the demo's interactive loop — upload,
mine (cache-aware), click-to-highlight, and the Figure-3 payloads."""
import dataclasses
import uuid

import pytest

from repro.core.types import MiscelaParams
from repro.server import MiscelaApi
from repro.smartcity.schema import write_csv_bundle
from tests.helpers import scene_locations_pdf, scene_readings_pdf, SCENE_SENSORS

PARAMS = MiscelaParams(epsilon=0.1, eta_meters=500.0, mu=3, psi=3,
                       segment_tolerance=0.0, max_sensors=5)
# Spark jobs of one cold mine of the scene: steps 1–2 end in one collect,
# the locations are collected once, the rest runs on the driver
MAX_COLD_MINE_JOBS = 4


def _spark_jobs(spark, call):
    """(result of ``call()``, number of Spark jobs it ran)."""
    sc = spark.sparkContext
    group = uuid.uuid4().hex
    sc.setJobGroup(group, "counted call")
    try:
        result = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return result, len(sc.statusTracker().getJobIdsForGroup(group))


def _write_scene_bundle(directory, readings=None):
    attributes = sorted({a for _, a, _, _, _, _ in SCENE_SENSORS})
    write_csv_bundle(
        directory, scene_readings_pdf() if readings is None else readings,
        scene_locations_pdf(), attributes, "2016-03-01 00:00:00", 60,
    )


@pytest.fixture(scope="module")
def api(spark, tmp_path_factory):
    root = tmp_path_factory.mktemp("apiroot")
    bundle = tmp_path_factory.mktemp("scene_bundle")
    _write_scene_bundle(bundle)
    api = MiscelaApi(spark, root)
    api.upload("scene", bundle, chunk_lines=50)
    return api


class TestUploadEndpoint:
    def test_dataset_registered(self, api):
        assert api.datasets() == ["scene"]

    def test_reupload_overwrites(self, api, spark, tmp_path_factory):
        assert api.store.exists("scene")

    def test_reupload_with_new_values_is_mined_afresh(self, spark, tmp_path):
        api = MiscelaApi(spark, tmp_path / "root")
        _write_scene_bundle(tmp_path / "v1")
        changed = scene_readings_pdf()
        changed.loc[changed["sensor_id"] == "b2", "value"] = 0.5  # b2 stops evolving
        _write_scene_bundle(tmp_path / "v2", changed)

        api.upload("city", tmp_path / "v1", chunk_lines=50)
        assert api.mine("city", PARAMS).n_caps == 5
        api.upload("city", tmp_path / "v2", chunk_lines=50)
        r = api.mine("city", PARAMS)
        assert r.from_cache is False
        assert r.n_caps == 4 and ("b1", "b2") not in {c.sensors for c in r.caps}

    def test_identical_reupload_still_hits(self, spark, tmp_path):
        api = MiscelaApi(spark, tmp_path / "root")
        _write_scene_bundle(tmp_path / "v1")
        api.upload("city", tmp_path / "v1", chunk_lines=50)
        first = api.mine("city", PARAMS)
        api.upload("city", tmp_path / "v1", chunk_lines=7)
        r = api.mine("city", PARAMS)
        assert r.from_cache is True and set(r.caps) == set(first.caps)


class TestMineEndpoint:
    def test_first_call_misses_cache(self, api):
        r = api.mine("scene", PARAMS)
        assert r.from_cache is False
        assert r.n_caps == 5  # the scene's planted CAPs (see test_miscela)

    def test_second_call_hits_cache_same_results(self, api):
        r1 = api.mine("scene", PARAMS)
        r2 = api.mine("scene", PARAMS)
        assert r2.from_cache is True
        assert set(r2.caps) == set(r1.caps)

    def test_changed_params_miss_cache(self, api):
        r = api.mine("scene", dataclasses.replace(PARAMS, psi=4))
        assert r.from_cache is False
        assert r.n_caps == 4  # cluster B (support 3) drops out

    def test_cached_call_is_not_slower_class_of_work(self, api):
        api.mine("scene", PARAMS)
        r = api.mine("scene", PARAMS)
        assert r.from_cache and r.elapsed_s < 1.0

    def test_cold_mine_reports_search_truncation(self, api):
        # the triangle a1–a2–a3 cannot grow past two sensors
        r = api.mine("scene", dataclasses.replace(PARAMS, max_sensors=2))
        assert r.from_cache is False
        assert r.stats.hit_max_sensors > 0
        assert set(r.timings) >= {"collect_s", "search_s"}

    def test_cache_hit_has_no_search_stats(self, api):
        api.mine("scene", PARAMS)
        r = api.mine("scene", PARAMS)
        assert r.from_cache and r.stats is None and r.timings == {}

    def test_cold_mine_spark_jobs(self, api, spark):
        api.cache.invalidate("scene", PARAMS)
        r, jobs = _spark_jobs(spark, lambda: api.mine("scene", PARAMS))
        assert r.from_cache is False and r.n_caps == 5
        assert jobs <= MAX_COLD_MINE_JOBS

    def test_unknown_dataset_raises(self, api):
        with pytest.raises(KeyError):
            api.mine("ghost", PARAMS)


class TestCorrelatedSensors:
    def test_click_a1_highlights_cluster(self, api):
        got = api.correlated_sensors("scene", PARAMS, "a1")
        assert set(got) == {"a2", "a3"}
        assert got["a2"] == ["light", "temperature", "traffic"]

    def test_click_b1(self, api):
        got = api.correlated_sensors("scene", PARAMS, "b1")
        assert set(got) == {"b2"}
        assert got["b2"] == ["temperature", "traffic"]

    def test_click_isolated_sensor_empty(self, api):
        assert api.correlated_sensors("scene", PARAMS, "c1") == {}


class TestMapPayload:
    def test_markers_cover_all_sensors(self, api):
        p = api.map_payload("scene", PARAMS)
        assert [m["sensor_id"] for m in p["markers"]] == ["a1", "a2", "a3", "b1", "b2", "c1"]
        assert p["n_highlighted"] == 0

    def test_click_highlights_clicked_and_correlated(self, api):
        p = api.map_payload("scene", PARAMS, clicked="a1")
        hl = {m["sensor_id"] for m in p["markers"] if m["highlighted"]}
        assert hl == {"a1", "a2", "a3"}
        assert p["n_highlighted"] == 3

    def test_reads_only_the_locations(self, api, spark):
        api.mine("scene", PARAMS)
        p, jobs = _spark_jobs(spark, lambda: api.map_payload("scene", PARAMS, clicked="a1"))
        assert p["n_highlighted"] == 3 and jobs <= 1  # the locations collect

    def test_markers_carry_cap_membership(self, api):
        p = api.map_payload("scene", PARAMS)
        by_id = {m["sensor_id"]: m for m in p["markers"]}
        assert len(by_id["a1"]["caps"]) == 3  # {a1,a2},{a1,a3},{a1,a2,a3}
        assert by_id["c1"]["caps"] == []
        for i in by_id["a1"]["caps"]:
            assert "a1" in p["caps"][i]["sensors"]


class TestTimeseriesPayload:
    def test_full_series(self, api):
        p = api.timeseries_payload("scene", ["a1", "b1"])
        assert set(p["series"]) == {"a1", "b1"}
        assert len(p["series"]["a1"]) == 30
        assert p["interval_minutes"] == 60

    def test_zoom_window_clips(self, api):
        p = api.timeseries_payload("scene", ["a1"], t_min=5, t_max=10)
        ts = [pt["t"] for pt in p["series"]["a1"]]
        assert ts == list(range(5, 11))

    def test_requesting_unknown_sensor_gives_empty_series(self, api):
        p = api.timeseries_payload("scene", ["nope"])
        assert p["series"]["nope"] == []

    def test_unknown_dataset_raises(self, api):
        with pytest.raises(KeyError):
            api.timeseries_payload("ghost", ["a1"])

    def test_reads_only_the_readings_in_one_job(self, api, spark):
        p, jobs = _spark_jobs(spark, lambda: api.timeseries_payload("scene", ["a1"], 5, 10))
        assert [pt["t"] for pt in p["series"]["a1"]] == list(range(5, 11)) and jobs <= 1
