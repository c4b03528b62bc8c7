"""Unit tests for step 3a (the η-neighbor latitude-band sweep and its
DataFrame wrapper) against the O(n²) haversine reference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.spatial import neighbor_edges, neighbor_pairs
from repro.core.geo import haversine_np
from tests.helpers import ref_neighbor_edges, scene_locations_pdf

LOC_SCHEMA = "sensor_id string, attribute string, lat double, lon double"


def _edges_set(df):
    return {(r["src"], r["dst"]) for r in df.collect()}


def _random_locations(seed: int, n: int, span_deg: float = 0.05,
                      center=(43.46, -3.80)) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "sensor_id": [f"s{i:03d}" for i in range(n)],
            "attribute": g.choice(["temp", "traffic", "light"], n),
            "lat": center[0] + g.uniform(-span_deg, span_deg, n),
            "lon": center[1] + g.uniform(-span_deg, span_deg, n),
        }
    )


class TestNeighborEdges:
    def test_scene_clusters(self, spark):
        loc = spark.createDataFrame(scene_locations_pdf(), LOC_SCHEMA)
        got = _edges_set(neighbor_edges(loc, 500.0))
        # cluster A pairwise close, cluster B pair, C isolated
        assert got == {("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")}

    def test_scene_large_eta_connects_ab(self, spark):
        loc = spark.createDataFrame(scene_locations_pdf(), LOC_SCHEMA)
        got = _edges_set(neighbor_edges(loc, 15_000.0))
        assert ("a1", "b1") in got and ("c1", "c1") not in {tuple(sorted(e)) for e in got}

    @pytest.mark.parametrize("seed,eta", [(0, 500.0), (1, 1500.0), (2, 3000.0), (3, 800.0)])
    def test_matches_bruteforce_reference(self, spark, seed, eta):
        pdf = _random_locations(seed, 60)
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), eta))
        assert got == ref_neighbor_edges(pdf, eta)

    def test_southern_hemisphere(self, spark):
        pdf = _random_locations(4, 40, center=(-33.9, 151.2))  # Sydney-ish
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 2000.0))
        assert got == ref_neighbor_edges(pdf, 2000.0)

    def test_spanning_equator(self, spark):
        pdf = _random_locations(5, 40, center=(0.0, 10.0))
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 3000.0))
        assert got == ref_neighbor_edges(pdf, 3000.0)

    def test_colocated_different_attribute_sensors_are_neighbors(self, spark):
        # §4 footnote 2: same location, different attribute ⇒ distinct
        # sensors; distance 0 < η so they must form an edge
        pdf = pd.DataFrame(
            {
                "sensor_id": ["x1", "x2"],
                "attribute": ["temp", "traffic"],
                "lat": [43.46, 43.46],
                "lon": [-3.80, -3.80],
            }
        )
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 100.0))
        assert got == {("x1", "x2")}

    def test_strictly_less_than_eta(self, spark):
        # two sensors ~1111.95 m apart (0.01 deg lat): η at the exact
        # distance must exclude, slightly above must include
        pdf = pd.DataFrame(
            {"sensor_id": ["p", "q"], "attribute": ["a", "b"],
             "lat": [0.0, 0.01], "lon": [0.0, 0.0]}
        )
        d = float(haversine_np(np.array(0.0), np.array(0.0), np.array(0.01), np.array(0.0)))
        loc = spark.createDataFrame(pdf, LOC_SCHEMA)
        assert _edges_set(neighbor_edges(loc, d)) == set()
        assert _edges_set(neighbor_edges(loc, d + 1.0)) == {("p", "q")}

    def test_empty_input(self, spark):
        loc = spark.createDataFrame([], LOC_SCHEMA)
        out = neighbor_edges(loc, 500.0)
        assert out.count() == 0
        assert set(out.columns) == {"src", "dst", "dist_m"}

    def test_single_sensor(self, spark):
        loc = spark.createDataFrame(
            pd.DataFrame({"sensor_id": ["only"], "attribute": ["a"], "lat": [1.0], "lon": [2.0]}),
            LOC_SCHEMA,
        )
        assert neighbor_edges(loc, 10_000.0).count() == 0

    def test_dist_column_correct(self, spark):
        pdf = scene_locations_pdf()
        out = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 500.0).toPandas()
        by_id = pdf.set_index("sensor_id")
        for _, r in out.iterrows():
            want = haversine_np(
                np.array(by_id.loc[r["src"], "lat"]), np.array(by_id.loc[r["src"], "lon"]),
                np.array(by_id.loc[r["dst"], "lat"]), np.array(by_id.loc[r["dst"], "lon"]),
            )
            assert r["dist_m"] == pytest.approx(float(want), rel=1e-9)

    def test_src_always_less_than_dst_and_no_duplicates(self, spark):
        pdf = _random_locations(6, 50)
        out = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 2000.0).toPandas()
        assert (out["src"] < out["dst"]).all()
        assert not out.duplicated(["src", "dst"]).any()

    def test_data_spanning_latitudes_keeps_high_latitude_pairs(self, spark):
        # a grid sized at the equator point's latitude made 60°N cells
        # narrower than η, so this 30.1 km pair fell between cells
        pdf = pd.DataFrame(
            {"sensor_id": ["e", "n1", "n2"], "attribute": ["a", "b", "c"],
             "lat": [0.0, 60.0, 60.0], "lon": [50.0, 0.539, 1.081]}
        )
        got = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 60_000.0).collect()
        assert [(r["src"], r["dst"]) for r in got] == [("n1", "n2")]
        assert got[0]["dist_m"] == pytest.approx(30_100, abs=100)

    def test_pairs_across_the_antimeridian(self, spark):
        pdf = pd.DataFrame(
            {"sensor_id": ["w", "x"], "attribute": ["a", "b"],
             "lat": [10.0, 10.0], "lon": [179.9, -179.9]}
        )
        got = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 60_000.0).collect()
        assert [(r["src"], r["dst"]) for r in got] == [("w", "x")]
        assert got[0]["dist_m"] == pytest.approx(21_900, abs=100)

    def test_random_points_from_equator_to_80_north(self, spark):
        g = np.random.default_rng(7)
        n = 150
        pdf = pd.DataFrame(
            {"sensor_id": [f"s{i:03d}" for i in range(n)],
             "attribute": g.choice(["temp", "traffic"], n),
             "lat": g.uniform(0.0, 80.0, n), "lon": g.uniform(-2.0, 2.0, n)}
        )
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 300_000.0))
        want = ref_neighbor_edges(pdf, 300_000.0)
        assert len(want) > 100 and got == want


def _pair_set(pairs):
    return {(a, b) for a, b, _ in pairs}


class TestNeighborPairs:
    """The driver-side sweep itself, without Spark."""

    def test_empty(self):
        assert neighbor_pairs([], [], [], 500.0) == []

    def test_single_sensor(self):
        assert neighbor_pairs(["only"], [1.0], [2.0], 10_000.0) == []

    def test_strictly_less_than_eta(self):
        d = float(haversine_np(np.array(0.0), np.array(0.0), np.array(0.01), np.array(0.0)))
        assert neighbor_pairs(["p", "q"], [0.0, 0.01], [0.0, 0.0], d) == []
        assert _pair_set(neighbor_pairs(["p", "q"], [0.0, 0.01], [0.0, 0.0], d + 1.0)) == {("p", "q")}

    def test_output_sorted_with_src_before_dst(self):
        # ids in reverse latitude order: the sweep still emits src < dst
        pairs = neighbor_pairs(["c", "b", "a"], [0.002, 0.001, 0.0], [0.0, 0.0, 0.0], 1_000.0)
        assert [(a, b) for a, b, _ in pairs] == [("a", "b"), ("a", "c"), ("b", "c")]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce_at_any_latitude_and_longitude(self, seed):
        g = np.random.default_rng(seed)
        n = 200
        pdf = pd.DataFrame(
            {"sensor_id": [f"s{i:03d}" for i in range(n)],
             "lat": g.uniform(-85.0, 85.0, n), "lon": g.uniform(-180.0, 180.0, n)}
        )
        got = neighbor_pairs(list(pdf["sensor_id"]), pdf["lat"], pdf["lon"], 2_000_000.0)
        assert _pair_set(got) == ref_neighbor_edges(pdf, 2_000_000.0)
        dist = {(a, b): d for a, b, d in got}
        by_id = pdf.set_index("sensor_id")
        for (a, b), d in list(dist.items())[:20]:
            want = haversine_np(by_id.loc[a, "lat"], by_id.loc[a, "lon"],
                                by_id.loc[b, "lat"], by_id.loc[b, "lon"])
            assert d == pytest.approx(float(want), rel=1e-12)
