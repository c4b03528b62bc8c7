"""Unit tests for pairwise co-evolution supports: the driver-side set
intersections, and their DataFrame wrapper pinned to DuckDB SQL via the
oracle."""
import pandas as pd
import pytest

from repro.core.coevolution import coevolving_edges, pair_support_counts, pair_supports
from repro.core.evolving import extract_evolving
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_edges
from repro.oracle import assert_equivalent
from tests.helpers import scene_spark



@pytest.fixture(scope="module")
def scene(spark):
    readings, locations = scene_spark(spark)
    ev = extract_evolving(smooth_readings(readings, 0.0), 0.1).cache()
    edges_near = neighbor_edges(locations, 500.0).cache()
    edges_far = neighbor_edges(locations, 50_000.0).cache()
    return ev, edges_near, edges_far


class TestPairSupports:
    def test_cluster_a_full_support(self, spark, scene):
        ev, edges, _ = scene
        got = {(r["src"], r["dst"]): r["support"] for r in pair_supports(ev, edges).collect()}
        # all of cluster A jumps at the same 4 ticks; B pair at 3 ticks
        assert got[("a1", "a2")] == 4
        assert got[("a1", "a3")] == 4
        assert got[("a2", "a3")] == 4
        assert got[("b1", "b2")] == 3

    def test_cross_cluster_pairs_have_no_common_ticks(self, spark, scene):
        ev, _, edges_far = scene
        got = {(r["src"], r["dst"]): r["support"] for r in pair_supports(ev, edges_far).collect()}
        # a* jumps {5,10,15,20}, b* jumps {7,14,21} — no overlap, so the
        # pair is absent from the support relation entirely
        assert ("a1", "b1") not in got

    def test_same_direction_excludes_inverted_sensor(self, spark, scene):
        ev, edges, _ = scene
        loose = {(r["src"], r["dst"]): r["support"]
                 for r in pair_supports(ev, edges, same_direction=False).collect()}
        strict = {(r["src"], r["dst"]): r["support"]
                  for r in pair_supports(ev, edges, same_direction=True).collect()}
        # a3 is the inverted series: loose counts its ticks, strict drops them
        assert loose[("a1", "a3")] == 4
        assert ("a1", "a3") not in strict
        assert strict[("a1", "a2")] == 4

    def test_oracle_duckdb_join(self, spark, scene):
        ev, edges, _ = scene
        assert_equivalent(
            pair_supports(ev, edges),
            """
            SELECT e.src AS src, e.dst AS dst, count(*) AS support
            FROM edges e
            JOIN ev a ON a.sensor_id = e.src
            JOIN ev b ON b.sensor_id = e.dst AND b.t = a.t
            GROUP BY e.src, e.dst
            """,
            edges=edges.select("src", "dst"),
            ev=ev,
        )

    def test_oracle_duckdb_same_direction(self, spark, scene):
        ev, edges, _ = scene
        assert_equivalent(
            pair_supports(ev, edges, same_direction=True),
            """
            SELECT e.src AS src, e.dst AS dst, count(*) AS support
            FROM edges e
            JOIN ev a ON a.sensor_id = e.src
            JOIN ev b ON b.sensor_id = e.dst AND b.t = a.t
                     AND b.direction = a.direction
            GROUP BY e.src, e.dst
            """,
            edges=edges.select("src", "dst"),
            ev=ev,
        )


class TestCoevolvingEdges:
    @pytest.mark.parametrize("psi,expected_pairs", [
        (1, {("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")}),
        (4, {("a1", "a2"), ("a1", "a3"), ("a2", "a3")}),
        (5, set()),
    ])
    def test_psi_threshold(self, spark, scene, psi, expected_pairs):
        ev, edges, _ = scene
        got = {(r["src"], r["dst"]) for r in coevolving_edges(ev, edges, psi).collect()}
        assert got == expected_pairs



class TestPairSupportCounts:
    """The set-intersection supports themselves, without Spark."""

    EPOS = {"a": frozenset({1, 2, 3}), "b": frozenset({2, 3}), "c": frozenset({9})}
    ENEG = {"a": frozenset({5}), "b": frozenset({1, 5}), "c": frozenset({1, 2})}

    def test_empty(self):
        assert pair_support_counts([], {}, {}) == []
        assert pair_support_counts([], self.EPOS, self.ENEG, same_direction=True) == []

    def test_sensor_that_never_evolves_has_zero_support(self):
        assert pair_support_counts([("a", "ghost")], self.EPOS, self.ENEG) == [0]
        assert pair_support_counts([("a", "ghost")], self.EPOS, self.ENEG, True) == [0]

    def test_any_direction_counts_common_timestamps(self):
        # a evolves at {1,2,3,5}, b at {1,2,3,5}, c at {1,2,9}
        got = pair_support_counts([("a", "b"), ("a", "c"), ("b", "c")], self.EPOS, self.ENEG)
        assert got == [4, 2, 2]

    def test_same_direction_counts_matching_signs_only(self):
        # a/b: up at {2,3}, down at {5}; a/c: nothing; b/c: down at {1}
        got = pair_support_counts(
            [("a", "b"), ("a", "c"), ("b", "c")], self.EPOS, self.ENEG, same_direction=True
        )
        assert got == [3, 0, 1]

    def test_sensor_only_in_one_direction_map(self):
        assert pair_support_counts([("p", "q")], {"p": frozenset({4})}, {"q": frozenset({4})}) == [1]
