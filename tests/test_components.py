"""Unit tests for step 3b (connected components by union-find) against
a breadth-first-search reference, plus one test of the DataFrame
wrapper."""
import numpy as np
import pandas as pd
import pytest

from repro.core.components import component_labels, connected_components
from tests.helpers import ref_components


class TestConnectedComponents:
    def test_two_triangles(self):
        edges = {("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")}
        got = component_labels("abcxyz", edges)
        assert got == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x", "z": "x"}

    def test_isolated_sensors_are_singletons(self):
        got = component_labels(["a", "b", "lone"], {("a", "b")})
        assert got["lone"] == "lone" and got["a"] == got["b"] == "a"

    def test_long_chain(self):
        sensors = [f"n{i:02d}" for i in range(12)]
        edges = {(sensors[i], sensors[i + 1]) for i in range(11)}
        assert set(component_labels(sensors, edges).values()) == {"n00"}

    def test_no_edges(self):
        got = component_labels(["a", "b", "c"], set())
        assert got == {"a": "a", "b": "b", "c": "c"}

    def test_empty_graph(self):
        assert component_labels([], set()) == {}

    def test_edge_endpoints_need_not_be_listed(self):
        assert component_labels([], [("b", "a")]) == {"a": "a", "b": "a"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_union_find(self, seed):
        g = np.random.default_rng(seed)
        sensors = [f"s{i:02d}" for i in range(25)]
        edges = set()
        for i in range(25):
            for j in range(i + 1, 25):
                if g.random() < 0.06:
                    edges.add((sensors[i], sensors[j]))
        assert component_labels(sensors, edges) == ref_components(sensors, edges)

    def test_component_label_is_min_member(self):
        got = component_labels(["z", "m", "a"], {("z", "m"), ("m", "a")})
        assert set(got.values()) == {"a"}

    def test_sixty_node_chain(self, spark):
        # The DataFrame wrapper, on a chain longer than the 50 rounds
        # min-label propagation was capped at, listed from its far end.
        sensors = [f"n{i:02d}" for i in range(60)] + ["lone"]
        edges = pd.DataFrame({
            "src": [sensors[i + 1] for i in reversed(range(59))],
            "dst": [sensors[i] for i in reversed(range(59))],
            "dist_m": 1.0,
        })
        out = connected_components(
            spark.createDataFrame(pd.DataFrame({"sensor_id": sensors}), "sensor_id string"),
            spark.createDataFrame(edges, "src string, dst string, dist_m double"),
        )
        assert out.columns == ["sensor_id", "component"]
        got = {r["sensor_id"]: r["component"] for r in out.collect()}
        assert got == {**dict.fromkeys(sensors[:60], "n00"), "lone": "lone"}
