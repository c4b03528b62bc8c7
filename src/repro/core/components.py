"""Step 3b of MISCELA: spatially connected sensor sets (paper §2.2
step 3) — connected components of the sensor graph.

The graph is per sensor, not per reading (at most ~10k nodes at paper
scale), so it is collected to the driver and labeled by union-find in
near-linear time, whatever its diameter.

Isolated sensors (no neighbor within η) form singleton components; CAPs
need ≥ 2 sensors so singletons are dropped by the search, but they are
kept here because the map view still renders them.
"""
from __future__ import annotations

from typing import Iterable

from pyspark.sql import DataFrame


def component_labels(
    sensors: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, str]:
    """Label every sensor with the smallest sensor_id of its component.

    ``edges`` are undirected ``(src, dst)`` pairs; an endpoint missing
    from ``sensors`` is labeled too.
    """
    parent: dict[str, str] = {s: s for s in sensors}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {s: find(s) for s in parent}


def connected_components(sensors: DataFrame, edges: DataFrame) -> DataFrame:
    """:func:`component_labels` over DataFrames.

    ``sensors`` has a ``sensor_id`` column; ``edges`` has ``(src, dst)``
    (other columns ignored). Returns ``(sensor_id, component)``.
    """
    labels = component_labels(
        (r["sensor_id"] for r in sensors.select("sensor_id").collect()),
        ((r["src"], r["dst"]) for r in edges.select("src", "dst").collect()),
    )
    return sensors.sparkSession.createDataFrame(
        sorted(labels.items()), "sensor_id string, component string"
    )
