"""Step 3a of MISCELA: the η-neighbor graph (paper §2.1 "distance
threshold η").

Two sensors are neighbors iff their haversine distance is below η. The
graph has one node per sensor (at most ~10k at paper scale), so it is
built on the driver by a latitude-band sweep: sensors are sorted by
latitude and each is paired only with the sensors north of it within
``meters_to_lat_degrees(η)``, then the candidates are filtered by exact
haversine. Since R·|Δlat| never exceeds the great-circle distance, no
pair closer than η lies outside the band, whatever the latitude and
across the ±180° meridian.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame

from repro.core.geo import haversine_np, meters_to_lat_degrees

EDGE_SCHEMA = "src string, dst string, dist_m double"

_BLOCK = 128  # sensors swept per numpy batch; bounds the candidate arrays


def neighbor_pairs(
    sensor_ids: Sequence[str],
    lat: Sequence[float],
    lon: Sequence[float],
    eta_meters: float,
) -> list[tuple[str, str, float]]:
    """Every pair of sensors closer than η, as sorted ``(src, dst,
    dist_m)`` with src < dst.

    The paper treats co-located sensors with different attributes as
    *different* sensors (§4 footnote 2), so a zero distance between them
    is a valid edge. The threshold is strict: ``dist < η``.
    """
    lat = np.asarray(lat, dtype=float)
    order = np.argsort(lat, kind="stable")
    ids = [sensor_ids[k] for k in order]
    lat, lon = lat[order], np.asarray(lon, dtype=float)[order]
    # the widening keeps rounding of the band edge from dropping a pair;
    # the exact filter below decides
    band = meters_to_lat_degrees(eta_meters) * (1 + 1e-9)
    last = np.searchsorted(lat, lat + band, side="right")  # exclusive
    out = []
    for lo in range(0, len(ids), _BLOCK):
        rows = np.arange(lo, min(lo + _BLOCK, len(ids)))
        counts = last[rows] - rows - 1
        i = np.repeat(rows, counts)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        dist = haversine_np(lat[i], lon[i], lat[j], lon[j])
        near = dist < eta_meters
        for a, b, d in zip(i[near].tolist(), j[near].tolist(), dist[near].tolist()):
            src, dst = sorted((ids[a], ids[b]))
            out.append((src, dst, d))
    return sorted(out)


def neighbor_edges(locations: DataFrame, eta_meters: float) -> DataFrame:
    """:func:`neighbor_pairs` over a DataFrame.

    ``locations`` has ``(sensor_id, attribute, lat, lon)``, one row per
    sensor. Returns the undirected η-neighbor edges ``(src, dst,
    dist_m)`` with src < dst.
    """
    rows = locations.select("sensor_id", "lat", "lon").collect()
    pairs = neighbor_pairs(
        [r["sensor_id"] for r in rows],
        [r["lat"] for r in rows],
        [r["lon"] for r in rows],
        eta_meters,
    )
    return locations.sparkSession.createDataFrame(pairs, EDGE_SCHEMA)
