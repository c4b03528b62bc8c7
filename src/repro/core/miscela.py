"""MISCELA: the full 4-step CAP mining pipeline (paper §2.2).

``mine_caps`` is the one mining entry point. Steps 1–3a touch every
reading and run as Spark dataflow: segmentation, ε extraction, the
η-neighbor join and the pair-support join. Steps 3b–4 touch one row
per sensor (at most ~10k at paper scale), so the evolving timestamps,
attributes and search edges are collected once and the components and
the CAP search run on the driver, with full :class:`SearchStats`.

Components are computed over the *co-evolving* η-edges (pairwise
support ≥ ψ), which is sound and complete: inside any valid CAP every
pair's support is at least the CAP's support ≥ ψ, so the CAP's induced
η-subgraph and induced co-evolving subgraph coincide — a CAP can never
straddle two co-evolving components (DESIGN.md §3).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.components import component_labels
from repro.core.coevolution import coevolving_edges
from repro.core.evolving import active_sensors, extract_evolving
from repro.core.search import search_component
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_edges
from repro.core.types import CAP, MiscelaParams, SearchStats


def caps_to_rows(caps: list[CAP]) -> list[dict]:
    """CAP list → flat rows (lists are joined with ',' so every column
    stays scalar and orderable)."""
    return [
        {
            "component": c.component,
            "sensors": ",".join(c.sensors),
            "attributes": ",".join(c.attributes),
            "support": c.support,
            "size": c.size,
        }
        for c in caps
    ]


def mine_caps(
    spark: SparkSession,
    readings: DataFrame,
    locations: DataFrame,
    params: MiscelaParams,
    prune_support: bool = True,
    naive_spatial: bool = False,
) -> tuple[list[CAP], SearchStats, dict]:
    """Mine every CAP of ``readings``.

    Parameters
    ----------
    readings:
        ``(sensor_id string, t long, value double)`` long-format
        synchronized measurements (nulls allowed).
    locations:
        ``(sensor_id, attribute, lat, lon)`` — one row per sensor.
    prune_support:
        False runs the Table-4 baseline: no anti-monotone pruning.
    naive_spatial:
        True searches the raw η-neighbor graph instead of the
        co-evolving edges — with ``prune_support=False``, the fully
        naive comparator. The CAP set is identical either way.

    Returns (CAPs, merged search stats, timings). The timings hold the
    wall seconds of each stage (``search_s`` is the kernel alone) and
    ``n_search_edges``, the edge count of the searched graph.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    smoothed = smooth_readings(readings, params.segment_tolerance)
    evolving = extract_evolving(smoothed, params.epsilon).cache()
    try:
        evolving.count()  # materialize once; three consumers follow
        timings["segment_and_extract_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        live_locations = locations.join(active_sensors(evolving, params.psi), on="sensor_id")
        search_edges = neighbor_edges(live_locations, params.eta_meters)
        if not naive_spatial:
            search_edges = coevolving_edges(
                evolving, search_edges, params.psi, same_direction=params.same_direction
            )
        edges = [(r["src"], r["dst"]) for r in search_edges.select("src", "dst").collect()]
        timings["spatial_join_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        epos: dict[str, frozenset] = {}
        eneg: dict[str, frozenset] = {}
        for row in (
            evolving.groupBy("sensor_id")
            .agg(
                F.collect_list(F.when(F.col("direction") == 1, F.col("t"))).alias("p"),
                F.collect_list(F.when(F.col("direction") == -1, F.col("t"))).alias("m"),
            )
            .collect()
        ):
            epos[row["sensor_id"]] = frozenset(row["p"])
            eneg[row["sensor_id"]] = frozenset(row["m"])
    finally:
        evolving.unpersist()
    attribute = {
        r["sensor_id"]: r["attribute"]
        for r in locations.select("sensor_id", "attribute").collect()
    }
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    members: dict[str, list[str]] = {}
    for sensor, component in component_labels((), edges).items():
        members.setdefault(component, []).append(sensor)
    timings["collect_s"] = time.perf_counter() - t0
    timings["n_search_edges"] = len(edges)

    t0 = time.perf_counter()
    caps: list[CAP] = []
    total = SearchStats()
    for component, sensors in sorted(members.items()):
        found, stats = search_component(
            {s: attribute[s] for s in sensors},
            {s: adjacency[s] for s in sensors},
            {s: epos.get(s, frozenset()) for s in sensors},
            {s: eneg.get(s, frozenset()) for s in sensors},
            params,
            component=component,
            prune_support=prune_support,
        )
        caps.extend(found)
        total.merge(stats)
    timings["search_s"] = time.perf_counter() - t0
    return caps, total, timings


mine_caps_local = mine_caps  # former name of the driver-side miner
