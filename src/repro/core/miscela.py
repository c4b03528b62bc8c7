"""MISCELA: the full 4-step CAP mining pipeline (paper §2.2).

``mine_caps`` is the one mining entry point. Steps 1–2 touch every
reading and run as Spark dataflow: segmentation and ε extraction, ending
in one aggregation that collects each sensor's increasing and decreasing
timestamps. Steps 3–4 touch one row per sensor (at most ~10k at paper
scale), so they run on the driver over those sets and the collected
locations: the η-neighbor sweep, pair supports as set intersections,
union-find components and the CAP search, with full
:class:`SearchStats`.

Components are computed over the *co-evolving* η-edges (pairwise
support ≥ ψ), which is sound and complete: inside any valid CAP every
pair's support is at least the CAP's support ≥ ψ, so the CAP's induced
η-subgraph and induced co-evolving subgraph coincide — a CAP can never
straddle two co-evolving components (DESIGN.md §3).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.components import component_labels
from repro.core.coevolution import pair_support_counts
from repro.core.evolving import evolving_sets, extract_evolving
from repro.core.search import search_component
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_pairs
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
    wall seconds of each stage — ``segment_and_extract_s`` (Spark, up to
    the collected evolving sets), ``collect_s`` (the locations),
    ``spatial_join_s`` (η-neighbors, supports and components on the
    driver), ``search_s`` (the kernel alone) — and ``n_search_edges``,
    the edge count of the searched graph.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    smoothed = smooth_readings(readings, params.segment_tolerance)
    epos, eneg = evolving_sets(extract_evolving(smoothed, params.epsilon))
    timings["segment_and_extract_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sites = locations.select("sensor_id", "attribute", "lat", "lon").collect()
    timings["collect_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    attribute = {r["sensor_id"]: r["attribute"] for r in sites}
    live = [
        r for r in sites
        if len(epos.get(r["sensor_id"], ())) + len(eneg.get(r["sensor_id"], ())) >= params.psi
    ]
    edges = [
        (a, b)
        for a, b, _ in neighbor_pairs(
            [r["sensor_id"] for r in live], [r["lat"] for r in live],
            [r["lon"] for r in live], params.eta_meters,
        )
    ]
    if not naive_spatial:
        supports = pair_support_counts(edges, epos, eneg, params.same_direction)
        edges = [e for e, n in zip(edges, supports) if n >= params.psi]
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    members: dict[str, list[str]] = {}
    for sensor, component in component_labels((), edges).items():
        members.setdefault(component, []).append(sensor)
    timings["spatial_join_s"] = time.perf_counter() - t0
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
