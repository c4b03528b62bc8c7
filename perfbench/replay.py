"""Traced, stage-by-stage replays of the upload and the cold mine.

The replays call the same public functions as ``upload_csv_bundle`` and
``mine_caps``, in the same order, with a span around each stage. Every
stage is materialized before the next starts, so its wall time, Spark
jobs and output rows belong to it alone; the stage job counts therefore
add up to more than one API mine runs. The benchmark checks that the
replayed CAPs equal the API's.
"""
from __future__ import annotations

from pathlib import Path

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.coevolution import coevolving_edges
from repro.core.components import connected_components
from repro.core.evolving import active_sensors, extract_evolving
from repro.core.search import search_component
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_edges
from repro.core.types import CAP, MiscelaParams, SearchStats
from repro.smartcity.ingest import (
    ChunkedUploader,
    iter_data_chunks,
    read_attribute_csv,
    read_location_csv,
)
from repro.store.datasets import DatasetStore

from perfbench.tracing import Tracer


def traced_upload(
    tracer: Tracer, spark: SparkSession, store: DatasetStore, name: str, bundle: Path
) -> dict:
    """``upload_csv_bundle`` split into reading the chunks and committing."""
    uploader = ChunkedUploader(spark, store, name)
    with tracer.span("ingest.read_chunks") as span:
        for chunk in iter_data_chunks(bundle / "data.csv"):
            uploader.receive_chunk(chunk)
        span.counts["chunks"] = uploader.n_chunks_received
    with tracer.span("ingest.commit"):
        return uploader.commit(
            read_location_csv(bundle / "location.csv"),
            read_attribute_csv(bundle / "attribute.csv"),
        )


def traced_mine(
    tracer: Tracer, readings: DataFrame, locations: DataFrame, params: MiscelaParams
) -> tuple[list[CAP], SearchStats]:
    """``mine_caps`` stage by stage, with the per-component search run
    on the driver so each component's :class:`SearchStats` is kept."""
    with tracer.span("segmentation") as span:
        smoothed = smooth_readings(readings, params.segment_tolerance)
        evolving = extract_evolving(smoothed, params.epsilon).cache()
        span.counts["rows_out"] = evolving.count()

    with tracer.span("spatial") as span:
        active = active_sensors(evolving, params.psi)
        edges = neighbor_edges(locations.join(active, on="sensor_id"), params.eta_meters).cache()
        span.counts["rows_out"] = edges.count()

    with tracer.span("coevolution") as span:
        coev = coevolving_edges(
            evolving, edges, params.psi, same_direction=params.same_direction
        ).cache()
        span.counts["rows_out"] = coev.count()

    with tracer.span("components") as span:
        nodes = (
            coev.select(F.col("src").alias("sensor_id"))
            .union(coev.select(F.col("dst").alias("sensor_id")))
            .distinct()
        )
        labels = {r["sensor_id"]: r["component"] for r in connected_components(nodes, coev).collect()}
        members: dict[str, list[str]] = {}
        for sensor, component in labels.items():
            members.setdefault(component, []).append(sensor)
        span.counts["n_components"] = len(members)
        span.counts["largest"] = max((len(m) for m in members.values()), default=0)

    with tracer.span("miscela.payload"):
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
        attribute = {
            r["sensor_id"]: r["attribute"]
            for r in locations.select("sensor_id", "attribute").collect()
        }
        adjacency: dict[str, set[str]] = {}
        for r in coev.select("src", "dst").collect():
            adjacency.setdefault(r["src"], set()).add(r["dst"])
            adjacency.setdefault(r["dst"], set()).add(r["src"])

    caps: list[CAP] = []
    stats = SearchStats()
    with tracer.span("search"):
        for component, sensors in sorted(members.items()):
            found, component_stats = search_component(
                {s: attribute[s] for s in sensors},
                {s: adjacency[s] for s in sensors},
                {s: epos[s] for s in sensors},
                {s: eneg[s] for s in sensors},
                params,
                component=component,
            )
            caps.extend(found)
            stats.merge(component_stats)
    return caps, stats
