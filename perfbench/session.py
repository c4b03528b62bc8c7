"""One benchmark run: a single analyst driving :class:`MiscelaApi`.

The load is a closed loop with one client: each call starts when the
previous one has returned. A run sets up (Spark session, dataset, CSV
bundle, warm-up), mines a reference CAP set with ``mine_caps_local``,
then repeats rounds of API calls until ``--seconds`` would be exceeded.
An untraced round times the calls a user waits for; a traced round also
replays the upload and the cold mine stage by stage under spans.
"""
from __future__ import annotations

import json
import os
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core.miscela import mine_caps_local
from repro.server.api import MiscelaApi
from repro.smartcity.ingest import CHUNK_LINES
from repro.smartcity.schema import write_csv_bundle
from repro.store import cache as cache_module
from repro.viz.payload import build_map_payload, build_timeseries_payload

from perfbench import checks
from perfbench.replay import traced_mine, traced_upload
from perfbench.tracing import Tracer
from perfbench.workloads import Workload, generate

# Spark as the benchmark runs it: Arrow on and broadcast joins off, as in
# the tests' session fixture. On a 4-core box, local[2] leaves cores to the
# JIT, GC and Python driver and steadies cold mines; 8 shuffle partitions,
# not the fixture's 64, keep a run near 60 s instead of 80 s; the heap is
# committed at start so the JVM's RSS does not follow GC sizing (README.md).
CORES = 2
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "1g"

DATASET = "bench"
GEN_REPEATS = 3  # data generation + bundle writes per run; setup_s takes the median

# Span name → per-layer metric of its wall time / of its Spark jobs.
WALL_METRICS = {
    "ingest.read_chunks": "ingest.read_chunks_s",
    "ingest.commit": "ingest.commit_s",
    "store.load": "store.load_s",
    "segmentation": "segmentation.wall_s",
    "spatial": "spatial.wall_s",
    "coevolution": "coevolution.wall_s",
    "components": "components.wall_s",
    "miscela.payload": "miscela.payload_s",
    "search": "search.wall_s",
    "cache.put": "cache.put_s",
    "cache.get": "cache.get_s",
    "viz.map": "viz.map_s",
    "viz.timeseries": "viz.timeseries_s",
    # Pure-Python calls of a few to tens of milliseconds: their run-to-run
    # spread (up to 0.3) is too wide for an end-to-end bound (README.md).
    "warm_mine_s": "api.warm_mine_s",
    "click_s": "api.click_s",
}
JOB_METRICS = {
    "segmentation": "segmentation.spark_jobs",
    "spatial": "spatial.spark_jobs",
    "coevolution": "coevolution.spark_jobs",
    "components": "components.spark_jobs",
    "miscela.payload": "miscela.spark_jobs",
    "cold_mine_s": "api.mine_spark_jobs",
}
COUNT_METRICS = {"chunks": "ingest.chunks"}  # otherwise "<span>.<count>"


def configure_environment(root: Path, tmp: Path) -> None:
    """Point Spark, its Python workers and temp files at the checkout.

    Spark's Python workers import ``repro`` too, so ``src`` goes on
    ``PYTHONPATH`` before the JVM that forks them starts.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    java_options = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -Xms{DRIVER_MEMORY}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_options)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.sql.warehouse.dir={shlex.quote(str(tmp / 'warehouse'))}",
        "pyspark-shell",
    ])


def start_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> set[int]:
    """Processes below ``pid`` in the process tree, from ``/proc``."""
    parent_of = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            parent_of[int(stat.parent.name)] = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, parent in parent_of.items() if parent in frontier} - found
        found |= frontier
    return found


def _wait_gone(pids: set[int], timeout: float) -> None:
    """Wait until every process in ``pids`` has exited; kill stragglers."""
    deadline = time.monotonic() + timeout
    while pids:
        for pid in list(pids):
            try:
                os.kill(pid, 0 if time.monotonic() < deadline else signal.SIGKILL)
            except ProcessLookupError:
                pids.discard(pid)
        time.sleep(0.05)


def stop_spark(spark: SparkSession) -> None:
    """Stop the session and the gateway JVM, and wait until the JVM and
    the Python workers it forked have exited."""
    gateway = SparkContext._gateway
    workers = _descendants(gateway.proc.pid)
    try:
        spark.stop()
        gateway.shutdown()
    except Exception:  # a run cut short can leave the gateway unusable
        traceback.print_exc(file=sys.stderr)
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    _wait_gone(workers, timeout=10)  # the worker daemon exits on the JVM's EOF
    SparkContext._gateway = None
    SparkContext._jvm = None


def jvm_peak_rss_mb() -> float:
    """High-water RSS of the gateway JVM (``VmHWM``)."""
    status = Path(f"/proc/{SparkContext._gateway.proc.pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Bench:
    """State of one run: the API, the reference outputs and the samples."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, traced: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.params = workload.params
        self.remine_params = workload.remine_params()
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.spark: SparkSession | None = None
        self.tracer: Tracer | None = None
        self.traced = traced

    def record(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def op(self, name: str, call: Callable[[], Any], ok: Callable[[Any], bool]) -> Any:
        """Time one call and check its output; ``None`` if it failed.

        ``name`` ending in ``_s`` is an end-to-end metric and gets the
        sample; in a traced run every call is a request span.
        """
        self.attempted += 1
        try:
            if self.tracer is not None:
                with self.tracer.request(name) as span:
                    result = call()
                elapsed = span.wall_s
            else:
                t0 = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - t0
            if not ok(result):
                raise AssertionError(f"{name}: wrong output")
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if name.endswith("_s"):
            self.record(name, elapsed)
        return result

    def clear(self, params) -> None:
        """Cold protocol: drop the cached result and Spark's cached data."""
        self.api.cache.invalidate(DATASET, params)
        self.spark.catalog.clearCache()

    # ---- set-up -------------------------------------------------------------
    def setup(self) -> None:
        t_gen = []
        for i in range(GEN_REPEATS):
            t0 = time.perf_counter()
            data = generate(self.workload, self.seed)
            self.bundle = self.workdir / f"bundle{i}"
            write_csv_bundle(self.bundle, data.readings, data.locations, data.attributes,
                             data.start, data.interval_minutes)
            t_gen.append(time.perf_counter() - t0)
        self.n_records = len(data.readings)
        self.sensor_ids = set(data.locations["sensor_id"])
        self.expected_series = checks.series_by_sensor(data.readings)
        self.window = (data.n_ticks // 4, 3 * data.n_ticks // 4)  # a zoomed-in chart

        t0 = time.perf_counter()
        self.spark = start_spark(f"perfbench-{self.workload.name}")
        t_session = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.api = MiscelaApi(self.spark, self.workdir / "store")
        self.api.upload(DATASET, self.bundle)
        warm = self.api.mine(DATASET, self.params)
        self.mined = Counter(warm.caps)
        t_warm = time.perf_counter() - t0
        self.record("setup_s", t_session + statistics.median(t_gen) + t_warm)
        log(f"setup: session {t_session:.2f}s, data+bundle {statistics.median(t_gen):.2f}s, "
            f"warm-up upload+mine {t_warm:.2f}s")

        # The reference CAPs, once per run and outside timing.
        t0 = time.perf_counter()
        readings, locations, _ = self.api.store.load(self.spark, DATASET)
        self.reference, _, _ = mine_caps_local(self.spark, readings, locations, self.params)
        self.reference_keys = checks.cap_keys(self.reference)
        self.remine_keys = checks.remine_keys(self.reference, self.remine_params.psi)
        self.attempted += 1
        if not self.reference or checks.cap_keys(warm.caps) != self.reference_keys:
            self.failed += 1
            log("warm-up mine differs from mine_caps_local")
        log(f"reference: {len(self.reference)} CAPs, {len(self.remine_keys)} at "
            f"psi={self.remine_params.psi} ({time.perf_counter() - t0:.2f}s)")

        self.clicked = checks.click_sensor(self.reference)
        self.correlated = checks.correlated(self.reference, self.clicked)
        self.highlighted = {self.clicked} | set(self.correlated)
        focus = max((c for c in self.reference if self.clicked in c.sensors),
                    key=lambda c: (c.support, c.sensors))
        self.ts_sensors = list(focus.sensors)

    # ---- rounds ---------------------------------------------------------------
    def view_calls(self) -> None:
        """One burst of the cheap calls: a cache hit, a click and both
        Figure-3 views. Bursts sit between the round's slow calls, so
        their samples come from different seconds of the run."""
        api, p = self.api, self.params
        t_min, t_max = self.window
        hit = ("warm_mine_s", lambda: api.mine(DATASET, p),
               lambda r: checks.mine_ok(r, self.reference_keys, from_cache=True)
               and Counter(r.caps) == self.mined)
        click = ("click_s", lambda: api.correlated_sensors(DATASET, p, self.clicked),
                 lambda r: r == self.correlated)
        map_view = ("map_view_s", lambda: api.map_payload(DATASET, p, self.clicked),
                    lambda r: checks.map_ok(r, self.sensor_ids, self.highlighted,
                                            self.reference))
        chart = ("timeseries_view_s",
                 lambda: api.timeseries_payload(DATASET, self.ts_sensors, t_min, t_max),
                 lambda r: checks.timeseries_ok(r, self.expected_series, self.ts_sensors,
                                                t_min, t_max))
        for name, call, ok in (hit, click, map_view, chart):
            self.op(name, call, ok)

    def mine_calls(self) -> None:
        """A cold mine, then one ψ exploration step on the same data,
        each followed by a burst of view calls."""
        api, p, sc = self.api, self.params, self.spark.sparkContext
        self.clear(p)
        persistent = sc._jsc.getPersistentRDDs().size()
        cold = self.op("cold_mine_s", lambda: api.mine(DATASET, p),
                       lambda r: checks.mine_ok(r, self.reference_keys, from_cache=False))
        if cold is not None:
            self.mined = Counter(cold.caps)  # warm hits must return these
        if self.tracer is not None:
            self.record("api.persistent_rdds_delta", sc._jsc.getPersistentRDDs().size() - persistent)
        self.view_calls()

        api.cache.invalidate(DATASET, self.remine_params)
        self.op("remine_s", lambda: api.mine(DATASET, self.remine_params),
                lambda r: checks.mine_ok(r, self.remine_keys, from_cache=False))
        if self.tracer is None:
            self.view_calls()

    def untraced_round(self) -> None:
        self.op("upload_s", lambda: self.api.upload(DATASET, self.bundle),
                lambda r: checks.upload_ok(r, self.n_records, CHUNK_LINES))
        self.view_calls()
        self.mine_calls()

    def traced_round(self) -> None:
        tracer, api, p = self.tracer, self.api, self.params
        t_min, t_max = self.window
        self.op("upload", lambda: traced_upload(tracer, self.spark, api.store, DATASET, self.bundle),
                lambda r: checks.upload_ok(r, self.n_records, CHUNK_LINES))
        loaded = self.op("store.load", lambda: api.store.load(self.spark, DATASET),
                         lambda r: r[2]["meta"]["n_records"] == self.n_records)
        if loaded is None:
            return
        readings, locations, doc = loaded

        self.clear(p)
        replayed = self.op("replay", lambda: traced_mine(tracer, readings, locations, p),
                           lambda r: checks.cap_keys(r[0]) == self.reference_keys)
        if replayed is not None:
            stats = replayed[1]
            for field in ("nodes_expanded", "support_evaluations", "pruned_by_support",
                          "emitted", "hit_max_sensors"):
                self.record(f"search.{field}", getattr(stats, field))
            self.record("search.useful_ratio", stats.emitted / max(1, stats.nodes_expanded))

        hits, misses = api.cache.hits, api.cache.misses
        self.mine_calls()
        hits, misses = api.cache.hits - hits, api.cache.misses - misses
        self.record("cache.hit_ratio", hits / max(1, hits + misses))

        self.op("cache.put", lambda: api.cache.put(DATASET, p, self.reference), lambda r: True)
        self.op("cache.get", lambda: api.cache.get(DATASET, p),
                lambda r: r is not None and checks.cap_keys(r) == self.reference_keys)
        cache_doc = api.cache.docs.get(cache_module._COLLECTION, p.cache_key(DATASET))
        self.record("cache.doc_bytes", len(json.dumps(cache_doc, sort_keys=True).encode()))

        self.op("viz.map", lambda: build_map_payload(locations, self.reference, self.highlighted),
                lambda r: checks.map_ok(r, self.sensor_ids, self.highlighted, self.reference))
        self.op("viz.timeseries",
                lambda: build_timeseries_payload(readings, self.ts_sensors, doc["meta"],
                                                 t_min=t_min, t_max=t_max),
                lambda r: checks.timeseries_ok(r, self.expected_series, self.ts_sensors,
                                               t_min, t_max))

    def run(self, seconds: float) -> None:
        """Rounds until another round would end after ``seconds``."""
        if self.traced:
            self.tracer = Tracer(self.spark.sparkContext)
        round_ = self.traced_round if self.traced else self.untraced_round
        start, longest = time.perf_counter(), 0.0
        while True:
            t0 = time.perf_counter()
            round_()
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > seconds:
                break
        self.record("driver_peak_rss_mb", driver_peak_rss_mb())
        self.record("jvm_peak_rss_mb", jvm_peak_rss_mb())

    # ---- results ----------------------------------------------------------------
    def layer_samples(self) -> dict[str, list[float]]:
        """Per-layer samples: the counters recorded above plus the span
        wall times, job counts and row counts."""
        out = {k: list(v) for k, v in self.samples.items() if "." in k}
        for s in self.tracer.spans:
            if s.name in WALL_METRICS:
                out.setdefault(WALL_METRICS[s.name], []).append(s.wall_s)
            if s.name in JOB_METRICS:
                out.setdefault(JOB_METRICS[s.name], []).append(s.jobs)
            for count, value in s.counts.items():
                out.setdefault(COUNT_METRICS.get(count, f"{s.name}.{count}"), []).append(value)
        return out

    def write_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.tracer.to_json(), indent=1))


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
