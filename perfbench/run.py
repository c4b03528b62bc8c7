"""MISCELA-V benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload santander-session --seed 7 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced rounds instead, prints every per-layer
metric and writes the spans to ``.perfbench_out/``. The last line of
standard output is the JSON result; the lines before it are a
human-readable report with sample counts.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def central(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the samples
    (all of them when there are fewer than 4).

    A metric's samples are spread over the run, and the CPU runs in fast
    and slow episodes, up to 1.8x apart, that last about a second. The
    median then jumps between the two speeds from run to run; the mean
    of the middle half averages them and drops one-off pauses.
    """
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def summarize(samples: dict[str, list[float]], metrics: list[dict]) -> dict:
    """Each metric's :func:`central` value; a metric without samples is an error."""
    out = {}
    for m in metrics:
        values = samples.get(m["name"])
        if not values:
            raise RuntimeError(f"no samples for metric {m['name']}")
        out[m["name"]] = {"value": central(values), "unit": m["unit"]}
    return out


def report(samples: dict[str, list[float]], metrics: list[dict]) -> None:
    """Interquartile mean, median and sample count of each metric. At
    ``--seconds 20`` a run has at most 3 samples of a metric, too few for
    a high percentile."""
    for m in metrics:
        values = samples[m["name"]]
        print(f"{m['name']:<32} {central(values):>12.6g} {m['unit']:<6}"
              f"median {statistics.median(values):.6g} n={len(values)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops Spark and removes its files (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import session
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_tmp" / f"{workload.name}-seed{seed}-{os.getpid()}"
    session.configure_environment(ROOT, workdir)

    bench = session.Bench(workload, seed, workdir, traced=bool(args.trace))
    try:
        bench.setup()
        bench.run(args.seconds)
        if args.trace:
            bench.write_trace(ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{seed}.json")
    finally:
        try:
            if bench.spark is not None:
                session.stop_spark(bench.spark)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    samples = bench.layer_samples() if args.trace else bench.samples
    result = summarize(samples, metrics)
    print(f"workload {workload.name} seed {seed} trace {args.trace}: "
          f"{bench.attempted} operations, {bench.failed} failed")
    report(samples, metrics)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
