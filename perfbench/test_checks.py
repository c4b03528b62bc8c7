"""Self-test of the benchmark's output checks; needs no Spark session.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from repro.core.types import CAP  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.session import Bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

REFERENCE = [
    CAP(("s1", "s2"), ("light", "temperature"), 12, component="s1"),
    CAP(("s1", "s2", "s3"), ("light", "temperature", "traffic"), 9, component="s1"),
    CAP(("s4", "s5"), ("sound", "traffic"), 15, component="s4"),
]


@dataclass
class Response:  # the fields of MineResponse the checks read
    caps: list[CAP]
    from_cache: bool


def corruptions() -> dict[str, list[CAP]]:
    first, second, third = REFERENCE
    return {
        "dropped": [first, second],
        "duplicated": REFERENCE + [third],
        "wrong_support": [first, second, CAP(third.sensors, third.attributes, 14)],
        "extra_sensor": [first, second, CAP(("s4", "s5", "s6"), third.attributes, 15)],
        "extra_cap": REFERENCE + [CAP(("s6", "s7"), ("light", "sound"), 20)],
    }


@pytest.fixture
def bench(tmp_path) -> Bench:
    return Bench(WORKLOADS["santander-session"], seed=7, workdir=tmp_path, traced=False)


@pytest.mark.parametrize("kind", sorted(corruptions()))
def test_corrupted_cap_set_counts_as_failure(bench, kind):
    keys = checks.cap_keys(REFERENCE)
    response = Response(corruptions()[kind], from_cache=False)
    out = bench.op("cold_mine_s", lambda: response,
                   lambda r: checks.mine_ok(r, keys, from_cache=False))
    assert out is None
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "cold_mine_s" not in bench.samples  # a wrong answer gets no latency sample


def test_correct_cap_set_passes_in_any_order_and_labelling(bench):
    keys = checks.cap_keys(REFERENCE)
    relabelled = [CAP(c.sensors, c.attributes, c.support, component="x") for c in REFERENCE]
    response = Response(list(reversed(relabelled)), from_cache=True)
    assert bench.op("warm_mine_s", lambda: response,
                    lambda r: checks.mine_ok(r, keys, from_cache=True)) is response
    assert (bench.attempted, bench.failed) == (1, 0)
    assert len(bench.samples["warm_mine_s"]) == 1


def test_cache_flag_is_checked():
    keys = checks.cap_keys(REFERENCE)
    assert not checks.mine_ok(Response(REFERENCE, from_cache=True), keys, from_cache=False)


def test_exception_counts_as_failure(bench):
    def boom():
        raise RuntimeError("mine failed")

    assert bench.op("remine_s", boom, lambda r: True) is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_remine_keeps_caps_reaching_new_psi():
    assert checks.remine_keys(REFERENCE, 10) == checks.cap_keys([REFERENCE[0], REFERENCE[2]])


def test_click_and_map_checks():
    assert checks.click_sensor(REFERENCE) == "s1"
    assert checks.correlated(REFERENCE, "s3") == {
        "s1": ["light", "temperature", "traffic"],
        "s2": ["light", "temperature", "traffic"],
    }
    payload = {
        "markers": [{"sensor_id": s, "highlighted": s in {"s1", "s2", "s3"}}
                    for s in ("s1", "s2", "s3", "s4", "s5")],
        "caps": [c.to_doc() for c in REFERENCE],
        "n_highlighted": 3,
    }
    sensors = {"s1", "s2", "s3", "s4", "s5"}
    assert checks.map_ok(payload, sensors, {"s1", "s2", "s3"}, REFERENCE)
    payload["caps"] = payload["caps"][:-1]
    assert not checks.map_ok(payload, sensors, {"s1", "s2", "s3"}, REFERENCE)
