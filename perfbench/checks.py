"""Expected outputs of every benchmarked call.

Each check compares a response of :class:`MiscelaApi` with what follows
from the reference CAP set (``mine_caps_local``, computed once per run
outside timing) and from the generated data. A check returns ``True``
when the output is right; the benchmark counts every ``False`` and
every exception as a failed operation.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd

from repro.core.types import CAP

CapKey = tuple[tuple[str, ...], tuple[str, ...], int]


def cap_keys(caps: list[CAP]) -> list[CapKey]:
    """Sorted (sensors, attributes, support) of each CAP.

    Component labels are left out: they name a component by one of its
    sensors and differ between mining paths without changing the result.
    Duplicates are kept, so a repeated CAP is a mismatch.
    """
    return sorted((c.sensors, c.attributes, c.support) for c in caps)


def mine_ok(response, keys: list[CapKey], from_cache: bool) -> bool:
    """A mine response holds exactly the CAPs ``keys`` and was (not)
    served from the result cache."""
    return response.from_cache == from_cache and cap_keys(response.caps) == keys


def remine_keys(reference: list[CAP], psi: int) -> list[CapKey]:
    """CAPs at minimum support ``psi`` ≥ the reference's ψ.

    A set with support ≥ ψ' has every pairwise support ≥ ψ', so each of
    its η-edges is also a co-evolving edge at ψ': raising ψ keeps exactly
    the CAPs whose support reaches the new ψ.
    """
    return [k for k in cap_keys(reference) if k[2] >= psi]


def click_sensor(caps: list[CAP]) -> str:
    """The sensor in the most CAPs (ties: smallest id) — what an
    analyst clicks first on the map."""
    counts = Counter(s for c in caps for s in c.sensors)
    return min(counts, key=lambda s: (-counts[s], s))


def correlated(caps: list[CAP], sensor: str) -> dict[str, list[str]]:
    """Sensors sharing a CAP with ``sensor``, with the attributes of
    the shared CAPs (paper §3.1 click-to-highlight)."""
    out: dict[str, set[str]] = {}
    for cap in caps:
        if sensor in cap.sensors:
            for other in cap.sensors:
                if other != sensor:
                    out.setdefault(other, set()).update(cap.attributes)
    return {s: sorted(a) for s, a in sorted(out.items())}


def upload_ok(result: dict, n_records: int, chunk_lines: int) -> bool:
    return (
        result["n_records"] == n_records
        and result["n_chunks"] == math.ceil(n_records / chunk_lines)
    )


def map_ok(
    payload: dict,
    sensor_ids: set[str],
    highlighted: set[str],
    reference: list[CAP],
) -> bool:
    """Every sensor has one marker, exactly the clicked sensor and its
    correlated set are highlighted, and the CAP list is the reference."""
    markers = payload["markers"]
    return (
        [m["sensor_id"] for m in markers] == sorted(sensor_ids)
        and {m["sensor_id"] for m in markers if m["highlighted"]} == highlighted
        and payload["n_highlighted"] == len(highlighted)
        and cap_keys([CAP.from_doc(d) for d in payload["caps"]]) == cap_keys(reference)
    )


def series_by_sensor(readings: pd.DataFrame) -> dict[str, np.ndarray]:
    """Generated readings as sensor → values indexed by tick."""
    out = {}
    for sid, g in readings.groupby("sensor_id", sort=False):
        values = np.full(int(g["t"].max()) + 1, np.nan)
        values[g["t"].to_numpy()] = g["value"].to_numpy()
        out[sid] = values
    return out


def timeseries_ok(
    payload: dict,
    expected: dict[str, np.ndarray],
    sensor_ids: list[str],
    t_min: int,
    t_max: int,
) -> bool:
    """Each requested series covers exactly ticks ``t_min..t_max`` with
    the uploaded values; a missing value is ``None``."""
    if sorted(payload["series"]) != sorted(sensor_ids):
        return False
    ticks = list(range(t_min, t_max + 1))
    for sid in sensor_ids:
        points = payload["series"][sid]
        if [p["t"] for p in points] != ticks:
            return False
        want = expected[sid][t_min : t_max + 1]
        got = np.array([np.nan if p["value"] is None else p["value"] for p in points])
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            return False
        if not np.allclose(got[~np.isnan(got)], want[~np.isnan(want)], rtol=1e-12, atol=0):
            return False
    return True
