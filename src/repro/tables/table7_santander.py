"""Table 7 — Santander single-city case study (paper §4).

"For example, we can find correlated patterns among temperatures and
traffic volumes and among light and temperature."

The harness mines Santander-lite and aggregates discovered CAPs by
attribute set, reporting count and max support per set. The shape to
match: cross-attribute patterns including {temperature, traffic} and
{light, temperature} are among the discovered sets (the generator
plants mixed-attribute clusters, as the real city exhibits).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.miscela import caps_to_rows, mine_caps
from repro.core.types import MiscelaParams
from repro.smartcity import santander

PARAMS = MiscelaParams(
    epsilon=0.05, eta_meters=800.0, mu=3, psi=8, segment_tolerance=0.02, max_sensors=5
)


def run(
    spark: SparkSession,
    scale: float = 0.02,
    seed: int = 7,
    params: MiscelaParams = PARAMS,
) -> pd.DataFrame:
    d = santander(spark, scale=scale, seed=seed)
    caps, _, _ = mine_caps(spark, d.readings, d.locations, params)
    rows = pd.DataFrame(caps_to_rows(caps), columns=["attributes", "support", "size"])
    return (
        rows.groupby("attributes", as_index=False)
        .agg(
            n_caps=("support", "size"),
            max_support=("support", "max"),
            max_sensors=("size", "max"),
        )
        .sort_values(["n_caps", "attributes"], ascending=[False, True], ignore_index=True)
    )


def contains_paper_patterns(df: pd.DataFrame) -> dict[str, bool]:
    """The two §4 example patterns, as subset checks over the
    discovered attribute sets."""
    sets = [frozenset(a.split(",")) for a in df["attributes"]]
    return {
        "temperature+traffic": any({"temperature", "traffic"} <= s for s in sets),
        "light+temperature": any({"light", "temperature"} <= s for s in sets),
    }
