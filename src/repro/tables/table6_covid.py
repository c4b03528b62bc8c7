"""Table 6 — COVID-19 before/after analysis (paper §4, Figure 4).

"Attendees can know that levels of air pollution change due to
spreading COVID-19 ... our activity changes affect not only the
amounts of air pollutants but also their correlation patterns."

The harness splits the COVID dataset at the lockdown tick, mines each
period independently (re-indexing t to 0), and reports per period and
attribute: the mean pollutant level, plus per-period CAP statistics.
Shape to match: non-O3 levels drop after lockdown, and the number of
CAPs (co-evolution patterns among traffic-driven pollutants) collapses.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.miscela import mine_caps
from repro.core.types import MiscelaParams
from repro.smartcity import covid19

PARAMS = MiscelaParams(
    epsilon=0.05, eta_meters=2_000.0, mu=6, psi=8, segment_tolerance=0.02, max_sensors=6
)


def _period(readings: DataFrame, lo: int, hi: int) -> DataFrame:
    return (
        readings.where((F.col("t") >= lo) & (F.col("t") < hi))
        .withColumn("t", F.col("t") - F.lit(lo))
    )


def run(
    spark: SparkSession,
    scale: float = 0.25,
    seed: int = 17,
    params: MiscelaParams = PARAMS,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (levels_df, caps_df): mean levels per attribute/period
    and CAP counts + attribute patterns per period."""
    d = covid19(spark, scale=scale, seed=seed)
    lock = d.meta["lockdown_tick"]
    periods = {
        "before": _period(d.readings, 0, lock),
        "after": _period(d.readings, lock, d.n_ticks),
    }

    levels_rows = []
    caps_rows = []
    for name, readings in periods.items():
        lv = (
            readings.join(d.locations.select("sensor_id", "attribute"), on="sensor_id")
            .groupBy("attribute")
            .agg(F.round(F.avg("value"), 2).alias("mean_level"))
            .toPandas()
        )
        lv["period"] = name
        levels_rows.append(lv)

        caps, _, _ = mine_caps(spark, readings, d.locations, params)
        patterns = sorted({",".join(c.attributes) for c in caps})
        caps_rows.append(
            {
                "period": name,
                "n_caps": len(caps),
                "max_support": max((c.support for c in caps), default=0),
                "n_attribute_patterns": len(patterns),
                "attribute_patterns": "; ".join(patterns[:6]),
            }
        )
    levels = pd.concat(levels_rows, ignore_index=True).pivot(
        index="attribute", columns="period", values="mean_level"
    ).reset_index()[["attribute", "before", "after"]]
    levels["drop_pct"] = (100 * (1 - levels["after"] / levels["before"])).round(1)
    return levels, pd.DataFrame(caps_rows)
