"""The benchmark's workloads: which dataset is generated, at which size,
and which MISCELA parameters the simulated analyst explores.

Each workload is one analyst session against :class:`MiscelaApi`; the
two stress different layers (see README.md for the predictions):

* ``santander-session`` — few sensors and few CAPs, so a cold mine is
  almost all Spark orchestration; the search kernel and the cache are
  cheap here.
* ``china6-dense`` — a grid of stations whose rows co-evolve, giving
  chained components (more label-propagation rounds) and four times as
  many CAPs, so the kernel, the cache document and the map view weigh
  more.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.core.types import MiscelaParams
from repro.smartcity import china6, santander
from repro.smartcity.generator import SmartCityData
from repro.tables import table5_wind, table7_santander


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[..., SmartCityData]
    scale: float
    default_seed: int
    params: MiscelaParams

    def remine_params(self) -> MiscelaParams:
        """The parameter-exploration step (paper §2.1): the analyst
        raises ψ by one on a dataset that was just mined."""
        return dataclasses.replace(self.params, psi=self.params.psi + 1)


class _PandasFrames:
    """Stands in for the SparkSession the generators take.

    The generators only call ``createDataFrame(pdf, schema=...)``;
    returning the pandas frame lets the benchmark build its CSV bundle
    before Spark starts, so the program sees nothing but the bundle.
    """

    def createDataFrame(self, pdf: pd.DataFrame, schema=None) -> pd.DataFrame:  # noqa: N802
        return pdf


def generate(workload: Workload, seed: int) -> SmartCityData:
    """The workload's dataset with pandas ``readings``/``locations``."""
    return workload.generate(_PandasFrames(), scale=workload.scale, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="santander-session",
            generate=santander,
            scale=0.05,
            default_seed=7,
            params=table7_santander.PARAMS,
        ),
        Workload(
            name="china6-dense",
            generate=china6,
            scale=0.004,
            default_seed=11,
            params=dataclasses.replace(table5_wind.PARAMS, max_sensors=4),
        ),
    )
}
