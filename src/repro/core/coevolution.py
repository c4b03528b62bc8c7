"""Pairwise co-evolution supports (paper §2.1 "minimum support ψ").

Two sensors co-evolve at timestamp t when both have an evolving
timestamp at t; their support is the number of such t. Each sensor's
evolving timestamps are a set on the driver (the vertical tid-set
layout of Eclat), so a pair's support is the size of an intersection.
Supports (a) prune the search: an edge whose pairwise support is < ψ
can never appear inside a CAP (anti-monotonicity), and (b) directly
power Table 5 (east–west vs north–south pair supports).
"""
from __future__ import annotations

from typing import Iterable, Mapping

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.evolving import evolving_sets

_EMPTY: frozenset = frozenset()


def pair_support_counts(
    pairs: Iterable[tuple[str, str]],
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    same_direction: bool = False,
) -> list[int]:
    """Support of each ``(a, b)`` pair, in order.

    ``epos``/``eneg`` hold each sensor's increasing/decreasing evolving
    timestamps; a missing sensor never evolves. With ``same_direction``
    only timestamps where both move with the same sign count (strict
    co-evolution; DESIGN.md §3): |P∩P| + |M∩M|; otherwise |(P∪M)∩(P∪M)|.
    """
    if same_direction:
        return [
            len(epos.get(a, _EMPTY) & epos.get(b, _EMPTY))
            + len(eneg.get(a, _EMPTY) & eneg.get(b, _EMPTY))
            for a, b in pairs
        ]
    either = {s: epos.get(s, _EMPTY) | eneg.get(s, _EMPTY) for s in {*epos, *eneg}}
    return [len(either.get(a, _EMPTY) & either.get(b, _EMPTY)) for a, b in pairs]


def pair_supports(
    evolving: DataFrame, edges: DataFrame, same_direction: bool = False
) -> DataFrame:
    """:func:`pair_support_counts` over DataFrames: ``(src, dst,
    support)`` for every neighbor pair.

    ``evolving`` is ``(sensor_id, t, direction)`` from
    :func:`repro.core.evolving.extract_evolving`; ``edges`` are
    η-neighbor edges ``(src, dst, ...)`` with src < dst. Pairs whose
    sensors never co-evolve are absent (support 0).
    """
    epos, eneg = evolving_sets(evolving)
    pairs = [(r["src"], r["dst"]) for r in edges.select("src", "dst").collect()]
    counts = pair_support_counts(pairs, epos, eneg, same_direction)
    return evolving.sparkSession.createDataFrame(
        [(a, b, n) for (a, b), n in zip(pairs, counts) if n > 0],
        "src string, dst string, support long",
    )


def coevolving_edges(
    evolving: DataFrame, edges: DataFrame, psi: int, same_direction: bool = False
) -> DataFrame:
    """Neighbor edges that meet the minimum support ψ — the only edges
    the CAP search needs to consider (anti-monotone edge pruning)."""
    return pair_supports(evolving, edges, same_direction=same_direction).where(
        F.col("support") >= int(psi)
    )
