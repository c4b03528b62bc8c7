"""CAP mining core — the paper's primary contribution (MISCELA).

Layout mirrors MISCELA's four steps (paper §2.2):

1. :mod:`repro.core.segmentation` — linear segmentation noise filter.
2. :mod:`repro.core.evolving`     — evolving-timestamp extraction (ε).
3. :mod:`repro.core.spatial` + :mod:`repro.core.coevolution` +
   :mod:`repro.core.components` — η-neighbor graph, pair supports and
   spatially connected sensor sets.
4. :mod:`repro.core.search`       — per-component CAP search with
   anti-monotone support pruning.

:mod:`repro.core.miscela` wires the steps into ``mine_caps``: steps 1–2
as Spark dataflow over the readings, steps 3–4 on the driver over one
row per sensor. Its ``prune_support`` / ``naive_spatial`` keywords give
the unpruned comparators of Table 4.
"""
from repro.core.types import CAP, MiscelaParams  # noqa: F401
from repro.core.miscela import mine_caps  # noqa: F401
