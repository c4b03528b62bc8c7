"""CAP result cache (paper §3.3, S7).

"We store the name of the dataset, parameters, and CAPs (i.e., a set of
sets of sensors) to the database. Before computing CAPs by MISCELA, our
system searches for CAPs with the same parameters and the name of the
dataset" — implemented as one JSON document per (dataset, parameters)
pair in the document store, keyed by the content hash from
:meth:`repro.core.types.MiscelaParams.cache_key`.

A dataset name alone does not pin its data: re-uploading under the same
name replaces it. Each entry therefore records the content fingerprint
of the dataset it was mined from, and a lookup only hits while the
dataset doc still carries that fingerprint. A changed re-upload misses
(and the next ``put`` replaces the stale entry); an identical one hits.
"""
from __future__ import annotations

from dataclasses import asdict

from repro.core.types import CAP, MiscelaParams
from repro.store.datasets import DATASETS
from repro.store.docstore import DocumentStore

_COLLECTION = "cap_results"


class CapCache:
    """Cache of mining results keyed by (dataset name, parameters,
    dataset fingerprint)."""

    def __init__(self, docs: DocumentStore):
        self.docs = docs
        self.hits = 0
        self.misses = 0

    def _fingerprint(self, dataset: str) -> str | None:
        doc = self.docs.get(DATASETS, dataset)
        return None if doc is None else doc.get("fingerprint")

    def get(self, dataset: str, params: MiscelaParams) -> list[CAP] | None:
        doc = self.docs.get(_COLLECTION, params.cache_key(dataset))
        if doc is None or doc.get("fingerprint") != self._fingerprint(dataset):
            self.misses += 1
            return None
        self.hits += 1
        return [CAP.from_doc(d) for d in doc["caps"]]

    def put(self, dataset: str, params: MiscelaParams, caps: list[CAP]) -> str:
        return self.docs.insert(
            _COLLECTION,
            {
                "dataset": dataset,
                "params": asdict(params),
                "fingerprint": self._fingerprint(dataset),
                "caps": [c.to_doc() for c in sorted(caps, key=lambda c: c.sensors)],
            },
            doc_id=params.cache_key(dataset),
        )

    def invalidate(self, dataset: str, params: MiscelaParams) -> bool:
        return self.docs.delete(_COLLECTION, params.cache_key(dataset))
