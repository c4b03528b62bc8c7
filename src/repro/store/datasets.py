"""Dataset store: named datasets persisted as parquet + a metadata
document, so "we can use the dataset without re-uploading by specifying
the dataset name" (paper §3.2).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

from repro.store.docstore import DocumentStore

DATASETS = "datasets"  # document collection of the dataset metadata docs
RELATIONS = ("readings", "locations")


def content_fingerprint(
    readings: pd.DataFrame, locations: pd.DataFrame, attributes: list[str]
) -> str:
    """Hash of everything mining reads from a dataset: equal for equal
    contents, so the CAP cache can tell a changed re-upload from an
    identical one."""
    h = hashlib.sha256(json.dumps(attributes).encode())
    for frame in (readings, locations):
        h.update(pd.util.hash_pandas_object(frame, index=False).to_numpy().tobytes())
    return h.hexdigest()[:32]


class DatasetStore:
    """Named (readings, locations) pairs on the local filesystem.

    Readings/locations are parquet directories; attributes, upload
    metadata and the content fingerprint live in the ``datasets``
    collection of the document store.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.docs = DocumentStore(self.root / "docs")

    def save(
        self,
        name: str,
        readings: DataFrame,
        locations: DataFrame,
        attributes: list[str],
        meta: dict | None = None,
        fingerprint: str | None = None,
    ) -> None:
        frames = dict(zip(RELATIONS, (readings, locations)))
        for relation, frame in frames.items():
            frame.write.mode("overwrite").parquet(str(self.root / "data" / name / relation))
        self.docs.insert(
            DATASETS,
            {"name": name, "attributes": attributes, "meta": meta or {},
             "fingerprint": fingerprint,
             "schemas": {r: f.schema.jsonValue() for r, f in frames.items()}},
            doc_id=name,
        )

    def exists(self, name: str) -> bool:
        return self.docs.get(DATASETS, name) is not None

    def names(self) -> list[str]:
        return sorted(d["name"] for d in self.docs.find(DATASETS))

    def doc(self, name: str) -> dict:
        """The metadata doc of ``name``. Raises KeyError if absent."""
        doc = self.docs.get(DATASETS, name)
        if doc is None:
            raise KeyError(f"dataset {name!r} not uploaded")
        return doc

    def read(self, spark: SparkSession, name: str, relation: str) -> DataFrame:
        """One stored relation of ``name``: ``"readings"`` or
        ``"locations"``. Raises KeyError if absent."""
        return self._read(spark, self.doc(name), relation)

    def load(self, spark: SparkSession, name: str) -> tuple[DataFrame, DataFrame, dict]:
        """→ (readings, locations, metadata doc). Raises KeyError if absent."""
        doc = self.doc(name)
        return self._read(spark, doc, "readings"), self._read(spark, doc, "locations"), doc

    def _read(self, spark: SparkSession, doc: dict, relation: str) -> DataFrame:
        reader = spark.read
        # the schema recorded at save spares a Spark job that infers it
        # from the files; docs written before it was recorded lack it
        if relation in doc.get("schemas", {}):
            reader = reader.schema(StructType.fromJson(doc["schemas"][relation]))
        return reader.parquet(str(self.root / "data" / doc["name"] / relation))
