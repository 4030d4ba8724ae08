"""The per-text hashing loop that ``kgrag.embedding.HashingEmbedder`` once
used, kept as a test oracle: it adds 1.0 into a float vector once per
character 3-gram, then divides by ``np.linalg.norm``; a batch stacks the
rows. ``HashingEmbedder.embed_batch`` hashes a whole batch at once in numpy
and counts it with one ``np.bincount`` instead, ``embed`` keeps a loop of
its own, and both must agree with this one byte for byte.

``index_matrix`` and ``index_entries`` are the tests' one way to an
index's rows and entries: a dense ``n × dim`` matrix put back together from
``EmbeddingIndex.stored``, and the entry of every row. ``older_index_file``
writes an index in a layout that ``load_index`` no longer reads."""

from __future__ import annotations

import io
import json
import zlib
from typing import Sequence

import numpy as np


def oracle_embed(text: str, dim: int) -> np.ndarray:
    if not text or not text.strip():
        raise ValueError("cannot embed empty text")
    padded = "<" + text.lower() + ">"
    vector = np.zeros(dim, dtype=np.float64)
    for i in range(len(padded) - 2):
        gram = padded[i:i + 3]
        vector[zlib.crc32(gram.encode("utf-8")) % dim] += 1.0
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return vector / norm


def oracle_embed_batch(texts: Sequence[str], dim: int) -> np.ndarray:
    if not texts:
        return np.zeros((0, dim), dtype=np.float64)
    return np.stack([oracle_embed(text, dim) for text in texts])


def index_matrix(index) -> np.ndarray:
    """The vectors of ``index``, row ``i`` the vector of entry ``i``; a
    component the index does not store reads +0.0."""
    rows, columns, values = index.stored()
    matrix = np.zeros((len(index), index.dim))
    matrix[rows, columns] = values
    return matrix


def index_entries(index) -> list:
    return [index.entry(row) for row in range(len(index))]


def older_index_file(index, format: str) -> bytes:
    """``index`` in an older layout: ``kgrag-index/2`` or ``/3``. Both have
    a compact JSON header line of ``dim``, ``entries`` (``[ref_id, kind,
    text]`` each) and ``format``, then the row offsets (``<i8``), columns
    (``<i4``) and values (``<f8``): raw bytes at ``/3``, and each array a
    ``.npy`` block at ``/2``."""
    rows, columns, values = index.stored()
    header = {"dim": index.dim, "format": format,
              "entries": [list(entry) for entry in zip(index.ref_ids, index.kinds, index.texts)]}
    out = io.BytesIO()
    out.write(json.dumps(header, ensure_ascii=False, sort_keys=True,
                         separators=(",", ":")).encode("utf-8") + b"\n")
    for array, dtype in ((np.searchsorted(rows, np.arange(len(index) + 1)), "<i8"),
                         (columns, "<i4"), (values, "<f8")):
        if format == "kgrag-index/2":
            np.lib.format.write_array(out, array.astype(dtype), allow_pickle=False)
        else:
            out.write(array.astype(dtype).tobytes())
    return out.getvalue()
