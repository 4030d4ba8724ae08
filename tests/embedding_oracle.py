"""The per-text hashing loop that ``kgrag.embedding.HashingEmbedder`` once
used, kept as a test oracle: it adds 1.0 into a float vector once per
character 3-gram, then divides by ``np.linalg.norm``; a batch stacks the
rows. ``HashingEmbedder.embed_batch`` hashes a whole batch at once in numpy
and counts it with one ``np.bincount`` instead, ``embed`` keeps a loop of
its own, and both must agree with this one byte for byte.

``index_matrix`` and ``index_entries`` are the tests' one way to an
index's rows and entries: a dense ``n × dim`` matrix put back together from
``EmbeddingIndex.stored``, and the entry of every row. ``index_from_matrix``
is the way back: an index whose vectors are a dense matrix's rows.
``older_index_file`` writes an index in a layout that ``load_index`` no
longer reads."""

from __future__ import annotations

import io
import json
import zlib
from typing import Sequence

import numpy as np

from kgrag import EmbeddingIndex, save_index


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


def index_from_matrix(ref_ids: list[str], texts: list[str], nodes: int, matrix: np.ndarray,
                      embedder) -> EmbeddingIndex:
    """An index of the entries ``ref_ids`` and ``texts``, the first
    ``nodes`` of them nodes, whose vectors are the rows of ``matrix``; only
    their stored components, the non-zero ones and any ``-0.0``, are kept."""
    if matrix.ndim != 2 or len(matrix) != len(ref_ids):
        raise ValueError(f"matrix of shape {matrix.shape} for {len(ref_ids)} entries")
    rows, columns = np.nonzero((matrix != 0.0) | np.signbit(matrix))
    return EmbeddingIndex(ref_ids, texts, nodes, matrix.shape[1], rows, columns,
                          matrix[rows, columns], embedder)


def older_index_file(index, format: str) -> bytes:
    """``index`` in an older layout: ``kgrag-index/2``, ``/3`` or ``/4``.
    Each kept a kind per entry; the nodes are written as ``node`` (``n``),
    as a node's kind cannot be told from the index, and the rest as
    ``relationship_label`` (``r``).

    ``/4`` is the ``/5`` file with a ``kinds`` string, one character an
    entry, in place of ``nodes``. ``/2`` and ``/3`` have a compact JSON
    header line of ``dim``, ``entries`` (``[ref_id, kind, text]`` each)
    and ``format``, then the row offsets (``<i8``), columns (``<i4``) and
    values (``<f8``): raw bytes at ``/3``, and each array a ``.npy`` block
    at ``/2``."""
    out = io.BytesIO()
    labels = len(index) - index.nodes
    if format == "kgrag-index/4":
        save_index(index, out)
        line, arrays = out.getvalue().split(b"\n", 1)
        header = json.loads(line)
        header.pop("nodes")
        header.update(format=format, kinds="n" * index.nodes + "r" * labels)
        return json.dumps(header, ensure_ascii=False, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") + b"\n" + arrays
    rows, columns, values = index.stored()
    kinds = ["node"] * index.nodes + ["relationship_label"] * labels
    header = {"dim": index.dim, "format": format,
              "entries": [list(entry) for entry in zip(index.ref_ids, kinds, index.texts)]}
    out.write(json.dumps(header, ensure_ascii=False, sort_keys=True,
                         separators=(",", ":")).encode("utf-8") + b"\n")
    for array, dtype in ((np.searchsorted(rows, np.arange(len(index) + 1)), "<i8"),
                         (columns, "<i4"), (values, "<f8")):
        if format == "kgrag-index/2":
            np.lib.format.write_array(out, array.astype(dtype), allow_pickle=False)
        else:
            out.write(array.astype(dtype).tobytes())
    return out.getvalue()
