"""Text embeddings and exact top-k similarity search over graph content.

The default embedder is fully deterministic and offline: character 3-grams
of the lowercased text (with fastText-style ``<`` ``>`` boundary padding so
one and two character labels still produce grams), hashed by CRC-32 into a
fixed number of buckets, counts L2-normalized. Scores are dot products,
which equal cosine on unit vectors. Search is an exact scan; no
approximation anywhere, so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np
import requests

from .graph import KIND_HYPERNODE, KnowledgeGraph, _maybe_open, normalize_label
from .llm import ProviderError

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256

KIND_NODE = "node"
KIND_HYPERNODE_ENTRY = "hypernode"
KIND_RELATIONSHIP = "relationship_label"
_ENTRY_KINDS = (KIND_NODE, KIND_HYPERNODE_ENTRY, KIND_RELATIONSHIP)

NODE_KINDS = (KIND_NODE, KIND_HYPERNODE_ENTRY)


class IndexFormatError(Exception):
    """A persisted index file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class Embedder(Protocol):
    def embed(self, text: str) -> np.ndarray: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


def _l2_normalize(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return matrix / norms


class HashingEmbedder:
    """Deterministic fallback embedder; see the module docstring."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        padded = "<" + text.lower() + ">"
        vector = np.zeros(self.dim, dtype=np.float64)
        for i in range(len(padded) - 2):
            gram = padded[i:i + 3]
            vector[zlib.crc32(gram.encode("utf-8")) % self.dim] += 1.0
        return _l2_normalize(vector)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.embed(t) for t in texts])


class HttpEmbeddingProvider:
    """POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...], ...]}``.
    Vectors are L2-normalized on receipt so scores stay comparable with the
    fallback embedder."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 timeout: float = 60.0, batch_size: int = 64):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.batch_size = max(1, batch_size)
        self.dim: int | None = None

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim or 0), dtype=np.float64)
        rows: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            rows.append(self._post(list(texts[start:start + self.batch_size])))
        return np.concatenate(rows, axis=0)

    def embed(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        return self.embed_batch([text])[0]

    def _post(self, texts: list[str]) -> np.ndarray:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(self.endpoint, json={"texts": texts},
                                     headers=headers, timeout=self.timeout)
            response.raise_for_status()
            vectors = response.json()["vectors"]
        except (requests.RequestException, ValueError, KeyError) as exc:
            raise ProviderError(f"embedding endpoint failed: {exc}") from exc
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(texts):
            raise ProviderError("embedding endpoint returned a wrong-shaped matrix")
        try:
            matrix = _l2_normalize(matrix)
        except ValueError as exc:
            raise ProviderError(str(exc)) from None
        if self.dim is None:
            self.dim = int(matrix.shape[1])
        elif matrix.shape[1] != self.dim:
            raise ProviderError("embedding dimension changed between calls")
        return matrix


@dataclass(frozen=True, eq=False)
class IndexEntry:
    """One embedded item: a node, a hypernode, or a relationship label.

    ``ref_id`` is the node id for node entries and the canonical label for
    relationship entries.
    """

    ref_id: str
    kind: str
    text: str
    vector: np.ndarray
    canonical: str = field(init=False)

    def __post_init__(self):
        if self.kind not in _ENTRY_KINDS:
            raise ValueError(f"bad entry kind {self.kind!r}")
        object.__setattr__(self, "canonical", normalize_label(self.text))


class EmbeddingIndex:
    """Exact-scan dot-product search. Ties break by canonical text ascending,
    then by entry order.

    Each search is one matrix-vector product over every entry, a partition
    that finds the k-th best score among the wanted rows, and a sort of only
    the rows scoring at least that much (the top k and any ties with them).
    """

    def __init__(self, entries: Sequence[IndexEntry], embedder: Embedder):
        self.entries = list(entries)
        self.embedder = embedder
        if self.entries:
            self._matrix = np.stack([e.vector for e in self.entries])
        else:
            self._matrix = np.zeros((0, getattr(embedder, "dim", None) or 0))
        self._entry_kinds = np.array([e.kind for e in self.entries], dtype=str)
        # Ascending row numbers for each requested set of kinds.
        self._rows_by_kinds: dict[frozenset[str], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def _rows(self, kinds: Iterable[str]) -> np.ndarray:
        key = frozenset(kinds).intersection(_ENTRY_KINDS)
        rows = self._rows_by_kinds.get(key)
        if rows is None:
            rows = np.flatnonzero(np.isin(self._entry_kinds, list(key)))
            self._rows_by_kinds[key] = rows
        return rows

    def search(self, query_text: str, k: int,
               kinds: Iterable[str] | None = None) -> list[tuple[IndexEntry, float]]:
        if k < 1:
            raise ValueError("k must be at least 1")
        rows = self._rows(_ENTRY_KINDS if kinds is None else kinds)
        if len(rows) == 0:
            return []
        scores = (self._matrix @ self.embedder.embed(query_text))[rows]
        cut = max(len(scores) - k, 0)
        picked = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        # ``sorted`` is stable and the rows ascend, so equal (score, canonical)
        # pairs keep entry order.
        ranked = sorted(zip(scores[picked].tolist(), rows[picked].tolist()),
                        key=lambda pair: (-pair[0], self.entries[pair[1]].canonical))
        return [(self.entries[row], score) for score, row in ranked[:k]]


def rank_labels(embedder: Embedder, labels: Sequence[str],
                step_text: str) -> list[tuple[str, float]]:
    """Rank candidate relationship labels by similarity to a step description.

    Embeds ad hoc (the persistent index is not consulted); same tie-break
    as :meth:`EmbeddingIndex.search`.
    """
    if not labels:
        return []
    query = embedder.embed(step_text)
    matrix = embedder.embed_batch(list(labels))
    scores = matrix @ query
    order = sorted(range(len(labels)),
                   key=lambda i: (-scores[i], normalize_label(labels[i])))
    return [(labels[i], float(scores[i])) for i in order]


def index_graph(graph: KnowledgeGraph, embedder: Embedder) -> EmbeddingIndex:
    """Embed every node label and every distinct non-structural relationship
    label. On provider failure the raised error carries how many entries had
    been built already."""
    nodes = sorted(graph.nodes, key=lambda n: n.canonical)
    rel_display: dict[str, str] = {}
    for edge in graph.edges:
        if edge.structural:
            continue
        canonical = normalize_label(edge.label)
        current = rel_display.get(canonical)
        if current is None or edge.label < current:
            rel_display[canonical] = edge.label
    planned: list[tuple[str, str, str]] = []
    for node in nodes:
        kind = KIND_HYPERNODE_ENTRY if node.kind == KIND_HYPERNODE else KIND_NODE
        planned.append((node.id, kind, node.label))
    for canonical in sorted(rel_display):
        planned.append((canonical, KIND_RELATIONSHIP, rel_display[canonical]))

    entries: list[IndexEntry] = []
    batch = 128
    for start in range(0, len(planned), batch):
        part = planned[start:start + batch]
        try:
            vectors = embedder.embed_batch([text for _, _, text in part])
        except ProviderError as exc:
            exc.entries_built = len(entries)  # type: ignore[attr-defined]
            raise
        for (ref_id, kind, text), vector in zip(part, vectors):
            entries.append(IndexEntry(ref_id, kind, text, vector))
    return EmbeddingIndex(entries, embedder)


def save_index(index: EmbeddingIndex, sink) -> None:
    with _maybe_open(sink, "w") as f:
        for entry in index.entries:
            f.write(json.dumps(
                {"ref_id": entry.ref_id, "kind": entry.kind, "text": entry.text,
                 "vector": entry.vector.tolist()},
                ensure_ascii=False, sort_keys=True) + "\n")


def load_index(source, embedder: Embedder) -> EmbeddingIndex:
    entries: list[IndexEntry] = []
    with _maybe_open(source, "r") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IndexFormatError(f"invalid JSON: {exc}", lineno) from None
            try:
                vector = np.asarray(record["vector"], dtype=np.float64)
                entry = IndexEntry(record["ref_id"], record["kind"],
                                   record["text"], vector)
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexFormatError(str(exc), lineno) from None
            if vector.ndim != 1 or not np.all(np.isfinite(vector)):
                raise IndexFormatError("vector is not a finite 1-d array", lineno)
            if abs(float(np.linalg.norm(vector)) - 1.0) > 1e-6:
                raise IndexFormatError("vector is not unit-norm", lineno)
            entries.append(entry)
    return EmbeddingIndex(entries, embedder)
