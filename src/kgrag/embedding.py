"""Text embeddings and exact top-k similarity search over graph content.

The default embedder is fully deterministic and offline: character 3-grams
of the lowercased text (with fastText-style ``<`` ``>`` boundary padding so
one and two character labels still produce grams), hashed by CRC-32 into a
fixed number of buckets, counts L2-normalized. ``embed`` hashes one text
gram by gram with ``zlib.crc32``. ``embed_batch`` hashes a whole batch at
once in numpy: the texts are encoded to UTF-8 together, and a table-driven
CRC-32 takes one byte position of every gram per round. One
``np.bincount`` over every text's ``row * dim + bucket`` fills the whole
matrix, and each row is divided by the square root of its integer sum of
squares, which is exact, so a row is the same to the bit however it was
batched. Scores are dot products, which equal cosine on unit vectors.
Search is an exact scan; no approximation anywhere, so results are
reproducible byte for byte. An index is saved as one file: a JSON header
line, then the matrix as compressed sparse rows in three arrays of raw
little-endian bytes (see :func:`save_index`).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence
from zlib import crc32

import numpy as np

from .graph import KIND_HYPERNODE, KnowledgeGraph, _open_for_write, normalize_label
from .llm import ProviderError, post_json

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256

KIND_NODE = "node"
KIND_HYPERNODE_ENTRY = "hypernode"
KIND_RELATIONSHIP = "relationship_label"
_ENTRY_KINDS = (KIND_NODE, KIND_HYPERNODE_ENTRY, KIND_RELATIONSHIP)

INDEX_FORMAT = "kgrag-index/3"


class IndexFormatError(ValueError):
    """An index's entries, or a persisted index file, are malformed.
    ``entry`` is the 1-based number of the offending entry, or ``None`` for
    a fault in the header or in an array as a whole."""

    def __init__(self, message: str, entry: int | None = None):
        self.entry = entry
        super().__init__(message if entry is None else f"entry {entry}: {message}")


class StaleIndexError(ValueError):
    """A search named a relationship label the index has no entry for, or
    embedded its query to another width than the index's: the index was
    built from another graph or embedder, or before the graph last changed."""


class Embedder(Protocol):
    def embed(self, text: str) -> np.ndarray: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


def _l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` over its L2 norm. A row holding NaN or an
    infinity, or whose norm overflows, has no finite norm and is refused,
    as is a zero row."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise ValueError("cannot normalize a vector whose norm is not finite")
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return matrix / norms


# The CRC-32 table of zlib's polynomial, read from zlib itself: ``crc32``
# complements its start value and its result, so from 0xFFFFFFFF it runs
# one byte ``b`` from a zero register, which leaves the entry for ``b``.
_CRC_TABLE = np.array([~crc32(bytes([b]), 0xFFFFFFFF) & 0xFFFFFFFF for b in range(256)],
                      dtype=np.uint32)


class HashingEmbedder:
    """Deterministic fallback embedder; see the module docstring."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        padded, dim = "<" + text.lower() + ">", self.dim
        counts = np.bincount([crc32(padded[i:i + 3].encode()) % dim
                              for i in range(len(padded) - 2)], minlength=dim)
        return counts / np.sqrt(counts @ counts)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if any(not text or text.isspace() for text in texts):
            raise ValueError("cannot embed empty text")
        padded = ["<" + text.lower() + ">" for text in texts]
        joined = "".join(padded)
        encoded = joined.encode()
        # Twelve bytes of padding, so that no round reads past the end.
        data = np.frombuffer(encoded + bytes(12), dtype=np.uint8)
        grams = np.fromiter(map(len, padded), dtype=np.intp, count=len(padded)) - 2
        rows = np.repeat(np.arange(len(padded)), grams)
        # The first code point of each gram: a text's grams start at all but
        # its last two code points.
        first = np.arange(len(rows)) + 2 * rows
        if len(encoded) == len(joined):
            start, size, rounds = first, None, 3
        else:
            # The byte offset of each code point (a byte that does not
            # continue one), then of the padding.
            offsets = np.flatnonzero((data & 0xC0) != 0x80)
            start = offsets[first]
            size = offsets[first + 3] - start
            rounds = int(size.max())
        # CRC-32 of every gram at once, one byte position per round; a
        # gram of non-ASCII text takes up to twelve, and keeps its value
        # past its own bytes.
        crc = np.full(len(rows), 0xFFFFFFFF, dtype=np.uint32)
        for at in range(rounds):
            step = _CRC_TABLE[(crc ^ data[start + at]) & 0xFF] ^ (crc >> 8)
            crc = step if at < 3 else np.where(at < size, step, crc)
        # Every text has a gram, so no row is zero. The integer sums of
        # squares are exact, so each row's norm is the one ``embed`` takes.
        dim = self.dim
        cells = rows * dim + (~crc).astype(np.int64) % dim
        counts = np.bincount(cells, minlength=len(texts) * dim).reshape(len(texts), dim)
        return counts / np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]


class HttpEmbeddingProvider:
    """POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...], ...]}``.
    Vectors are L2-normalized on receipt so scores stay comparable with the
    fallback embedder; a zero vector, or one whose values or norm are not
    finite, raises :class:`~kgrag.llm.ProviderError`. A transient failure
    is retried once, as by :class:`~kgrag.llm.HttpChatProvider`. ``dim`` is
    ``None`` until the first reply fixes it."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 timeout: float = 60.0, batch_size: int = 64,
                 sleep: Callable[[float], None] = time.sleep):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.batch_size = max(1, batch_size)
        self.sleep = sleep
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
        data = post_json(self.endpoint, {"texts": texts}, self.api_key, self.timeout,
                         1, self.sleep, "embedding endpoint")
        try:
            matrix = np.asarray(data["vectors"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"embedding endpoint sent unreadable vectors: {exc}") from None
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
    relationship entries. Its vector is its row of the index's ``matrix``.
    """

    ref_id: str
    kind: str
    text: str

    def __post_init__(self):
        if self.kind not in _ENTRY_KINDS:
            raise ValueError(f"bad entry kind {self.kind!r}")

    @cached_property
    def canonical(self) -> str:
        """Computed when first read; only ties between scores read it."""
        return normalize_label(self.text)


class EmbeddingIndex:
    """Exact-scan dot-product search over ``matrix``, one row per entry,
    held column-major (Fortran order) so that each vector component's
    values over all entries lie in one contiguous line. A Fortran-ordered
    matrix is used as given; another is copied once into that order. Each
    relationship label has at most one entry.

    The index answers the two searches of a traversal: a node search ranks
    the node and hypernode entries, and a label search ranks the entries of
    the given relationship labels. Ties break by canonical text ascending,
    then entry order. A row's score is the sum of the query's non-zero
    components times the row's, added left to right in ascending component
    order; a query with no non-zero component scores every row 0.0. So a
    row scores the same to the bit whichever rows are scored with it, and
    identical vectors tie. A search reads the line of each of the query's
    non-zero components once: all of it for a node search, only the given
    labels' values for a label search. Then a partition finds the k-th best
    score, and only the rows scoring at least that much (the top k and any
    ties with them) are sorted.
    """

    def __init__(self, entries: Sequence[IndexEntry], matrix: np.ndarray, embedder: Embedder):
        self.entries = list(entries)
        if matrix.ndim != 2 or len(matrix) != len(self.entries):
            raise ValueError(f"matrix of shape {matrix.shape} for {len(self.entries)} entries")
        self.matrix = np.asfortranarray(matrix)
        self.embedder = embedder
        node_rows: list[int] = []
        self._label_rows: dict[str, int] = {}
        for row, entry in enumerate(self.entries):
            if entry.kind != KIND_RELATIONSHIP:
                node_rows.append(row)
            elif self._label_rows.setdefault(entry.ref_id, row) != row:
                raise IndexFormatError(f"second entry for relationship label "
                                       f"{entry.ref_id!r}", row + 1)
        self._node_rows = np.array(node_rows, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.entries)

    def search(self, query_text: str, k: int,
               labels: Iterable[str] | None = None) -> list[tuple[IndexEntry, float]]:
        """Top k node and hypernode entries; with ``labels``, the top k of
        those relationship labels' entries instead. A label with no entry,
        or a query vector of another width than the matrix's, raises
        :class:`StaleIndexError`."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if labels is None:
            rows = self._node_rows
        else:
            try:
                rows = np.array(sorted({self._label_rows[label] for label in labels}),
                                dtype=np.intp)
            except KeyError as exc:
                raise StaleIndexError(f"no index entry for relationship label "
                                      f"{exc.args[0]!r}") from None
        if len(rows) == 0:
            return []
        query = self.embedder.embed(query_text)
        if query.shape != self.matrix.shape[1:]:
            raise StaleIndexError(f"query vector of shape {query.shape} does not fit "
                                  f"the index's dim {self.matrix.shape[1]}")
        components = np.flatnonzero(query)
        weights = query[components]
        # Both paths add each row's terms left to right in ascending
        # component order. A node search scores every row in place, one
        # pass per component's line. For a few labels' rows, only their
        # values of the query's components are gathered, and one accumulate
        # down the components adds the terms in that same order.
        if not len(components):
            scores = np.zeros(len(rows))
        elif labels is None:
            lines = self.matrix.T
            scores = lines[components[0]] * weights[0]
            for component, weight in zip(components[1:].tolist(), weights[1:].tolist()):
                scores += lines[component] * weight
            scores = scores[rows]
        else:
            block = self.matrix.ravel("F").take(components[:, None] * len(self.entries) + rows)
            scores = np.add.accumulate(block * weights[:, None], axis=0)[-1]
        cut = max(len(scores) - k, 0)
        picked = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        # ``sorted`` is stable and the rows ascend, so equal (score, canonical)
        # pairs keep entry order.
        ranked = sorted(zip(scores[picked].tolist(), rows[picked].tolist()),
                        key=lambda pair: (-pair[0], self.entries[pair[1]].canonical))
        return [(self.entries[row], score) for score, row in ranked[:k]]


def plan_index(graph: KnowledgeGraph) -> list[tuple[str, str, str]]:
    """The ``(ref_id, kind, text)`` of every entry :func:`index_graph` builds,
    in index order: each node, then each distinct non-structural
    relationship label (by canonical) under its least display text."""
    planned: list[tuple[str, str, str]] = []
    for node in sorted(graph.nodes, key=lambda n: n.canonical):
        kind = KIND_HYPERNODE_ENTRY if node.kind == KIND_HYPERNODE else KIND_NODE
        planned.append((node.id, kind, node.label))
    rel_display: dict[str, str] = {}
    for edge in graph.edges:
        if edge.structural:
            continue
        current = rel_display.get(edge.canonical)
        if current is None or edge.label < current:
            rel_display[edge.canonical] = edge.label
    for canonical in sorted(rel_display):
        planned.append((canonical, KIND_RELATIONSHIP, rel_display[canonical]))
    return planned


def index_graph(graph: KnowledgeGraph, embedder: Embedder) -> EmbeddingIndex:
    """Embed every entry of :func:`plan_index` into one matrix. On provider
    failure the raised error carries how many entries had been built already."""
    planned = plan_index(graph)
    matrix = np.zeros((0, 0))
    batch = 128
    for start in range(0, len(planned), batch):
        try:
            vectors = embedder.embed_batch([text for _, _, text in planned[start:start + batch]])
        except ProviderError as exc:
            exc.entries_built = start  # type: ignore[attr-defined]
            raise
        if not start:
            matrix = np.empty((len(planned), vectors.shape[1]), order="F")
        matrix[start:start + batch] = vectors
    return EmbeddingIndex([IndexEntry(*row) for row in planned], matrix, embedder)


def save_index(index: EmbeddingIndex, sink) -> None:
    """Write ``index`` in the ``kgrag-index/3`` layout, to a path or a
    binary stream. Line 1 is a compact UTF-8 JSON header with sorted keys,
    ``{"dim", "entries": [[ref_id, kind, text], ...], "format"}``, in entry
    order. The matrix follows as compressed sparse rows, three arrays of
    raw little-endian bytes one after another: row offsets (``<i8``, one
    more than the entries), then columns (``<i4``) and values (``<f8``),
    each as many as the last offset, written from the arrays' own buffers.
    A row keeps its non-zero components and any ``-0.0``, so the loaded
    matrix is bit-identical to this one. An empty index is an empty file."""
    matrix = index.matrix
    with _open_for_write(sink, binary=True) as f:
        if not len(index):
            return
        header = {"dim": matrix.shape[1], "format": INDEX_FORMAT,
                  "entries": [[e.ref_id, e.kind, e.text] for e in index.entries]}
        text = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        f.write(text.encode("utf-8") + b"\n")
        rows, columns = np.nonzero((matrix != 0.0) | np.signbit(matrix))
        offsets = np.searchsorted(rows, np.arange(len(index) + 1))
        for array, dtype in ((offsets, "<i8"), (columns, "<i4"), (matrix[rows, columns], "<f8")):
            f.write(array.astype(dtype, copy=False).data)


def _read_header(line: bytes, known_dim: int | None) -> tuple[int, list[IndexEntry]]:
    """The ``dim`` and the entries of an index's header line."""
    try:
        header = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise IndexFormatError("header is not UTF-8") from None
    except (ValueError, RecursionError) as exc:
        raise IndexFormatError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise IndexFormatError("header is not a JSON object")
    if "format" not in header:
        raise IndexFormatError("older index format (run index again)")
    if header["format"] != INDEX_FORMAT:
        raise IndexFormatError(f"unknown index format {header['format']!r} (run index again)")
    dim, rows = header.get("dim"), header.get("entries")
    if type(dim) is not int or dim < 1:
        raise IndexFormatError(f"dim {dim!r} is not a positive integer")
    if known_dim is not None and known_dim != dim:
        raise IndexFormatError(f"index dim {dim} does not match the embedder's dim "
                               f"{known_dim} (run index again)")
    if type(rows) is not list:
        raise IndexFormatError("entries is not a list")
    # All entries are checked at once; only a fault is looked for row by row.
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
            and set(map(type, chain.from_iterable(rows))) <= {str}
            and {row[1] for row in rows} <= set(_ENTRY_KINDS)):
        for number, row in enumerate(rows, 1):
            if (type(row) is not list or len(row) != 3
                    or any(type(item) is not str for item in row)):
                raise IndexFormatError("entry is not a list of three strings", number)
            if row[1] not in _ENTRY_KINDS:
                raise IndexFormatError(f"unknown kind {row[1]!r}", number)
    return dim, [IndexEntry(*row) for row in rows]


def load_index(source, embedder: Embedder) -> EmbeddingIndex:
    """Read an index written by :func:`save_index`, from a path or a binary
    stream, into one matrix.

    The header must be a UTF-8 JSON object of this format (any other
    ``format``, or none, is an older or unknown index: run ``kgrag index``
    again); ``dim`` a positive integer equal to the embedder's ``dim`` when
    that is known; each entry a list of three strings of a known kind. The
    format fixes each array's dtype, and the entries the offsets' length,
    one more than their count; the offsets must start at 0 and never fall,
    and the last gives the length of the columns and of the values. The
    file must end where the values do. Then each row's columns must lie in ``[0, dim)``
    and rise strictly, and its values be finite and unit-norm. A fault
    raises :class:`IndexFormatError`, naming the first entry failing the
    check when it lies in one entry. An empty file is an empty index.
    """
    data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    if not data:
        return EmbeddingIndex([], np.zeros((0, 0)), embedder)
    at = data.find(b"\n") + 1 or len(data)
    dim, entries = _read_header(data[:at], getattr(embedder, "dim", None))
    n = len(entries)
    columns_at = at + 8 * (n + 1)
    if columns_at > len(data):
        raise IndexFormatError("offsets array is truncated")
    offsets = np.frombuffer(data, "<i8", count=n + 1, offset=at)
    if offsets[0] != 0:
        raise IndexFormatError("offsets do not start at 0")
    # Compared, not subtracted, so that no difference can overflow.
    if np.any(offsets[1:] < offsets[:-1]):
        raise IndexFormatError("offsets do not rise")
    size = int(offsets[-1])
    values_at = columns_at + 4 * size
    end = values_at + 8 * size
    if end > len(data):
        name = "columns" if values_at > len(data) else "values"
        raise IndexFormatError(f"{name} array is truncated")
    if end < len(data):
        raise IndexFormatError(f"{len(data) - end} trailing byte(s) after the arrays")
    columns = np.frombuffer(data, "<i4", count=size, offset=columns_at)
    values = np.frombuffer(data, "<f8", count=size, offset=values_at)

    def refuse(bad_rows: np.ndarray, message: str) -> None:
        if bad_rows.size:
            raise IndexFormatError(message, int(bad_rows[0]) + 1)

    row_of = np.repeat(np.arange(n), np.diff(offsets))
    refuse(row_of[(columns < 0) | (columns >= dim)], f"column outside [0, {dim})")
    # Positions where a row's column does not rise from the one before it.
    no_rise = np.flatnonzero((row_of[1:] == row_of[:-1]) & (columns[1:] <= columns[:-1]))
    refuse(row_of[no_rise + 1], "columns do not rise strictly")
    refuse(row_of[~np.isfinite(values)], "vector is not finite")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    refuse(np.flatnonzero(np.abs(norms - 1.0) > 1e-6), "vector is not unit-norm")
    try:
        matrix = np.zeros((n, dim), order="F")
    except (MemoryError, ValueError):
        # Only an embedder of unknown width lets ``dim`` come this far.
        raise IndexFormatError(f"dim {dim} is too large for {n} entries") from None
    matrix[row_of, columns] = values
    return EmbeddingIndex(entries, matrix, embedder)
