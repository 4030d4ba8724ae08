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

The index's entries are the graph's nodes (entities and hypernodes alike)
and then its relationship labels, so one count, ``nodes``, tells the two
apart. It is two inverted files, one of the nodes' vectors and one of the
labels': each vector component keeps the rows that store it.
Search is exact, with no approximation anywhere, so results are
reproducible byte for byte. An index is saved as one file: a JSON header
line, then its rows as compressed sparse rows in arrays of raw
little-endian unsigned integers, each as narrow as its bound allows, with
the values either raw or as codes into a table of the distinct values
(see :func:`save_index`).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence
from zlib import crc32

import numpy as np

from .graph import RESERVED_EDGE_LABELS, KnowledgeGraph, _open_for_write, normalize_label
from .llm import ProviderError, post_json

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256

INDEX_FORMAT = "kgrag-index/5"


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
    """Also read, when present: ``dim``, the width of its vectors, and
    ``identity``, a string that names the embedder in a saved index."""

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

    @property
    def identity(self) -> str:
        """Its name and ``dim``."""
        return f"hashing/{self.dim}"

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

    @property
    def identity(self) -> str:
        """Its endpoint; never the API key."""
        return self.endpoint

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


@dataclass(frozen=True)
class IndexEntry:
    """One search result: a node (an entity or a hypernode) or a
    relationship label. Equal, and hashed, by its two fields.

    ``ref_id`` is the node id for node entries and the canonical label for
    relationship entries.
    """

    ref_id: str
    text: str

    @cached_property
    def canonical(self) -> str:
        """Computed when first read."""
        return normalize_label(self.text)


def _stored(values: np.ndarray) -> np.ndarray:
    """Where ``values`` holds a component an index stores: a non-zero one
    or a ``-0.0``."""
    return (values != 0.0) | np.signbit(values)


def _nonzeros(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row, column and value of each stored component of ``matrix``, by
    row and then column."""
    flat = matrix.ravel()
    cells = np.flatnonzero(_stored(flat))
    return *np.divmod(cells, matrix.shape[1]), flat[cells]


def _narrow(ids: np.ndarray, bound: int) -> np.ndarray:
    """``ids``, all below ``bound``, as the narrowest unsigned integers, so
    that a stable argsort of them is a radix sort."""
    return ids.astype(np.min_scalar_type(max(bound - 1, 0)))


class _InvertedFile:
    """Vectors held by component. ``positions`` and ``values`` hold each
    stored component's vector position and value, by component and then
    rising position, and ``components`` its component; ``columns`` maps
    each component some vector stores to views of its positions and values.
    Only ``sizes``, each component's count, has ``dim`` items, so that a
    file's absurd ``dim`` fails to allocate and a large one costs no work."""

    def __init__(self, count: int, dim: int, positions: np.ndarray, columns: np.ndarray,
                 values: np.ndarray):
        self.count = count
        self.sizes = np.bincount(columns, minlength=dim)
        components = _narrow(columns, dim)
        # Stable, so that each column's positions keep rising.
        order = np.argsort(components, kind="stable")
        self.positions, self.components, self.values = (
            positions[order], components[order], values[order])
        cuts = np.flatnonzero(self.components[1:] != self.components[:-1]) + 1
        present = self.components[np.concatenate(([0], cuts))[:len(order)]]
        self.columns = dict(zip(present.tolist(),
                                zip(np.split(self.positions, cuts), np.split(self.values, cuts))))

    def scores(self, components: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Each vector's sum of ``weights`` times its values of those
        ``components``, added in their order into +0.0: one ``np.bincount``
        over the concatenated columns, which adds in input order."""
        columns = [self.columns[c] for c in components.tolist() if c in self.columns]
        if not columns:
            return np.zeros(self.count)
        return np.bincount(np.concatenate([positions for positions, _ in columns]),
                           np.concatenate([values for _, values in columns])
                           * np.repeat(weights, self.sizes[components]),
                           minlength=self.count)


class EmbeddingIndex:
    """Exact dot-product search over one vector per entry, held as inverted
    files (Zobel & Moffat, "Inverted files for text search engines", ACM
    Computing Surveys 38(2), 2006).

    The entries are two lists in entry order, ``ref_ids`` and ``texts``:
    the first ``nodes`` of them are nodes, entities and hypernodes alike,
    and the rest relationship labels. An :class:`IndexEntry` is built only
    when a search first returns it. A vector keeps its stored components:
    the non-zero ones and any ``-0.0``. The node vectors are one inverted
    file, and the relationship labels' vectors another: for each component,
    the rising node (or label) positions that store it, and their values.
    Each relationship label has at most one entry.

    The index answers the two searches of a traversal: a node search ranks
    the node entries, and a label search ranks the entries of the given
    relationship labels. Ties break by canonical text ascending, then entry
    order. A row's score is the sum of the query's non-zero components
    times the row's, added left to right in ascending component order. A
    zero sum is +0.0, and a query with no non-zero component scores every
    row +0.0. So a row scores the same to the bit whichever rows are scored
    with it, and identical vectors tie.

    Both searches score every vector of their inverted file with one
    ``np.bincount`` over the columns of the query's non-zero components,
    which adds each row's terms in ascending component order into +0.0. A
    component a row does not store is skipped: its term is a zero, which
    changes no sum but the sign of a zero one. A label search then keeps the
    given labels' scores. A partition finds the k-th best score, and only
    the rows scoring at least that much (the top k and any ties with them)
    are sorted.
    """

    def __init__(self, ref_ids: list[str], texts: list[str], nodes: int, dim: int,
                 rows: np.ndarray, columns: np.ndarray, values: np.ndarray,
                 embedder: Embedder):
        """An index of the entries ``ref_ids`` and ``texts``, the first
        ``nodes`` of them nodes, whose stored components are ``(rows,
        columns, values)``, by row and then column. The node rows come
        first, so the node file is a prefix of the arrays and the label file
        the rest."""
        self.ref_ids, self.texts, self.nodes = ref_ids, texts, nodes
        self.dim = dim
        self.embedder = embedder
        self._entries: dict[int, IndexEntry] = {}
        cut = int(np.searchsorted(rows, nodes))
        try:
            self._nodes = _InvertedFile(nodes, dim, rows[:cut], columns[:cut], values[:cut])
            self._labels = _InvertedFile(len(ref_ids) - nodes, dim, rows[cut:] - nodes,
                                         columns[cut:], values[cut:])
        except (MemoryError, ValueError):
            # Only an embedder of unknown width lets a file's ``dim`` come this far.
            raise IndexFormatError(f"dim {dim} is too large for {len(ref_ids)} entries") from None
        self._label_at: dict[str, int] = {}
        for at, label in enumerate(ref_ids[nodes:]):
            if self._label_at.setdefault(label, at) != at:
                raise IndexFormatError(f"second entry for relationship label {label!r}",
                                       nodes + at + 1)

    def __len__(self) -> int:
        return len(self.ref_ids)

    def entry(self, row: int) -> IndexEntry:
        """The entry of ``row``, built when a search first returns it."""
        entry = self._entries.get(row)
        if entry is None:
            entry = self._entries[row] = IndexEntry(self.ref_ids[row], self.texts[row])
        return entry

    def stored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored component as ``(rows, columns, values)``, by row and
        then column: both inverted files, the labels' positions offset by
        ``nodes``, put back in row order by one stable sort."""
        nodes, labels = self._nodes, self._labels
        rows = np.concatenate((nodes.positions, labels.positions + self.nodes))
        order = np.argsort(_narrow(rows, len(self)), kind="stable")
        return (rows[order], np.concatenate((nodes.components, labels.components))[order],
                np.concatenate((nodes.values, labels.values))[order])

    def search(self, query_text: str, k: int,
               labels: Iterable[str] | None = None) -> list[tuple[IndexEntry, float]]:
        """Top k node entries; with ``labels``, the top k of those
        relationship labels' entries instead. A label with no entry, or a
        query vector of another width than the index's, raises
        :class:`StaleIndexError`."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if labels is None:
            inverted, at, count = self._nodes, slice(None), self.nodes
        else:
            wanted = np.zeros(self._labels.count, dtype=bool)
            try:
                wanted[np.fromiter(map(self._label_at.__getitem__, labels), np.intp)] = True
            except KeyError as exc:
                raise StaleIndexError(f"no index entry for relationship label "
                                      f"{exc.args[0]!r}") from None
            at = np.flatnonzero(wanted)
            inverted, count = self._labels, len(at)
        if count == 0:
            return []
        query = self.embedder.embed(query_text)
        if query.shape != (self.dim,):
            raise StaleIndexError(f"query vector of shape {query.shape} does not fit "
                                  f"the index's dim {self.dim}")
        components = np.flatnonzero(query)
        scores = inverted.scores(components, query[components])[at]
        cut = max(len(scores) - k, 0)
        picked = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        rows = picked if labels is None else at[picked] + self.nodes
        found = [(score, self.entry(row))
                 for score, row in zip(scores[picked].tolist(), rows.tolist())]
        # The sort is stable and the rows ascend, so equal (score, canonical)
        # pairs keep entry order.
        found.sort(key=lambda pair: (-pair[0], pair[1].canonical))
        return [(entry, score) for score, entry in found[:k]]


def plan_index(graph: KnowledgeGraph) -> tuple[list[str], list[str], int]:
    """The ``ref_ids`` and ``texts`` of the entries :func:`index_graph`
    builds, in index order, and how many of them are nodes: each node by
    canonical, then each distinct non-structural relationship label (by
    canonical) under its least display text. Takes each group's canonical
    label from its key and reads only the display text of each edge."""
    nodes = sorted(graph.nodes, key=lambda n: n.canonical)
    least: dict[str, str] = {}
    for canonical, group in graph.groups:
        for edge in group:
            current = least.get(canonical)
            if current is None or edge.label < current:
                least[canonical] = edge.label
    for canonical in RESERVED_EDGE_LABELS:
        least.pop(canonical, None)
    labels = sorted(least)
    return ([node.id for node in nodes] + labels,
            [node.label for node in nodes] + [least[canonical] for canonical in labels],
            len(nodes))


def index_graph(graph: KnowledgeGraph, embedder: Embedder) -> EmbeddingIndex:
    """Embed every entry of :func:`plan_index` in batches, keeping each
    batch's stored components. On provider failure the raised error carries
    how many entries had been built already."""
    ref_ids, texts, nodes = plan_index(graph)
    dim, batch = 0, 128
    rows, columns, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for start in range(0, len(texts), batch):
        try:
            vectors = embedder.embed_batch(texts[start:start + batch])
        except ProviderError as exc:
            exc.entries_built = start  # type: ignore[attr-defined]
            raise
        dim = vectors.shape[1]
        at_rows, at_columns, at_values = _nonzeros(vectors)
        rows.append(at_rows + start)
        columns.append(at_columns)
        values.append(at_values)
    # Rebinding the names frees the batches' pieces before the layout.
    rows, columns, values = map(np.concatenate, (rows, columns, values))
    return EmbeddingIndex(ref_ids, texts, nodes, dim, rows, columns, values, embedder)


def _unsigned(bound: int) -> np.dtype:
    """The narrowest little-endian unsigned integer of 1, 2, 4 or 8 bytes
    that holds ``bound``; 8 bytes for any larger bound."""
    return np.dtype(f"<u{next((n for n in (1, 2, 4) if bound < 1 << 8 * n), 8)}")


def save_index(index: EmbeddingIndex, sink) -> None:
    """Write ``index`` in the ``kgrag-index/5`` layout, to a path or a
    binary stream. An empty index is an empty file.

    Line 1 is a compact UTF-8 JSON header with sorted keys: ``dim``;
    ``embedder``, the embedder's ``identity``, or null when it has none;
    ``format``; the entries in entry order as two lists of strings, ``ids``
    and ``texts``; ``nodes``, how many of the entries, the first ones, are
    nodes, the rest being relationship labels; ``size``, the number of
    stored components; and ``table``, the number of distinct values, or
    null for raw values.

    The rows follow as compressed sparse rows, arrays of raw little-endian
    bytes one after another, each of the narrowest unsigned width that its
    largest possible value needs: each row's size (at most ``dim`` and
    ``size``), then its columns (below ``dim``), by row. Then either the
    values' distinct 64-bit patterns, ascending (``<u8``, ``table`` of
    them), and one code per component (below ``table``), or the values
    themselves (``<f8``): whichever is smaller. Hashing vectors hold few
    distinct values, so they take the table; dense vectors from an HTTP
    embedder take the raw values.

    The rows are put back together from the index's inverted files
    (:meth:`EmbeddingIndex.stored`). A row keeps its non-zero components
    and any ``-0.0``, so the loaded index holds the same bits as this one."""
    with _open_for_write(sink, binary=True) as f:
        if not len(index):
            return
        rows, columns, values = index.stored()
        size, dim = len(values), index.dim
        # By bit pattern, so that -0.0 and +0.0 stay apart.
        bits = values.astype("<f8", copy=False).view("<u8")
        ordered = np.sort(bits)
        distinct = np.ones(size, dtype=bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        table = ordered[distinct]
        code = _unsigned(len(table) - 1)
        if 8 * len(table) + code.itemsize * size < 8 * size:
            coded = [(table, "<u8"), (np.searchsorted(table, bits), code)]
        else:
            table, coded = None, [(bits, "<u8")]
        header = {"dim": dim, "embedder": getattr(index.embedder, "identity", None),
                  "format": INDEX_FORMAT, "ids": index.ref_ids, "nodes": index.nodes,
                  "size": size, "table": None if table is None else len(table),
                  "texts": index.texts}
        text = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        f.write(text.encode("utf-8") + b"\n")
        for array, dtype in [(np.bincount(rows, minlength=len(index)), _unsigned(min(dim, size))),
                             (columns, _unsigned(dim - 1)), *coded]:
            f.write(array.astype(dtype, copy=False).data)


def _count(header: dict, name: str) -> int:
    """The header's field ``name``, which must be a non-negative integer."""
    count = header.get(name)
    if type(count) is not int or count < 0:
        raise IndexFormatError(f"{name} {count!r} is not a count")
    return count


def _read_header(line: bytes, embedder: Embedder
                 ) -> tuple[int, int, int | None, tuple[list[str], list[str], int]]:
    """The ``dim``, ``size`` and ``table`` of an index's header line, and
    the ``ref_ids`` and ``texts`` of its entries with their count of
    ``nodes``."""
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
    dim = header.get("dim")
    if type(dim) is not int or dim < 1:
        raise IndexFormatError(f"dim {dim!r} is not a positive integer")
    if dim >= 1 << 63:
        raise IndexFormatError(f"dim {dim} is too large")
    known_dim = getattr(embedder, "dim", None)
    if known_dim is not None and known_dim != dim:
        raise IndexFormatError(f"index dim {dim} does not match the embedder's dim "
                               f"{known_dim} (run index again)")
    name, known_name = header.get("embedder"), getattr(embedder, "identity", None)
    if name is not None and type(name) is not str:
        raise IndexFormatError(f"embedder {name!r} is not a string")
    if name is not None and known_name is not None and name != known_name:
        raise IndexFormatError(f"index embedder {name!r} does not match the embedder "
                               f"{known_name!r} (run index again)")
    size = _count(header, "size")
    # A null table stands for raw values.
    table = None if "table" in header and header["table"] is None else _count(header, "table")
    ids, texts = header.get("ids"), header.get("texts")
    for column in ("ids", "texts"):
        if type(header.get(column)) is not list:
            raise IndexFormatError(f"{column} is not a list")
    if len(ids) != len(texts):
        raise IndexFormatError(f"{len(ids)} ids and {len(texts)} texts")
    nodes = _count(header, "nodes")
    if nodes > len(ids):
        raise IndexFormatError(f"nodes {nodes} is more than the {len(ids)} entries")
    # All entries are checked at once; only a fault is looked for entry by entry.
    if not (set(map(type, ids)) <= {str} and set(map(type, texts)) <= {str}):
        for number, (ref_id, text) in enumerate(zip(ids, texts), 1):
            if type(ref_id) is not str or type(text) is not str:
                raise IndexFormatError("id or text is not a string", number)
    return dim, size, table, (ids, texts, nodes)


def load_index(source, embedder: Embedder) -> EmbeddingIndex:
    """Read an index written by :func:`save_index`, from a path or a binary
    stream, into inverted files.

    The header must be a UTF-8 JSON object of this format (any other
    ``format``, or none, is an older or unknown index: run ``kgrag index``
    again). ``dim`` must be a positive integer equal to the embedder's
    ``dim`` when that is known, and ``embedder`` equal to the embedder's
    ``identity`` when both are known. ``size`` and ``table`` must be
    counts, ``ids`` and ``texts`` lists of strings of one length, and
    ``nodes`` a count no larger than that length.

    The header fixes each array's width and length, and the file must end
    where the last array does. The row sizes must add up to ``size``. Each
    row's columns must lie in ``[0, dim)`` and rise strictly. A value table
    must rise strictly, and each code lie below its length. The values
    must be finite and each row unit-norm. A fault raises
    :class:`IndexFormatError`, naming the first entry failing the check
    when it lies in one entry. An empty file is an empty index.
    """
    data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    if not data:
        empty = np.zeros(0, np.intp)
        return EmbeddingIndex([], [], 0, 0, empty, empty, np.zeros(0), embedder)
    at = data.find(b"\n") + 1 or len(data)
    dim, size, table, entries = _read_header(data[:at], embedder)
    n = len(entries[0])
    # The values array holds the values, raw or as codes into the table.
    layout = [("sizes array", _unsigned(min(dim, size)), n),
              ("columns array", _unsigned(dim - 1), size)]
    if table is None:
        layout.append(("values array", np.dtype("<f8"), size))
    else:
        layout += [("value table", np.dtype("<u8"), table),
                   ("values array", _unsigned(table - 1), size)]
    arrays = []
    for name, dtype, count in layout:
        end = at + dtype.itemsize * count
        if end > len(data):
            raise IndexFormatError(f"{name} is truncated")
        arrays.append(np.frombuffer(data, dtype, count, at))
        at = end
    if at < len(data):
        raise IndexFormatError(f"{len(data) - at} trailing byte(s) after the arrays")
    sizes, columns, *values = arrays
    # No size exceeds ``size``, so that their sum cannot wrap.
    if np.any(sizes > size) or int(sizes.sum()) != size:
        raise IndexFormatError(f"row sizes do not add up to {size}")

    def refuse(bad_rows: np.ndarray, message: str) -> None:
        if bad_rows.size:
            raise IndexFormatError(message, int(bad_rows[0]) + 1)

    row_of = np.repeat(np.arange(n), sizes.astype(np.intp))
    refuse(row_of[columns >= dim], f"column outside [0, {dim})")
    # Positions where a row's column does not rise from the one before it.
    no_rise = np.flatnonzero((row_of[1:] == row_of[:-1]) & (columns[1:] <= columns[:-1]))
    refuse(row_of[no_rise + 1], "columns do not rise strictly")
    if table is None:
        values = values[0]
    else:
        patterns, codes = values
        if np.any(patterns[1:] <= patterns[:-1]):
            raise IndexFormatError("value table does not rise strictly")
        refuse(row_of[codes >= table], "value code outside the table")
        values = patterns.view("<f8")[codes]
    refuse(row_of[~np.isfinite(values)], "vector is not finite")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    refuse(np.flatnonzero(np.abs(norms - 1.0) > 1e-6), "vector is not unit-norm")
    # A stored +0.0, which no saved index holds, is dropped.
    kept = _stored(values)
    return EmbeddingIndex(*entries, dim, row_of[kept], columns[kept], values[kept], embedder)
