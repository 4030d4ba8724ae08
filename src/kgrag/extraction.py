"""Document chunking and LM-driven triple extraction into the graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DepthError, KnowledgeGraph
from .llm import TAG_EXTRACT, ChatMessage, LmRequest, ProviderError
from .prompts import EXTRACTION_EXAMPLES, EXTRACTION_SYSTEM
from .triples import parse_extraction_block

DEFAULT_CHUNK_CHARS = 2000
DEFAULT_OVERLAP_CHARS = 200


@dataclass(frozen=True)
class TextChunk:
    doc_id: str
    seq: int
    text: str
    char_span: tuple[int, int]


@dataclass
class ExtractionReport:
    chunks_processed: int = 0
    triples_extracted: int = 0
    # Counts statements that created at least one new node or edge; re-running
    # the same document therefore reports 0 here.
    triples_upserted: int = 0
    parse_errors: list[dict] = field(default_factory=list)
    # Parsed triples the graph refused to store (reserved predicate, too
    # deep, a label it cannot hold), one {doc_id, chunk_seq, message} each.
    rejected: list[dict] = field(default_factory=list)

    def merge(self, other: "ExtractionReport") -> None:
        self.chunks_processed += other.chunks_processed
        self.triples_extracted += other.triples_extracted
        self.triples_upserted += other.triples_upserted
        self.parse_errors.extend(other.parse_errors)
        self.rejected.extend(other.rejected)

    def to_dict(self) -> dict:
        return {
            "chunks_processed": self.chunks_processed,
            "triples_extracted": self.triples_extracted,
            "triples_upserted": self.triples_upserted,
            "parse_errors": self.parse_errors,
            "rejected": self.rejected,
        }


class ExtractionHalted(Exception):
    """A provider failed mid-run; ``report`` holds the progress made."""

    def __init__(self, report: ExtractionReport, cause: Exception):
        self.report = report
        super().__init__(f"extraction halted: {cause}")


def _snap_back(text: str, floor: int, boundary: int) -> int:
    """Move a boundary back to just after the nearest whitespace, so cuts
    land between words. Stays put when no whitespace exists in range."""
    for i in range(boundary - 1, floor, -1):
        if text[i].isspace():
            return i + 1
    return boundary


def chunk_text(doc_id: str, text: str,
               chunk_chars: int = DEFAULT_CHUNK_CHARS,
               overlap_chars: int = DEFAULT_OVERLAP_CHARS) -> list[TextChunk]:
    """Sliding-window chunks covering the whole document; adjacent chunks
    overlap by ``overlap_chars`` before whitespace snapping."""
    if overlap_chars < 0:
        raise ValueError("overlap_chars must be non-negative")
    if chunk_chars <= overlap_chars:
        raise ValueError("chunk_chars must exceed overlap_chars")
    chunks: list[TextChunk] = []
    n = len(text)
    start = 0
    seq = 0
    while start < n:
        end = start + chunk_chars
        if end >= n:
            end = n
        else:
            end = _snap_back(text, start, end)
        chunks.append(TextChunk(doc_id, seq, text[start:end], (start, end)))
        if end >= n:
            break
        next_start = _snap_back(text, start, end - overlap_chars)
        start = max(next_start, start + 1)
        seq += 1
    return chunks


def build_extraction_prompt(chunk: TextChunk) -> LmRequest:
    """Fixed 6-shot prompt; byte-stable for a given chunk."""
    messages = [ChatMessage("system", EXTRACTION_SYSTEM)]
    for example_text, example_triples in EXTRACTION_EXAMPLES:
        messages.append(ChatMessage("user", example_text))
        messages.append(ChatMessage("assistant", example_triples))
    messages.append(ChatMessage("user", chunk.text))
    return LmRequest(messages, tag=TAG_EXTRACT)


def extract_and_store(graph: KnowledgeGraph, provider, doc_id: str, text: str,
                      chunk_chars: int = DEFAULT_CHUNK_CHARS,
                      overlap_chars: int = DEFAULT_OVERLAP_CHARS) -> ExtractionReport:
    """Chunk, prompt, parse, upsert. Parse failures and triples the graph
    refuses are recorded and never abort the batch; a provider failure
    halts with the partial report attached to :class:`ExtractionHalted`."""
    report = ExtractionReport()
    for chunk in chunk_text(doc_id, text, chunk_chars, overlap_chars):
        request = build_extraction_prompt(chunk)
        try:
            response = provider.complete(request)
        except ProviderError as exc:
            raise ExtractionHalted(report, exc) from exc
        statements, errors = parse_extraction_block(response.content)
        report.chunks_processed += 1
        report.triples_extracted += len(statements)
        for error in errors:
            report.parse_errors.append({
                "doc_id": chunk.doc_id,
                "chunk_seq": chunk.seq,
                "line": error.line,
                "offset": error.offset,
                "message": str(error),
            })
        for statement in statements:
            try:
                outcome = graph.upsert_triple(statement)
            except (DepthError, ValueError) as exc:
                report.rejected.append({"doc_id": chunk.doc_id, "chunk_seq": chunk.seq,
                                        "message": str(exc)})
                continue
            if outcome.created_any:
                report.triples_upserted += 1
    return report
