"""Knowledge-graph retrieval augmented generation.

Pipeline: documents are chunked and turned into (possibly nested) triples by
an LM, stored in a homogeneous graph with hypernodes for nested facts,
embedded into an exact-search index, and queried by an LM-guided
chain-of-explorations traversal whose resulting paths ground the final
answer.
"""

from .answering import AnswerContext, format_paths, generate_answer
from .embedding import (
    EmbeddingIndex,
    HashingEmbedder,
    HttpEmbeddingProvider,
    IndexEntry,
    IndexFormatError,
    StaleIndexError,
    index_graph,
    load_index,
    save_index,
)
from .explore import (
    FAILURE_MESSAGE,
    CoEngine,
    EmptySelection,
    EvalOutcome,
    ExplorationPlan,
    ExplorationStep,
    Failure,
    HopElement,
    Limits,
    NodeElement,
    Paths,
    PlanParseError,
    StepKind,
    StepRecord,
    TraceRecorder,
    TraversalState,
    Verdict,
    parse_plan,
)
from .extraction import (
    ExtractionHalted,
    ExtractionReport,
    TextChunk,
    build_extraction_prompt,
    chunk_text,
    extract_and_store,
)
from .graph import (
    DepthError,
    EdgeRecord,
    GraphFormatError,
    GraphIntegrityError,
    GraphStats,
    KnowledgeGraph,
    NodeRecord,
    UnknownNodeError,
    UpsertOutcome,
    flatten_label,
    load_graph,
    normalize_label,
    save_graph,
)
from .llm import (
    ChatMessage,
    HttpChatProvider,
    LmRequest,
    LmResponse,
    ProviderError,
    ScriptMiss,
    ScriptRule,
    ScriptedProvider,
)
from .metrics import (
    ExampleScore,
    MetricReport,
    QaExample,
    evaluate_dataset,
    exact_match,
    f1_score,
    hallucination,
    load_dataset,
    normalize_answer,
    overlap_accuracy,
    score_example,
)
from .triples import (
    Entity,
    TripleStatement,
    TripleSyntaxError,
    escape_label,
    parse_extraction_block,
    parse_triple,
    serialize_triple,
    statement_depth,
)

__version__ = "0.1.0"
