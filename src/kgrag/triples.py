"""Parsing and serialization of the nested triple line syntax.

A statement is ``(subject)-[predicate]->(object)``. Either side may itself
be a parenthesized statement, which nests the fact::

    ((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)

After ``(``, the next non-space character decides: ``(`` opens a nested
statement, anything else an entity label, so unescaped structural
characters never hide inside labels. A line is parsed in one pass, and a
valid line raises no exception on the way. A flat statement, and each flat
node and predicate, is read by one regular-expression match; the rest is
read step by step.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Union

DEFAULT_MAX_DEPTH = 4

# Characters that may be backslash-escaped inside a label.
ESCAPABLE = frozenset("()[]-\\")
# Escapes the serializer actually emits. "-" is accepted escaped on input
# but left raw on output; it is unambiguous because "[" and "]" never are.
# Each structural character to itself behind a backslash.
_ESCAPES = str.maketrans({c: "\\" + c for c in "()[]\\"})

# Typographic variants tolerated at delimiter positions only; label content
# keeps these characters untouched.
_MINUS = "-−"          # hyphen-minus, minus sign
_RIGHT_ARROW = "→"     # single-character form of "->"


class TripleSyntaxError(ValueError):
    """Malformed triple text.

    ``offset`` is the byte offset into the UTF-8 encoding of the input,
    ``position`` the character index. ``line`` is filled in by
    :func:`parse_extraction_block` (1-based), otherwise None.
    """

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.position = position
        self.offset = len(text[:position].encode("utf-8"))
        self.line: int | None = None
        super().__init__(f"{message} (byte offset {self.offset})")


@dataclass(frozen=True)
class Entity:
    """Leaf term: a plain label."""

    label: str


@dataclass(frozen=True)
class TripleStatement:
    """One ``subject -[predicate]-> object`` statement; terms may nest."""

    subject: "TripleTerm"
    predicate: str
    object: "TripleTerm"


TripleTerm = Union[Entity, TripleStatement]


def statement_depth(statement: TripleStatement) -> int:
    """Nesting depth: 1 for a flat triple, +1 per level of nesting."""

    def term_depth(term: TripleTerm) -> int:
        if isinstance(term, Entity):
            return 0
        return statement_depth(term)

    return 1 + max(term_depth(statement.subject), term_depth(statement.object))


# A run of label characters: everything up to the next structural character
# or escape. Labels are scanned run by run, looping only at an escape.
_LABEL_RUN = r"[^()\[\]\\]*"
_label_run = re.compile(_LABEL_RUN).match
# Whitespace between tokens; ``\s`` matches exactly what ``str.isspace`` does.
_space_run = re.compile(r"\s*").match

# The flat forms, each one match: a node ``(label)``, the link ``-[label]->``
# between two nodes, a whole flat statement, and a whole line that is one
# flat statement. Each group is a label run that ends at its closing
# delimiter, so a match is what the step-by-step reading would give if the
# labels are not empty; anything else (an escape, a nested "(", an empty
# label, a fault) fails to match and is read step by step from the same
# position, which gives every error its message and position.
_NODE = rf"\s*\(({_LABEL_RUN})\)"
_LINK = rf"\s*[{_MINUS}]\s*\[({_LABEL_RUN})\]\s*(?:{_RIGHT_ARROW}|[{_MINUS}]>)"
_flat_node = re.compile(_NODE).match
_flat_link = re.compile(_LINK).match
_flat_statement = re.compile(_NODE + _LINK + _NODE).match
_flat_line = re.compile(rf"{_NODE}{_LINK}{_NODE}\s*\Z").match


def _clean(label: str) -> str:
    """A label run as :meth:`_Parser.label` returns it: NFC, stripped."""
    if not label.isascii():   # ASCII text is already NFC
        label = unicodedata.normalize("NFC", label)
    return label.strip()


def _flat(match: re.Match) -> TripleStatement | None:
    """The statement of a flat-statement match, or None if a label is empty."""
    subject, predicate, obj = match.groups()
    subject, predicate, obj = _clean(subject), _clean(predicate), _clean(obj)
    if subject and predicate and obj:
        return TripleStatement(Entity(subject), predicate, Entity(obj))
    return None


class _Parser:
    """One pass over one line. Positions are passed in and returned, and an
    exception is raised only for text that does not parse.

    After ``(`` the next non-space character decides: ``(`` opens a nested
    statement, anything else an entity label. On malformed text, where a
    node could be read either as a nested statement or as an entity, the
    error is that of the reading that got further, the statement winning
    ties (see :meth:`_entity_error`).
    """

    def __init__(self, text: str, max_depth: int):
        self.text = text
        self.max_depth = max_depth

    def error(self, message: str, position: int) -> TripleSyntaxError:
        return TripleSyntaxError(message, self.text, position)

    def statement(self, pos: int, level: int) -> tuple[TripleStatement, int]:
        text = self.text
        if level > self.max_depth:
            raise self.error(f"nesting depth exceeds {self.max_depth}", pos)
        match = _flat_statement(text, pos)
        if match and (statement := _flat(match)) is not None:
            return statement, match.end()
        subject, pos = self.node(pos, level)
        predicate, pos = self.link(pos)
        obj, pos = self.node(pos, level)
        return TripleStatement(subject, predicate, obj), pos

    def link(self, pos: int) -> tuple[str, int]:
        """The predicate between two nodes, and the position after its arrow."""
        text = self.text
        match = _flat_link(text, pos)
        if match and (predicate := _clean(match[1])):
            return predicate, match.end()
        pos = _space_run(text, pos).end()
        if pos == len(text):
            # Nothing follows the subject: the grammar has always reported
            # this one character beyond the end of the text.
            raise self.error("expected '[' to open the predicate", pos + 1)
        if text[pos] not in _MINUS:
            raise self.error("expected '-[' after subject", pos)
        pos = _space_run(text, pos + 1).end()
        if text[pos:pos + 1] != "[":
            raise self.error("expected '[' to open the predicate", pos)
        predicate, pos = self.label(pos + 1, "]")
        pos = _space_run(text, pos).end()
        if text[pos:pos + 1] == _RIGHT_ARROW:
            pos += 1
        elif text[pos:pos + 1] in _MINUS and text[pos + 1:pos + 2] == ">":
            pos += 2
        else:
            raise self.error("expected '->' after predicate", pos)
        return predicate, pos

    def node(self, pos: int, level: int) -> tuple[TripleTerm, int]:
        text = self.text
        match = _flat_node(text, pos)
        if match and (label := _clean(match[1])):
            return Entity(label), match.end()
        pos = _space_run(text, pos).end()
        if text[pos:pos + 1] != "(":
            raise self.error("expected '(' to open a node", pos)
        start = pos + 1
        ahead = _space_run(text, start).end()
        if text[ahead:ahead + 1] == "(":
            if level >= self.max_depth:
                # Read as an entity, the node stops at this "(".
                raise self._entity_error(self.error("unescaped '(' inside a label", ahead),
                                         start, ahead, level)
            inner, pos = self.statement(ahead, level + 1)
            pos = _space_run(text, pos).end()
            if text[pos:pos + 1] != ")":
                raise self.error("expected ')' to close the nested statement", pos)
            return inner, pos + 1
        try:
            label, pos = self.label(start, ")")
        except TripleSyntaxError as exc:
            raise self._entity_error(exc, start, ahead, level) from None
        return Entity(label), pos

    def _entity_error(self, exc: TripleSyntaxError, start: int, ahead: int,
                      level: int) -> TripleSyntaxError:
        """The error for a node whose entity reading failed with ``exc``:
        the statement reading's error (depth at ``start``, or no "(" at
        ``ahead``) if it got at least as far as ``exc``, else ``exc``."""
        if level >= self.max_depth:
            position, message = start, f"nesting depth exceeds {self.max_depth}"
        else:
            position, message = ahead, "expected '(' to open a node"
        if position >= exc.position:
            return self.error(message, position)
        return exc

    def label(self, pos: int, closing: str) -> tuple[str, int]:
        text = self.text
        start = pos
        parts: list[str] = []
        while True:
            end = _label_run(text, pos).end()
            if end == len(text):
                raise self.error(f"unterminated label, expected '{closing}'", start)
            c = text[end]
            if c == closing:
                break
            if c != "\\":
                raise self.error(f"unescaped '{c}' inside a label", end)
            if end + 1 == len(text):
                raise self.error("dangling escape at end of input", end)
            escaped = text[end + 1]
            if escaped not in ESCAPABLE:
                raise self.error(f"invalid escape '\\{escaped}'", end)
            parts.append(text[pos:end])
            parts.append(escaped)
            pos = end + 2
        label = text[pos:end]
        if parts:
            parts.append(label)
            label = "".join(parts)
        label = _clean(label)
        if not label:
            raise self.error("empty label", start)
        return label, end + 1


def parse_triple(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> TripleStatement:
    """Parse one statement; raises :class:`TripleSyntaxError` on any defect.

    Labels come out NFC-normalized and stripped of surrounding whitespace.
    Trailing non-whitespace after the statement is an error.
    """
    if max_depth >= 1:
        match = _flat_line(text)
        if match and (statement := _flat(match)) is not None:
            return statement
    parser = _Parser(text, max_depth)
    statement, pos = parser.statement(_space_run(text).end(), 1)
    pos = _space_run(text, pos).end()
    if pos < len(text):
        raise parser.error("trailing text after statement", pos)
    return statement


def escape_label(label: str) -> str:
    """Escape structural characters so the label survives a round trip."""
    return label.translate(_ESCAPES)


def serialize_triple(statement: TripleStatement) -> str:
    """Canonical single-line form: no padding around delimiters."""

    def term(t: TripleTerm) -> str:
        if isinstance(t, Entity):
            return f"({escape_label(t.label)})"
        return f"({serialize_triple(t)})"

    return (
        f"{term(statement.subject)}-[{escape_label(statement.predicate)}]->"
        f"{term(statement.object)}"
    )


def parse_extraction_block(
    text: str, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[list[TripleStatement], list[TripleSyntaxError]]:
    """Parse model output line by line: one statement per non-empty line.

    Bad lines are collected (with their 1-based line number) rather than
    aborting the batch, so one garbled line cannot sink a whole chunk.
    """
    statements: list[TripleStatement] = []
    errors: list[TripleSyntaxError] = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            statements.append(parse_triple(line, max_depth))
        except TripleSyntaxError as exc:
            # A kept error must not keep the parser's frames alive: through
            # them it would hold the caller's frame and all it refers to.
            exc.line = lineno
            exc.__context__ = None
            errors.append(exc.with_traceback(None))
    return statements, errors
