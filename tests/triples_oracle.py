"""The statement-first triple parser that ``kgrag.triples`` once used, kept
as a test oracle: at every node it tries a full statement parse and falls
back to an entity label, and on malformed text it reports the error of
whichever attempt got further (the statement wins ties). The parser in
``kgrag.triples`` decides by lookahead instead and must agree with this one
on every result, error message, ``position`` and byte ``offset``."""

from __future__ import annotations

import unicodedata

from kgrag.triples import (
    _MINUS,
    _RIGHT_ARROW,
    ESCAPABLE,
    DEFAULT_MAX_DEPTH,
    Entity,
    TripleStatement,
    TripleSyntaxError,
    TripleTerm,
)


class _Parser:
    def __init__(self, text: str, max_depth: int):
        self.text = text
        self.pos = 0
        self.max_depth = max_depth

    def error(self, message: str, position: int | None = None) -> TripleSyntaxError:
        pos = self.pos if position is None else position
        return TripleSyntaxError(message, self.text, pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return "" if self.at_end() else self.text[self.pos]

    def skip_ws(self) -> None:
        while not self.at_end() and self.text[self.pos].isspace():
            self.pos += 1

    def parse_statement(self, level: int) -> TripleStatement:
        if level > self.max_depth:
            raise self.error(f"nesting depth exceeds {self.max_depth}")
        subject = self.parse_node(level)
        self.skip_ws()
        if self.peek() not in _MINUS:
            raise self.error("expected '-[' after subject")
        self.pos += 1
        self.skip_ws()
        if self.peek() != "[":
            raise self.error("expected '[' to open the predicate")
        self.pos += 1
        predicate = self.scan_label("]")
        self.skip_ws()
        self.expect_arrow_tail()
        self.skip_ws()
        obj = self.parse_node(level)
        return TripleStatement(subject, predicate, obj)

    def expect_arrow_tail(self) -> None:
        # "]" was consumed by scan_label; now "->" (or the arrow character).
        c = self.peek()
        if c == _RIGHT_ARROW:
            self.pos += 1
            return
        if c in _MINUS and self.pos + 1 < len(self.text) and self.text[self.pos + 1] == ">":
            self.pos += 2
            return
        raise self.error("expected '->' after predicate")

    def parse_node(self, level: int) -> TripleTerm:
        self.skip_ws()
        if self.peek() != "(":
            raise self.error("expected '(' to open a node")
        self.pos += 1
        saved = self.pos
        statement_error: TripleSyntaxError | None = None
        try:
            inner = self.parse_statement(level + 1)
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')' to close the nested statement")
            self.pos += 1
            return inner
        except TripleSyntaxError as exc:
            statement_error = exc
            self.pos = saved
        try:
            label = self.scan_label(")")
        except TripleSyntaxError as entity_error:
            # Surface whichever attempt got further; the statement error wins
            # ties so depth violations are reported as such.
            if statement_error is not None and statement_error.position >= entity_error.position:
                raise statement_error from None
            raise
        return Entity(label)

    def scan_label(self, closing: str) -> str:
        start = self.pos
        chars: list[str] = []
        while True:
            if self.at_end():
                raise self.error(f"unterminated label, expected '{closing}'", start)
            c = self.text[self.pos]
            if c == "\\":
                if self.pos + 1 >= len(self.text):
                    raise self.error("dangling escape at end of input")
                nxt = self.text[self.pos + 1]
                if nxt not in ESCAPABLE:
                    raise self.error(f"invalid escape '\\{nxt}'")
                chars.append(nxt)
                self.pos += 2
                continue
            if c == closing:
                self.pos += 1
                break
            if c in "()[]":
                raise self.error(f"unescaped '{c}' inside a label")
            chars.append(c)
            self.pos += 1
        label = unicodedata.normalize("NFC", "".join(chars)).strip()
        if not label:
            raise self.error("empty label", start)
        return label


def oracle_parse_triple(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> TripleStatement:
    """``parse_triple`` as it was, over the oracle parser."""
    parser = _Parser(text, max_depth)
    parser.skip_ws()
    statement = parser.parse_statement(1)
    parser.skip_ws()
    if not parser.at_end():
        raise parser.error("trailing text after statement")
    return statement


def oracle_parse_extraction_block(
    text: str, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[list[TripleStatement], list[TripleSyntaxError]]:
    """``parse_extraction_block`` as it was, over the oracle parser."""
    statements: list[TripleStatement] = []
    errors: list[TripleSyntaxError] = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            statements.append(oracle_parse_triple(line, max_depth))
        except TripleSyntaxError as exc:
            exc.line = lineno
            errors.append(exc)
    return statements, errors
