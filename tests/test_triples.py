"""Grammar oracle tests and round-trip properties for the triple syntax."""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    Entity,
    TripleStatement,
    TripleSyntaxError,
    escape_label,
    parse_extraction_block,
    parse_triple,
    serialize_triple,
    statement_depth,
)
from kgrag.triples import _Parser
from triples_oracle import oracle_parse_extraction_block, oracle_parse_triple


def test_parse_flat_triple():
    t = parse_triple("(Seth MacFarlane)-[is creator of]->(Family Guy)")
    assert t == TripleStatement(Entity("Seth MacFarlane"), "is creator of",
                                Entity("Family Guy"))
    assert statement_depth(t) == 1


def test_parse_nested_triple():
    t = parse_triple("((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)")
    inner = TripleStatement(Entity("Seth MacFarlane"), "created", Entity("Family Guy"))
    assert t == TripleStatement(inner, "in", Entity("1999"))
    assert statement_depth(t) == 2


def test_parse_nested_object():
    t = parse_triple("(a)-[saw]->((b)-[hit]->(c))")
    assert isinstance(t.object, TripleStatement)
    assert t.subject == Entity("a")


def test_whitespace_around_labels_trimmed():
    t = parse_triple("(  Seth MacFarlane )-[ created ]->( Family Guy  )")
    assert t.subject == Entity("Seth MacFarlane")
    assert t.predicate == "created"
    assert t.object == Entity("Family Guy")


def test_internal_spacing_preserved():
    t = parse_triple("(New  York)-[r]->(B)")
    assert t.subject == Entity("New  York")


def test_whitespace_between_tokens_tolerated():
    t = parse_triple("  (A) - [r] -> (B)  ")
    assert t == TripleStatement(Entity("A"), "r", Entity("B"))


def test_typographic_arrows_normalized():
    # minus sign and rightwards arrow, as they appear in typeset text
    t = parse_triple("(A)−[r]→(B)")
    assert t == TripleStatement(Entity("A"), "r", Entity("B"))
    assert serialize_triple(t) == "(A)-[r]->(B)"


def test_typographic_chars_inside_labels_kept():
    t = parse_triple("(A→B)-[r]->(C)")
    assert t.subject == Entity("A→B")
    assert parse_triple(serialize_triple(t)) == t


def test_escapes_resolved():
    t = parse_triple(r"(Family \(Guy\))-[has \[episode\]]->(a\-b c\\d)")
    assert t.subject == Entity("Family (Guy)")
    assert t.predicate == "has [episode]"
    assert t.object == Entity("a-b c\\d")


def test_raw_hyphen_allowed_in_labels():
    t = parse_triple("(Westcliff-on-Sea)-[lies in]->(Essex)")
    assert t.subject == Entity("Westcliff-on-Sea")


def test_labels_nfc_normalized():
    decomposed = "Céligny"   # e + combining acute
    t = parse_triple(f"({decomposed})-[r]->(B)")
    assert t.subject.label == unicodedata.normalize("NFC", decomposed)
    assert t.subject.label != decomposed


def test_serialize_canonical_form():
    t = TripleStatement(Entity("A"), "r", Entity("B"))
    assert serialize_triple(t) == "(A)-[r]->(B)"
    nested = TripleStatement(t, "s", Entity("C"))
    assert serialize_triple(nested) == "((A)-[r]->(B))-[s]->(C)"


def test_serialize_escapes_structural_characters():
    t = TripleStatement(Entity("a(b)c"), "x[y]z", Entity("p\\q"))
    text = serialize_triple(t)
    assert text == r"(a\(b\)c)-[x\[y\]z]->(p\\q)"
    assert parse_triple(text) == t


def test_escape_label_helper():
    assert escape_label("a(b)[c]\\d-e") == r"a\(b\)\[c\]\\d-e"


def _escaped_by_character(label: str) -> str:
    """The per-character rule: a backslash before each of ``()[]\\``."""
    return "".join("\\" + c if c in "()[]\\" else c for c in label)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("()[]\\-> aZ\u00e9\u0301\u3000\U0001f600") | st.characters(),
               max_size=40))
def test_escape_label_equals_the_per_character_rule(label):
    assert escape_label(label) == _escaped_by_character(label)


def test_depth_limit_default():
    deep = "(((((A)-[a]->(B))-[b]->(C))-[c]->(D))-[d]->(E))-[e]->(F)"
    with pytest.raises(TripleSyntaxError):
        parse_triple(deep)
    t = parse_triple(deep, max_depth=5)
    assert statement_depth(t) == 5


def test_depth_four_accepted_by_default():
    four = "((((A)-[a]->(B))-[b]->(C))-[c]->(D))-[d]->(E)"
    assert statement_depth(parse_triple(four)) == 4


@pytest.mark.parametrize("bad", [
    "",
    "   ",
    "(",
    "(A",
    "(A)",
    "(A)-",
    "(A)-[",
    "(A)-[r",
    "(A)-[r]",
    "(A)-[r]-",
    "(A)-[r]->",
    "(A)-[r]->(",
    "(A)-[r]->(B",
    "A-[r]->(B)",
    "()-[r]->(B)",
    "(A)-[]->(B)",
    "(A)-[r]->()",
    "( )-[r]->(B)",
    "(A)-[r]->(B) trailing",
    "(A)-[r]->(B))",
    "(A)(B)-[r]->(C)",
    "(A)-[r]>(B)",
    "(A)[r]->(B)",
    "(A)-[r]->(B)-",
    "((A)-[r]->(B)",
    "(A\\)-[r]->(B)",
    "(A)-[r]->(B\\)",
    "(a[b)-[r]->(C)",
    "(a]b)-[r]->(C)",
    "(A)-[r\\x]->(B)",
    "((A))-[r]->(B)",
])
def test_malformed_inputs_raise_syntax_error(bad):
    with pytest.raises(TripleSyntaxError):
        parse_triple(bad)


def test_error_carries_byte_offset():
    try:
        parse_triple("(café)-[r]->")
        raise AssertionError("expected a syntax error")
    except TripleSyntaxError as exc:
        # position counts characters, offset counts UTF-8 bytes
        assert exc.position == 12
        assert exc.offset == 13
        assert "byte offset 13" in str(exc)


def test_depth_error_reported_as_depth():
    deep = "(((((A)-[a]->(B))-[b]->(C))-[c]->(D))-[d]->(E))-[e]->(F)"
    with pytest.raises(TripleSyntaxError, match="depth"):
        parse_triple(deep)


def test_parse_extraction_block_mixed_lines():
    text = "\n".join([
        "(A)-[r]->(B)",
        "",
        "not a triple",
        "  (C)-[s]->(D)  ",
        "(E)-[->(F)",
    ])
    statements, errors = parse_extraction_block(text)
    assert [serialize_triple(s) for s in statements] == ["(A)-[r]->(B)", "(C)-[s]->(D)"]
    assert [e.line for e in errors] == [3, 5]


def test_parse_extraction_block_empty_output():
    statements, errors = parse_extraction_block("")
    assert statements == [] and errors == []


# ------------------------------------------------------------ properties

def _clean_label(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


_labels = (
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
        min_size=1, max_size=16,
    )
    .map(_clean_label)
    .filter(bool)
)


def _statements(max_depth: int):
    def terms(depth: int):
        options = [_labels.map(Entity)]
        if depth > 1:
            options.append(st.deferred(lambda: statements(depth - 1)))
        return st.one_of(*options)

    def statements(depth: int):
        return st.builds(TripleStatement, subject=terms(depth),
                         predicate=_labels, object=terms(depth))

    return statements(max_depth)


@settings(max_examples=300, deadline=None)
@given(_statements(4))
def test_roundtrip_property(statement):
    assert statement_depth(statement) <= 4
    assert parse_triple(serialize_triple(statement)) == statement


@settings(max_examples=200, deadline=None)
@given(_statements(4), st.data())
def test_mutations_never_crash(statement, data):
    text = serialize_triple(statement)
    position = data.draw(st.integers(0, max(0, len(text) - 1)))
    op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    glyph = data.draw(st.sampled_from(list("()[]->\\x −→")))
    if op == "delete":
        mutated = text[:position] + text[position + 1:]
    elif op == "insert":
        mutated = text[:position] + glyph + text[position:]
    else:
        mutated = text[:position] + glyph + text[position + 1:]
    try:
        parse_triple(mutated)
    except TripleSyntaxError:
        pass  # the only acceptable failure mode


# ------------------------------------------- equivalence with the oracle

def _outcome(parse, text: str, max_depth: int):
    """What a parse gives: the statement, or the error's message, character
    position, byte offset and line."""
    try:
        return parse(text, max_depth)
    except TripleSyntaxError as exc:
        return ("error", str(exc), exc.position, exc.offset, exc.line)


def _block_outcome(parse_block, text: str, max_depth: int):
    statements, errors = parse_block(text, max_depth)
    return statements, [(str(e), e.position, e.offset, e.line) for e in errors]


# Mostly the characters that steer the grammar: delimiters, their
# typographic variants, escapes, several kinds of space, and combining
# marks that NFC folds ("e" + U+0301 is "é").
_glyphs = st.sampled_from(
    list("()[]-\u2212>\u2192\\") + ["->", "\u2212>"]
    + [" ", "  ", "\t", "\u00a0", "\u3000", "a", "Bc", "e\u0301", "\u00e9", "\u0301"]
)
_fragments = st.one_of(
    _glyphs, _glyphs, _glyphs,
    _statements(5).map(serialize_triple),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
_texts = st.lists(_fragments, max_size=16).map("".join)


@settings(max_examples=400, deadline=None)
@given(_texts, st.integers(1, 5))
def test_parse_triple_equals_oracle(text, max_depth):
    assert _outcome(parse_triple, text, max_depth) == \
        _outcome(oracle_parse_triple, text, max_depth)


@settings(max_examples=150, deadline=None)
@given(st.lists(_texts, max_size=6).map("\n".join), st.integers(1, 5))
def test_parse_extraction_block_equals_oracle(text, max_depth):
    assert _block_outcome(parse_extraction_block, text, max_depth) == \
        _block_outcome(oracle_parse_extraction_block, text, max_depth)


@settings(max_examples=300, deadline=None)
@given(_statements(5), st.data(), st.integers(1, 5))
def test_mutated_statements_equal_oracle(statement, data, max_depth):
    """Valid lines with a few edits: the errors that sit deep in a line, where
    the two parsers' routes differ most."""
    text = serialize_triple(statement)
    for _ in range(data.draw(st.integers(0, 3))):
        position = data.draw(st.integers(0, len(text)))
        glyph = data.draw(_glyphs)
        cut = data.draw(st.integers(0, 1))
        text = text[:position] + glyph + text[position + cut:]
    assert _outcome(parse_triple, text, max_depth) == \
        _outcome(oracle_parse_triple, text, max_depth)


@pytest.mark.parametrize("text, max_depth", [
    ("(A)", 4),                          # error one past the end of the text
    ("(A)  ", 4),
    ("((A)-[r]->(B))-[s]->(C)", 1),      # depth error at the "("
    ("( (A)-[r]->(B))-[s]->(C)", 1),     # the entity attempt got further
    ("(a\\x)-[r]->(B)", 1),
    ("(  \\x)-[r]->(B)", 4),
    ("(\\x)-[r]->(B)", 1),
    ("(a", 1),
    ("( )-[r]->(B)", 1),
    ("((A)-[r]->(B) x)-[s]->(C)", 4),
    ("(e\u0301)-[r]->(B)", 4),
    ("(A)\u2212[r]\u2212>(B)", 4),
    ("(A)-[r]\u2212 >(B)", 4),
])
def test_edge_cases_equal_oracle(text, max_depth):
    assert _outcome(parse_triple, text, max_depth) == \
        _outcome(oracle_parse_triple, text, max_depth)


def test_valid_lines_build_no_syntax_error(monkeypatch):
    """A valid line is parsed without raising, catching or building any
    TripleSyntaxError, flat, nested to depth 4, escaped or spaced out; a
    flat line without an escape without building a parser either."""
    lines = [
        "(Seth MacFarlane)-[created]->(Family Guy)",
        "((((A)-[a]->(B))-[b]->(C))-[c]->(D))-[d]->(E)",
        "(a)-[r]->((b)-[s]->((c)-[t]->((d)-[u]->(e))))",
        "( ( Ce\u0301ligny )−[ lies in ]→( Geneva ) )-[since]->( 1815 )",
        r"(Family \(Guy\))-[has \[episode\]]->(a\-b c\\d)",
        "(A)\u2212[r]\u2212>(B)",
    ]
    built = []
    init = TripleSyntaxError.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TripleSyntaxError, "__init__", counting_init)
    parsed = []
    parser_init = _Parser.__init__

    def counting_parser_init(self, text, max_depth):
        parsed.append(text)
        parser_init(self, text, max_depth)

    monkeypatch.setattr(_Parser, "__init__", counting_parser_init)
    statements, errors = parse_extraction_block("\n".join(lines * 20))
    assert len(statements) == 120 and errors == []
    assert built == []
    assert set(parsed) == set(lines[1:5])


# -------------------------------------------------- the flat-form matches

# Lines built to reach the one-match readings of a flat statement, node and
# predicate: several kinds of space (U+3000 and U+001C are spaces to
# ``str.isspace``), labels that NFC changes or that are only spaces, the
# typographic delimiters, nested statements and trailing text.
_match_spaces = st.sampled_from(["", " ", "  ", "\t", "\u3000", "\x1c", " \u3000 "])
_match_labels = st.one_of(
    st.sampled_from(["A", "Seth MacFarlane", "e\u0301", "Ce\u0301ligny", "\u00e9", "\u0301",
                     "a-b", "x\u2212y", "a\u2192b", " pad ", "  ", "\u3000", "\x1c"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="()[]\\\r\n"),
            max_size=5),
)
_match_minus = st.sampled_from(["-", "\u2212"])
_match_arrows = st.sampled_from(["->", "\u2212>", "\u2192"])
_match_tails = st.sampled_from(["", " ", "\u3000", "\x1c", " x", ")", "(B)", "-[r]->(C)"])


@st.composite
def _match_statements(draw, depth: int) -> str:
    def node() -> str:
        if depth > 1 and draw(st.integers(0, 2)) == 0:
            return (f"{draw(_match_spaces)}({draw(_match_spaces)}"
                    f"{draw(_match_statements(depth - 1))}{draw(_match_spaces)})")
        return f"{draw(_match_spaces)}({draw(_match_labels)})"

    return (f"{node()}{draw(_match_spaces)}{draw(_match_minus)}{draw(_match_spaces)}"
            f"[{draw(_match_labels)}]{draw(_match_spaces)}{draw(_match_arrows)}{node()}")


@st.composite
def _match_lines(draw) -> str:
    return draw(_match_statements(draw(st.integers(1, 6)))) + draw(_match_tails)


@st.composite
def _near_match_lines(draw) -> str:
    """A match line one glyph away: one deleted, inserted or replaced."""
    line = draw(_match_lines())
    position = draw(st.integers(0, len(line)))
    glyph = draw(st.sampled_from(
        list("()[]-\u2212>\u2192\\") + [" ", "\u3000", "\x1c", "x", "e\u0301", "\u0301"]))
    op = draw(st.sampled_from(["delete", "insert", "replace"]))
    if op == "delete":
        return line[:position] + line[position + 1:]
    if op == "insert":
        return line[:position] + glyph + line[position:]
    return line[:position] + glyph + line[position + 1:]


def _assert_equals_oracle(line: str, max_depth: int) -> None:
    """The statement, or the error's message, position, offset and line, of
    ``line`` alone and as the second line of a block, as the oracle gives."""
    assert _outcome(parse_triple, line, max_depth) == \
        _outcome(oracle_parse_triple, line, max_depth)
    block = f"\n{line}"
    assert _block_outcome(parse_extraction_block, block, max_depth) == \
        _block_outcome(oracle_parse_extraction_block, block, max_depth)


@settings(max_examples=400, deadline=None)
@given(_match_lines(), st.integers(0, 5))
def test_match_lines_equal_oracle(line, max_depth):
    _assert_equals_oracle(line, max_depth)


@settings(max_examples=400, deadline=None)
@given(_near_match_lines(), st.integers(0, 5))
def test_lines_one_glyph_from_a_match_equal_oracle(line, max_depth):
    _assert_equals_oracle(line, max_depth)
