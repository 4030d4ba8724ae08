"""Provider seam tests: scripted matching and the HTTP backend."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrag import (
    ChatMessage,
    HttpChatProvider,
    LmRequest,
    ProviderError,
    ScriptMiss,
    ScriptRule,
    ScriptedProvider,
)
from kgrag.llm import MAX_RETRY_DELAY_S, RETRY_BASE_DELAY_S
from coe_fixtures import save_script
from http_stub import stub_server


def no_wait(seconds: float) -> None:
    """Stands in for ``time.sleep`` so retry tests make no real waits."""


def req(text: str, tag: str = "plan") -> LmRequest:
    return LmRequest([ChatMessage("user", text)], tag)


# ---------------------------------------------------------------- request

def test_request_validation():
    with pytest.raises(ValueError, match="at least one message"):
        LmRequest([], "plan")
    with pytest.raises(ValueError, match="role"):
        LmRequest([ChatMessage("narrator", "hi")], "plan")
    with pytest.raises(ValueError, match="tag"):
        LmRequest([ChatMessage("user", "hi")], "")


def test_request_text_joins_messages():
    request = LmRequest(
        [ChatMessage("system", "be brief"), ChatMessage("user", "question")], "answer")
    assert request.text() == "be brief\nquestion"
    assert request.messages[0].role == "system"


def test_request_fingerprint_stable():
    a, b = req("same text"), req("same text")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != req("other text").fingerprint()
    assert a.fingerprint() != req("same text", tag="answer").fingerprint()


# --------------------------------------------------------------- scripted

def test_scripted_basic_match():
    provider = ScriptedProvider([ScriptRule("plan", "Elizabeth", "the plan")])
    response = provider.complete(req("Question about Elizabeth Taylor"))
    assert response.content == "the plan"


def test_scripted_longest_substring_wins():
    provider = ScriptedProvider([ScriptRule("plan", "step", "generic"),
                                 ScriptRule("plan", "Current step: 4", "specific")])
    assert provider.complete(req("Current step: 4 of 4")).content == "specific"
    assert provider.complete(req("a step elsewhere")).content == "generic"


def test_scripted_tie_prefers_registration_order():
    provider = ScriptedProvider([ScriptRule("plan", "abc", "first"),
                                 ScriptRule("plan", "xyz", "second")])
    assert provider.complete(req("abc and xyz together")).content == "first"


def test_scripted_empty_substring_is_catch_all():
    provider = ScriptedProvider([ScriptRule("evaluate", "", "CONTINUE"),
                                 ScriptRule("evaluate", "step: 2", "RESPOND")])
    assert provider.complete(req("anything", tag="evaluate")).content == "CONTINUE"
    assert provider.complete(req("at step: 2 now", tag="evaluate")).content == "RESPOND"


def test_scripted_filters_by_tag():
    provider = ScriptedProvider([ScriptRule("plan", "", "a plan")])
    assert provider.complete(req("text", tag="plan")).content == "a plan"
    with pytest.raises(ScriptMiss):
        provider.complete(req("text", tag="answer"))


def test_scripted_miss_is_provider_error():
    provider = ScriptedProvider()
    with pytest.raises(ProviderError) as exc_info:
        provider.complete(req("anything"))
    assert "plan" in str(exc_info.value)


def test_scripted_matches_across_message_boundaries():
    provider = ScriptedProvider([ScriptRule("plan", "in the system prompt", "found")])
    request = LmRequest([ChatMessage("system", "this is in the system prompt"),
                         ChatMessage("user", "unrelated")], "plan")
    assert provider.complete(request).content == "found"


def _full_scan(rules: list[ScriptRule], request: LmRequest) -> str | None:
    """Reference for the scripted provider: scan every rule and keep the
    longest matching substring of the request's tag, ties going to the
    earliest registered rule; None when no rule matches."""
    text = request.text()
    best, best_key = None, None
    for position, rule in enumerate(rules):
        if rule.tag != request.tag or rule.match_substring not in text:
            continue
        key = (len(rule.match_substring), -position)
        if best_key is None or key > best_key:
            best, best_key = rule, key
    return None if best is None else best.response


_TAGS = st.sampled_from(["plan", "evaluate", "answer"])
# Short substrings over two letters: the empty one and length ties are common.
_SUBSTRINGS = st.text(alphabet="ab", max_size=3)


@given(drawn=st.lists(st.tuples(_TAGS, _SUBSTRINGS), max_size=12),
       asked=st.lists(st.tuples(_TAGS, st.text(alphabet="ab", max_size=6)),
                      min_size=1, max_size=4))
def test_scripted_matches_the_full_scan(drawn, asked):
    rules = [ScriptRule(tag, substring, f"reply {i}")
             for i, (tag, substring) in enumerate(drawn)]
    provider = ScriptedProvider(rules)
    for tag, text in asked:
        request = req(text, tag=tag)
        expected = _full_scan(rules, request)
        if expected is None:
            with pytest.raises(ScriptMiss):
                provider.complete(request)
        else:
            assert provider.complete(request).content == expected


def test_script_jsonl_roundtrip(tmp_path):
    rules = [ScriptRule("plan", "who", "NODE: find them"),
             ScriptRule("answer", "", "Michael Wilding")]
    path = tmp_path / "script.jsonl"
    save_script(rules, path)
    provider = ScriptedProvider.from_jsonl(path)
    assert provider.complete(req("who is it")).content == "NODE: find them"
    assert provider.complete(req("anything", tag="answer")).content == "Michael Wilding"


def test_script_jsonl_rejects_bad_lines(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"tag": "plan"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        ScriptedProvider.from_jsonl(path)


@pytest.mark.parametrize("field", ["tag", "match_substring", "response"])
def test_script_jsonl_refuses_a_lone_surrogate(tmp_path, field):
    """An escaped lone surrogate, which UTF-8 cannot encode, is refused on
    load; an escaped pair is one character and loads."""
    rule = {"tag": "plan", "match_substring": "who", "response": "NODE: Alice \U0001f600"}
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps(rule) + "\n" + json.dumps({**rule, field: "Alice\ud800"}) + "\n",
                    encoding="utf-8")
    assert "\\ud800" in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match=f"^bad script rule on line 2: field '{field}' "
                                         "holds a lone surrogate$"):
        ScriptedProvider.from_jsonl(path)
    path.write_text(json.dumps(rule) + "\n", encoding="utf-8")
    assert ScriptedProvider.from_jsonl(path).complete(req("who")).content == rule["response"]


# ------------------------------------------------------------------- HTTP

def _chat_body(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def test_http_provider_success():
    with stub_server(lambda payload, headers: (200, _chat_body("hello"))) as (url, captured):
        provider = HttpChatProvider(url, api_key="k123")
        request = LmRequest([ChatMessage("system", "sys"), ChatMessage("user", "hi")],
                            "answer")
        response = provider.complete(request)
    assert response.content == "hello"
    assert captured[0]["payload"] == {"messages": [{"role": "system", "content": "sys"},
                                                   {"role": "user", "content": "hi"}],
                                      "temperature": 1.0}
    assert captured[0]["headers"]["authorization"] == "Bearer k123"


def test_http_provider_omits_auth_without_key():
    with stub_server(lambda payload, headers: (200, _chat_body("x"))) as (url, captured):
        HttpChatProvider(url).complete(req("hi"))
    assert "authorization" not in captured[0]["headers"]


def test_http_provider_retries_then_succeeds():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] == 1:
            return 500, {"error": "transient"}
        return 200, _chat_body("recovered")

    delays = []
    with stub_server(responder) as (url, _):
        provider = HttpChatProvider(url, retries=1, sleep=delays.append)
        assert provider.complete(req("hi")).content == "recovered"
    assert state["calls"] == 2
    assert delays == [RETRY_BASE_DELAY_S]


def test_http_provider_exhausts_retries():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return 500, {"error": "down"}

    delays = []
    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError, match="after 2 attempts"):
            HttpChatProvider(url, retries=1, sleep=delays.append).complete(req("hi"))
    assert state["calls"] == 2
    assert delays == [RETRY_BASE_DELAY_S]   # no wait after the last attempt


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_provider_does_not_retry_client_errors(status):
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return status, {"error": "bad request"}

    delays = []
    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError, match="after 1 attempt:"):
            HttpChatProvider(url, retries=3, sleep=delays.append).complete(req("hi"))
    assert state["calls"] == 1
    assert delays == []


@pytest.mark.parametrize("status", [408, 429, 503])
def test_http_provider_retries_transient_statuses(status):
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] <= 2:
            return status, {"error": "try later"}
        return 200, _chat_body("recovered")

    with stub_server(responder) as (url, _):
        provider = HttpChatProvider(url, retries=2, sleep=no_wait)
        assert provider.complete(req("hi")).content == "recovered"
    assert state["calls"] == 3


def test_http_provider_backs_off_exponentially():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] <= 3:
            return 503, {"error": "busy"}
        return 200, _chat_body("recovered")

    delays = []
    with stub_server(responder) as (url, _):
        provider = HttpChatProvider(url, retries=3, sleep=delays.append)
        assert provider.complete(req("hi")).content == "recovered"
    assert delays == [RETRY_BASE_DELAY_S, 2 * RETRY_BASE_DELAY_S, 4 * RETRY_BASE_DELAY_S]


@pytest.mark.parametrize("retry_after, expected", [
    ("7", 7.0),
    ("0.25", 0.25),
    ("0", 0.0),
    ("86400", MAX_RETRY_DELAY_S),
    ("Wed, 21 Oct 2015 07:28:00 GMT", RETRY_BASE_DELAY_S),
    ("-3", RETRY_BASE_DELAY_S),
    ("nan", RETRY_BASE_DELAY_S),
])
def test_http_provider_honours_numeric_retry_after(retry_after, expected):
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] == 1:
            return 429, {"error": "slow down"}, {"Retry-After": retry_after}
        return 200, _chat_body("recovered")

    delays = []
    with stub_server(responder) as (url, _):
        provider = HttpChatProvider(url, retries=1, sleep=delays.append)
        assert provider.complete(req("hi")).content == "recovered"
    assert delays == [expected]


def test_http_provider_does_not_retry_malformed_body():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return 200, b"not json"

    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError):
            HttpChatProvider(url, retries=2).complete(req("hi"))
    assert state["calls"] == 1


@pytest.mark.parametrize("content", ["NODE: Alice\udc80", "\ud800", "a\udfffb"])
def test_http_provider_refuses_a_lone_surrogate_in_the_reply(content):
    """The stub escapes the reply's lone surrogate as JSON does; the reply
    is refused once, with no retry."""
    with stub_server(lambda payload, headers: (200, _chat_body(content))) as (url, captured):
        with pytest.raises(ProviderError, match="holds a lone surrogate"):
            HttpChatProvider(url, retries=2).complete(req("hi"))
    assert len(captured) == 1
    with stub_server(lambda payload, headers: (200, _chat_body("\U0001f600"))) as (url, _):
        assert HttpChatProvider(url).complete(req("hi")).content == "\U0001f600"


def test_http_provider_retries_connection_errors():
    with stub_server(lambda payload, headers: (200, _chat_body("x"))) as (url, _):
        pass  # the server is gone: nothing listens on its port any more
    delays = []
    with pytest.raises(ProviderError, match="after 2 attempts"):
        HttpChatProvider(url, retries=1, timeout=5, sleep=delays.append).complete(req("hi"))
    assert delays == [RETRY_BASE_DELAY_S]


def test_http_provider_rejects_malformed_body():
    with stub_server(lambda payload, headers: (200, b"not json")) as (url, _):
        with pytest.raises(ProviderError):
            HttpChatProvider(url, retries=0).complete(req("hi"))


def test_http_provider_rejects_missing_content():
    for body in ({"choices": []}, {"output": {"text": "elsewhere"}},
                 {"choices": [{"message": None}]}, ["a", "list"]):
        with stub_server(lambda payload, headers: (200, body)) as (url, _):
            with pytest.raises(ProviderError, match="choices.0.message.content"):
                HttpChatProvider(url, retries=0).complete(req("hi"))


def test_http_provider_rejects_non_text_content():
    body = {"choices": [{"message": {"content": 42}}]}
    with stub_server(lambda payload, headers: (200, body)) as (url, _):
        with pytest.raises(ProviderError, match="not text"):
            HttpChatProvider(url, retries=0).complete(req("hi"))


def test_http_provider_requires_endpoint():
    with pytest.raises(ValueError):
        HttpChatProvider("")


# ------------------------------------------------------------- imports

def test_offline_runs_never_import_requests():
    """``requests`` costs a tenth of a second to import; only an HTTP call
    may pay it."""
    code = textwrap.dedent("""
        import io
        import sys
        import kgrag
        assert "requests" not in sys.modules, "import kgrag"
        from coe_fixtures import TAYLOR_ANSWER, TAYLOR_QUESTION, taylor_fixture
        graph, index, rules = taylor_fixture()
        saved = io.BytesIO()
        kgrag.save_index(index, saved)
        index = kgrag.load_index(io.BytesIO(saved.getvalue()), kgrag.HashingEmbedder())
        engine = kgrag.CoEngine(graph, index, kgrag.ScriptedProvider(rules))
        result = engine.run(TAYLOR_QUESTION)
        answer = kgrag.generate_answer(engine.provider, TAYLOR_QUESTION, result)
        assert answer.answer == TAYLOR_ANSWER, answer
        assert "requests" not in sys.modules, "scripted run"
    """)
    tests = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
