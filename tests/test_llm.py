"""Provider seam tests: scripted matching, HTTP backend, and recording."""

from __future__ import annotations

import json

import pytest

from kgrag import (
    ChatMessage,
    HttpChatProvider,
    LmRequest,
    ProviderError,
    ScriptMiss,
    ScriptRule,
    ScriptedProvider,
    RecordingProvider,
    read_transcript,
    save_script,
)
from http_stub import stub_server


def req(text: str, tag: str = "plan", temperature: float = 1.0) -> LmRequest:
    return LmRequest([ChatMessage("user", text)], tag, temperature)


# ---------------------------------------------------------------- request

def test_request_validation():
    with pytest.raises(ValueError, match="at least one message"):
        LmRequest([], "plan")
    with pytest.raises(ValueError, match="role"):
        LmRequest([ChatMessage("narrator", "hi")], "plan")
    with pytest.raises(ValueError, match="tag"):
        LmRequest([ChatMessage("user", "hi")], "")
    with pytest.raises(ValueError, match="temperature"):
        LmRequest([ChatMessage("user", "hi")], "plan", temperature=3.0)


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
    assert response.meta["matched"] == "Elizabeth"


def test_scripted_longest_substring_wins():
    provider = ScriptedProvider()
    provider.add_rule("plan", "step", "generic")
    provider.add_rule("plan", "Current step: 4", "specific")
    assert provider.complete(req("Current step: 4 of 4")).content == "specific"
    assert provider.complete(req("a step elsewhere")).content == "generic"


def test_scripted_tie_prefers_registration_order():
    provider = ScriptedProvider()
    provider.add_rule("plan", "abc", "first")
    provider.add_rule("plan", "xyz", "second")
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


# -------------------------------------------------------------- recording

def test_recording_provider_captures_exchanges(tmp_path):
    inner = ScriptedProvider([ScriptRule("plan", "", "NODE: go")])
    transcript_path = tmp_path / "transcript.jsonl"
    with open(transcript_path, "w", encoding="utf-8") as sink:
        provider = RecordingProvider(inner, sink)
        provider.complete(req("first", temperature=0.5))
        provider.complete(req("second"))
    assert len(provider.records) == 2
    assert provider.records[0]["response"] == "NODE: go"
    assert provider.records[0]["temperature"] == 0.5
    records = read_transcript(transcript_path)
    assert records == provider.records
    assert records[1]["messages"] == [{"role": "user", "content": "second"}]


def test_recording_provider_propagates_misses():
    provider = RecordingProvider(ScriptedProvider())
    with pytest.raises(ScriptMiss):
        provider.complete(req("anything"))
    assert provider.records == []


def test_recording_provider_without_sink():
    provider = RecordingProvider(ScriptedProvider([ScriptRule("plan", "", "ok")]))
    provider.complete(req("x"))
    assert [r["tag"] for r in provider.records] == ["plan"]


# ------------------------------------------------------------------- HTTP

def _chat_body(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def test_http_provider_success():
    with stub_server(lambda payload, headers: (200, _chat_body("hello"))) as (url, captured):
        provider = HttpChatProvider(url, api_key="k123")
        request = LmRequest([ChatMessage("system", "sys"), ChatMessage("user", "hi")],
                            "answer", temperature=0.2)
        response = provider.complete(request)
    assert response.content == "hello"
    assert response.meta["status"] == 200
    payload = captured[0]["payload"]
    assert set(payload) == {"messages", "temperature"}
    assert payload["temperature"] == 0.2
    assert payload["messages"] == [{"role": "system", "content": "sys"},
                                   {"role": "user", "content": "hi"}]
    assert captured[0]["headers"]["authorization"] == "Bearer k123"


def test_http_provider_omits_auth_without_key():
    with stub_server(lambda payload, headers: (200, _chat_body("x"))) as (url, captured):
        HttpChatProvider(url).complete(req("hi"))
    assert "authorization" not in captured[0]["headers"]


def test_http_provider_custom_content_path():
    body = {"output": {"text": "custom spot"}}
    with stub_server(lambda payload, headers: (200, body)) as (url, _):
        provider = HttpChatProvider(url, content_path="output.text")
        assert provider.complete(req("hi")).content == "custom spot"


def test_http_provider_retries_then_succeeds():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] == 1:
            return 500, {"error": "transient"}
        return 200, _chat_body("recovered")

    with stub_server(responder) as (url, _):
        provider = HttpChatProvider(url, retries=1)
        assert provider.complete(req("hi")).content == "recovered"
    assert state["calls"] == 2


def test_http_provider_exhausts_retries():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return 500, {"error": "down"}

    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError, match="after 2 attempts"):
            HttpChatProvider(url, retries=1).complete(req("hi"))
    assert state["calls"] == 2


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_provider_does_not_retry_client_errors(status):
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return status, {"error": "bad request"}

    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError, match="after 1 attempt:"):
            HttpChatProvider(url, retries=3).complete(req("hi"))
    assert state["calls"] == 1


@pytest.mark.parametrize("status", [408, 429, 503])
def test_http_provider_retries_transient_statuses(status):
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] <= 2:
            return status, {"error": "try later"}
        return 200, _chat_body("recovered")

    with stub_server(responder) as (url, _):
        assert HttpChatProvider(url, retries=2).complete(req("hi")).content == "recovered"
    assert state["calls"] == 3


def test_http_provider_does_not_retry_malformed_body():
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        return 200, b"not json"

    with stub_server(responder) as (url, _):
        with pytest.raises(ProviderError):
            HttpChatProvider(url, retries=2).complete(req("hi"))
    assert state["calls"] == 1


def test_http_provider_retries_connection_errors():
    with stub_server(lambda payload, headers: (200, _chat_body("x"))) as (url, _):
        pass  # the server is gone: nothing listens on its port any more
    with pytest.raises(ProviderError, match="after 2 attempts"):
        HttpChatProvider(url, retries=1, timeout=5).complete(req("hi"))


def test_http_provider_rejects_malformed_body():
    with stub_server(lambda payload, headers: (200, b"not json")) as (url, _):
        with pytest.raises(ProviderError):
            HttpChatProvider(url, retries=0).complete(req("hi"))


def test_http_provider_rejects_missing_content():
    with stub_server(lambda payload, headers: (200, {"choices": []})) as (url, _):
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
