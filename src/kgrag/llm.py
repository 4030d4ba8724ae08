"""Language-model provider seam: one call contract, several backends.

Every pipeline call goes through ``provider.complete(LmRequest)`` so tests
can swap in the deterministic scripted provider and production can point at
any chat-completion style HTTP endpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import requests

logger = logging.getLogger(__name__)

# Call-site labels used by the pipeline.
TAG_EXTRACT = "extract"
TAG_PLAN = "plan"
TAG_SELECT_NODES = "select_nodes"
TAG_SELECT_RELS = "select_rels"
TAG_EVALUATE = "evaluate"
TAG_ANSWER = "answer"

_VALID_ROLES = frozenset({"system", "user", "assistant"})


class ProviderError(Exception):
    """A provider could not produce a completion."""


class ScriptMiss(ProviderError):
    """The scripted provider had no rule for a request."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class LmRequest:
    """One completion request; ``tag`` names the pipeline call site."""

    messages: tuple[ChatMessage, ...]
    tag: str
    temperature: float = 1.0

    def __init__(self, messages: Sequence[ChatMessage], tag: str, temperature: float = 1.0):
        if not messages:
            raise ValueError("a request needs at least one message")
        for message in messages:
            if message.role not in _VALID_ROLES:
                raise ValueError(f"bad message role {message.role!r}")
        if not tag:
            raise ValueError("tag must be non-empty")
        if not 0.0 <= temperature <= 2.0:
            raise ValueError(f"temperature {temperature} outside [0, 2]")
        object.__setattr__(self, "messages", tuple(messages))
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "temperature", temperature)

    def text(self) -> str:
        """All message contents joined; the scripted provider matches on this."""
        return "\n".join(m.content for m in self.messages)

    def fingerprint(self) -> str:
        digest = hashlib.sha256(f"{self.tag}\x00{self.text()}".encode("utf-8"))
        return digest.hexdigest()[:12]


@dataclass(frozen=True)
class LmResponse:
    content: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScriptRule:
    """Respond with ``response`` when a request carries ``tag`` and its text
    contains ``match_substring``. An empty substring matches anything."""

    tag: str
    match_substring: str
    response: str


class ScriptedProvider:
    """Pure function of (tag, messages): most specific matching rule wins,
    specificity being substring length, ties broken by registration order.
    No matching rule raises :class:`ScriptMiss` so fixtures fail loudly."""

    def __init__(self, rules: Iterable[ScriptRule] = ()):
        self._rules: list[ScriptRule] = list(rules)

    def add_rule(self, tag: str, match_substring: str, response: str) -> None:
        self._rules.append(ScriptRule(tag, match_substring, response))

    @classmethod
    def from_jsonl(cls, source) -> "ScriptedProvider":
        rules = []
        with open(source, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    rules.append(ScriptRule(record["tag"], record["match_substring"],
                                            record["response"]))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(f"bad script rule on line {lineno}: {exc}") from None
        return cls(rules)

    def complete(self, request: LmRequest) -> LmResponse:
        text = request.text()
        best: ScriptRule | None = None
        best_key: tuple[int, int] | None = None
        for position, rule in enumerate(self._rules):
            if rule.tag != request.tag or rule.match_substring not in text:
                continue
            key = (len(rule.match_substring), -position)
            if best_key is None or key > best_key:
                best, best_key = rule, key
        if best is None:
            raise ScriptMiss(
                f"no scripted response for tag={request.tag!r} "
                f"(prompt fingerprint {request.fingerprint()})"
            )
        return LmResponse(best.response, {"provider": "scripted",
                                          "matched": best.match_substring})


def save_script(rules: Iterable[ScriptRule], sink) -> None:
    path = Path(sink)
    with open(path, "w", encoding="utf-8") as f:
        for rule in rules:
            f.write(json.dumps(
                {"tag": rule.tag, "match_substring": rule.match_substring,
                 "response": rule.response},
                ensure_ascii=False, sort_keys=True) + "\n")


def _walk_path(data, path: str):
    current = data
    for part in path.split("."):
        if isinstance(current, list):
            try:
                current = current[int(part)]
            except (ValueError, IndexError):
                raise KeyError(part) from None
        elif isinstance(current, dict):
            current = current[part]
        else:
            raise KeyError(part)
    return current


def _is_transient(exc: Exception) -> bool:
    """Whether a failed HTTP call may succeed if repeated: a connection
    failure, a timeout, or status 408, 429 or 5xx."""
    if isinstance(exc, (requests.ConnectionError, requests.Timeout)):
        return True
    if isinstance(exc, requests.HTTPError) and exc.response is not None:
        status = exc.response.status_code
        return status in (408, 429) or status >= 500
    return False


class HttpChatProvider:
    """POSTs ``{"messages": [...], "temperature": N}`` and pulls the reply
    text out via a configurable JSON path (default: first choice content).
    Up to ``retries`` repeats follow a transient failure; any other failure
    is final at once."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 content_path: str = "choices.0.message.content",
                 timeout: float = 60.0, retries: int = 1):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.content_path = content_path
        self.timeout = timeout
        self.retries = max(0, retries)

    def complete(self, request: LmRequest) -> LmResponse:
        payload = {
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        attempts = 0
        while True:
            attempts += 1
            try:
                response = requests.post(self.endpoint, json=payload,
                                         headers=headers, timeout=self.timeout)
                response.raise_for_status()
                data = response.json()
                break
            except (requests.RequestException, ValueError) as exc:
                logger.warning("LM call attempt %d failed: %s", attempts, exc)
                if attempts > self.retries or not _is_transient(exc):
                    noun = "attempt" if attempts == 1 else "attempts"
                    raise ProviderError(f"LM endpoint failed after {attempts} {noun}: "
                                        f"{exc}") from exc
        try:
            content = _walk_path(data, self.content_path)
        except KeyError as exc:
            raise ProviderError(
                f"response JSON has no {self.content_path!r} (missing {exc})") from None
        if not isinstance(content, str):
            raise ProviderError(f"content at {self.content_path!r} is not text")
        return LmResponse(content, {"provider": "http", "status": response.status_code})


class RecordingProvider:
    """Wraps a provider and appends every exchange to a JSONL transcript,
    enough to reconstruct the full call sequence of a run."""

    def __init__(self, inner, sink=None):
        self.inner = inner
        self.records: list[dict] = []
        self._sink = sink

    def complete(self, request: LmRequest) -> LmResponse:
        response = self.inner.complete(request)
        record = {
            "tag": request.tag,
            "temperature": request.temperature,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "response": response.content,
        }
        self.records.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        return response


def read_transcript(source) -> list[dict]:
    records = []
    with open(source, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
