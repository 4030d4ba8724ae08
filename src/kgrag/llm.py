"""Language-model provider seam: one call contract, several backends.

Every pipeline call goes through ``provider.complete(LmRequest)`` so tests
can swap in the deterministic scripted provider and production can point at
any chat-completion style HTTP endpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import _SURROGATE

logger = logging.getLogger(__name__)

# Delay before the first repeat of a transient HTTP failure; each further
# repeat waits twice as long. A numeric Retry-After from the server replaces
# the computed delay. No wait exceeds MAX_RETRY_DELAY_S.
RETRY_BASE_DELAY_S = 0.5
MAX_RETRY_DELAY_S = 30.0

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

    def __init__(self, messages: Sequence[ChatMessage], tag: str):
        if not messages:
            raise ValueError("a request needs at least one message")
        for message in messages:
            if message.role not in _VALID_ROLES:
                raise ValueError(f"bad message role {message.role!r}")
        if not tag:
            raise ValueError("tag must be non-empty")
        object.__setattr__(self, "messages", tuple(messages))
        object.__setattr__(self, "tag", tag)

    def text(self) -> str:
        """All message contents joined; the scripted provider matches on this."""
        return "\n".join(m.content for m in self.messages)

    def fingerprint(self) -> str:
        digest = hashlib.sha256(f"{self.tag}\x00{self.text()}".encode("utf-8"))
        return digest.hexdigest()[:12]


@dataclass(frozen=True)
class LmResponse:
    content: str


@dataclass(frozen=True)
class ScriptRule:
    """Respond with ``response`` when a request carries ``tag`` and its text
    contains ``match_substring``. An empty substring matches anything."""

    tag: str
    match_substring: str
    response: str


_SCRIPT_FIELDS = ("tag", "match_substring", "response")


class ScriptedProvider:
    """Pure function of (tag, messages): most specific matching rule wins,
    specificity being substring length, ties broken by rule order.
    No matching rule raises :class:`ScriptMiss` so fixtures fail loudly."""

    def __init__(self, rules: Iterable[ScriptRule] = ()):
        # Each tag's rules in try order, longest substring first; sorting is
        # stable, so ties keep the order the rules were given in.
        self._rules: dict[str, list[ScriptRule]] = {}
        for rule in sorted(rules, key=lambda r: -len(r.match_substring)):
            self._rules.setdefault(rule.tag, []).append(rule)

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
                    values = [record[name] for name in _SCRIPT_FIELDS]
                except KeyError as exc:
                    raise ValueError(f"bad script rule on line {lineno}: "
                                     f"missing field {exc.args[0]!r}") from None
                except (ValueError, RecursionError, TypeError) as exc:
                    raise ValueError(f"bad script rule on line {lineno}: {exc}") from None
                for name, value in zip(_SCRIPT_FIELDS, values):
                    if type(value) is not str:
                        raise ValueError(f"bad script rule on line {lineno}: "
                                         f"field {name!r} is not a string")
                    if not value.isascii() and _SURROGATE.search(value):
                        raise ValueError(f"bad script rule on line {lineno}: "
                                         f"field {name!r} holds a lone surrogate")
                rules.append(ScriptRule(*values))
        return cls(rules)

    def complete(self, request: LmRequest) -> LmResponse:
        text = request.text()
        for rule in self._rules.get(request.tag, ()):
            if rule.match_substring in text:
                return LmResponse(rule.response)
        raise ScriptMiss(
            f"no scripted response for tag={request.tag!r} "
            f"(prompt fingerprint {request.fingerprint()})"
        )


def _is_transient(exc: Exception) -> bool:
    """Whether a failed HTTP call may succeed if repeated: a connection
    failure, a timeout, or status 408, 429 or 5xx."""
    import requests  # deferred: offline runs never pay for importing it

    if isinstance(exc, (requests.ConnectionError, requests.Timeout)):
        return True
    if isinstance(exc, requests.HTTPError) and exc.response is not None:
        status = exc.response.status_code
        return status in (408, 429) or status >= 500
    return False


def _retry_delay(exc: Exception, failures: int) -> float:
    """Seconds to wait after the ``failures``-th failed attempt: the server's
    numeric Retry-After if it sent one, else exponential backoff."""
    delay = RETRY_BASE_DELAY_S * 2 ** (failures - 1)
    response = getattr(exc, "response", None)
    if response is not None:
        try:
            asked = float(response.headers.get("Retry-After", ""))
        except ValueError:
            asked = -1.0
        if asked >= 0:  # false for NaN
            delay = asked
    return min(delay, MAX_RETRY_DELAY_S)


def post_json(endpoint: str, payload: dict, api_key: str | None, timeout: float,
              retries: int, sleep: Callable[[float], None], what: str):
    """POST ``payload`` as JSON, with ``api_key`` as a bearer token when
    set, and return the decoded body. Up to ``retries`` repeats follow a
    transient failure, each after :func:`_retry_delay` seconds; any other
    failure, or the last one, raises :class:`ProviderError` naming ``what``
    and the number of attempts."""
    import requests  # deferred: offline runs never pay for importing it

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    attempts = 0
    while True:
        attempts += 1
        try:
            response = requests.post(endpoint, json=payload, headers=headers,
                                     timeout=timeout)
            response.raise_for_status()
            return response.json()
        except (requests.RequestException, ValueError) as exc:
            logger.warning("%s attempt %d failed: %s", what, attempts, exc)
            if attempts > retries or not _is_transient(exc):
                noun = "attempt" if attempts == 1 else "attempts"
                raise ProviderError(f"{what} failed after {attempts} {noun}: "
                                    f"{exc}") from exc
            sleep(_retry_delay(exc, attempts))


class HttpChatProvider:
    """POSTs ``{"messages": [...], "temperature": 1.0}`` and reads the reply
    text at ``choices.0.message.content``. Up to ``retries`` repeats follow
    a transient failure, with backoff (see :func:`post_json`); any other
    failure is final at once. ``sleep`` does the waiting between attempts."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 timeout: float = 60.0, retries: int = 1,
                 sleep: Callable[[float], None] = time.sleep):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.retries = max(0, retries)
        self.sleep = sleep

    def complete(self, request: LmRequest) -> LmResponse:
        payload = {
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": 1.0,
        }
        data = post_json(self.endpoint, payload, self.api_key, self.timeout,
                         self.retries, self.sleep, "LM endpoint")
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError("response JSON has no 'choices.0.message.content': "
                                f"{exc!r}") from None
        if not isinstance(content, str):
            raise ProviderError("content at 'choices.0.message.content' is not text")
        if not content.isascii() and _SURROGATE.search(content):
            raise ProviderError("content at 'choices.0.message.content' holds a lone surrogate")
        return LmResponse(content)
