"""Chat-completion backends behind one interface.

Two implementations: a live OpenAI-compatible HTTP backend (retries with
exponential backoff on 429/5xx/transport errors) and a deterministic
scripted backend for tests. Both are safe to share across threads and
count every ``complete()`` invocation, including failed ones.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Union

import requests

_ROLES = ("system", "user", "assistant")


class GatewayError(Exception):
    """Base class for backend failures."""


class TransportError(GatewayError):
    """Network-level failure that survived all retries."""


class ApiError(GatewayError):
    """Non-2xx HTTP response (or a 2xx body the wire format doesn't fit)."""

    def __init__(self, status: int, body: str):
        super().__init__(f"API error {status}: {body[:200]}")
        self.status = status
        self.body = body


class MissingApiKey(GatewayError):
    """The configured API key environment variable is unset or empty."""


class ScriptExhausted(GatewayError):
    """A strict scripted backend had no entry matching the request."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        if not self.content:
            raise ValueError("message content is empty")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    model_name: str
    temperature: float
    max_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("request has no messages")
        if self.messages[0].role != "system":
            raise ValueError("first message must have role 'system'")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    def text(self) -> str:
        """All message contents joined; used by scripted matchers."""
        return "\n".join(m.content for m in self.messages)


@dataclass(frozen=True)
class BackendConfig:
    base_url: str
    model_name: str
    api_key_env_var: str = "PANEL_API_KEY"
    temperature: float = 1.0
    request_timeout: float = 60.0
    max_retries: int = 3
    retry_backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if not 0 <= self.max_retries <= 10:
            raise ValueError("max_retries must be in [0, 10]")
        if self.retry_backoff_base < 0:
            raise ValueError("retry_backoff_base must be >= 0")


class ChatBackend(Protocol):
    model_name: str
    temperature: float

    def complete(self, request: ChatRequest) -> str: ...


class _CallCounter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = 0

    def bump(self) -> None:
        with self._lock:
            self._calls += 1

    def value(self) -> int:
        with self._lock:
            return self._calls


class OpenAIChatBackend:
    """POSTs ``{base_url}/chat/completions`` with a Bearer key from the
    environment; the key never appears anywhere but that header.

    Retries transport errors, 429, and 5xx with exponential backoff plus
    jitter; other statuses raise ApiError immediately. Total attempts per
    call are ``1 + max_retries``.
    """

    # A reply depends on its request alone, so one run may issue independent
    # calls concurrently (see ``deliberation.run_panel``).
    order_independent = True

    def __init__(self, config: BackendConfig, rng: Optional[random.Random] = None):
        self.config = config
        self.model_name = config.model_name
        self.temperature = config.temperature
        self._counter = _CallCounter()
        self._rng = rng or random.Random()

    def count_calls(self) -> int:
        return self._counter.value()

    def _api_key(self) -> Optional[str]:
        # An empty env var name opts out of auth (local endpoints).
        if not self.config.api_key_env_var:
            return None
        key = os.environ.get(self.config.api_key_env_var, "")
        if not key:
            raise MissingApiKey(
                f"environment variable {self.config.api_key_env_var} is not set"
            )
        return key

    def complete(self, request: ChatRequest) -> str:
        self._counter.bump()
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        key = self._api_key()
        if key is not None:
            headers["Authorization"] = f"Bearer {key}"
        payload: dict = {
            "model": request.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens

        attempts = self.config.max_retries + 1
        last_error: Optional[GatewayError] = None
        for attempt in range(attempts):
            try:
                resp = requests.post(
                    url,
                    data=json.dumps(payload),
                    headers=headers,
                    timeout=self.config.request_timeout,
                )
            except requests.RequestException as exc:
                last_error = TransportError(str(exc))
            else:
                if 200 <= resp.status_code < 300:
                    return self._parse_body(resp)
                if resp.status_code == 429 or 500 <= resp.status_code < 600:
                    last_error = ApiError(resp.status_code, resp.text)
                else:
                    raise ApiError(resp.status_code, resp.text)
            if attempt < attempts - 1:
                self._sleep(attempt)
        assert last_error is not None
        raise last_error

    def _parse_body(self, resp: requests.Response) -> str:
        try:
            body = resp.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise ApiError(resp.status_code, resp.text)
        if not isinstance(content, str):
            raise ApiError(resp.status_code, resp.text)
        return content

    def _sleep(self, attempt: int) -> None:
        base = self.config.retry_backoff_base * (2 ** attempt)
        time.sleep(base * (1.0 + self._rng.random()))


Matcher = Union[str, Callable[[str], bool], None]


@dataclass
class ScriptEntry:
    """One canned response; ``matcher`` is a substring, a predicate over the
    request text, or None (matches anything)."""

    response: str
    matcher: Matcher = None

    def matches(self, request_text: str) -> bool:
        if self.matcher is None:
            return True
        if callable(self.matcher):
            return bool(self.matcher(request_text))
        return self.matcher in request_text


class ScriptedBackend:
    """Deterministic replay backend: consumes the first matching entry of an
    ordered script per call. In strict mode a request with no matching entry
    raises ScriptExhausted; otherwise a fixed fallback string is returned.
    """

    model_name = "scripted"
    temperature = 0.0
    # Which entry a request consumes depends on the order of arrival, so the
    # calls of one run must stay sequential.
    order_independent = False

    def __init__(
        self,
        script: Iterable[Union[str, tuple, ScriptEntry]] = (),
        strict: bool = True,
        fallback: str = "NO SCRIPTED RESPONSE",
    ):
        self._entries = [self._coerce(e) for e in script]
        self.strict = strict
        self.fallback = fallback
        self._counter = _CallCounter()
        self._lock = threading.Lock()

    @staticmethod
    def _coerce(entry: Union[str, tuple, ScriptEntry]) -> ScriptEntry:
        if isinstance(entry, ScriptEntry):
            return entry
        if isinstance(entry, str):
            return ScriptEntry(response=entry)
        matcher, response = entry
        return ScriptEntry(response=response, matcher=matcher)

    def count_calls(self) -> int:
        return self._counter.value()

    def remaining(self) -> int:
        with self._lock:
            return len(self._entries)

    def complete(self, request: ChatRequest) -> str:
        self._counter.bump()
        text = request.text()
        with self._lock:
            for i, entry in enumerate(self._entries):
                if entry.matches(text):
                    del self._entries[i]
                    return entry.response
        if self.strict:
            raise ScriptExhausted(f"no scripted entry matches request:\n{text[:300]}")
        return self.fallback
