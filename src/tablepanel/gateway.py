"""Chat-completion backends behind one interface.

Two implementations: a live OpenAI-compatible HTTP backend (keep-alive
connections over the standard library's ``http.client``; retries with
exponential backoff on 429/5xx/transport errors) and a deterministic
scripted backend for tests. Both are safe to share across threads.

A script entry answers ``repeat`` matching calls in arrival order, or every
matching call when ``repeat`` is None; a script of such unlimited entries is
a pure function of the request, so its runs fan out like the HTTP backend's.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import random
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Union

from . import __version__

_ROLES = ("system", "user", "assistant")
_USER_AGENT = f"tablepanel/{__version__}"


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
    """No script entry with calls left matched the request."""


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("request has no messages")
        if self.messages[0].role != "system":
            raise ValueError("first message must have role 'system'")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

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
        for name in ("base_url", "model_name", "api_key_env_var"):
            if type(getattr(self, name)) is not str:
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("temperature", "request_timeout", "retry_backoff_base"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if not self.request_timeout > 0:
            raise ValueError("request_timeout must be > 0")
        if type(self.max_retries) is not int or not 0 <= self.max_retries <= 10:
            raise ValueError(f"max_retries must be an integer in [0, 10], got {self.max_retries!r}")
        if not self.retry_backoff_base >= 0:
            raise ValueError("retry_backoff_base must be >= 0")


class ChatBackend(Protocol):
    model_name: str
    temperature: float

    def complete(self, request: ChatRequest) -> str: ...


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """Seconds asked for by a delta-seconds ``Retry-After`` header; None when
    the header is absent or in any other form (an HTTP date included)."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class _ConnectionPool:
    """Persistent HTTP/1.1 connections to one endpoint, each used by one
    thread at a time. A caller takes an idle connection or opens a new one and
    gives it back once the response is read in full, so the pool never holds
    more connections than there were callers in flight at once.

    The proxy is read from ``HTTP(S)_PROXY``/``NO_PROXY`` once, here. An
    ``https`` endpoint verifies certificates and host names against the
    system trust store, and goes through a proxy by CONNECT.
    """

    def __init__(self, base_url: str, timeout: float):
        url = urllib.parse.urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {base_url!r}")
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        netloc = url.netloc.rpartition("@")[2]
        self._timeout = timeout
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        self._address = (host, port)
        self._tunnel: Optional[tuple[str, int]] = None
        self._proxy_headers: dict[str, str] = {}
        self.target = url.path.rstrip("/") + "/chat/completions"
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if not proxy_url.hostname:
                raise ValueError(f"cannot parse the {url.scheme} proxy {proxy!r}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            if proxy_url.username is not None:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if self._context is not None:
                self._tunnel = (host, port)
            else:
                # A forward proxy takes the absolute URL as the request target.
                self.target = f"http://{netloc}{self.target}"
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        """A new, not yet connected, connection (the socket opens on first use)."""
        if self._context is None:
            return http.client.HTTPConnection(*self._address, timeout=self._timeout)
        conn = http.client.HTTPSConnection(*self._address, timeout=self._timeout,
                                           context=self._context)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel, headers=self._proxy_headers)
        return conn

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[http.client.HTTPResponse, bytes]:
        """POST ``body`` to the endpoint; returns the response and its body.
        Raises ``OSError`` or ``http.client.HTTPException`` on transport
        failures."""
        if self._proxy_headers and self._tunnel is None:
            headers = {**headers, **self._proxy_headers}
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            try:
                conn.request("POST", self.target, body, headers)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed this connection while it sat idle, so the
                # request never reached it: send it once more on a new one.
                conn.close()
                conn = self._connect()
                conn.request("POST", self.target, body, headers)
                resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp, data

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class OpenAIChatBackend:
    """POSTs ``{base_url}/chat/completions`` with a Bearer key from the
    environment; the key never appears anywhere but that header.

    Connections are kept alive and shared by the threads that call
    ``complete``; ``close()`` closes the idle ones. Retries transport errors,
    429, and 5xx with exponential backoff plus jitter; on 429 and 503 a
    delta-seconds ``Retry-After`` lengthens the wait, up to
    ``request_timeout``. Other statuses raise ApiError immediately. Total
    attempts per call are ``1 + max_retries``.
    """

    # A reply depends on its request alone, so one run may issue independent
    # calls concurrently (see ``deliberation.run_panel``).
    order_independent = True

    def __init__(self, config: BackendConfig, rng: Optional[random.Random] = None):
        self.config = config
        self.model_name = config.model_name
        self.temperature = config.temperature
        self._rng = rng or random.Random()
        self._pool = _ConnectionPool(config.base_url, config.request_timeout)

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        self._pool.close()

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
        headers = {"Content-Type": "application/json", "User-Agent": _USER_AGENT}
        key = self._api_key()
        if key is not None:
            headers["Authorization"] = f"Bearer {key}"
        body = json.dumps({
            "model": request.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }).encode("utf-8")

        attempts = self.config.max_retries + 1
        last_error: Optional[GatewayError] = None
        for attempt in range(attempts):
            retry_after = None
            try:
                resp, data = self._pool.post(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = TransportError(str(exc) or type(exc).__name__)
            else:
                if 200 <= resp.status < 300:
                    return self._parse_body(resp.status, data)
                last_error = ApiError(resp.status, data.decode("utf-8", "replace"))
                if resp.status != 429 and not 500 <= resp.status < 600:
                    raise last_error
                if resp.status in (429, 503):
                    retry_after = _retry_after_s(resp.getheader("Retry-After"))
            if attempt < attempts - 1:
                self._sleep(attempt, retry_after)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse_body(status: int, data: bytes) -> str:
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise ApiError(status, data.decode("utf-8", "replace"))
        if not isinstance(content, str):
            raise ApiError(status, data.decode("utf-8", "replace"))
        return content

    def _sleep(self, attempt: int, retry_after: Optional[float]) -> None:
        base = self.config.retry_backoff_base * (2 ** attempt)
        delay = base * (1.0 + self._rng.random())
        if retry_after is not None:
            # The server's wait, bounded so that it cannot hold a call longer
            # than a stalled socket would; it never shortens the backoff.
            delay = max(delay, min(retry_after, self.config.request_timeout))
        time.sleep(delay)


Matcher = Union[str, Callable[[str], bool], None]


@dataclass
class ScriptEntry:
    """One canned response; ``matcher`` is a substring, a predicate over the
    request text, or None (matches anything). The entry answers ``repeat``
    matching calls, or every one of them when ``repeat`` is None."""

    response: str
    matcher: Matcher = None
    repeat: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.repeat is not None and (type(self.repeat) is not int or self.repeat < 1):
            raise ValueError(f"repeat must be an int >= 1 or None (JSON null), got {self.repeat!r}")

    def matches(self, request_text: str) -> bool:
        if self.matcher is None:
            return True
        if callable(self.matcher):
            return bool(self.matcher(request_text))
        return self.matcher in request_text


class ScriptedBackend:
    """Deterministic backend: a call gets the response of the first entry that
    matches it and has calls left, or raises ScriptExhausted. The entries are
    never modified, so one script can seed several backends."""

    model_name = "scripted"
    temperature = 0.0

    def __init__(self, script: Iterable[Union[str, ScriptEntry]] = ()):
        self._entries = [e if isinstance(e, ScriptEntry) else ScriptEntry(e) for e in script]
        self._left = [e.repeat for e in self._entries]  # calls left; None: unlimited
        self._lock = threading.Lock()
        # Counted entries serve calls in arrival order: only without them may a run fan out.
        self.order_independent = bool(self._entries) and all(n is None for n in self._left)

    def close(self) -> None:
        """Nothing to release; here so that callers close every backend alike."""

    def remaining(self) -> int:
        """Calls left in the counted entries."""
        with self._lock:
            return sum(n for n in self._left if n is not None)

    def complete(self, request: ChatRequest) -> str:
        text = request.text()
        with self._lock:
            for i, entry in enumerate(self._entries):
                if entry.matches(text):
                    if self._left[i] == 1:
                        del self._entries[i], self._left[i]
                    elif self._left[i] is not None:
                        self._left[i] -= 1
                    return entry.response
        raise ScriptExhausted(f"no scripted entry matches request:\n{text[:300]}")
