"""Chat-completion backends behind one interface.

Two implementations: a live OpenAI-compatible HTTP backend (keep-alive
HTTP/1.1 connections on plain sockets, TLS from ``ssl`` for ``https``, a
proxy from the environment by the running Python's ``urllib`` rules; retries
with exponential backoff on 429/5xx/transport errors) and a deterministic
scripted backend for tests. Both are safe to share across threads. ``ssl``
is imported only when the first ``https`` backend is built, which loads the
trust store for the whole process, and ``urllib.request`` only when the
endpoint's scheme has a ``<scheme>_proxy`` variable.

A script entry answers ``repeat`` matching calls in arrival order, or every
matching call when ``repeat`` is None; a script of such unlimited entries is
a pure function of the request, so its runs fan out like the HTTP backend's.
"""

from __future__ import annotations

import base64
import functools
import io
import json
import math
import os
import random
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Union

from . import __version__

_ROLES = ("system", "user", "assistant")
_USER_AGENT = f"tablepanel/{__version__}"
_MAX_LINE = 65536  # bytes in a status, header or chunk-size line, as in http.client
_MAX_HEADERS = 100  # lines in a reply's header block, its blank line included, as in http.client
_MAX_WAIT_S = 86400  # one day; a far longer wait overflows a socket timeout or time.sleep
_UNSAFE_IN_URL = re.compile(r"[\x00-\x20\x7f]")
_UNSAFE_IN_KEY = re.compile(rb"[\x00-\x1f\x7f]")
_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


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


class _BadReply(Exception):
    """A reply that breaks HTTP/1.1 framing or is cut short."""


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
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.request_timeout <= _MAX_WAIT_S:
            raise ValueError(f"request_timeout must be > 0 and <= {_MAX_WAIT_S}")
        if type(self.max_retries) is not int or not 0 <= self.max_retries <= 10:
            raise ValueError(f"max_retries must be an integer in [0, 10], got {self.max_retries!r}")
        if not 0 <= self.retry_backoff_base <= _MAX_WAIT_S:
            raise ValueError(f"retry_backoff_base must be >= 0 and <= {_MAX_WAIT_S}")


class ChatBackend(Protocol):
    model_name: str
    temperature: float

    def complete(self, request: ChatRequest) -> str: ...


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """Seconds asked for by a delta-seconds ``Retry-After`` header; None when
    the header is absent or in any other form (an HTTP date included)."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _read_line(reader: io.BufferedReader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadReply(f"{what} longer than {_MAX_LINE} bytes")
    return line


def _read_exactly(reader: io.BufferedReader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) < n:
        raise _BadReply(f"reply cut short: {len(data)} of {n} bytes read")
    return data


def _read_fields(reader: io.BufferedReader) -> dict[str, str]:
    """A header (or trailer) block up to its blank line, by lower-cased
    name; repeated fields are joined with ", "."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise _BadReply("reply ended inside its header block")
        key, colon, value = line.partition(b":")
        if not colon or not _TOKEN.fullmatch(key):
            raise _BadReply(f"malformed header line {line[:100]!r}")
        name, text = key.decode("ascii").lower(), value.strip().decode("latin-1")
        fields[name] = f"{fields[name]}, {text}" if name in fields else text
    raise _BadReply(f"got more than {_MAX_HEADERS} headers")


def _read_status(reader: io.BufferedReader) -> tuple[bytes, int, str]:
    """A status line's version, status and reason. Raises ``ConnectionError``
    when the connection closed before it."""
    line = _read_line(reader, "status line")
    if not line:
        raise ConnectionError("the server closed the connection without a reply")
    parts = line.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or len(parts[1]) != 3
            or not parts[1].isdigit() or parts[1] < b"100"):
        raise _BadReply(f"bad status line {line[:100]!r}")
    return parts[0], int(parts[1]), parts[2].strip().decode("latin-1") if len(parts) > 2 else ""


def _read_reply(reader: io.BufferedReader) -> tuple[int, dict[str, str], bytes, bool]:
    """The next final reply on a connection: its status, headers (by
    lower-cased name), body, and whether the connection may carry another
    request. Interim 1xx replies are skipped. Raises ``ConnectionError``
    when the connection closed before any reply, and ``_BadReply`` when the
    reply is malformed or cut short."""
    while True:
        version, status, _ = _read_status(reader)
        headers = _read_fields(reader)
        if status >= 200:
            break
    tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
    keep_alive = "keep-alive" in tokens if version == b"HTTP/1.0" else "close" not in tokens
    if status in (204, 304):
        return status, headers, b"", keep_alive
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = []
        while True:
            size = _read_line(reader, "chunk size").split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise _BadReply(f"bad chunk size {size[:100]!r}")
            if (n := int(size, 16)) == 0:
                break
            chunks.append(_read_exactly(reader, n))
            if _read_line(reader, "chunk end") not in (b"\r\n", b"\n"):
                raise _BadReply("chunk longer than its size")
        _read_fields(reader)  # the trailer
        return status, headers, b"".join(chunks), keep_alive
    length = headers.get("content-length")
    if length is None:  # the body ends when the server closes the connection
        return status, headers, reader.read(), False
    if not (length.isascii() and length.isdigit()):
        raise _BadReply(f"bad Content-Length {length!r}")
    return status, headers, _read_exactly(reader, int(length)), keep_alive


@functools.cache
def _trust_store():
    """The TLS context of every ``https`` pool: the system trust store, loaded
    (about 47 ms) once per process."""
    import ssl

    return ssl.create_default_context()


def _ascii_host(netloc: str) -> str:
    """``host[:port]`` with a non-ASCII host in its IDNA form."""
    return netloc if netloc.isascii() else netloc.encode("idna").decode("ascii")


def _head(start_line: str, fields: dict[str, str]) -> bytes:
    """A request's start line and header lines, without the closing blank line."""
    lines = [f"{start_line}\r\n", *(f"{k}: {v}\r\n" for k, v in fields.items())]
    return "".join(lines).encode("ascii")


class _ConnectionPool:
    """Persistent HTTP/1.1 connections to one endpoint, each used by one
    thread at a time. A caller takes an idle connection or opens a new one and
    gives it back once the response is read in full, so the pool never holds
    more connections than there were callers in flight at once.

    Each connection is a plain socket, wrapped in TLS for an ``https``
    endpoint; the pool writes each request in one ``sendall`` and reads the
    replies through one buffered reader per connection.

    The proxy is read from the environment once, here, by urllib's
    ``getproxies_environment`` and ``proxy_bypass_environment``. An ``https``
    endpoint verifies certificates and host names against the system trust
    store, and goes through a proxy by an HTTP/1.1 CONNECT whose target is the
    host's IDNA form.
    """

    def __init__(self, base_url: str, timeout: float):
        url = urllib.parse.urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {base_url!r}")
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        netloc = url.netloc.rpartition("@")[2]
        self._timeout = timeout
        self._context = _trust_store() if url.scheme == "https" else None
        self._address = (host, port)
        self._tls_host = host
        self._tunnel: Optional[bytes] = None  # the CONNECT request's head
        proxy_headers: dict[str, str] = {}
        self.target = url.path.rstrip("/") + "/chat/completions"
        head = {"Host": _ascii_host(netloc), "Accept-Encoding": "identity",
                "Content-Type": "application/json", "User-Agent": _USER_AGENT}
        proxy = None
        # urllib gives a scheme a proxy only from a non-empty <scheme>_proxy
        # variable, so without one its import (about 30 ms) is skipped.
        variable = f"{url.scheme}_proxy"
        if any(value and name.lower() == variable for name, value in os.environ.items()):
            from urllib.request import getproxies_environment, proxy_bypass_environment

            proxies = getproxies_environment()
            if not proxy_bypass_environment(netloc, proxies):
                proxy = proxies.get(url.scheme)
        if proxy:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if not proxy_url.hostname:
                raise ValueError(f"cannot parse the {url.scheme} proxy {proxy!r}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            if proxy_url.username is not None:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if self._context is not None:
                authority = _ascii_host(f"[{host}]:{port}" if ":" in host else f"{host}:{port}")
                self._tunnel = _head(f"CONNECT {authority} HTTP/1.1",
                                     {"Host": authority, **proxy_headers}) + b"\r\n"
            else:
                # A forward proxy takes the absolute URL as the request target.
                self.target = f"http://{head['Host']}{self.target}"
                head.update(proxy_headers)
        if (not self.target.isascii() or _UNSAFE_IN_URL.search(self.target)
                or _UNSAFE_IN_URL.search(head["Host"])):
            raise ValueError(f"base_url must be ASCII without spaces or control characters, "
                             f"got {base_url!r}")
        # Every request's head but its Content-Length and per-call headers.
        self._head = _head(f"POST {self.target} HTTP/1.1", head)
        self._idle: list[tuple[socket.socket, io.BufferedReader]] = []
        self._lock = threading.Lock()

    def _open(self) -> tuple[socket.socket, io.BufferedReader]:
        """A connected socket (through the proxy's tunnel and TLS, when the
        endpoint has them) and the one reader that reads its replies."""
        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as reader:
                    _, status, reason = _read_status(reader)
                    if status != 200:
                        raise OSError(f"Tunnel connection failed: {status} {reason}")
                    _read_fields(reader)
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=self._tls_host)
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    @staticmethod
    def _close(sock: socket.socket, reader: io.BufferedReader) -> None:
        reader.close()
        sock.close()

    def post(self, body: bytes, headers: bytes) -> tuple[int, dict[str, str], bytes]:
        """POST ``body`` to the endpoint with ``headers`` (encoded
        ``Name: value\\r\\n`` lines) added; returns the reply's status, its
        headers by lower-cased name, and its body. Raises ``OSError`` or
        ``_BadReply`` on transport failures."""
        request = b"".join((self._head, b"Content-Length: %d\r\n" % len(body), headers,
                            b"\r\n", body))
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        sock, reader = idle or self._open()
        try:
            try:
                sock.sendall(request)
                status, reply_headers, data, keep_alive = _read_reply(reader)
            except ConnectionError:
                if idle is None:
                    raise
                # The server closed this connection while it sat idle, so the
                # request never reached it: send it once more on a new one.
                self._close(sock, reader)
                sock, reader = self._open()
                sock.sendall(request)
                status, reply_headers, data, keep_alive = _read_reply(reader)
        except BaseException:
            self._close(sock, reader)
            raise
        if keep_alive:
            with self._lock:
                self._idle.append((sock, reader))
        else:
            self._close(sock, reader)
        return status, reply_headers, data

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock, reader in idle:
            self._close(sock, reader)


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

    def _api_key(self) -> Optional[bytes]:
        # An empty env var name opts out of auth (local endpoints).
        name = self.config.api_key_env_var
        if not name:
            return None
        key = os.environ.get(name, "")
        if not key:
            raise MissingApiKey(f"environment variable {name} is not set")
        try:
            token = key.encode("latin-1")
        except UnicodeEncodeError:
            token = None
        if token is None or _UNSAFE_IN_KEY.search(token):
            # Such a key would break the header it goes in; the message never shows it.
            raise MissingApiKey(f"environment variable {name} holds a control character "
                                f"or a character outside Latin-1")
        return token

    def complete(self, request: ChatRequest) -> str:
        key = self._api_key()
        headers = b"" if key is None else b"Authorization: Bearer %s\r\n" % key
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
                status, reply_headers, data = self._pool.post(body, headers)
            except (OSError, _BadReply) as exc:
                last_error = TransportError(str(exc) or type(exc).__name__)
            else:
                if 200 <= status < 300:
                    return self._parse_body(status, data)
                last_error = ApiError(status, data.decode("utf-8", "replace"))
                if status != 429 and not 500 <= status < 600:
                    raise last_error
                if status in (429, 503):
                    retry_after = _retry_after_s(reply_headers.get("retry-after"))
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
