from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
import urllib.parse
from contextlib import closing, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import tablepanel
from tablepanel import cli, gateway
from tablepanel.gateway import (
    ApiError,
    BackendConfig,
    ChatMessage,
    ChatRequest,
    MissingApiKey,
    OpenAIChatBackend,
    ScriptedBackend,
    ScriptEntry,
    ScriptExhausted,
    TransportError,
)
from tablepanel.personas import OUTPUT_CONTRACTS, PANEL_SIZE_MAX, Stage


def req(content: str = "hello") -> ChatRequest:
    return ChatRequest(
        messages=(ChatMessage("system", "sys"), ChatMessage("user", content)),
        model_name="m",
        temperature=0.0,
    )


class TestChatRequest:
    def test_first_message_must_be_system(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage("user", "x"),), model_name="m", temperature=0.0)

    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(), model_name="m", temperature=0.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage("system", "s"),), model_name="m", temperature=-1.0)


class TestScriptedBackend:
    def test_replays_in_order(self):
        backend = ScriptedBackend(["ANSWER: 42", "second"])
        assert backend.complete(req()) == "ANSWER: 42"
        assert backend.complete(req()) == "second"

    def test_strict_empty_script_raises(self):
        backend = ScriptedBackend([])
        with pytest.raises(ScriptExhausted):
            backend.complete(req())

    def test_trailing_unlimited_entry_is_a_catch_all(self):
        backend = ScriptedBackend([ScriptEntry("for a", matcher="alpha"),
                                   ScriptEntry("fallback", repeat=None)])
        assert [backend.complete(req(t)) for t in ("x", "alpha", "alpha", "y")] == [
            "fallback", "for a", "fallback", "fallback"]

    def test_matcher_selects_first_matching_entry(self):
        backend = ScriptedBackend([
            ScriptEntry("for b", matcher="bravo"),
            ScriptEntry("for a", matcher="alpha"),
        ])
        assert backend.complete(req("alpha call")) == "for a"
        assert backend.complete(req("bravo call")) == "for b"

    def test_callable_matcher(self):
        backend = ScriptedBackend([ScriptEntry("yes", matcher=lambda t: t.endswith("!"))])
        assert backend.complete(req("go!")) == "yes"

    def test_entries_consumed_once(self):
        backend = ScriptedBackend([ScriptEntry("only", matcher="x")])
        assert backend.complete(req("x")) == "only"
        with pytest.raises(ScriptExhausted):
            backend.complete(req("x"))

    def test_counted_entry_serves_n_calls_then_falls_through(self):
        backend = ScriptedBackend([ScriptEntry("first", matcher="x", repeat=3),
                                   ScriptEntry("second", matcher="x")])
        assert backend.remaining() == 4
        assert [backend.complete(req("x")) for _ in range(4)] == ["first"] * 3 + ["second"]
        assert backend.remaining() == 0
        with pytest.raises(ScriptExhausted):
            backend.complete(req("x"))

    def test_unlimited_entry_never_runs_out(self):
        backend = ScriptedBackend([ScriptEntry("once", matcher="x"),
                                   ScriptEntry("always", matcher="x", repeat=None)])
        assert [backend.complete(req("x")) for _ in range(1000)] == ["once"] + ["always"] * 999
        assert backend.remaining() == 0

    def test_only_an_all_unlimited_script_is_order_independent(self):
        counted, unlimited = ScriptEntry("c", repeat=2), ScriptEntry("u", repeat=None)
        for script, independent in (([], False), ([counted], False), ([unlimited, counted], False),
                                    ([unlimited], True), ([unlimited, unlimited], True)):
            assert ScriptedBackend(script).order_independent is independent, script

    def test_deterministic_for_identical_request_sequences(self):
        script = ["a", "b", ScriptEntry("c", matcher="three")]
        outs1 = [ScriptedBackend(list(script)).complete(req(f"call {i}")) for i in range(2)]
        outs2 = [ScriptedBackend(list(script)).complete(req(f"call {i}")) for i in range(2)]
        assert outs1 == outs2


class _StubHandler(BaseHTTPRequestHandler):
    """Scripted HTTP/1.0 responses; records request headers and bodies and
    counts the connections it was handed and the ones that ended. A plan
    entry is ``(status, payload)`` or ``(status, payload, extra headers)``."""

    plan: list = []
    seen: list = []
    counts: dict = {}
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with self.lock:
            self.counts["opened"] += 1

    def finish(self):
        super().finish()
        with self.lock:
            self.counts["closed"] += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        with self.lock:
            type(self).seen.append({
                "path": self.path,
                "auth": self.headers.get("Authorization"),
                "user_agent": self.headers.get("User-Agent"),
                "body": json.loads(body),
            })
        reply = self.respond(json.loads(body))
        if reply is None:
            return
        status, payload, headers = reply
        if payload is None:
            payload = {"choices": [{"message": {"content": "ok"}}]}
        blob = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def respond(self, body: dict) -> tuple[int, dict | None, dict] | None:
        """(status, payload, extra headers) for a request body; None sends
        nothing."""
        with self.lock:
            entry = type(self).plan.pop(0) if type(self).plan else (200, None)
        return (*entry, {}) if len(entry) == 2 else entry

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class _EchoHandler(_KeepAliveHandler):
    """Replies with the request's last message."""

    def respond(self, body):
        return 200, {"choices": [{"message": {"content": body["messages"][-1]["content"]}}]}, {}


class _ConnectionCloseHandler(_KeepAliveHandler):
    """HTTP/1.1, but every response says ``Connection: close``."""

    def respond(self, body):
        status, payload, headers = super().respond(body)
        return status, payload, {**headers, "Connection": "close"}


class _DropsIdleHandler(_KeepAliveHandler):
    """Closes each connection after one response without saying so, as a
    server does with connections that sit idle too long."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _StallingHandler(_KeepAliveHandler):
    """Records the request, then never answers it."""

    release = threading.Event()

    def respond(self, body):
        self.release.wait(10)
        self.close_connection = True
        return None


_OK_BLOB = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
_HALF = len(_OK_BLOB) // 2


class _RawReplyHandler(_KeepAliveHandler):
    """Records the request, then writes ``reply`` verbatim: reply forms the
    standard library's server never produces. Closes the connection after
    it unless ``keep_open``."""

    reply = b""
    keep_open = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).seen.append(json.loads(body))
        self.wfile.write(self.reply)
        self.close_connection = not self.keep_open


_RAW_REPLIES = {
    # (reply bytes, connection kept open by the server, connections for 3 calls)
    "chunked-extension-trailer": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x;name=value\r\n%s\r\n" % (_HALF, _OK_BLOB[:_HALF])
        + b"%X\r\n%s\r\n" % (len(_OK_BLOB) - _HALF, _OK_BLOB[_HALF:])
        + b"0\r\nX-Checksum: none\r\n\r\n", True, 1),
    "http-1.0-body-to-close": (
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _OK_BLOB, False, 3),
    "100-continue-first": (
        b"HTTP/1.1 100 Continue\r\n\r\n"
        + b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_OK_BLOB), _OK_BLOB), True, 1),
}


_PANEL_REPLIES = {
    Stage.ASSESS: "COMPLEXITY: basic\nNOTES:\n- direct lookup",
    Stage.SOLVE: "ANSWER: 42",
    Stage.VERIFY: "VERDICT: validated",
    Stage.PRESENT: "RATIONALE: table lookup\nANSWER: 42",
    Stage.DELIBERATE: "POSITION: keep\nANSWER: 42",
}


class _PanelHandler(_KeepAliveHandler):
    """Answers every stage's contract with the same answer: each panel
    agrees at once."""

    def respond(self, body):
        system = body["messages"][0]["content"]
        stage = next(s for s in Stage if OUTPUT_CONTRACTS[s] in system)
        return 200, {"choices": [{"message": {"content": _PANEL_REPLIES[stage]}}]}, {}


class _ConnectProxy(socketserver.StreamRequestHandler):
    """A CONNECT proxy: records each request head as its lines, then writes
    ``answer``. After a 200 it relays the tunnel to ``upstream`` when that is
    set; otherwise it records the first bytes sent into the tunnel and
    closes the connection."""

    answer = b"HTTP/1.1 200 Connection established\r\n\r\n"
    upstream: tuple[str, int] | None = None
    heads: list = []
    tunnelled: list = []

    def handle(self):
        head = []
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            head.append(line.decode("latin-1").rstrip("\r\n"))
        type(self).heads.append(head)
        self.wfile.write(self.answer)
        if not self.answer.startswith(b"HTTP/1.1 200 "):
            return
        if self.upstream is None:
            type(self).tunnelled.append(self.request.recv(65536))
            return
        with socket.create_connection(self.upstream, timeout=5) as upstream:
            back = threading.Thread(target=_relay, args=(upstream, self.request))
            back.start()
            _relay(self.request, upstream)
            back.join(10)


def _relay(source: socket.socket, sink: socket.socket) -> None:
    with suppress(OSError):
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)


class _Server(ThreadingHTTPServer):
    # Idle keep-alive connections of a backend the test did not close would
    # otherwise hold ``server_close`` until they time out.
    block_on_close = False
    tls: ssl.SSLContext | None = None

    def get_request(self):
        sock, address = super().get_request()
        if self.tls is not None:  # the handshake runs on the handler's first read
            sock = self.tls.wrap_socket(sock, server_side=True, do_handshake_on_connect=False)
        return sock, address

    def handle_error(self, request, client_address):
        if self.tls is None:  # over TLS, a client refusing the certificate is expected
            super().handle_error(request, client_address)


@pytest.fixture(scope="module")
def certificate(tmp_path_factory) -> str:
    """A self-signed certificate for ``localhost`` with its key, in one file."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command to make a certificate")
    path = tmp_path_factory.mktemp("tls") / "localhost.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                    "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                    "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost",
                    "-keyout", str(path), "-out", str(path.with_suffix(".crt"))],
                   check=True, capture_output=True, timeout=60)
    path.write_text(path.read_text() + path.with_suffix(".crt").read_text())
    return str(path)


@pytest.fixture
def serve(monkeypatch):
    """Starts loopback servers with a given handler class; returns their URL.
    With ``tls`` (a certificate and key file) the server speaks HTTPS."""
    servers = []
    _StubHandler.plan = []
    _StubHandler.seen = []
    _StubHandler.counts = {"opened": 0, "closed": 0}
    _StallingHandler.release.clear()
    monkeypatch.setattr(_ConnectProxy, "heads", [])
    monkeypatch.setattr(_ConnectProxy, "tunnelled", [])

    def start(handler=_StubHandler, tls: str | None = None) -> str:
        server = _Server(("127.0.0.1", 0), handler)
        if tls is not None:
            server.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            server.tls.load_cert_chain(tls)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return f"{'http' if tls is None else 'https'}://127.0.0.1:{server.server_address[1]}"

    yield start
    _StallingHandler.release.set()
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server(serve):
    return serve()


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """Loopback tests talk to their servers directly whatever the caller's
    environment says; the proxy tests set what they need."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def wait_until(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def live_backend(base_url: str, retries: int = 3) -> OpenAIChatBackend:
    config = BackendConfig(
        base_url=base_url,
        model_name="test-model",
        api_key_env_var="PANEL_API_KEY",
        temperature=0.5,
        request_timeout=5.0,
        max_retries=retries,
        retry_backoff_base=0.001,
    )
    return OpenAIChatBackend(config, rng=random.Random(0))


class TestOpenAIChatBackend:
    def test_success_returns_message_content(self, stub_server, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-test")
        backend = live_backend(stub_server)
        assert backend.complete(req()) == "ok"
        call = _StubHandler.seen[0]
        assert call["path"] == "/chat/completions"
        assert call["body"]["model"] == "m"
        assert call["body"]["temperature"] == 0.0
        assert call["body"]["messages"][0] == {"role": "system", "content": "sys"}

    def test_key_sent_only_in_authorization_header(self, stub_server, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-secret")
        backend = live_backend(stub_server)
        backend.complete(req())
        call = _StubHandler.seen[0]
        assert call["auth"] == "Bearer sk-secret"
        assert "sk-secret" not in json.dumps(call["body"])

    def test_retries_on_429_then_succeeds(self, stub_server, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-test")
        _StubHandler.plan = [(429, {}), (429, {}), (200, None)]
        backend = live_backend(stub_server)
        assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 3  # 2 retries after 2 rate limits

    def test_retries_on_5xx_until_exhausted(self, stub_server, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-test")
        _StubHandler.plan = [(500, {})] * 3
        backend = live_backend(stub_server, retries=2)
        with pytest.raises(ApiError) as err:
            backend.complete(req())
        assert err.value.status == 500
        assert len(_StubHandler.seen) == 3  # 1 + max_retries attempts

    def test_4xx_fails_immediately_without_retry(self, stub_server, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-test")
        _StubHandler.plan = [(400, {"error": "bad"})]
        backend = live_backend(stub_server)
        with pytest.raises(ApiError) as err:
            backend.complete(req())
        assert err.value.status == 400
        assert len(_StubHandler.seen) == 1

    def test_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setenv("PANEL_API_KEY", "sk-test")
        backend = live_backend("http://127.0.0.1:1", retries=1)  # nothing listens
        with pytest.raises(TransportError):
            backend.complete(req())

    def test_malformed_2xx_body_is_api_error(self, serve, monkeypatch):
        replies = [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(blob), blob)
                   for blob in (b'{"unexpected": true}',
                                b'{"choices": [{"message": {"content": null}}]}')]
        replies.append(b"HTTP/1.1 204 No Content\r\n\r\n")
        url = serve(_RawReplyHandler)
        for calls, reply in enumerate(replies, 1):
            monkeypatch.setattr(_RawReplyHandler, "reply", reply)
            with closing(keepalive_backend(url, retries=2)) as backend:
                with pytest.raises(ApiError):
                    backend.complete(req())
            assert len(_StubHandler.seen) == calls, reply  # not retried

    def test_missing_api_key_raises(self, stub_server, monkeypatch):
        backend = live_backend(stub_server)
        # A key that would break the header, or that no Latin-1 header can carry.
        for key in (None, "abc\r\nX-Evil: 1", "abc\x7f", "abc\u20ac"):
            if key is None:
                monkeypatch.delenv("PANEL_API_KEY", raising=False)
            else:
                monkeypatch.setenv("PANEL_API_KEY", key)
            with pytest.raises(MissingApiKey, match="PANEL_API_KEY") as err:
                backend.complete(req())
            assert "abc" not in str(err.value)
        assert _StubHandler.seen == []

    def test_empty_env_var_name_sends_no_auth_header(self, stub_server):
        config = BackendConfig(base_url=stub_server, model_name="m", api_key_env_var="",
                               request_timeout=5.0, max_retries=0)
        backend = OpenAIChatBackend(config)
        assert backend.complete(req()) == "ok"
        assert _StubHandler.seen[0]["auth"] is None


class TestBackendConfig:
    def test_retry_cap(self):
        with pytest.raises(ValueError):
            BackendConfig(base_url="http://x", model_name="m", max_retries=11)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            BackendConfig(base_url="http://x", model_name="m", request_timeout=0)


def keepalive_backend(base_url: str, retries: int = 0, timeout: float = 5.0) -> OpenAIChatBackend:
    return OpenAIChatBackend(BackendConfig(base_url=base_url, model_name="m", api_key_env_var="",
                                           request_timeout=timeout, max_retries=retries,
                                           retry_backoff_base=0.001), rng=random.Random(0))


class TestRetryAfter:
    _CASES = [
        (429, "Retry-After", "2", 2.0),
        (503, "Retry-After", "2", 2.0),
        (503, "retry-after", "2", 2.0),  # header names are case-insensitive
        (429, "Retry-After", "30", 5.0),  # capped at request_timeout
        (429, "Retry-After", "0", None),  # never shorter than the backoff
        (429, "Retry-After", "soon", None),
        (429, "Retry-After", "Wed, 21 Oct 2026 07:28:00 GMT", None),  # HTTP-date form: not honoured
        (429, "Retry-After", None, None),
        (500, "Retry-After", "2", None),  # only 429 and 503 carry it
    ]

    @pytest.mark.parametrize("status,name,header,expected", _CASES, ids=[
        "-".join(map(str, (s, h, e) if n == "Retry-After" else (s, n, h, e)))
        for s, n, h, e in _CASES])
    def test_sleep_honours_delta_seconds(self, stub_server, monkeypatch, status, name, header,
                                         expected):
        slept = []
        monkeypatch.setattr(gateway.time, "sleep", slept.append)
        headers = {} if header is None else {name: header}
        _StubHandler.plan = [(status, {}, headers), (200, None)]
        with closing(keepalive_backend(stub_server, retries=1)) as backend:
            assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 2
        assert len(slept) == 1
        if expected is None:
            assert slept[0] < 0.01  # the computed backoff: 1-2 ms
        else:
            assert slept[0] == expected


class TestTransport:
    def test_sequential_calls_share_one_connection(self, serve):
        with closing(keepalive_backend(serve(_KeepAliveHandler))) as backend:
            for _ in range(5):
                assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 5
        assert _StubHandler.counts["opened"] == 1

    def test_concurrent_callers_never_share_a_connection(self, serve):
        """16 threads on 2 cores, switching every 10 µs: a connection handed
        to two callers at once would fail a call or cross two replies."""
        callers, calls = 16, 20
        backend = keepalive_backend(serve(_EchoHandler))
        errors = []

        def work(worker: int) -> None:
            for i in range(calls):
                text = f"worker {worker} call {i}"
                try:
                    reply = backend.complete(req(text))
                except Exception as exc:  # reported below, with the thread's name
                    errors.append(repr(exc))
                    return
                if reply != text:
                    errors.append(f"{text!r} got {reply!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_StubHandler.seen) == callers * calls
        assert 1 <= _StubHandler.counts["opened"] <= callers
        backend.close()
        assert wait_until(lambda: _StubHandler.counts["closed"] == _StubHandler.counts["opened"])

    def test_sends_a_tablepanel_user_agent(self, stub_server):
        keepalive_backend(stub_server).complete(req())
        assert _StubHandler.seen[0]["user_agent"] == f"tablepanel/{tablepanel.__version__}"

    @pytest.mark.parametrize("handler", [_StubHandler, _ConnectionCloseHandler],
                             ids=["http-1.0", "connection-close"])
    def test_server_that_closes_after_each_response(self, serve, handler):
        with closing(keepalive_backend(serve(handler))) as backend:
            for _ in range(3):
                assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 3
        assert _StubHandler.counts["opened"] == 3

    @pytest.mark.parametrize("form", list(_RAW_REPLIES))
    def test_reply_framings(self, serve, monkeypatch, form):
        reply, keep_open, connections = _RAW_REPLIES[form]
        monkeypatch.setattr(_RawReplyHandler, "reply", reply)
        monkeypatch.setattr(_RawReplyHandler, "keep_open", keep_open)
        with closing(keepalive_backend(serve(_RawReplyHandler))) as backend:
            for _ in range(3):
                assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 3
        assert _StubHandler.counts["opened"] == connections

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_OK_BLOB), _OK_BLOB[:_HALF]),
        b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nNo colon here\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * 100 + b"Content-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n" + _OK_BLOB,
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n%s\r\n0\r\n\r\n" % _OK_BLOB,
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n" + _OK_BLOB,
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + _OK_BLOB,
    ], ids=["short-body", "bad-status-line", "malformed-header", "101-header-lines",
            "header-line-too-long", "bad-chunk-size", "cut-in-headers", "chunk-longer-than-size",
            "content-length-not-a-number", "content-length-negative"])
    def test_broken_reply_is_a_transport_error_and_pools_nothing(self, serve, monkeypatch, reply):
        monkeypatch.setattr(_RawReplyHandler, "reply", reply)
        monkeypatch.setattr(_RawReplyHandler, "keep_open", False)
        with closing(keepalive_backend(serve(_RawReplyHandler), retries=2)) as backend:
            with pytest.raises(TransportError):
                backend.complete(req())
            assert backend._pool._idle == []
        assert len(_StubHandler.seen) == 3  # 1 + max_retries attempts

    def test_connection_dropped_while_idle_costs_no_http_retry(self, serve, monkeypatch):
        monkeypatch.setattr(gateway.time, "sleep", lambda s: pytest.fail("backoff sleep"))
        # No retries allowed: each call after the first finds its pooled
        # connection closed and must still succeed on a new one.
        with closing(keepalive_backend(serve(_DropsIdleHandler), retries=0)) as backend:
            for _ in range(3):
                assert backend.complete(req()) == "ok"
        assert len(_StubHandler.seen) == 3
        assert _StubHandler.counts["opened"] == 3

    def test_stalled_server_times_out_after_the_configured_attempts(self, serve):
        backend = keepalive_backend(serve(_StallingHandler), retries=1, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            backend.complete(req())
        assert time.monotonic() - start < 5
        assert len(_StubHandler.seen) == 2  # 1 + max_retries attempts, no more
        backend.close()

    def test_https_verifies_certificates_and_host_names(self, serve, monkeypatch):
        backend = keepalive_backend("https://api.example.test/v1")
        assert backend._pool._context.verify_mode == ssl.CERT_REQUIRED
        assert backend._pool._context.check_hostname
        assert backend._pool.target == "/v1/chat/completions"
        assert backend._pool._address == ("api.example.test", 443)
        # Through a proxy the default port shows in the CONNECT target, and
        # the bytes sent into the tunnel are a TLS ClientHello naming the host.
        monkeypatch.setenv("HTTPS_PROXY", serve(_ConnectProxy))
        with pytest.raises(TransportError):
            keepalive_backend("https://api.example.test/v1").complete(req())
        assert _ConnectProxy.heads[0][:2] == ["CONNECT api.example.test:443 HTTP/1.1",
                                              "Host: api.example.test:443"]
        assert _ConnectProxy.tunnelled[0][:1] == b"\x16"  # a TLS handshake record
        assert b"api.example.test" in _ConnectProxy.tunnelled[0]  # server name indication

    def test_https_goes_through_a_proxy_by_connect(self, serve, monkeypatch):
        proxy = urllib.parse.urlsplit(serve(_ConnectProxy))
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:p%40ss@{proxy.netloc}")
        backend = keepalive_backend("https://api.example.test:8443/v1")
        assert backend._pool._context.verify_mode == ssl.CERT_REQUIRED
        assert backend._pool._context.check_hostname
        with pytest.raises(TransportError):
            backend.complete(req())
        assert _ConnectProxy.heads == [["CONNECT api.example.test:8443 HTTP/1.1",
                                        "Host: api.example.test:8443",
                                        "Proxy-Authorization: Basic dXNlcjpwQHNz"]]  # user:p@ss
        assert _ConnectProxy.tunnelled[0][:1] == b"\x16"

    def test_refused_tunnel_is_a_transport_error_and_pools_nothing(self, serve, monkeypatch):
        monkeypatch.setattr(_ConnectProxy, "answer", b"HTTP/1.1 407 Proxy Authentication Required"
                                                     b"\r\nContent-Length: 0\r\n\r\n")
        monkeypatch.setenv("HTTPS_PROXY", serve(_ConnectProxy))
        backend = keepalive_backend("https://api.example.test/v1", retries=1)
        with pytest.raises(TransportError, match="Tunnel connection failed: 407"):
            backend.complete(req())
        assert backend._pool._idle == []
        assert len(_ConnectProxy.heads) == 2  # 1 + max_retries attempts
        assert _ConnectProxy.tunnelled == []

    @pytest.mark.parametrize("base_url, authority", [
        ("https://bücher.example:8443/v1", "xn--bcher-kva.example:8443"),
        ("https://[2001:db8::1]:8443/v1", "[2001:db8::1]:8443"),
    ], ids=["idna", "ipv6"])
    def test_connect_target_is_the_hosts_ascii_authority(self, serve, monkeypatch, base_url,
                                                        authority):
        proxy = urllib.parse.urlsplit(serve(_ConnectProxy))
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:p%40ss@{proxy.netloc}")
        with pytest.raises(TransportError):
            keepalive_backend(base_url).complete(req())
        assert _ConnectProxy.heads == [[f"CONNECT {authority} HTTP/1.1", f"Host: {authority}",
                                        "Proxy-Authorization: Basic dXNlcjpwQHNz"]]
        assert _ConnectProxy.tunnelled[0][:1] == b"\x16"

    def test_https_call_through_a_tunnel_verifies_the_server(self, serve, monkeypatch,
                                                            certificate):
        upstream = urllib.parse.urlsplit(serve(_KeepAliveHandler, tls=certificate))
        monkeypatch.setattr(_ConnectProxy, "upstream", ("127.0.0.1", upstream.port))
        monkeypatch.setenv("HTTPS_PROXY", serve(_ConnectProxy))
        # The pools that trust the certificate get contexts of their own: the
        # process's trust store, which every other pool shares, stays as it is.
        trusting = keepalive_backend(f"https://localhost:{upstream.port}/v1")
        trusting._pool._context = ssl.create_default_context(cafile=certificate)
        with closing(trusting):
            assert trusting.complete(req()) == "ok"
            assert trusting.complete(req()) == "ok"  # on the same tunnel
        assert _ConnectProxy.heads[0][0] == f"CONNECT localhost:{upstream.port} HTTP/1.1"
        assert len(_ConnectProxy.heads) == 1
        # The certificate names localhost only, and the default context does not trust it.
        wrong_name = keepalive_backend(f"https://127.0.0.1:{upstream.port}/v1")
        wrong_name._pool._context = ssl.create_default_context(cafile=certificate)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            wrong_name.complete(req())
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            keepalive_backend(f"https://localhost:{upstream.port}/v1").complete(req())
        assert len(_StubHandler.seen) == 2

    def test_http_goes_through_the_environment_proxy_read_at_build(self, serve, monkeypatch):
        upstream = serve()
        proxy = serve(_ForwardProxy)
        _ForwardProxy.targets = []
        direct = keepalive_backend(upstream)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        proxied = keepalive_backend(upstream)
        assert proxied.complete(req()) == "ok"
        assert _ForwardProxy.targets == [f"{upstream}/chat/completions"]
        assert direct.complete(req()) == "ok"  # built before HTTP_PROXY was set
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        assert keepalive_backend(upstream).complete(req()) == "ok"
        assert len(_ForwardProxy.targets) == 1
        assert len(_StubHandler.seen) == 3
        for backend in (direct, proxied):
            backend.close()

    def test_bad_base_url_is_rejected_at_build(self):
        for url in ("api.example.test/v1", "http://127.0.0.1:8000/v 1",
                    "http://127.0.0.1:8000/v1\x00", "http://127.0.0.1:8000/v1\x7f",
                    "http://api.example test/v1"):
            with pytest.raises(ValueError):
                keepalive_backend(url)

    def test_unparsable_proxy_is_rejected_at_build(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("http_proxy", "http://:8080")
        with pytest.raises(ValueError, match="cannot parse the http proxy"):
            keepalive_backend("http://127.0.0.1:9/v1")
        backend = openai_backend_file(tmp_path, "http://127.0.0.1:9/v1")
        assert cli.main(["bench", "tatqa", "fixture", "--backend", backend,
                         "--out", str(tmp_path / "run")]) == 1
        assert "cannot parse the http proxy" in capsys.readouterr().err


class _ForwardProxy(BaseHTTPRequestHandler):
    """A plain-HTTP forward proxy: records each absolute request target and
    relays the request upstream."""

    protocol_version = "HTTP/1.1"
    targets: list = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).targets.append(self.path)
        url = urllib.parse.urlsplit(self.path)
        upstream = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
        upstream.request("POST", url.path, body, {"Content-Type": "application/json"})
        resp = upstream.getresponse()
        data = resp.read()
        upstream.close()
        self.send_response(resp.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def openai_backend_file(tmp_path: Path, base_url: str) -> str:
    path = tmp_path / "openai.json"
    path.write_text(json.dumps({"type": "openai", "base_url": base_url, "model_name": "m",
                                "api_key_env_var": ""}), encoding="utf-8")
    return str(path)


@pytest.fixture
def built(monkeypatch) -> list:
    """Every backend the CLI builds, kept alive so that only an explicit
    ``close`` (not garbage collection) can close its connections."""
    backends = []
    original = cli.build_backend

    def build(path):
        backends.append(original(path))
        return backends[-1]

    monkeypatch.setattr(cli, "build_backend", build)
    return backends


class TestBackendLifecycle:
    def test_bench_closes_its_connections_and_stays_within_the_cap(self, serve, built, tmp_path,
                                                                   capsys):
        backend = openai_backend_file(tmp_path, serve(_PanelHandler))
        out = tmp_path / "bench"
        code = cli.main(["bench", "tatqa", "fixture", "--config", "full",
                     "--backend", backend, "--jobs", "4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["llm_calls"] == 200
        assert len(_StubHandler.seen) == 200
        assert 1 <= _StubHandler.counts["opened"] <= 4 * PANEL_SIZE_MAX
        assert len(built) == 1
        assert wait_until(lambda: _StubHandler.counts["closed"] == _StubHandler.counts["opened"])

    @pytest.mark.parametrize("command", ["ask", "ablate"])
    def test_ask_and_ablate_close_their_connections(self, serve, built, tmp_path, capsys, command):
        backend = openai_backend_file(tmp_path, serve(_PanelHandler))
        if command == "ask":
            table = tmp_path / "t.csv"
            table.write_text("Year,Revenue\n2019,100\n2020,42\n", encoding="utf-8")
            argv = ["ask", "--table", str(table), "--query", "q?", "--backend", backend]
        else:  # one backend per preset row, 10 in all
            argv = ["ablate", "tatqa", "fixture", "--limit", "1", "--backend", backend]
        assert cli.main(argv) == 0
        assert len(built) == (1 if command == "ask" else 10)
        assert _StubHandler.counts["opened"] >= len(built)
        assert wait_until(lambda: _StubHandler.counts["closed"] == _StubHandler.counts["opened"])


def test_https_backends_built_in_one_process_load_the_trust_store_once(monkeypatch):
    loads = []
    create = ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context", lambda: loads.append(1) or create())
    gateway._trust_store.cache_clear()
    first, second = (keepalive_backend(f"https://{host}:8443/v1")
                     for host in ("127.0.0.1", "api.example.test"))
    assert len(loads) == 1
    assert first._pool._context is second._pool._context
    assert first._pool._context.verify_mode == ssl.CERT_REQUIRED


def test_cli_import_leaves_requests_unloaded(tmp_path):
    """The transport is plain sockets: importing the CLI and building an
    ``http`` backend must not pull in ``requests``, the standard library's
    HTTP client stack or ``ssl``, nor the XML parser before a semtabfacts
    corpus is read (their import time is what was saved). An ``https``
    backend does load ``ssl``."""
    src = str(Path(tablepanel.__file__).resolve().parent.parent)
    files = []
    for scheme in ("http", "https"):
        files.append(tmp_path / f"{scheme}.json")
        files[-1].write_text(json.dumps({"type": "openai", "base_url": f"{scheme}://127.0.0.1:9/v1",
                                         "model_name": "m", "api_key_env_var": ""}))
    script = """if True:
        import json, sys
        from tablepanel import cli
        from tablepanel.datasets import DatasetKind, fixture
        names = ("requests", "http.client", "urllib.request", "ssl", "email",
                 "xml.etree.ElementTree")
        loaded = lambda: [name for name in names if name in sys.modules]
        after_import = loaded()
        cli.build_backend(sys.argv[1])
        after_http = loaded()
        cli.build_backend(sys.argv[2])
        after_https = loaded()
        print(json.dumps([after_import, after_http, after_https,
                          len(list(fixture(DatasetKind.SEMTABFACTS)))]))
    """
    # A <scheme>_proxy variable would load urllib.request to read it.
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    result = subprocess.run([sys.executable, "-c", script, *map(str, files)],
                            env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], [], ["ssl"], 10]


_PROXY_ENVIRONMENTS = {
    "empty": {},
    "either-case": {"HTTP_PROXY": "http://upper:1", "https_proxy": "http://lower:2"},
    "lower-case-wins": {"HTTPS_PROXY": "http://upper:1", "https_proxy": "http://lower:2"},
    "empty-lower-case-unsets": {"HTTPS_PROXY": "http://upper:1", "https_proxy": ""},
    "empty-upper-case-is-skipped": {"HTTP_PROXY": "", "http_proxy": "http://lower:2"},
    "cgi-drops-HTTP_PROXY": {"HTTP_PROXY": "http://upper:1", "HTTPS_PROXY": "http://s:3",
                             "REQUEST_METHOD": "GET"},
    "cgi-keeps-http_proxy": {"http_proxy": "http://lower:1", "REQUEST_METHOD": "POST"},
    "mixed-case": {"Http_Proxy": "http://mixed:1", "HTTPS_Proxy": "http://m:2",
                   "No_Proxy": "example.com", "all_proxy": "socks5://z:3"},
}
_NO_PROXY = ["*", "example.com", ".example.com", "example.com:8443", "EXAMPLE.com, other.org",
             "localhost,127.0.0.1", " , .", "[::1]"]
_NETLOCS = ["example.com", "api.example.com", "api.example.com:8443", "example.com:8443",
            "notexample.com", "EXAMPLE.COM", "127.0.0.1:8000", "[::1]:8000", "bücher.example"]


def set_proxy_environment(monkeypatch, environment: dict[str, str]) -> None:
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
            monkeypatch.delenv(name)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    # Routing does not read the trust store. A bare context of these pools' own
    # keeps the process's shared one out of reach.
    monkeypatch.setattr(gateway, "_trust_store", lambda: ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT))


def assert_routed_as_urllib_routes(netloc: str) -> None:
    """The ``http`` and ``https`` pools for ``netloc`` go through the proxy
    that urllib gives their scheme unless urllib's ``NO_PROXY`` rule exempts
    the host, whether or not the pool had to load urllib to decide."""
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    for scheme in ("http", "https"):
        url = urllib.parse.urlsplit(f"{scheme}://{netloc}/v1")
        pool = gateway._ConnectionPool(url.geturl(), 5.0)
        address = (url.hostname, url.port or (443 if scheme == "https" else 80))
        target, tunnelled = "/v1/chat/completions", False
        proxy = proxies.get(scheme)
        if proxy and not urllib.request.proxy_bypass_environment(netloc, proxies):
            proxy_url = urllib.parse.urlsplit(proxy)
            address = (proxy_url.hostname, proxy_url.port)
            if scheme == "http":
                target = f"http://{gateway._ascii_host(netloc)}{target}"
            else:
                tunnelled = True
        assert (pool._address, pool.target, pool._tunnel is not None) == (
            address, target, tunnelled), url.geturl()


@pytest.mark.parametrize("environment", list(_PROXY_ENVIRONMENTS))
def test_proxy_environment_is_read_as_urllib_reads_it(monkeypatch, environment):
    set_proxy_environment(monkeypatch, _PROXY_ENVIRONMENTS[environment])
    for netloc in _NETLOCS:
        assert_routed_as_urllib_routes(netloc)


@pytest.mark.parametrize("no_proxy", _NO_PROXY)
@pytest.mark.parametrize("netloc", _NETLOCS)
def test_no_proxy_is_matched_as_urllib_matches_it(monkeypatch, netloc, no_proxy):
    set_proxy_environment(monkeypatch, {"http_proxy": "http://p:1", "HTTPS_PROXY": "http://s:2",
                                        "no_proxy": no_proxy})
    assert_routed_as_urllib_routes(netloc)
