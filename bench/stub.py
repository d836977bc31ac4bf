"""Loopback OpenAI-compatible model stub, run as its own process.

    python3 bench/stub.py --policy POLICY.json [--delay-ms 20] [--per-kchar-ms 0.5]
                          [--fail-pct 2]

Serves ``POST /chat/completions`` on 127.0.0.1 (an ephemeral port, printed as
``PORT <n>`` on stdout). Each reply comes from ``policy.reply`` and is a
function of the request body alone: persona, stage contract, task reference
and the member's own history. Two decisions also look at how often the very
same body arrived before, which only a client's own retries can cause:

- a call (task, member, stage, occurrence) whose hash falls in the
  ``--fail-pct`` share gets one 503 on its body's first arrival, and a
  normal reply when retried;
- a (member, stage, occurrence) the task marks malformed gets a reply that
  breaks the stage's contract the first time, and a good one on the re-ask.

Each reply is delayed by ``--delay-ms`` plus ``--per-kchar-ms`` per 1,000
prompt characters, a modelled prefill cost. Control endpoints, which are not
counted: ``GET /stats`` returns the counters and the per-request log,
``POST /reset`` forgets the per-body history so an input can be replayed.

Handler threads buffer their writes: an unbuffered handler sends headers and
body in separate segments, and Nagle plus delayed ACK then add about 40 ms to
each keep-alive call. The process exits when stdin closes, so it never
outlives the benchmark that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import policy  # noqa: E402


class StubState:
    def __init__(self, spec: dict, delay_s: float, per_kchar_s: float, fail_pct: float):
        self.tasks = spec["tasks"]
        self.personas = spec["personas"]
        self.contracts = spec["contracts"]
        self.delay_s = delay_s
        self.per_kchar_s = per_kchar_s
        self.fail_pct = fail_pct
        self.lock = threading.Lock()
        self.seen: dict[bytes, list[int]] = {}  # body hash -> [503s served, 200s served]
        self.connections = 0
        self.requests = 0
        self.injected_503 = 0
        self.prompt_chars = 0
        self.log: list[list] = []  # [arrived, done, ref, stage, prompt chars, status]

    def answer(self, body: bytes) -> tuple[int, str, str, str, int]:
        """(status, reply text, task ref, stage, prompt chars) for one body."""
        payload = json.loads(body)
        messages = payload["messages"]
        chars = sum(len(m["content"]) for m in messages)
        system, history, last = messages[0]["content"], messages[1:-1], messages[-1]["content"]
        stage = policy.stage_of(system, self.contracts)
        ref = policy.task_ref(last)
        task = self.tasks[ref]
        index = next(i for i, name in enumerate(self.personas) if name in system)
        occurrence = policy.occurrence_of(stage, history)
        # The 503 draw hashes the call's identity, not the table values, so
        # every seed injects the same number of faults at the same calls.
        draw = hashlib.blake2b(f"{ref}|{index}|{stage}|{occurrence}".encode(), digest_size=8).digest()
        digest = hashlib.blake2b(body, digest_size=8).digest()
        with self.lock:
            counts = self.seen.setdefault(digest, [0, 0])
            inject = (counts[0] == 0 and counts[1] == 0
                      and int.from_bytes(draw, "big") % 10_000 < self.fail_pct * 100)
            if inject:
                counts[0] += 1
                return 503, "injected overload", ref, stage, chars
            first_reply = counts[1] == 0
            counts[1] += 1
        malformed = first_reply and [index, stage, occurrence] in task["malformed"]
        text = policy.reply(task["scenario"], index, stage, occurrence,
                            task["right"], task["wrong"], malformed)
        return 200, text, ref, stage, chars


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        wbufsize = 1 << 16
        disable_nagle_algorithm = True
        counted = False

        def log_message(self, fmt, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path.startswith("/stats"):
                with state.lock:
                    self._send(200, {
                        "connections": state.connections,
                        "requests": state.requests,
                        "injected_503": state.injected_503,
                        "prompt_chars": state.prompt_chars,
                        "log": state.log,
                    })
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with state.lock:
                    state.seen.clear()
                self._send(200, {"ok": True})
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": "not found"})
                return
            arrived = time.monotonic()
            try:
                status, text, ref, stage, chars = state.answer(body)
            except (ValueError, KeyError, StopIteration) as exc:
                self._send(400, {"error": {"message": f"stub cannot answer: {exc!r}"}})
                return
            if status == 200:
                time.sleep(state.delay_s + state.per_kchar_s * chars / 1000.0)
            with state.lock:
                if not self.counted:
                    state.connections += 1
                    self.counted = True
                state.requests += 1
                state.prompt_chars += chars
                state.injected_503 += status == 503
                state.log.append([arrived, time.monotonic(), ref, stage, chars, status])
            if status == 200:
                self._send(200, {"object": "chat.completion", "choices": [
                    {"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": text}}]})
            else:
                self._send(status, {"error": {"message": text}})

    return Handler


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--policy", required=True)
    parser.add_argument("--delay-ms", type=float, default=20.0)
    parser.add_argument("--per-kchar-ms", type=float, default=0.0)
    parser.add_argument("--fail-pct", type=float, default=0.0)
    args = parser.parse_args()
    spec = json.loads(Path(args.policy).read_text(encoding="utf-8"))
    state = StubState(spec, args.delay_ms / 1000.0, args.per_kchar_ms / 1000.0, args.fail_pct)
    server = _Server(("127.0.0.1", 0), make_handler(state))
    print(f"PORT {server.server_address[1]}", flush=True)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
