"""The three workloads. Each is a closed loop: one client (``bench --jobs``
threads for the bench workloads) issues the next task only after the
previous one finished.

- panel-latency: ``run_panel`` one task at a time, as ``ask`` does, with the
  ``full`` preset at ``t_max_panel=3`` and an ``OpenAIChatBackend`` aimed at
  the stub, which models 20 ms per call plus 0.5 ms per 1,000 prompt
  characters.
- bench-http: ``tablepanel bench`` (through ``cli.main``) over a tatqa corpus,
  ``--config full --jobs 2``, against a 2 ms stub that answers 2% of first
  attempts with 503.
- bench-offline: ``tablepanel bench --jobs 1`` with a scripted backend, one
  invocation per dataset kind in turn; runs get longer by repeating
  invocations, never by lengthening scripts.

Every task's expected outcome and final answer follow from its scenario (see
``policy``); a task fails when its trace is incomplete, its outcome or final
answer differs, its trace does not survive a JSON round trip, or (for bench)
``report.json`` differs from the benchmark's own ``score_run``.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import inputs
from probes import CallLog, Tally, perf_counter
from tablepanel import cli
from tablepanel.datasets import DatasetKind, load
from tablepanel.deliberation import DeliberationTrace, run_panel
from tablepanel.metrics import Prediction, score_run
from tablepanel.personas import OUTPUT_CONTRACTS, Stage
from tablepanel.tables import Answer, flatten_table

HERE = Path(__file__).resolve().parent
CONTRACTS = {s.value: OUTPUT_CONTRACTS[s] for s in Stage}


class StubProcess:
    """The loopback model stub in its own process; closing its stdin ends it."""

    def __init__(self, policy_path: Path, delay_ms: float, per_kchar_ms: float = 0.0,
                 fail_pct: float = 0.0):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--policy", str(policy_path),
             "--delay-ms", str(delay_ms), "--per-kchar-ms", str(per_kchar_ms),
             "--fail-pct", str(fail_pct)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _control(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._control("POST", "/reset")

    def stats(self) -> dict:
        return self._control("GET", "/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _expected_predictions(tasks, specs, t_max_panel: int) -> list[Prediction]:
    preds = []
    for task, spec in zip(tasks, specs):
        final = inputs.expected(spec, t_max_panel)["final"]
        evidence = task.evidence.correct if task.evidence is not None else None
        preds.append(Prediction(task.id, Answer.from_raw(final, task.kind), evidence))
    return preds


def trace_ok(trace: DeliberationTrace, line: str, want: dict) -> bool:
    """Complete, with the policy's outcome and final answer, and unchanged by
    a JSON round trip."""
    again = DeliberationTrace.from_json_dict(json.loads(line))
    return (trace.complete and trace.error is None and trace.final is not None
            and trace.final.raw == want["final"] and trace.outcome == want["outcome"]
            and trace.consensus_round == want["consensus_round"]
            and again == trace and again.to_json_line() == line)


class Workload:
    name = ""
    tail_pct = 50.0
    # Slices a 30 s run makes at least, so that ``tail_pct`` keeps 10 tasks
    # beyond it even when the machine is slow.
    min_slices_per_30s = 1
    stub: StubProcess | None = None

    def prepare(self, work: Path, seed: int) -> dict:
        """Write the inputs, start the stub if any; return the set-up probe's
        arguments (corpora, backend files, config)."""
        raise NotImplementedError

    def run(self, seconds: float, tally: Tally, calls: CallLog) -> None:
        raise NotImplementedError

    def _more(self, tally: Tally, start: float, seconds: float) -> bool:
        """Whether the run goes on with another slice."""
        floor = max(1, round(self.min_slices_per_30s * seconds / 30.0))
        return len(tally.slices) < floor or perf_counter() - start < seconds

    def stub_stats(self) -> dict | None:
        return self.stub.stats() if self.stub else None

    def close(self) -> None:
        if self.stub:
            self.stub.close()


class PanelLatency(Workload):
    name = "panel-latency"
    tail_pct = 80.0
    min_slices_per_30s = 4  # blocks of 10 tasks, about 9 s each: 60 tasks in 45 s
    t_max_panel = 3
    blocks = 4

    def prepare(self, work: Path, seed: int) -> dict:
        self.specs = inputs.make_tasks(seed, "tatqa", self.blocks, "p")
        self.corpus = inputs.write_corpus("tatqa", self.specs, work / "corpus")
        self.stub = StubProcess(inputs.write_policy(self.specs, work / "policy.json"),
                                delay_ms=20.0, per_kchar_ms=0.5)
        self.backend_file = inputs.write_openai_backend(self.stub.url, work / "backend.json")
        return {"corpora": [["tatqa", str(self.corpus)]], "backends": [str(self.backend_file)],
                "config": "full", "t_max_panel": self.t_max_panel}

    def run(self, seconds: float, tally: Tally, calls: CallLog) -> None:
        config = cli.resolve_config("full", t_max_panel=self.t_max_panel)
        backend = calls.attach(cli.build_backend(str(self.backend_file)))
        tasks = list(load(DatasetKind.TATQA, self.corpus))
        table_chars = {t.id: len(flatten_table(t.table, t.context)) for t in tasks}
        wants = {s["ref"]: inputs.expected(s, self.t_max_panel) for s in self.specs}
        per_block = len(inputs.BLOCK)
        self.stub.reset()
        start = perf_counter()
        block = 0
        while self._more(tally, start, seconds):
            if block and block % self.blocks == 0:
                self.stub.reset()  # replaying the corpus: forget the per-body history
            block_start = perf_counter()
            for task in tasks[(block % self.blocks) * per_block:][:per_block]:
                t0 = perf_counter()
                trace = run_panel(task, config, backend)
                tally.task_ms.append((perf_counter() - t0) * 1000.0)
                line = trace.to_json_line()
                tally.attempted += 1
                tally.failed += not trace_ok(trace, line, wants[task.id])
                tally.add_trace(trace, line)
                tally.llm_calls_reported += trace.llm_calls
            tally.add_slice(per_block, perf_counter() - block_start)
            tally.add_calls(calls.drain(), table_chars)
            block += 1


class BenchRun(Workload):
    """Repeated ``tablepanel bench`` invocations through ``cli.main``."""

    kinds: tuple[str, ...] = ()
    tasks_per_invocation = 10
    jobs = 1
    t_max_panel = 1  # the full preset's own cap; bench passes no --t-max

    def _backend_file(self, kind: str, specs: list[dict], work: Path) -> Path:
        raise NotImplementedError

    def prepare(self, work: Path, seed: int) -> dict:
        self.work = work
        blocks = self.tasks_per_invocation // len(inputs.BLOCK)
        specs = {kind: inputs.make_tasks(seed, kind, blocks, kind[0]) for kind in self.kinds}
        self._start_stub(work, [s for kind_specs in specs.values() for s in kind_specs])
        self.invocations = []
        for kind, kind_specs in specs.items():
            corpus = inputs.write_corpus(kind, kind_specs, work / "corpus")
            tasks = list(load(DatasetKind(kind), corpus))
            self.invocations.append({
                "kind": kind, "corpus": corpus,
                "backend": self._backend_file(kind, kind_specs, work),
                "wants": {s["ref"]: inputs.expected(s, self.t_max_panel) for s in kind_specs},
                "table_chars": {t.id: len(flatten_table(t.table, t.context)) for t in tasks},
                "report": score_run(_expected_predictions(tasks, kind_specs, self.t_max_panel),
                                    tasks).to_json_dict(),
            })
        return {"corpora": [[i["kind"], str(i["corpus"])] for i in self.invocations],
                "backends": [str(i["backend"]) for i in self.invocations],
                "config": "full", "t_max_panel": None}

    def _start_stub(self, work: Path, specs: list[dict]) -> None:
        pass

    def run(self, seconds: float, tally: Tally, calls: CallLog) -> None:
        timed_run_panel = self._timed_run_panel(tally)
        original_build, original_run = cli.build_backend, cli.run_panel
        cli.build_backend = lambda path: calls.attach(original_build(path))
        cli.run_panel = timed_run_panel
        try:
            start = perf_counter()
            while self._more(tally, start, seconds):
                # One slice is one pass over every invocation, so that all
                # slices do the same work.
                done = [self._invoke(inv, tally, calls) for inv in self.invocations]
                tally.add_slice(sum(n for n, _ in done), sum(t for _, t in done))
        finally:
            cli.build_backend, cli.run_panel = original_build, original_run

    @staticmethod
    def _timed_run_panel(tally: Tally):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            trace = run_panel(*args, **kwargs)
            tally.task_ms.append((perf_counter() - t0) * 1000.0)
            return trace
        return timed

    def _invoke(self, inv: dict, tally: Tally, calls: CallLog) -> tuple[int, float]:
        """Run one ``bench`` invocation and check its outputs; returns its
        number of tasks and the seconds ``cli.main`` took."""
        if self.stub:
            self.stub.reset()  # each invocation replays the same corpus
        wants = inv["wants"]
        out = self.work / f"out-{inv['kind']}"
        argv = ["bench", inv["kind"], str(inv["corpus"]), "--config", "full",
                "--backend", str(inv["backend"]), "--jobs", str(self.jobs), "--out", str(out)]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = perf_counter() - t0
        observed = calls.drain()
        tally.add_calls(observed, inv["table_chars"])
        tally.attempted += len(wants)
        if code != 0:
            tally.failed += len(wants)
            return len(wants), elapsed
        good = set()
        for line in (out / "traces.jsonl").read_text(encoding="utf-8").splitlines():
            trace = DeliberationTrace.from_json_dict(json.loads(line))
            if trace.task_id in wants and trace_ok(trace, line, wants[trace.task_id]):
                good.add(trace.task_id)
            tally.add_trace(trace, line)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        tally.llm_calls_reported += manifest["totals"]["llm_calls"]
        tally.failed += len(wants) - (len(good) if report == inv["report"] else 0)
        return len(wants), elapsed


class BenchHttp(BenchRun):
    name = "bench-http"
    tail_pct = 95.0
    min_slices_per_30s = 12  # invocations of 20 tasks, about 2.5 s each: 360 tasks in 45 s
    kinds = ("tatqa",)
    tasks_per_invocation = 20
    jobs = 2

    def _start_stub(self, work: Path, specs: list[dict]) -> None:
        self.stub = StubProcess(inputs.write_policy(specs, work / "policy.json"),
                                delay_ms=2.0, fail_pct=2.0)

    def _backend_file(self, kind: str, specs: list[dict], work: Path) -> Path:
        return inputs.write_openai_backend(self.stub.url, work / "backend.json",
                                           retry_backoff_base=0.002)


class BenchOffline(BenchRun):
    name = "bench-offline"
    tail_pct = 99.0
    kinds = ("tatqa", "semtabfacts", "wikisql", "feverous")

    def _backend_file(self, kind: str, specs: list[dict], work: Path) -> Path:
        return inputs.write_scripted_backend(kind, specs, self.t_max_panel, work / f"script-{kind}.json")


WORKLOADS = {w.name: w for w in (PanelLatency, BenchHttp, BenchOffline)}
