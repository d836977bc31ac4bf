"""Probes the benchmark installs around tablepanel's public functions, from
its own files; nothing under ``src/`` knows about them.

Both kinds of run carry the two probes the end-to-end metrics need: a
``CallLog`` on the backend's ``complete`` (task, stage, start, end and prompt
characters of every call) and a timer on each ``run_panel`` call. A traced
run adds ``LayerTracer``, which times ``render_prompt``, the ``extract_*``
functions, ``load``, ``score_run`` and ``DeliberationTrace.to_json_line``,
and keeps every call span in memory to write out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import policy
import tablepanel.cli as cli
import tablepanel.deliberation as deliberation

perf_counter = time.perf_counter


class CallLog:
    """Client-side record of backend calls, one tuple per ``complete``:
    (task ref, stage, start, end, prompt characters). HTTP retries happen
    inside ``complete`` and so are not separate calls here."""

    def __init__(self, contracts: dict[str, str]):
        self.contracts = contracts
        self.calls: list[tuple] = []

    def attach(self, backend):
        """Wrap ``backend.complete`` on the instance, so the backend keeps
        its type and its own call counter."""
        inner, calls, contracts = backend.complete, self.calls, self.contracts

        def complete(request):
            start = perf_counter()
            try:
                return inner(request)
            finally:
                end = perf_counter()
                messages = request.messages
                calls.append((policy.task_ref(messages[-1].content),
                              policy.stage_of(messages[0].content, contracts),
                              start, end, sum(len(m.content) for m in messages)))

        backend.complete = complete
        return backend

    def drain(self) -> list[tuple]:
        out = self.calls[:]
        del self.calls[:]
        return out


def critical_path(spans: list[tuple[float, float]]) -> int:
    """Longest chain of spans in which each starts after the previous ended."""
    order_end = sorted(range(len(spans)), key=lambda i: spans[i][1])
    longest = [0] * len(spans)
    best_done = p = 0
    for i in sorted(range(len(spans)), key=lambda i: spans[i][0]):
        while p < len(order_end) and spans[order_end[p]][1] <= spans[i][0]:
            best_done = max(best_done, longest[order_end[p]])
            p += 1
        longest[i] = best_done + 1
    return max(longest, default=0)


def max_in_flight(spans: list[tuple[float, float]]) -> int:
    """Most spans open at one instant (an end at t closes before a start at t)."""
    events = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


class Tally:
    """Running totals of one phase. Calls are folded in per task and then
    dropped, so an untraced run's memory does not grow with its length.

    The phase is cut into slices that each do the same work: a block of
    tasks, or one pass over every bench invocation. Throughput and median
    latency are read per slice."""

    def __init__(self, keep_spans: bool = False, after_slice=None):
        self.keep_spans = keep_spans
        self.after_slice = after_slice
        self.spans: list[tuple] = []
        self.task_ms: list[float] = []
        # One (tasks, seconds, median task ms) per block or bench invocation.
        self.slices: list[tuple[int, float, float]] = []
        self.attempted = self.failed = 0
        self.calls = self.critical = self.in_flight_max = 0
        self.prompt_chars = self.prompt_max = 0
        self.wait_s = 0.0
        self.table_copies = 0.0
        self.stage_calls: Counter = Counter()
        self.stage_chars: Counter = Counter()
        self.records = self.reasks = self.trace_bytes = 0
        self.outcomes: Counter = Counter()
        self.llm_calls_reported = 0

    def add_slice(self, tasks: int, seconds: float) -> None:
        """Close a slice: the last ``tasks`` task times and their wall time."""
        self.slices.append((tasks, seconds, statistics.median(self.task_ms[-tasks:])))
        if self.after_slice:
            self.after_slice()

    def add_calls(self, calls: list[tuple], table_chars: dict[str, int]) -> None:
        if self.keep_spans:
            self.spans.extend(calls)
        by_task = defaultdict(list)
        for call in calls:
            by_task[call[0]].append(call)
        for ref, task_calls in by_task.items():
            spans = [(c[2], c[3]) for c in task_calls]
            chars = sum(c[4] for c in task_calls)
            self.calls += len(task_calls)
            self.critical += critical_path(spans)
            self.in_flight_max = max(self.in_flight_max, max_in_flight(spans))
            self.prompt_chars += chars
            self.prompt_max = max(self.prompt_max, max(c[4] for c in task_calls))
            self.wait_s += sum(e - s for s, e in spans)
            self.table_copies += chars / table_chars[ref]
            for c in task_calls:
                self.stage_calls[c[1]] += 1
                self.stage_chars[c[1]] += c[4]

    def add_trace(self, trace, line: str) -> None:
        self.records += len(trace.records)
        self.reasks += sum(1 for r in trace.records if not r.ok)
        self.outcomes[trace.outcome] += 1
        self.trace_bytes += len(line.encode("utf-8"))

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for ref, stage, start, end, chars in self.spans:
                fh.write(json.dumps({"task": ref, "stage": stage, "start": start,
                                     "end": end, "prompt_chars": chars}) + "\n")


class LayerTracer:
    """Times the public functions of each layer as the program calls them,
    by swapping the module attributes the callers look up."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self._restore: list[tuple] = []

    def _swap(self, owner, name: str, label: str, consume: bool = False) -> None:
        original = getattr(owner, name)
        seconds = self.seconds
        seconds[label] += 0.0  # reported even when the workload never calls it

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                # load() is a generator: its work happens while it is consumed.
                return iter(list(result)) if consume else result
            finally:
                seconds[label] += perf_counter() - start

        setattr(owner, name, timed)
        self._restore.append((owner, name, original))

    def install(self) -> None:
        self._swap(deliberation, "render_prompt", "personas.render_prompt")
        for name in ("extract_assessment", "extract_solution", "extract_verdict",
                     "extract_presentation", "extract_deliberation"):
            self._swap(deliberation, name, "extraction.extract")
        self._swap(cli, "load", "datasets.load", consume=True)
        self._swap(cli, "score_run", "metrics.score_run")
        self._swap(deliberation.DeliberationTrace, "to_json_line", "deliberation.to_json_line")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
