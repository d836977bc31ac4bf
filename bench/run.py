"""tablepanel benchmark: one workload per invocation.

    python3 bench/run.py --workload panel-latency|bench-http|bench-offline
                         --seed N --seconds S --trace 0|1

Run from a checkout's root; the program is imported from ``src/``. Inputs
are generated from ``--seed`` under ``.bench_work/`` and removed afterwards.

``--trace 0`` measures the end-to-end metrics for ``--seconds``. ``--trace 1``
runs the workload untraced for half the time and traced (``LayerTracer``)
for the other half, then the micro rows, and prints the per-layer metrics;
the difference between its two halves is reported as the tracing overhead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {"value", "unit"}}); ``correct`` is false
when any task's output failed its check. The exit code is 0 whenever a
result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from policy import STAGES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 8  # spread over the run; about 11 probes in all
TAIL_SAMPLES = 10
# The median task time and the throughput are read at the slice faster than
# all but this share (in percent) of a run's slices: the host's speed swings
# by up to a factor of two for seconds at a time, and the slower slices
# measure the neighbours rather than the program.
FAST_SLICES = 10


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def setup_probe(setup_args: dict) -> float:
    """Set-up time of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), json.dumps(setup_args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(probe["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported tablepanel from {probe['module']}")
    return probe["setup_s"]


class SetupProbes:
    """Set-up probes spread over a run, so that the median is not decided by
    one slow stretch of the machine: a warm-up (which also compiles the
    bytecode) and two probes before the run, one each time another
    ``1/SETUP_PROBES`` of the run has passed, and one after it. The probes
    run between slices, never alongside the workload."""

    def __init__(self, setup_args: dict, seconds: float):
        self.setup_args = setup_args
        self.interval = seconds / SETUP_PROBES
        setup_probe(setup_args)
        self.times = [setup_probe(setup_args) for _ in range(2)]
        self.last = time.perf_counter()

    def between_slices(self) -> None:
        due = min(3, int((time.perf_counter() - self.last) / self.interval))
        if due:
            self.times += [setup_probe(self.setup_args) for _ in range(due)]
            self.last = time.perf_counter()

    def median(self) -> float:
        self.times.append(setup_probe(self.setup_args))
        return statistics.median(self.times)


def end_to_end(tally, setup_s: float, tail_pct: float) -> dict:
    n = tally.attempted
    return {
        "setup_s": (setup_s, "s"),
        "task_ms_p50": (percentile([s[2] for s in tally.slices], FAST_SLICES), "ms"),
        "task_ms_tail": (percentile(tally.task_ms, tail_pct), "ms"),
        "tasks_per_s": (percentile([s[0] / s[1] for s in tally.slices], 100 - FAST_SLICES), "1/s"),
        "calls_per_task": (tally.calls / n, "count"),
        "critical_path_calls_per_task": (tally.critical / n, "count"),
        "prompt_kchars_per_task": (tally.prompt_chars / 1000.0 / n, "kchar"),
        "prompt_kchars_max": (tally.prompt_max / 1000.0, "kchar"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def stub_delta(before: dict, after: dict) -> dict:
    """Counters and log entries of one phase."""
    log = after["log"][len(before["log"]):]
    served = [e for e in log if e[5] == 200]
    return {"connections": after["connections"] - before["connections"],
            "requests": after["requests"] - before["requests"],
            "service_s": sum(e[1] - e[0] for e in served), "served": len(served)}


def per_layer(untraced, traced, tracer_seconds, micro_rows: dict, stub: dict,
              micro_stub: dict) -> dict:
    n = traced.attempted
    traces = sum(traced.outcomes.values())
    out = {name: (value, "ms" if name.endswith("_ms") else "us") for name, value in micro_rows.items()}
    for stage in STAGES:
        calls = traced.stage_calls[stage]
        out[f"personas.prompt_chars_per_call.{stage}"] = (
            traced.stage_chars[stage] / calls if calls else 0.0, "char")
        out[f"deliberation.calls_per_task.{stage}"] = (calls / n, "count")
    out["personas.table_copies_per_task"] = (traced.table_copies / n, "count")
    out["extraction.format_reask_ratio"] = (traced.reasks / traced.records, "ratio")
    # A workload without HTTP traffic reports the micro round trips' stub,
    # where every client call is one request and takes a round trip.
    if stub["requests"]:
        http, client_calls, client_us = stub, traced.calls, traced.wait_s * 1e6
    else:
        http, client_calls = micro_stub, micro_stub["served"]
        client_us = micro_rows["gateway.http_roundtrip_us"] * client_calls
    out["gateway.connections_per_call"] = (http["connections"] / http["requests"], "ratio")
    out["gateway.http_retries_per_call"] = ((http["requests"] - client_calls) / client_calls, "ratio")
    out["gateway.client_overhead_us_per_call"] = (
        (client_us - http["service_s"] * 1e6) / client_calls, "us")
    out["gateway.backend_wait_ms_per_task"] = (traced.wait_s * 1000.0 / n, "ms")
    out["deliberation.self_ms_per_task"] = ((sum(traced.task_ms) - traced.wait_s * 1000.0) / n, "ms")
    out["deliberation.calls_in_flight_max"] = (traced.in_flight_max, "count")
    for outcome in ("UNANIMOUS_INITIAL", "CONSENSUS_ROUND", "MAJORITY_VOTE"):
        out[f"deliberation.outcome_share.{outcome}"] = (traced.outcomes[outcome] / traces, "ratio")
    out["deliberation.trace_bytes_per_task"] = (traced.trace_bytes / traces, "byte")
    for label, seconds in sorted(tracer_seconds.items()):
        out[f"{label}_ms_per_task"] = (seconds * 1000.0 / n, "ms")
    out["cli.llm_calls_overcount"] = ((traced.llm_calls_reported - traced.calls) / n, "count")
    attempted = untraced.attempted + traced.attempted
    out["failed_task_ratio"] = ((untraced.failed + traced.failed) / attempted, "ratio")
    out["tracing.overhead_ms_per_task"] = (
        percentile(traced.task_ms, 50) - percentile(untraced.task_ms, 50), "ms")
    return out


def measure(workload, args, work: Path) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of one untraced run: (metrics, attempted, failed, notes)."""
    from probes import CallLog, Tally
    from workloads import CONTRACTS

    setup = SetupProbes(workload.prepare(work, args.seed), args.seconds)
    tally = Tally(after_slice=setup.between_slices)
    workload.run(args.seconds, tally, CallLog(CONTRACTS))
    metrics = end_to_end(tally, setup.median(), workload.tail_pct)
    n = len(tally.task_ms)
    beyond = round(n * (1 - workload.tail_pct / 100.0))
    notes = [f"task_ms_tail is p{workload.tail_pct:g} over n={n} tasks ({beyond} beyond it"
             f"{'' if beyond >= TAIL_SAMPLES else '; fewer than 10'})",
             f"failed_task_ratio {tally.failed / tally.attempted:g} ratio"]
    return metrics, tally.attempted, tally.failed, notes


def measure_traced(workload, args, work: Path) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics: an untraced half, a traced half, then the micro rows."""
    import inputs
    import micro
    from probes import CallLog, LayerTracer, Tally
    from workloads import CONTRACTS, StubProcess

    workload.prepare(work, args.seed)
    untraced = Tally()
    workload.run(args.seconds / 2, untraced, CallLog(CONTRACTS))
    before = workload.stub_stats()
    traced, tracer = Tally(keep_spans=True), LayerTracer()
    tracer.install()
    try:
        workload.run(args.seconds / 2, traced, CallLog(CONTRACTS))
    finally:
        tracer.uninstall()
    stub = stub_delta(before, workload.stub_stats()) if before else {"requests": 0}
    micro_stub = StubProcess(inputs.write_policy(micro.micro_policy_tasks(), work / "micro-policy.json"),
                             delay_ms=0.0)
    try:
        rows = micro.all_rows(args.seed, work, micro_stub.url)
        micro_stats = stub_delta({"connections": 0, "requests": 0, "log": []}, micro_stub.stats())
    finally:
        micro_stub.close()
    metrics = per_layer(untraced, traced, tracer.seconds, rows, stub, micro_stats)
    spans = ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"
    traced.write_spans(spans)
    notes = [f"traced half: {traced.attempted} tasks; untraced half: {untraced.attempted} tasks; "
             f"call spans in {spans.relative_to(ROOT)}"]
    return (metrics, untraced.attempted + traced.attempted, untraced.failed + traced.failed, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tablepanel benchmark (one workload per run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tablepanel" / "__init__.py").is_file():
        print(f"error: no tablepanel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, notes = run(workload, args, work)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} tasks attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
