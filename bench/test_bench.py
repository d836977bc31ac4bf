"""Self-checks of the benchmark: the generated inputs drive the documented
outcomes, the counting probes count what they claim, and the counts
reproduce the reference figures for the ``full`` preset (20 calls, all on
the critical path, for a unanimous task; 50 calls and about 316 table copies
of prompt for the adversarial 60-row task at ``t_max_panel=3``).

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import policy  # noqa: E402
from probes import CallLog, Tally, critical_path, max_in_flight  # noqa: E402
from stub import StubState  # noqa: E402
from tablepanel import cli  # noqa: E402
from tablepanel.datasets import DatasetKind, load  # noqa: E402
from tablepanel.deliberation import run_panel  # noqa: E402
from tablepanel.tables import flatten_table  # noqa: E402
from workloads import CONTRACTS, trace_ok  # noqa: E402


def _run_block(tmp_path, kind: str, t_max_panel: int, scenario: str | None = None):
    """Run one generated block (or its tasks of one scenario) through the
    scripted backend; returns (specs, tasks, traces, tally)."""
    specs = [s for s in inputs.make_tasks(3, kind, 1, "x") if scenario in (None, s["scenario"])]
    corpus = inputs.write_corpus(kind, specs, tmp_path / "corpus")
    script = inputs.write_scripted_backend(kind, specs, t_max_panel, tmp_path / "script.json")
    calls = CallLog(CONTRACTS)
    backend = calls.attach(cli.build_backend(str(script)))
    config = cli.resolve_config("full", t_max_panel=t_max_panel)
    tasks = list(load(DatasetKind(kind), corpus))
    traces = [run_panel(task, config, backend) for task in tasks]
    assert backend.remaining() == 0, "the script must be consumed exactly"
    tally = Tally()
    tally.add_calls(calls.drain(), {t.id: len(flatten_table(t.table, t.context)) for t in tasks})
    return specs, tasks, traces, tally


@pytest.mark.parametrize("kind", sorted(inputs.KINDS))
@pytest.mark.parametrize("t_max_panel", [1, 3])
def test_block_reaches_expected_outcomes(tmp_path, kind, t_max_panel):
    specs, _, traces, tally = _run_block(tmp_path, kind, t_max_panel)
    for spec, trace in zip(specs, traces):
        assert trace_ok(trace, trace.to_json_line(), inputs.expected(spec, t_max_panel)), spec["scenario"]
    malformed = sum(len(s["malformed"]) for s in specs)
    assert sum(1 for t in traces for r in t.records if not r.ok) == malformed
    assert tally.calls == sum(len(t.records) for t in traces)


def test_full_unanimous_is_20_calls_all_on_the_critical_path(tmp_path):
    specs, _, traces, tally = _run_block(tmp_path, "tatqa", 3, "unanimous")
    clean = [t for s, t in zip(specs, traces) if not s["malformed"]]
    assert clean and all(len(t.records) == 20 for t in clean)
    assert tally.calls == tally.critical == sum(len(t.records) for t in traces)
    assert tally.in_flight_max == 1


def test_adversarial_case_matches_reference_counts(tmp_path):
    specs, tasks, traces, _ = _run_block(tmp_path, "tatqa", 3, "adversarial")
    spec, task, trace = specs[0], tasks[0], traces[0]
    assert not spec["malformed"] and len(task.table.rows) == 60
    assert trace.outcome == "MAJORITY_VOTE" and len(trace.rounds) == 3
    table = flatten_table(task.table, task.context)
    calls, appearances = CallLog(CONTRACTS), []
    backend = calls.attach(cli.build_backend(str(inputs.write_scripted_backend(
        "tatqa", specs[:1], 3, tmp_path / "one.json"))))
    inner = backend.complete

    def counting(request):
        appearances.append(request.text().count(table))
        return inner(request)

    backend.complete = counting
    run_panel(task, cli.resolve_config("full", t_max_panel=3), backend)
    one = Tally()
    one.add_calls(calls.drain(), {task.id: len(table)})
    assert one.calls == one.critical == 50
    # Every call resends the table once per message of the agent's history:
    # 1 + 2 + ... + 10 per agent.
    assert sum(appearances) == 275 and max(appearances) == 10
    # Reference: 316 copies of prompt, largest prompt 11.4 copies. The rest
    # is fixed text (system messages, queries, replies) over table size, and
    # this corpus's table and wording differ slightly from the reference's.
    assert abs(one.table_copies / 316 - 1) < 0.05
    assert abs(one.prompt_max / len(table) / 11.4 - 1) < 0.06


def test_critical_path_and_in_flight_on_overlapping_spans():
    sequential = [(0, 1), (1, 2), (2, 3)]
    assert critical_path(sequential) == 3 and max_in_flight(sequential) == 1
    fan_out = [(0, 1), (1, 3), (1, 3), (1, 3), (3, 4)]
    assert critical_path(fan_out) == 3 and max_in_flight(fan_out) == 3


def test_stub_replies_depend_on_the_body_and_its_repeats_only(tmp_path):
    specs = inputs.make_tasks(5, "tatqa", 1, "s")
    spec = json.loads(inputs.write_policy(specs, tmp_path / "policy.json").read_text())
    task = next(s for s in specs if [1, "solve", 0] in s["malformed"])
    query = f"Question: {task['query']}"
    assessed = policy.reply(task["scenario"], 1, "assess", 0, task["right"], task["wrong"])
    body = json.dumps({"model": "m", "temperature": 0.0, "messages": [
        {"role": "system", "content": inputs.system_messages("tatqa")[(1, "solve")]},
        {"role": "user", "content": query}, {"role": "assistant", "content": assessed},
        {"role": "user", "content": query}]}).encode()
    good = policy.reply(task["scenario"], 1, "solve", 0, task["right"], task["wrong"])

    state = StubState(spec, 0, 0, 0)
    replies = [state.answer(body)[:2] for _ in range(3)]
    assert replies[0][0] == 200 and "ANSWER:" not in replies[0][1]  # the format re-ask
    assert replies[1] == replies[2] == (200, good)
    always_503 = StubState(spec, 0, 0, 100.0)
    assert [always_503.answer(body)[0] for _ in range(3)] == [503, 200, 200]


def test_generated_inputs_depend_on_the_seed_only(tmp_path):
    for seed in (1, 1, 2):
        specs = inputs.make_tasks(seed, "feverous", 1, "g")
        inputs.write_corpus("feverous", specs, tmp_path / str(seed))
    one = (tmp_path / "1" / "feverous.jsonl").read_text()
    two = (tmp_path / "2" / "feverous.jsonl").read_text()
    assert one != two
    assert one == inputs.write_corpus("feverous", inputs.make_tasks(1, "feverous", 1, "g"),
                                      tmp_path / "again").read_text()
