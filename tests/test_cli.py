from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

import tablepanel
from tablepanel.cli import CliError, build_backend, main, resolve_config
from tablepanel.datasets import DatasetKind, fixture
from tablepanel.deliberation import PipelineConfig, StageName, ablation_presets
from tablepanel.gateway import BackendConfig, ChatRequest, OpenAIChatBackend
from tablepanel.personas import OUTPUT_CONTRACTS, Panel, Persona, Stage
from tablepanel.tables import flatten_table
from tablepanel.cli import _backend_summary, _read_table_file

from conftest import readme_scripted_backend


def script_file(path: Path, items: list[dict]) -> str:
    path.write_text(json.dumps({"type": "scripted", "script": items}), encoding="utf-8")
    return str(path)


def stage_item(stage: Stage, response: str, repeat: int | None = 1) -> dict:
    return {"match": OUTPUT_CONTRACTS[stage], "response": response, "repeat": repeat}


def unanimity_items(answer: str = "42") -> list[dict]:
    return [
        stage_item(Stage.ASSESS, "COMPLEXITY: basic\nNOTES:\n- direct lookup", None),
        stage_item(Stage.SOLVE, f"ANSWER: {answer}", None),
        stage_item(Stage.VERIFY, "VERDICT: validated", None),
        stage_item(Stage.PRESENT, f"RATIONALE: table lookup\nANSWER: {answer}", None),
        stage_item(Stage.DELIBERATE, f"POSITION: keep\nANSWER: {answer}", None),
    ]


def disagreeing_items() -> list[dict]:
    """Five distinct presentations, and three rounds in which every agent
    keeps a distinct answer: a panel of up to five never agrees."""
    distinct = ["V-1", "W-2", "X-3", "Y-4", "Z-5"]
    items = [
        stage_item(Stage.ASSESS, "COMPLEXITY: basic\nNOTES:\n- look", 10),
        stage_item(Stage.SOLVE, "ANSWER: seed", 10),
        stage_item(Stage.VERIFY, "VERDICT: validated", 10),
    ]
    items += [stage_item(Stage.PRESENT, f"RATIONALE: r\nANSWER: {a}") for a in distinct]
    for _ in range(3):
        items += [stage_item(Stage.DELIBERATE, f"POSITION: keep\nANSWER: {a}")
                  for a in distinct]
    return items


def vote_only_config(path: Path) -> str:
    """``full`` without peer review: five answers, then the vote."""
    path.write_text(json.dumps({"preset": "full", "stages": ["investigation", "self_review"]}),
                    encoding="utf-8")
    return str(path)


def table_csv(path: Path) -> str:
    path.write_text("Year,Revenue\n2019,100\n2020,120\n", encoding="utf-8")
    return str(path)


class TestAsk:
    def test_prints_one_answer_line(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("120"))
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"),
                     "--query", "revenue in 2020?", "--config", "full",
                     "--backend", backend, "--seed", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "120"

    def test_five_member_panel_without_peer_review_answers(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("120"))
        trace_path = tmp_path / "out.jsonl"
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"), "--query", "revenue in 2020?",
                     "--config", vote_only_config(tmp_path / "v.json"),
                     "--backend", backend, "--trace", str(trace_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "120"
        trace = json.loads(trace_path.read_text())
        assert (trace["outcome"], trace["llm_calls"]) == ("UNANIMOUS_INITIAL", 15)

    def test_unknown_config_exits_1_and_names_presets(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items())
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"),
                     "--query", "q?", "--config", "nonsense", "--backend", backend])
        assert code == 1
        err = capsys.readouterr().err
        assert "vanilla" in err and "full" in err

    def test_blank_query_exits_1_before_any_backend_call(self, tmp_path):
        # Any backend call would be a backend error (exit 2).
        backend = script_file(tmp_path / "b.json", [])
        err = _assert_exits_1_without_traceback(["ask", "--table", table_csv(tmp_path / "t.csv"),
                                                 "--query", "   ", "--backend", backend])
        assert err == "error: query text is empty\n"

    def test_trace_flag_writes_parseable_jsonl(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("120"))
        trace_path = tmp_path / "out.jsonl"
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"),
                     "--query", "revenue in 2020?", "--config", "vanilla",
                     "--backend", backend, "--trace", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().strip().split("\n")
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["task_id"] == "adhoc"
        assert record["final"]["raw"] == "120"

    def test_backend_failure_exits_2(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", [])  # strict, empty
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"),
                     "--query", "q?", "--config", "vanilla", "--backend", backend])
        assert code == 2

    def test_csv_cell_keeps_its_line_separator(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text('Year,Trend\n2019,"up\u2028strongly"\n2020,flat\n', encoding="utf-8")
        assert _read_table_file(str(table))[0].rows == (("2019", "up\u2028strongly"), ("2020", "flat"))

    def test_multi_line_csv_cell_stays_one_row(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text('Item,Note\r\na,"line1\r\nline2"\r\nb,x\r\n', encoding="utf-8")
        parsed, context = _read_table_file(str(table))
        assert parsed.rows == (("a", "line1 line2"), ("b", "x"))
        assert flatten_table(parsed, context).count("\n") == 2

    def test_blank_csv_line_is_no_row(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text('Year,Revenue\n2019,100\n\n2020,120\n\n', encoding="utf-8")
        assert _read_table_file(str(table))[0].rows == (("2019", "100"), ("2020", "120"))
        table.write_text('Note\n""\nlast\n', encoding="utf-8")  # a quoted empty cell is a row
        assert _read_table_file(str(table))[0].rows == (("",), ("last",))

    def test_csv_byte_order_mark_is_not_data(self, tmp_path):
        table = tmp_path / "t.csv"  # as Excel's "CSV UTF-8" export writes it
        table.write_text("\ufeffYear,Revenue\n2019,100\n", encoding="utf-8")
        assert _read_table_file(str(table))[0].headers == ("Year", "Revenue")

    def test_flattened_grammar_table_file(self, tmp_path, capsys):
        table_file = tmp_path / "t.txt"
        table_file.write_text("Caption: Demo\nA | B\n1 | 2\n", encoding="utf-8")
        backend = script_file(tmp_path / "b.json", unanimity_items("2"))
        code = main(["ask", "--table", str(table_file), "--query", "what is B?",
                     "--config", "vanilla", "--backend", backend])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"


def run_bench(tmp_path: Path, out_name: str, extra: list[str] = ()) -> Path:
    backend = script_file(tmp_path / f"{out_name}-backend.json", unanimity_items("42"))
    out = tmp_path / out_name
    code = main(["bench", "tatqa", "fixture", "--config", "full",
                 "--backend", backend, "--seed", "5", "--out", str(out), *extra])
    assert code == 0
    return out


class TestBench:
    def test_fixture_run_writes_artifacts(self, tmp_path, capsys):
        out = run_bench(tmp_path, "run1")
        assert (out / "traces.jsonl").exists()
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["tasks"] == 10
        assert manifest["totals"]["errors"] == 0
        assert manifest["totals"]["llm_calls"] == 200  # 20 calls x 10 tasks
        report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert report["n"] == 10
        traces = [json.loads(l) for l in (out / "traces.jsonl").read_text().splitlines()]
        assert len(traces) == 10
        assert all(t["outcome"] == "UNANIMOUS_INITIAL" for t in traces)

    def test_determinism_byte_identical_artifacts(self, tmp_path, capsys):
        out1 = run_bench(tmp_path, "run1")
        out2 = run_bench(tmp_path, "run2")
        assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_five_member_panel_without_peer_review_votes(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", disagreeing_items()[:3])
        out = tmp_path / "vote"
        code = main(["bench", "tatqa", "fixture", "--limit", "2",
                     "--config", vote_only_config(tmp_path / "v.json"),
                     "--backend", backend, "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_name"] == "v"
        assert manifest["totals"]["llm_calls"] == 30  # 5 x (assess, solve, verify) x 2 tasks
        traces = [json.loads(l) for l in (out / "traces.jsonl").read_text().splitlines()]
        assert [(t["outcome"], t["final"]["raw"], t["presentation_order"], t["rounds"])
                for t in traces] == [("UNANIMOUS_INITIAL", "seed", [], [])] * 2

    def test_limit(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "limited"
        code = main(["bench", "tatqa", "fixture", "--config", "vanilla",
                     "--backend", backend, "--limit", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["tasks"] == 3
        assert manifest["totals"]["llm_calls"] == 3  # vanilla: one call per task

    def test_limit_reads_no_task_past_it(self, tmp_path, capsys):
        good = {"table": {"table": [["Year"], ["2019"]]}, "paragraphs": [],
                "questions": [{"uid": "q1", "question": "Which year?", "answer": "2019"}]}
        bad = {**good, "table": {"table": [["Year"], ["2019", "x", "y"]]}}
        data = tmp_path / "two.json"
        data.write_text(json.dumps([good, bad]), encoding="utf-8")
        backend = script_file(tmp_path / "b.json", unanimity_items("2019"))
        out = tmp_path / "limited"
        assert main(["bench", "tatqa", str(data), "--config", "vanilla", "--backend", backend,
                     "--limit", "1", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["totals"]["tasks"] == 1

    def test_t_max_override_caps_rounds(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", disagreeing_items())
        out = tmp_path / "capped"
        code = main(["bench", "tatqa", "fixture", "--config", "full",
                     "--backend", backend, "--limit", "1", "--seed", "5",
                     "--t-max", "3", "--out", str(out)])
        assert code == 0
        trace = json.loads((out / "traces.jsonl").read_text().splitlines()[0])
        assert trace["outcome"] == "MAJORITY_VOTE"
        assert len(trace["rounds"]) == 3

    def test_all_tasks_failing_exits_2(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", [])
        out = tmp_path / "failed"
        code = main(["bench", "tatqa", "fixture", "--config", "vanilla",
                     "--backend", backend, "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["errors"] == 10

    def test_run_that_scores_no_task_removes_an_earlier_report(self, tmp_path, capsys):
        out = run_bench(tmp_path, "run", ["--limit", "2"])
        assert json.loads((out / "report.json").read_text())["n"] == 2
        empty = script_file(tmp_path / "empty.json", [])
        assert main(["bench", "tatqa", "fixture", "--limit", "2", "--backend", empty,
                     "--out", str(out)]) == 2
        assert json.loads((out / "manifest.json").read_text())["totals"]["errors"] == 2
        assert not (out / "report.json").exists()

    def test_jobs_flag_runs_all_tasks(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "parallel"
        code = main(["bench", "tatqa", "fixture", "--config", "vanilla",
                     "--backend", backend, "--jobs", "4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["tasks"] == 10
        assert manifest["totals"]["errors"] == 0

    def test_llm_calls_total_is_exact_under_jobs(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "parallel-full"
        code = main(["bench", "tatqa", "fixture", "--config", "full",
                     "--backend", backend, "--jobs", "4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # 10 unanimous tasks of 20 calls each, however the threads interleave.
        assert manifest["totals"]["llm_calls"] == 200
        traces = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
        assert [t["llm_calls"] for t in traces] == [20] * 10

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command, calls_per_task", [("bench", 20), ("ablate", 1)])
    def test_interrupt_under_jobs_starts_no_queued_task(self, tmp_path, monkeypatch, command,
                                                        calls_per_task, jobs):
        queries = [t.query for t in fixture(DatasetKind.TATQA)]
        script = build_backend(script_file(tmp_path / "b.json", unanimity_items("42")))
        calls = []  # the fixture index of each call's task
        lock = threading.Lock()

        class Interrupting:
            model_name, temperature, order_independent = "m", 0.0, True

            def complete(self, request: ChatRequest) -> str:
                task = next(i for i, q in enumerate(queries) if q in request.messages[-1].content)
                with lock:
                    first = task == 0 and 0 not in calls
                    calls.append(task)
                # Every other call outlasts the first, so no task ends and frees
                # a worker in the moment before the main thread sees the interrupt.
                time.sleep(0.01 if first else 0.05)
                if first:  # Ctrl-C once the main thread waits, while this task runs on
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    time.sleep(0.1)
                return script.complete(request)

            def close(self) -> None:
                pass

        monkeypatch.setattr("tablepanel.cli.build_backend", lambda path: Interrupting())
        with pytest.raises(KeyboardInterrupt):
            main([command, "tatqa", "fixture", "--jobs", str(jobs), "--backend", "unused.json",
                  "--out", str(tmp_path / "out")])
        # The tasks in flight at the interrupt made every call of theirs; no
        # other task started.
        per_task = Counter(calls)
        assert per_task[0] == calls_per_task and len(per_task) <= jobs
        assert set(per_task.values()) == {calls_per_task}


def test_manifest_keys_and_values(tmp_path, capsys):
    backend = script_file(tmp_path / "b.json", unanimity_items("42"))
    out = tmp_path / "run"
    assert main(["bench", "tatqa", "fixture", "--backend", backend, "--jobs", "2",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for stamp in ("started", "finished"):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", manifest.pop(stamp))
    assert manifest == {
        "backend": {"base_url": "scripted", "model_name": "scripted"},
        "config_digest": "01c24c3e92c2ff12",
        "config_name": "full",
        "dataset": {"kind": "tatqa", "path": "fixture"},
        "totals": {"errors": 0, "failed_task_ids": [], "llm_calls": 200, "tasks": 10},
    }


class TestScore:
    def test_rescoring_reproduces_bench_report(self, tmp_path, capsys):
        out = run_bench(tmp_path, "run1")
        bench_report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        code = main(["score", str(out / "traces.jsonl"), "tatqa", "fixture"])
        assert code == 0
        score_report = json.loads(capsys.readouterr().out.strip())
        assert score_report == bench_report

    def test_truncated_trace_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"task_id": "x"}\n{broken\n', encoding="utf-8")
        code = main(["score", str(bad), "tatqa", "fixture"])
        assert code == 1
        assert "line" in capsys.readouterr().err

    def test_feverous_scoring_includes_evidence(self, tmp_path, capsys):
        backend = script_file(
            tmp_path / "b.json",
            [stage_item(Stage.SOLVE, "ANSWER: supports", 20)],
        )
        out = tmp_path / "fev"
        code = main(["bench", "feverous", "fixture", "--config", "vanilla",
                     "--backend", backend, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "label_acc" in report and "feverous_score" in report
        assert report["feverous_score"] <= report["label_acc"]


class TestAblate:
    def test_ten_rows_in_preset_order(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "ablation"
        code = main(["ablate", "tatqa", "fixture", "--limit", "2",
                     "--backend", backend, "--seed", "4", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["preset"] for r in rows] == [
            "vanilla", "vanilla+self", "vanilla+peer", "vanilla+self+peer",
            "investigation", "investigation+self", "investigation+peer",
            "full", "full-random-role", "full-alt-role",
        ]
        table = capsys.readouterr().out
        assert "vanilla+self+peer" in table

    def test_vanilla_row_uses_one_call_per_task(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "ablation"
        code = main(["ablate", "tatqa", "fixture", "--limit", "2",
                     "--backend", backend, "--out", str(out)])
        assert code == 0
        rows = {r["preset"]: r for r in json.loads((out / "ablation.json").read_text())}
        assert rows["vanilla"]["llm_calls"] == 2  # 1 call x 2 tasks
        assert rows["full"]["llm_calls"] == 40  # 20 calls x 2 tasks

    def test_t_max_applies_to_every_row(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", disagreeing_items())
        calls = {}
        for t_max in ("1", "3"):
            out = tmp_path / f"t{t_max}"
            code = main(["ablate", "tatqa", "fixture", "--limit", "1", "--t-max", t_max,
                         "--backend", backend, "--out", str(out)])
            assert code == 0
            rows = {r["preset"]: r for r in json.loads((out / "ablation.json").read_text())}
            calls[t_max] = rows["full"]["llm_calls"]
        # 5 x (assess, solve, verify, present) plus 5 calls per deliberation round
        assert calls == {"1": 25, "3": 35}

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("kind", [k.value for k in DatasetKind])
    def test_each_row_directory_is_the_bench_run_of_its_preset(self, tmp_path, capsys, kind,
                                                               jobs):
        backend = tmp_path / "readme.json"
        backend.write_text(readme_scripted_backend(), encoding="utf-8")
        common = [kind, "fixture", "--limit", "2", "--seed", "5", "--jobs", jobs,
                  "--backend", str(backend)]
        assert main(["ablate", *common, "--out", str(tmp_path / "ablation")]) == 0
        rows = json.loads((tmp_path / "ablation" / "ablation.json").read_text())
        for row, preset in zip(rows, ablation_presets()):
            out = tmp_path / "ablation" / preset
            bench = tmp_path / "bench" / preset
            assert main(["bench", *common, "--config", preset, "--out", str(bench)]) == 0
            for name in ("traces.jsonl", "report.json"):
                assert (out / name).read_bytes() == (bench / name).read_bytes(), (preset, name)
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (out, bench)]
            for manifest in manifests:
                del manifest["started"], manifest["finished"]
            assert manifests[0] == manifests[1]
            totals = manifests[0]["totals"]
            assert row == {"preset": preset, "report": json.loads((out / "report.json").read_text()),
                           "tasks": totals["tasks"], "errors": totals["errors"],
                           "llm_calls": totals["llm_calls"]}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_in_the_third_row_keeps_the_finished_rows(self, tmp_path, monkeypatch,
                                                                 jobs):
        script = script_file(tmp_path / "b.json", unanimity_items("42"))
        built = []
        signalled = threading.Event()

        class Interrupting:  # the third row's backend: Ctrl-C at its first call
            model_name, temperature, order_independent = "scripted", 0.0, True

            def __init__(self):
                self.script = build_backend(script)

            def complete(self, request: ChatRequest) -> str:
                if not signalled.is_set():
                    signalled.set()
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    time.sleep(0.1)
                return self.script.complete(request)

            def close(self) -> None:
                pass

        def build(path: str):
            built.append(path)
            return Interrupting() if len(built) == 3 else build_backend(path)

        monkeypatch.setattr("tablepanel.cli.build_backend", build)
        out = tmp_path / "ablation"
        out.mkdir()
        (out / "ablation.json").write_text("[]\n", encoding="utf-8")  # an earlier run's
        with pytest.raises(KeyboardInterrupt):
            main(["ablate", "tatqa", "fixture", "--limit", "2", "--jobs", str(jobs),
                  "--backend", script, "--out", str(out)])
        assert len(built) == 3
        first, second, third, *rest = ablation_presets()
        for preset in (first, second):
            manifest = json.loads((out / preset / "manifest.json").read_text())
            assert manifest["totals"]["tasks"] == 2 and manifest["totals"]["errors"] == 0
            assert len((out / preset / "traces.jsonl").read_text().splitlines()) == 2
            assert json.loads((out / preset / "report.json").read_text())["n"] == 2
        assert not (out / third / "manifest.json").exists()
        assert all(not any((out / preset).iterdir()) for preset in (third, *rest))
        assert not (out / "ablation.json").exists()

    def test_config_flag_is_rejected(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "tatqa", "fixture", "--config", "x", "--backend", backend])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [k.value for k in DatasetKind])
def test_readme_script_fans_out_with_byte_identical_outputs(tmp_path, capsys, kind):
    backend = tmp_path / "readme.json"
    backend.write_text(readme_scripted_backend(), encoding="utf-8")
    assert build_backend(str(backend)).order_independent
    outs = [tmp_path / "jobs1", tmp_path / "jobs4"]
    for jobs, out in zip(("1", "4"), outs):
        code = main(["bench", kind, "fixture", "--backend", str(backend), "--seed", "5",
                     "--jobs", jobs, "--out", str(out)])
        assert code == 0
    for name in ("traces.jsonl", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_readme_script_answering_unknown_scores_semtabfacts_as_the_exact_hit_share(tmp_path):
    backend = tmp_path / "unknown.json"
    backend.write_text(readme_scripted_backend().replace("ANSWER: 42", "ANSWER: unknown"),
                       encoding="utf-8")
    out = tmp_path / "run"
    code = main(["bench", "semtabfacts", "fixture", "--backend", str(backend), "--out", str(out)])
    assert code == 0
    # Two of the fixture's ten statements are labelled unknown.
    assert json.loads((out / "report.json").read_text()) == \
        {"kind": "fact_verify_3way", "micro_f1": 0.2, "n": 10}


class TestConfigResolution:
    def test_preset_by_name(self):
        config = resolve_config("vanilla+peer")
        assert config.name == "vanilla+peer"
        assert len(config.panel) == 5

    def test_seed_and_t_max_overrides(self):
        config = resolve_config("full", seed=9, t_max_panel=4)
        assert config.ordering_seed == 9
        assert config.t_max_panel == 4

    def test_config_file_with_preset_base(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"preset": "full", "t_max_panel": 2}), encoding="utf-8")
        config = resolve_config(str(file))
        assert config.t_max_panel == 2
        assert len(config.panel) == 5

    def test_config_and_backend_files_may_start_with_a_byte_order_mark(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("\ufeff" + json.dumps({"preset": "full", "t_max_panel": 2}),
                          encoding="utf-8")
        assert resolve_config(str(config)).t_max_panel == 2
        backend = tmp_path / "b.json"
        script = {"type": "scripted", "script": [{"response": "x"}]}
        backend.write_text("\ufeff" + json.dumps(script), encoding="utf-8")
        assert build_backend(str(backend)).model_name == "scripted"

    @pytest.mark.parametrize("data", [{"preset": "full"}, {"preset": "full", "name": ""},
                                      {"panel": [{"name": "Ada", "focus": "Check"}], "name": ""}])
    def test_config_file_without_a_name_is_named_by_its_stem(self, tmp_path, data):
        file = tmp_path / "mine.json"
        file.write_text(json.dumps(data), encoding="utf-8")
        assert resolve_config(str(file)).name == "mine"

    def test_config_file_with_explicit_panel(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({
            "panel": [{"name": "Ada", "focus": "Check the arithmetic"},
                      {"name": "Grace", "focus": "Probe the assumptions"}],
            "stages": ["investigation", "peer_review"],
        }), encoding="utf-8")
        config = resolve_config(str(file))
        assert [m.name for m in config.panel.members] == ["Ada", "Grace"]

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("preset", list(ablation_presets()))
    def test_preset_file_is_its_preset_under_the_file_name(self, tmp_path, preset, seed):
        file = tmp_path / "mine.json"
        file.write_text(json.dumps({"preset": preset}), encoding="utf-8")
        expected = replace(ablation_presets(seed or 0)[preset], name="mine")
        assert resolve_config(str(file), seed=seed) == expected
        assert resolve_config(str(file), seed=seed, t_max_panel=3) == replace(expected, t_max_panel=3)

    def test_config_file_setting_every_field_overrides_each(self, tmp_path):
        data = {"preset": "full", "panel": [{"name": "Ada", "focus": "Check the arithmetic"}],
                "stages": ["self_review"], "t_max_self": 2, "t_max_panel": 3,
                "ordering_seed": 4, "format_retry": 0, "name": "mine"}
        assert {f.name for f in fields(PipelineConfig)} < set(data)
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(data), encoding="utf-8")
        assert resolve_config(str(file)) == PipelineConfig(
            panel=Panel((Persona("Ada", "Check the arithmetic"),)),
            stages=frozenset({StageName.SELF_REVIEW}), t_max_self=2, t_max_panel=3,
            ordering_seed=4, format_retry=0, name="mine")

    def test_panel_member_that_is_no_object_is_named(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"panel": ["Ada"]}), encoding="utf-8")
        with pytest.raises(CliError) as err:
            resolve_config(str(file))
        assert str(err.value) == "bad pipeline config: panel member 'Ada' is not an object"

    def test_scripted_backend_file(self, tmp_path):
        backend = build_backend(script_file(tmp_path / "b.json",
                                            [{"response": "hi", "repeat": 2}]))
        assert backend.remaining() == 2

    def test_openai_backend_summary_has_no_key_material(self):
        backend = OpenAIChatBackend(BackendConfig(
            base_url="http://example.test/v1", model_name="m",
            api_key_env_var="SOME_KEY_VAR"))
        summary = _backend_summary(backend)
        assert summary == {"model_name": "m", "base_url": "http://example.test/v1"}


def _trace(**fields) -> dict:
    trace = {"task_id": "x", "config_digest": "d", "records": [], "presentation_order": [],
             "rounds": [], "outcome": None, "llm_calls": 0}
    return {**trace, **fields}


def _scorable(**fields) -> dict:
    """A trace line that ``score`` would score on the tatqa fixture, but for
    ``fields``."""
    return _trace(task_id="tatqa-01", final={"raw": "1,450", "normalized": "1450"}, **fields)


def _record(**fields) -> dict:
    record = {"seq": 0, "agent": "Ada", "stage": "solve", "raw": "ANSWER: 1,450", "ok": True,
              "parsed": None, "error": None}
    return {**record, **fields}


def _jsonl(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _tatqa(table: list, question: str = "What was the revenue?",
           uids: tuple = ("q1",), paragraphs: object = ()) -> tuple[str, dict]:
    block = {"table": {"table": table}, "paragraphs": paragraphs,
             "questions": [{"uid": uid, "question": question, "answer": "1"} for uid in uids]}
    return "tatqa", {"bad.json": json.dumps([block])}


def _wikisql(header: list, rows: object, question: str = "Which year?",
             ids: tuple = ("w1",)) -> tuple[str, dict]:
    return "wikisql", {
        "bad.jsonl": _jsonl(*({"id": i, "question": question, "table_id": "t",
                               "denotation": ["2019"]} for i in ids)),
        "bad.tables.jsonl": _jsonl({"id": "t", "header": header, "rows": rows}),
    }


def _feverous(header: object, rows: object, claim: str = "It rose.",
              gold_evidence: object = (("e1",),), retrieved: object = ("e1",),
              sentences: object = ()) -> tuple[str, dict]:
    record = {"id": "f1", "claim": claim, "label": "SUPPORTS",
              "table": {"header": header, "rows": rows}, "sentences": sentences,
              "gold_evidence": gold_evidence}
    return "feverous", {"bad.jsonl": _jsonl(record),
                        "bad.retrieved.jsonl": _jsonl({"id": "f1", "retrieved": retrieved})}


def _semtabfacts(cells: str, statement: str = "It rose.") -> tuple[str, dict]:
    return "semtabfacts", {"bad.xml": (
        "<corpus><table id='t'><header><cell>Year</cell></header>"
        f"<row>{cells}</row><statement id='s1' label='entailed'>{statement}</statement>"
        "</table></corpus>")}


OPENAI = {"type": "openai", "base_url": "http://127.0.0.1:9/v1", "model_name": "m"}

# A string where a list belongs would load one item per character.
STRING_SHAPED = {
    "dataset-tatqa-paragraphs-str": ("dataset", _tatqa([["a"], ["1"]], paragraphs="text")),
    "dataset-wikisql-rows-str": ("dataset", _wikisql(["Year"], "12")),
    "dataset-feverous-sentences-str": ("dataset", _feverous(["Year"], [["2019"]],
                                                            sentences="It rose.")),
    "dataset-feverous-header-str": ("dataset", _feverous("ab", [["1", "2"]])),
    "dataset-feverous-row-str": ("dataset", _feverous(["Year", "Value"], ["xy"])),
    "config-stages-str": ("config", {"preset": "full", "stages": "peer_review"}),
    "config-panel-str": ("config", {"panel": "Ada"}),
}

# A JSON object where a list belongs would load its keys as the items.
OBJECT_SHAPED = {
    "dataset-wikisql-header-obj": ("dataset", _wikisql({"Year": 0, "Value": 1}, [["2019", "1"]])),
    "dataset-feverous-sentences-obj": ("dataset", _feverous(["Year"], [["2019"]],
                                                            sentences={"It rose.": 1})),
    "dataset-tatqa-paragraphs-obj": ("dataset", _tatqa([["a"], ["1"]], paragraphs={"text": 1})),
    "config-stages-obj": ("config", {"preset": "full",
                                     "stages": {"investigation": 1, "self_review": 0}}),
    "config-panel-obj": ("config", {"panel": {"Ada": "Check the arithmetic"}}),
    "backend-script-obj": ("backend", {"type": "scripted", "script": {"response": "hi"}}),
}

# Wrong shapes and values, per input file: (command, file contents). A
# dataset's contents are its kind and its files, the first one the dataset.
MALFORMED = {
    "trace-list": ("score", [1]),
    "trace-records-int": ("score", _trace(records=5)),
    "trace-record-int": ("score", _trace(records=[5])),
    "trace-final-str": ("score", _trace(final="B-1")),
    "trace-round-list": ("score", _trace(rounds=[[1]])),
    "trace-task-id-list": ("score", _trace(task_id=[1])),
    "trace-final-int": ("score", _trace(task_id="tatqa-01", final={"raw": 5, "normalized": 5})),
    "trace-complete-str": ("score", _trace(task_id="tatqa-01", complete="no",
                                           final={"raw": "1,450", "normalized": "1450"})),
    "trace-stage-unknown": ("score", _scorable(records=[_record(stage="reflect")])),
    "trace-outcome-unknown": ("score", _scorable(outcome="UNANIMOUS")),
    "trace-records-numbered-1-0": ("score", _scorable(records=[_record(seq=1), _record(seq=0)])),
    "trace-untyped-fields": ("score", _scorable(
        config_digest=7, records=[{"seq": "a", "agent": 1, "stage": 2, "raw": 3, "ok": "no"}],
        presentation_order="abc", outcome=5, llm_calls="many")),
    **{f"trace-{name}-{type(value).__name__}": ("score", _scorable(**{name: value}))
       for name, value in (
        ("config_digest", 7), ("records", [5]), ("presentation_order", "abc"),
        ("presentation_order", [1]), ("rounds", [{"Ada": "1,450"}]), ("outcome", 5),
        ("consensus_round", "1"), ("llm_calls", "many"), ("llm_calls", True),
        ("failed_agents", "Ada"), ("failed_agents", [1]), ("error", 5))},
    **{f"trace-record-{name}-{type(value).__name__}": (
        "score", _scorable(records=[_record(**{name: value})]))
       for name, value in (("seq", "a"), ("seq", False), ("agent", 1), ("stage", 2),
                           ("raw", 3), ("ok", "no"), ("parsed", [1]), ("error", 5))},
    "config-list": ("config", [1]),
    "config-panel-int": ("config", {"panel": 5}),
    "config-t-max-str": ("config", {"preset": "full", "t_max_self": "2"}),
    "config-preset-list": ("config", {"preset": ["full"]}),
    **{f"config-{name}-{value}": ("config", {"preset": "full", name: value})
       for name, value in (("format_retry", 1.5), ("t_max_self", 1.5), ("t_max_panel", True),
                           ("ordering_seed", None), ("ordering_seed", [1]), ("name", 5),
                           ("name", ["x"]), ("name", False))},
    "config-persona-int": ("config", {"panel": [{"name": 5, "focus": "Check"}]}),
    # A misspelt member key would be dropped without a word.
    "config-persona-unknown-key": ("config", {"panel": [
        {"name": "Ada", "focus": "Check the arithmetic", "fcous": "Probe the assumptions"}]}),
    "backend-list": ("backend", [1]),
    "backend-url-int": ("backend", {"type": "openai", "base_url": 5, "model_name": "m"}),
    "backend-response-int": ("backend", {"type": "scripted", "script": [{"response": 5}]}),
    "backend-match-int": ("backend", {"type": "scripted",
                                      "script": [{"response": "hi", "match": 5}]}),
    "backend-script-int": ("backend", {"type": "scripted", "script": [5]}),
    "backend-repeat-str": ("backend", {"type": "scripted",
                                       "script": [{"response": "hi", "repeat": "many"}]}),
    **{f"backend-repeat-{name}": ("backend", {"type": "scripted",
                                              "script": [{"response": "hi", "repeat": value}]})
       for name, value in (("zero", 0), ("negative", -2), ("float", 2.7), ("bool", True),
                           ("numeric-str", "3"))},
    "backend-strict-false": ("backend", {"type": "scripted", "strict": False,
                                         "script": [{"response": "hi"}]}),
    "backend-fallback": ("backend", {"type": "scripted", "fallback": "hi", "script": []}),
    # A misspelt key would give an empty script, or an entry that matches every request.
    "backend-unknown-key": ("backend", {"type": "scripted",
                                        "scrpt": [{"response": "hi", "repeat": None}]}),
    "backend-openai-unknown-key": ("backend", {**OPENAI, "max_retry": 3}),
    "backend-unknown-entry-key": ("backend", {"type": "scripted", "script": [
        {"response": "hi", "matcher": "ANSWER", "repeat": None}]}),
    "backend-max-retries-float": ("backend", {**OPENAI, "max_retries": 1.5}),
    "backend-temperature-negative": ("backend", {**OPENAI, "temperature": -1}),
    **{f"backend-{name}-{value}": ("backend", {**OPENAI, name: value}) for name, value in (
        ("temperature", "0.5"), ("model_name", 5), ("api_key_env_var", 5),
        ("request_timeout", True), ("retry_backoff_base", "0.5"))},
    # JSON's Infinity and NaN: a timeout no socket takes, a sleep without end,
    # a temperature that is no JSON number.
    **{f"backend-{name}-{value}": ("backend", {**OPENAI, name: value})
       for name in ("temperature", "request_timeout", "retry_backoff_base")
       for value in (math.inf, math.nan)},
    # Waits longer than a day: a socket cannot time out after 1e12 s, and
    # time.sleep cannot back off for 1e10 s.
    "backend-request-timeout-1e12": ("backend", {**OPENAI, "request_timeout": 1e12}),
    "backend-retry-backoff-base-1e10": ("backend", {**OPENAI, "retry_backoff_base": 1e10}),
    **{f"limit-{command}-{value}": ("limit", (command, value))
       for command in ("bench", "ablate", "score") for value in ("0", "-1")},
    "dataset-tatqa-row-too-long": ("dataset", _tatqa([["a", "b"], ["1", "2", "3"]])),
    "dataset-tatqa-blank-question": ("dataset", _tatqa([["a"], ["1"]], question="   ")),
    "dataset-tatqa-no-header": ("dataset", _tatqa([[]])),
    "dataset-wikisql-row-too-long": ("dataset", _wikisql(["Year"], [["2019", "x"]])),
    "dataset-wikisql-blank-question": ("dataset", _wikisql(["Year"], [["2019"]], question=" ")),
    "dataset-feverous-row-too-long": ("dataset", _feverous(["Year"], [["2019", "x"]])),
    "dataset-feverous-blank-claim": ("dataset", _feverous(["Year"], [["2019"]], claim=" ")),
    "dataset-feverous-flat-gold-evidence": ("dataset", _feverous(["Year"], [["2019"]],
                                                                 gold_evidence=("e1", "e2"))),
    "dataset-feverous-retrieved-str": ("dataset", _feverous(["Year"], [["2019"]], retrieved="e1")),
    "dataset-semtabfacts-row-too-long": ("dataset", _semtabfacts("<cell>1</cell><cell>2</cell>")),
    "dataset-semtabfacts-blank-statement": ("dataset", _semtabfacts("<cell>1</cell>", " ")),
    **STRING_SHAPED,
    **OBJECT_SHAPED,
    "dataset-tatqa-duplicate-uid": ("dataset", _tatqa([["a"], ["1"]], uids=("q1", "q1"))),
    "dataset-wikisql-duplicate-id": ("dataset", _wikisql(["Year"], [["2019"]], ids=("w1", "w1"))),
    "score-dataset-tatqa-duplicate-uid": ("score-dataset",
                                          _tatqa([["a"], ["1"]], uids=("q1", "q2", "q1"))),
}


def _assert_exits_1_without_traceback(argv: list[str]) -> str:
    src = str(Path(tablepanel.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-m", "tablepanel.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr
    return result.stderr


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_file_exits_1_without_traceback(tmp_path, case):
    command, content = MALFORMED[case]
    bad = tmp_path / "bad.json"
    kind, files = (content if command.endswith("dataset")
                   else ("tatqa", {"bad.json": json.dumps(content)}))
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    good_backend = script_file(tmp_path / "good.json", unanimity_items())
    if command == "limit":  # content: (the command, its --limit)
        name, limit = content
        argv = ["score", str(bad)] if name == "score" else [name, "--backend", good_backend]
        argv += ["tatqa", "fixture", "--limit", limit]
        assert _assert_exits_1_without_traceback(argv) == "error: --limit must be >= 1\n"
        return
    argv = {
        "score": ["score", str(bad), "tatqa", "fixture"],
        "config": ["bench", "tatqa", "fixture", "--limit", "1", "--config", str(bad),
                   "--backend", good_backend, "--out", str(tmp_path / "out")],
        "backend": ["bench", "tatqa", "fixture", "--limit", "1", "--backend", str(bad),
                    "--out", str(tmp_path / "out")],
        "dataset": ["bench", kind, str(tmp_path / next(iter(files))), "--backend", good_backend,
                    "--out", str(tmp_path / "out")],
        "score-dataset": ["score", str(tmp_path / "traces.jsonl"), kind,
                          str(tmp_path / next(iter(files)))],
    }[command]
    err = _assert_exits_1_without_traceback(argv)
    if "unknown" in case and command in ("backend", "config"):
        what = "backend" if command == "backend" else "pipeline"
        assert err.startswith(f"error: bad {what} config: ") and "unknown key" in err
    if case in STRING_SHAPED:
        assert "must be a list, not the string" in err
    if case in OBJECT_SHAPED:
        assert "must be a list, not the object" in err
    if "duplicate" in case:
        assert err.startswith("error: cannot load dataset: duplicate task id ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["bench", "ablate"])
def test_non_positive_jobs_exits_1_without_traceback(tmp_path, command, jobs):
    backend = script_file(tmp_path / "good.json", unanimity_items())
    _assert_exits_1_without_traceback([command, "tatqa", "fixture", "--limit", "1", "--jobs", jobs,
                                       "--backend", backend, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ask", "ask-dir", "bench", "ablate", "ablate-row"])
def test_unwritable_output_exits_1_before_any_backend_call(tmp_path, command):
    # ablate-row: a file takes the place of the ``full`` row's directory.
    taken = tmp_path / "ablation" / "full" if command == "ablate-row" else tmp_path / "taken"
    taken.parent.mkdir(exist_ok=True)
    taken.write_text("not a directory\n", encoding="utf-8")
    # Any backend call would be a backend error (exit 2).
    backend = script_file(tmp_path / "empty.json", [])
    if command.startswith("ask"):
        trace = tmp_path if command == "ask-dir" else tmp_path / "missing_dir" / "x.jsonl"
        argv = ["ask", "--table", table_csv(tmp_path / "t.csv"), "--query", "q?",
                "--trace", str(trace)]
    else:
        out = taken.parent if command == "ablate-row" else taken
        argv = [command.split("-")[0], "tatqa", "fixture", "--limit", "1", "--out", str(out)]
    err = _assert_exits_1_without_traceback([*argv, "--backend", backend])
    assert err.startswith("error: cannot write ")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
    assert not list(tmp_path.glob("**/traces.jsonl"))


def test_unknown_config_key_exits_1_before_any_backend_call(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "full", "t_max": 3}), encoding="utf-8")
    # Any backend call would be a backend error (exit 2).
    backend = script_file(tmp_path / "empty.json", [])
    err = _assert_exits_1_without_traceback(["bench", "tatqa", "fixture", "--config", str(config),
                                             "--backend", backend, "--out", str(tmp_path / "out")])
    assert err == "error: bad pipeline config: unknown key 't_max'\n"


@pytest.mark.parametrize("command", ["ask", "bench", "ablate"])
def test_t_max_0_exits_1_before_any_backend_call(tmp_path, command):
    backend = script_file(tmp_path / "empty.json", [])  # a call would exit 2
    if command == "ask":
        argv = ["ask", "--table", table_csv(tmp_path / "t.csv"), "--query", "q?"]
    else:
        argv = [command, "tatqa", "fixture", "--limit", "1", "--out", str(tmp_path / "out")]
    err = _assert_exits_1_without_traceback([*argv, "--backend", backend, "--t-max", "0"])
    assert err == "error: bad pipeline config: t_max values must be >= 1\n"


def test_repeated_trace_task_id_exits_1(tmp_path):
    traces = tmp_path / "traces.jsonl"
    traces.write_text(_jsonl(_scorable(), _scorable()), encoding="utf-8")
    err = _assert_exits_1_without_traceback(["score", str(traces), "tatqa", "fixture"])
    assert err == "error: trace line 2: repeated task id 'tatqa-01'\n"


@pytest.mark.parametrize("form", ["directory", "not-utf8"])
@pytest.mark.parametrize("what", ["table", "backend", "config", "dataset", "trace"])
def test_unreadable_input_file_exits_1_without_traceback(tmp_path, what, form):
    bad = tmp_path / "bad.json"
    if form == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"type": "scripted", "script": [], "\xff": 1}\n')
    backend = script_file(tmp_path / "good.json", unanimity_items())
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "table": ["ask", "--table", str(bad), "--query", "q?", "--backend", backend],
        "backend": ["bench", "tatqa", "fixture", "--limit", "1", "--backend", str(bad), *out],
        "config": ["bench", "tatqa", "fixture", "--limit", "1", "--config", str(bad),
                   "--backend", backend, *out],
        "dataset": ["bench", "tatqa", str(bad), "--backend", backend, *out],
        "trace": ["score", str(bad), "tatqa", "fixture"],
    }[what]
    err = _assert_exits_1_without_traceback(argv)
    assert err.startswith("error: cannot load dataset: " if what == "dataset"
                          else "error: cannot read "), err
    assert err.count("\n") == 1, err


def _solve_template(tmp_path: Path, body: bytes) -> str:
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "solve.txt").write_bytes(body)
    return str(templates)


TEMPLATE_ERRORS = {
    "missing-dir": lambda tmp_path: str(tmp_path / "no-such-dir"),
    "missing-placeholder": lambda tmp_path: _solve_template(tmp_path, b"{query} {notes}"),
    "not-utf8": lambda tmp_path: _solve_template(tmp_path, b"\xff{query}"),
}


@pytest.mark.parametrize("command", ["ask", "bench", "ablate"])
@pytest.mark.parametrize("case", list(TEMPLATE_ERRORS))
def test_bad_templates_exit_1_before_any_backend_call(tmp_path, case, command):
    backend = script_file(tmp_path / "empty.json", [])
    if command == "ask":
        argv = ["ask", "--table", table_csv(tmp_path / "t.csv"), "--query", "q?"]
    else:
        argv = [command, "tatqa", "fixture", "--limit", "1", "--out", str(tmp_path / "out")]
    _assert_exits_1_without_traceback(
        [*argv, "--backend", backend, "--templates", TEMPLATE_ERRORS[case](tmp_path)])


def test_templates_dir_overrides_a_stage_body(tmp_path, capsys):
    templates = _solve_template(
        tmp_path, b"CUSTOM SOLVE\n{flattened_input}\n{query}\n{complexity}\n{notes}\n")
    # Only the overridden solve body matches this script.
    backend = script_file(tmp_path / "b.json", [{"match": "CUSTOM SOLVE", "response": "ANSWER: 120"}])
    code = main(["ask", "--table", table_csv(tmp_path / "t.csv"), "--query", "revenue in 2020?",
                 "--config", "vanilla", "--backend", backend, "--templates", templates])
    assert code == 0
    assert capsys.readouterr().out.strip() == "120"
