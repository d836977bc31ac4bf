from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tablepanel
from tablepanel.cli import build_backend, main, resolve_config
from tablepanel.datasets import DatasetKind
from tablepanel.gateway import BackendConfig, OpenAIChatBackend
from tablepanel.personas import OUTPUT_CONTRACTS, Stage
from tablepanel.cli import _backend_summary


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

    def test_unknown_config_exits_1_and_names_presets(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items())
        code = main(["ask", "--table", table_csv(tmp_path / "t.csv"),
                     "--query", "q?", "--config", "nonsense", "--backend", backend])
        assert code == 1
        err = capsys.readouterr().err
        assert "vanilla" in err and "full" in err

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

    def test_limit(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        out = tmp_path / "limited"
        code = main(["bench", "tatqa", "fixture", "--config", "vanilla",
                     "--backend", backend, "--limit", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["totals"]["tasks"] == 3
        assert manifest["totals"]["llm_calls"] == 3  # vanilla: one call per task

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

    def test_config_flag_is_rejected(self, tmp_path, capsys):
        backend = script_file(tmp_path / "b.json", unanimity_items("42"))
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "tatqa", "fixture", "--config", "x", "--backend", backend])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def readme_scripted_backend() -> str:
    """The scripted backend example in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"```json\n(\{\"type\": \"scripted\".*?)```", readme, re.S).group(1)


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

    def test_config_file_with_explicit_panel(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({
            "panel": [{"name": "Ada", "focus": "Check the arithmetic"},
                      {"name": "Grace", "focus": "Probe the assumptions"}],
            "stages": ["investigation", "peer_review"],
        }), encoding="utf-8")
        config = resolve_config(str(file))
        assert [m.name for m in config.panel.members] == ["Ada", "Grace"]

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


# Well-formed JSON of the wrong shape, per input file: (command, file contents).
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
    "config-list": ("config", [1]),
    "config-panel-int": ("config", {"panel": 5}),
    "config-t-max-str": ("config", {"preset": "full", "t_max_self": "2"}),
    "config-preset-list": ("config", {"preset": ["full"]}),
    "config-persona-int": ("config", {"panel": [{"name": 5, "focus": "Check"}]}),
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
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_file_exits_1_without_traceback(tmp_path, case):
    command, content = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content) + "\n", encoding="utf-8")
    good_backend = script_file(tmp_path / "good.json", unanimity_items())
    argv = {
        "score": ["score", str(bad), "tatqa", "fixture"],
        "config": ["bench", "tatqa", "fixture", "--limit", "1", "--config", str(bad),
                   "--backend", good_backend, "--out", str(tmp_path / "out")],
        "backend": ["bench", "tatqa", "fixture", "--limit", "1", "--backend", str(bad),
                    "--out", str(tmp_path / "out")],
    }[command]
    src = str(Path(tablepanel.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-m", "tablepanel.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr
