"""Seeded input generator: corpora in the four dataset file formats, the
stub's policy file, and the scripted and openai backend files.

The same seed always yields byte-identical files. Tables come in three sizes
(small, 60 rows, 200 rows) and every query ends with a unique ``(ref X)``
tag, so each backend call can be attributed to its task from the request
text alone. Table cells have fixed widths, so prompt sizes hardly depend on
the seed; the values do.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import policy
from tablepanel.personas import (
    OUTPUT_CONTRACTS,
    PromptLibrary,
    Stage,
    default_panel,
    persona_blurb,
    render_prompt,
    task_description_for,
)
from tablepanel.tables import TaskKind

# One block of tasks: (scenario, table rows, malformed (member, stage,
# occurrence) or None). Every block holds the same outcome mix; roughly one
# reply in eighty breaks its stage contract and forces a re-ask.
BLOCK = (
    ("unanimous", 6, None),
    ("unanimous", 8, (1, "solve", 0)),
    ("unanimous", 200, None),
    ("unanimous", 60, None),
    ("consensus_r1", 6, None),
    ("consensus_r1", 60, (3, "present", 0)),
    ("consensus_r2", 8, (2, "verify", 0)),
    ("consensus_r2", 10, None),
    ("adversarial", 60, None),
    ("adversarial", 60, (4, "deliberate", 0)),
)

_PLACES = ("Northfield", "Ashby", "Cold Harbor", "Linden", "Marlow",
           "Pike Hollow", "Redcliff", "Stanmore", "Upton", "Wexley")
_HEADERS = ("Site", "Year", "Units", "Revenue")
_SEMTAB_LABELS = ("entailed", "refuted", "unknown")
_FEVEROUS_LABELS = (("SUPPORTS", "supports"), ("REFUTES", "refutes"),
                    ("NOT ENOUGH INFO", "nei"))

KINDS = {
    "tatqa": TaskKind.qa(),
    "semtabfacts": TaskKind.fact_verify(_SEMTAB_LABELS),
    "wikisql": TaskKind.sql_denotation(),
    "feverous": TaskKind.fact_verify(label for _, label in _FEVEROUS_LABELS),
}


def make_table(rng: random.Random, n_rows: int) -> list[list[str]]:
    units = rng.sample(range(10_000, 100_000), n_rows)
    return [[f"{_PLACES[i % len(_PLACES)]} {i:03d}", str(rng.randint(2000, 2023)),
             f"{units[i]:,}", f"{rng.randint(100, 999)}.{rng.randint(10, 99)}"]
            for i in range(n_rows)]


def make_tasks(seed: int, kind: str, blocks: int, prefix: str) -> list[dict]:
    """``blocks`` copies of BLOCK with fresh tables; each task is a dict with
    its ref, table, query, gold and the policy fields."""
    rng = random.Random(f"{seed}:{kind}:{prefix}")
    tasks = []
    for b in range(blocks):
        for i, (scenario, n_rows, malformed) in enumerate(BLOCK):
            n = b * len(BLOCK) + i
            ref = f"{prefix}{n:04d}"
            rows = make_table(rng, n_rows)
            k, j = rng.sample(range(n_rows), 2)
            site, units, year = rows[k][0], rows[k][2], rows[k][1]
            task = {"ref": ref, "rows": rows, "scenario": scenario,
                    "malformed": [list(malformed)] if malformed else []}
            if kind == "tatqa":
                task.update(query=f"How many units did {site} report? (ref {ref})",
                            right=units, wrong=rows[j][2], gold=units)
            elif kind == "wikisql":
                task.update(query=f"Which site reported {units} units? (ref {ref})",
                            right=site, wrong=rows[j][0], gold=site)
            elif kind == "semtabfacts":
                label = _SEMTAB_LABELS[n % 3]
                task.update(query=f"{site} reported {units} units in {year}. (ref {ref})",
                            right=label, wrong=_SEMTAB_LABELS[(n + 1) % 3], gold=label)
            else:
                gold, label = _FEVEROUS_LABELS[n % 3]
                task.update(query=f"{site} reported {units} units in {year}. (ref {ref})",
                            right=label, wrong=_FEVEROUS_LABELS[(n + 1) % 3][1], gold=gold,
                            cell=f"{ref}_cell_{k}_2", evidence_found=n % 4 != 3)
            tasks.append(task)
    return tasks


def write_corpus(kind: str, tasks: list[dict], directory: Path) -> Path:
    """Write ``tasks`` in the kind's file format; returns the path to pass to
    ``load``/``bench``."""
    directory.mkdir(parents=True, exist_ok=True)
    caption = "Units and revenue reported per site"
    if kind == "tatqa":
        path = directory / "tatqa.json"
        blocks = [{"table": {"table": [list(_HEADERS), *t["rows"]]},
                   "paragraphs": [{"text": "Units are counted at the end of each reporting year."}],
                   "questions": [{"uid": t["ref"], "question": t["query"], "answer": t["gold"]}]}
                  for t in tasks]
        path.write_text(json.dumps(blocks, indent=1), encoding="utf-8")
    elif kind == "semtabfacts":
        path = directory / "semtabfacts.xml"
        root = ET.Element("corpus")
        for t in tasks:
            table = ET.SubElement(root, "table", id=f"tbl-{t['ref']}")
            ET.SubElement(table, "caption").text = caption
            for tag, cells in (("header", _HEADERS), *(("row", r) for r in t["rows"])):
                row = ET.SubElement(table, tag)
                for cell in cells:
                    ET.SubElement(row, "cell").text = cell
            ET.SubElement(table, "statement", id=t["ref"], label=t["gold"]).text = t["query"]
        ET.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)
    elif kind == "wikisql":
        path = directory / "wikisql.jsonl"
        _write_jsonl(directory / "wikisql.tables.jsonl", (
            {"id": f"tbl-{t['ref']}", "header": list(_HEADERS), "rows": t["rows"], "caption": caption}
            for t in tasks))
        _write_jsonl(path, ({"id": t["ref"], "question": t["query"], "table_id": f"tbl-{t['ref']}",
                             "denotation": [t["gold"]]} for t in tasks))
    elif kind == "feverous":
        path = directory / "feverous.jsonl"
        _write_jsonl(path, ({"id": t["ref"], "claim": t["query"], "label": t["gold"],
                             "table": {"header": list(_HEADERS), "rows": t["rows"], "caption": caption},
                             "sentences": ["Each site files one report per year."],
                             "gold_evidence": [[t["cell"]]]} for t in tasks))
        _write_jsonl(directory / "feverous.retrieved.jsonl", (
            {"id": t["ref"], "retrieved": [t["cell"] if t["evidence_found"] else f"{t['ref']}_sent_0"]}
            for t in tasks))
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return path


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def expected(task: dict, t_max_panel: int) -> dict:
    """Outcome, consensus round and final raw answer the policy implies."""
    result = policy.expected_outcome(task["scenario"], t_max_panel)
    result["final"] = task["right"] if result["final"] == "R" else task["wrong"]
    return result


def write_policy(tasks: list[dict], path: Path) -> Path:
    """The stub's view of the inputs: panel names, stage contracts, and each
    task's scenario and answers."""
    spec = {
        "personas": [p.name for p in default_panel().members],
        "contracts": {s.value: OUTPUT_CONTRACTS[s] for s in Stage},
        "tasks": {t["ref"]: {k: t[k] for k in ("scenario", "right", "wrong", "malformed")}
                  for t in tasks},
    }
    path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    return path


def system_messages(kind: str) -> dict[tuple[int, str], str]:
    """The system message of each (member, stage): it names the persona and
    carries the stage contract, so it selects exactly one member's stream."""
    library = PromptLibrary.default()
    fillers = dict.fromkeys(("flattened_input", "query", "complexity", "notes",
                             "prior_solution", "peer_solutions"), "-")
    out = {}
    for i, persona in enumerate(default_panel().members):
        bindings = dict(fillers, persona=persona_blurb(persona),
                        task_description=task_description_for(KINDS[kind]))
        for stage in Stage:
            out[(i, stage.value)] = render_prompt(library[stage], bindings)[0].content
    return out


def write_scripted_backend(kind: str, tasks: list[dict], t_max_panel: int, path: Path) -> Path:
    """A README-format scripted backend that answers ``tasks`` in order under
    ``bench --jobs 1``. Each entry matches one member's stage system message,
    so each member consumes its own stream in its own call order."""
    systems = system_messages(kind)
    script = []
    for t in tasks:
        for i in range(policy.PANEL_SIZE):
            for stage, occurrence in policy.member_calls(t["scenario"], i, t_max_panel):
                match = systems[(i, stage)]
                for malformed in ([True, False] if [i, stage, occurrence] in t["malformed"] else [False]):
                    script.append({"match": match, "response": policy.reply(
                        t["scenario"], i, stage, occurrence, t["right"], t["wrong"], malformed)})
    path.write_text(json.dumps({"type": "scripted", "strict": True, "script": script}),
                    encoding="utf-8")
    return path


def write_openai_backend(base_url: str, path: Path, retry_backoff_base: float = 0.5) -> Path:
    path.write_text(json.dumps({
        "type": "openai", "base_url": base_url, "model_name": "stub-model",
        "api_key_env_var": "", "temperature": 0.0, "request_timeout": 30.0,
        "max_retries": 3, "retry_backoff_base": retry_backoff_base,
    }), encoding="utf-8")
    return path
