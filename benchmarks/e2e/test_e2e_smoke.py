"""Smoke test of the e2e benchmark harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs the whole harness once at ``--scale 0.3`` -- the issue's sizing
numbers times 0.1, since scale 1.0 is already 0.3 of them -- with one
pass per workload, and one traced pass in-process so that the span
wrappers can be checked gone afterwards.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402
from repro.router.router import Router  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_status() -> str | None:
    """Porcelain status of the checkout, or None outside a git repository."""
    result = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    return result.stdout if result.returncode == 0 else None


def test_benchmark_file_matches_the_catalog():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for section, catalogued in (
        ("end_to_end", catalog.END_TO_END),
        ("per_layer", catalog.PER_LAYER),
    ):
        listed = {
            m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]
        }
        assert listed == {m.name: (m.unit, m.better) for m in catalogued}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_full_run_emits_every_metric_where_it_applies(tmp_path, capsys):
    before = _git_status()
    record_path = tmp_path / "record.json"
    trace_path = tmp_path / "trace.json"

    status = run.main([
        "--scale", "0.3", "--seconds", "1", "--seed", "7",
        "--json", str(record_path), "--trace-out", str(trace_path),
    ])

    printed = capsys.readouterr().out
    assert status == 0, printed
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert set(record["workloads"]) == set(run.WORKLOADS)
    for name, entry in record["workloads"].items():
        untraced, traced = entry["end_to_end"], entry["per_layer"]
        assert untraced["problems"] == traced["problems"] == []
        assert {
            "cpu_count", "python", "numpy", "loadavg_at_start", "tmp_filesystem"
        } <= set(untraced["host"])
        for metric in catalog.END_TO_END + catalog.UNGATED:
            applies = name in metric.workloads
            assert (metric.name in untraced["metrics"]) == applies, (name, metric)
            assert (f" {metric.name} " in printed) or not applies
        assert set(traced["metrics"]) == set(
            catalog.applicable(catalog.PER_LAYER, name)
        ), name
        assert untraced["metrics"]["failed_share"] == 0
        assert untraced["metrics"]["result_mismatch_share"] == 0

    spans = json.loads(trace_path.read_text(encoding="utf-8"))
    assert set(spans) == set(run.WORKLOADS)
    for trace in spans.values():
        assert all(call["self_ns"] >= 0 for call in trace["calls"])
        assert {"pass plain", "pass traced", "point"} <= {
            span["name"] for span in trace["spans"]
        }

    if before is None:
        pytest.skip("not a git checkout: cannot compare git status")
    # In particular: benchmarks/conftest.py's perf plugin wrote no
    # BENCH_*.json and no results/perf/history.jsonl line.
    assert _git_status() == before
    assert not (ROOT / ".bench_tmp").exists()


def test_traced_pass_removes_its_wrappers(capsys):
    nominate = vars(Router)["nominate"]

    status = run.main([
        "--workload", catalog.KNEE, "--trace", "1",
        "--scale", "0.3", "--seconds", "1", "--seed", "7",
    ])

    answer = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and answer["correct"] is True
    assert set(answer["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert answer["metrics"]["router.nominate_calls"]["value"] > 0
    assert vars(Router)["nominate"] is nominate, "span wrappers left installed"


def test_driver_mode_prints_one_result_object():
    result = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", catalog.STANDALONE, "--seed", "5",
            "--seconds", "1", "--scale", "0.3", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    answer = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(answer) == {"correct", "attempted", "failed", "metrics"}
    assert answer["correct"] is True and answer["failed"] == 0
    assert answer["attempted"] >= 1
    assert set(answer["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reading = answer["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"] and reading["value"] > 0


def _processes_in_session(session: int) -> list[str]:
    """``pid (comm) state`` of every live or zombie process of *session*."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text(encoding="utf-8")
        except OSError:
            continue  # ended while we looked
        head, _, fields = text.rpartition(") ")
        if int(fields.split()[3]) == session:  # state ppid pgrp session
            found.append(f"{head}) {fields.split()[0]}")
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_supervised_run_leaves_no_process_behind():
    # Spawned workers bring multiprocessing's resource tracker with them;
    # unless the harness stops it, it ends only after its parent has.
    finished = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", catalog.SWEEP, "--seed", "5",
            "--seconds", "1", "--scale", "0.3", "--trace", "0",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    printed, _ = finished.communicate()
    assert finished.returncode == 0
    assert json.loads(printed.strip().splitlines()[-1])["correct"] is True
    assert _processes_in_session(finished.pid) == []
