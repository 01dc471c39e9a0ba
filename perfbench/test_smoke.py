"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest -q perfbench``.  Each
workload runs once, traced, and must pass its checks and report every metric
BENCHMARK.json names; tampered outputs must be counted as failures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import AnalyzeCorpus, Campaign, SimulatePinch

TINY = {
    "campaign": lambda: Campaign(seed=1, seeds=2),
    "simulate_pinch": lambda: SimulatePinch(seed=1, trials_per_subject=1),
    "analyze_corpus": lambda: AnalyzeCorpus(seed=1, traces=20),
}


def _metric_names(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def _run_once(workload, work):
    workload.prepare(work)
    out = work / "out"
    inv = run.invoke(run.cli(*workload.argv(out)), work / "logs")
    assert workload.check(out, inv) == []
    return out, inv


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_and_reports_every_metric(name, tmp_path):
    record = run.run_workload(TINY[name](), seconds=0, trace=True, work=tmp_path)
    assert record["failures"] == []
    assert record["attempted"] == 3  # setup probe, untraced repeat, traced run
    assert set(record["metrics"]) == _metric_names("end_to_end")
    result = run.report(record, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _metric_names("per_layer")


def test_tampered_campaign_is_a_failure(tmp_path):
    workload = TINY["campaign"]()
    out, inv = _run_once(workload, tmp_path)
    manifest = out / f"seed_{workload.seeds[0]}" / "manifest.txt"
    original = manifest.read_text()
    manifest.write_text(original.replace("PASS ", "FAIL ", 1))
    assert workload.check(out, inv)
    manifest.write_text(original)
    next((out / f"seed_{workload.seeds[-1]}" / "traces").glob("*.csv")).unlink()
    assert workload.check(out, inv)
    assert workload.check(tmp_path / "missing", inv)
    assert workload.check(out, dataclasses.replace(inv, rc=2))


def test_tampered_simulation_is_a_failure(tmp_path):
    workload = TINY["simulate_pinch"]()
    out, inv = _run_once(workload, tmp_path)
    trace = next(out.glob("*.csv"))
    original = trace.read_text()
    trace.write_text(original.rsplit("\n", 2)[0] + "\n")  # drop the last row
    assert workload.check(out, inv)
    trace.write_text(original)
    next(out.glob("*.meta.yaml")).unlink()
    assert workload.check(out, inv)


def test_tampered_analysis_is_a_failure(tmp_path):
    workload = TINY["analyze_corpus"]()
    out, inv = _run_once(workload, tmp_path)
    kinds = {c.kind for c in workload.corpus}
    assert kinds == {"loaded", "breakaway", "unloaded"}
    assert any(c.bad_lines for c in workload.corpus)
    summary = out / "summary.txt"
    original = summary.read_text()
    summary.write_text(original.replace(" degenerate", " degenerate ", 1))
    assert workload.check(out, inv)
    summary.write_text(original)
    first_warning = inv.stderr.splitlines()[0]
    assert workload.check(out, dataclasses.replace(inv, stderr=inv.stderr.replace(first_warning, "")))
    next(out.glob("*.report.yaml")).unlink()
    assert workload.check(out, inv)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
