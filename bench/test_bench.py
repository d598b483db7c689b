"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_planted_wrong_reference_makes_failed_frac_nonzero(monkeypatch, capsys):
    # fermat-1-3 has 2 degree-6 invariants; plant 3 beside a correct job
    monkeypatch.setattr(workloads, "INVARIANT_JOBS", [("fermat-1-3", 6, 3), ("fermat-1-3", 3, 1)])
    monkeypatch.setattr(workloads, "EMPTY_SCAN_TOTALS", range(28, 30))
    assert run.main(["--workload", "invariants-survivors", "--seed", "0", "--seconds", "1"]) == 0
    record, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 2
    assert 0 < record["failed_frac"] < 1
    assert [f["job"] for f in record["failures"]] == ["invdim:fermat-1-3:6"]
    assert set(result["metrics"]) == {name for name, _unit in run.END_TO_END}


def test_raising_job_fails_and_the_pass_goes_on():
    def boom():
        raise ZeroDivisionError("planted")
    jobs = [workloads.Job("boom", boom, 0), workloads.Job("fine", lambda: 1, 1)]
    failures, job_s = [], {}
    assert run.run_pass(jobs, failures, job_s)[0] == 1
    assert "ZeroDivisionError" in failures[0]["got"] and set(job_s) == {"boom", "fine"}


def _traced_counts(tmp_path):
    picks = {
        "catalog-groups": {"verify-catalog:fermat-1-3"},
        "smooth-certs": {"twist:klein-quartic", "cone1:fermat-2-3"},
        "invariants-survivors": {"invdim:fermat-1-3:6", "survivors:30:3"},
    }
    tracer = spans.Tracer()
    tracer.install()
    failures: list = []
    try:
        for workload, names in picks.items():
            jobs, _record = workloads.build(workload, 7, tmp_path)
            run.clear_caches()
            run.run_pass([job for job in jobs if job.name in names], failures, {})
    finally:
        tracer.uninstall()
    assert failures == []
    metrics = tracer.metrics(0.0)
    assert set(metrics) == {name for name, _unit in spans.PER_LAYER}
    return metrics


def test_traced_exact_counts_repeat(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    for name in spans.EXACT_COUNTS:
        assert first[name] > 0 and first[name] == second[name], name
    assert first["smoothness.char0_fallback_frac"] == 0.5   # the cone, not the twist
    assert first["matgroups.close.elements"] == 2 * 162   # fermat-1-3: catalog row and invdim


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog-groups", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
