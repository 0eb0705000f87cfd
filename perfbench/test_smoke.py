"""Smoke test of the benchmark harness itself.

    python -m pytest -q perfbench/test_smoke.py

Each workload runs one cycle.  The bounds are generous: they catch an
exponential regression or a harness that stopped measuring, not noise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import lftext  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_cycle_reports_every_end_to_end_metric(workload):
    rc, lines = bench("--workload", workload, "--seed", "0", "--seconds", "0.1")
    assert rc == 0
    out = result(lines)
    metrics = out["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["setup_s"]["value"] < 5
    assert 0.2 < metrics["premise_ratio"]["value"] < 0.6
    assert out["failed"] == 0
    assert metrics["op_tail_s"]["value"] < 10


def test_traced_run_reports_every_layer_and_the_paper_row():
    rc, lines = bench("--workload", "solve-naive", "--seed", "0", "--seconds", "0.1",
                      "--trace", "1")
    assert rc == 0
    metrics = result(lines)["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert metrics["unify.calls"]["value"] > 0
    assert metrics["engine.backchains"]["value"] > 0
    assert metrics["unify.extend_calls"]["value"] > 0
    # the probe fails past ~330 elements at seed; a fix raises the figure
    assert metrics["deep_probe.max_ok_elems"]["value"] >= 300
    assert not any("not found" in line for line in lines)
    row = [line for line in lines if line.startswith("paper: naive makes more unify calls")]
    assert row and row[0].split()[-4] == row[0].split()[-2]  # on n of n queries


def test_missing_target_is_named_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("lflp.unify", "Subst.no_such_method", "gone", None, None)])
    monkeypatch.setitem(tracing.LAYER_METRICS, "gone_s", ("s", "gone", "self"))
    tr = tracing.Tracer()
    tr.install()
    tr.remove()
    assert tr.missing == ["lflp.unify.Subst.no_such_method"]
    assert "gone_s" not in tr.layer_metrics(set())
    assert tr.dropped() == ["gone_s"]


def test_cap_turns_a_hung_operation_into_a_timeout(tmp_path):
    class Hang:
        @staticmethod
        def main(argv):
            while True:
                pass

    op = workloads.Op("check", "", (), workloads.exact(""), 1, {})
    r = run.Runner(Hang, tmp_path).execute(op, 0.2)
    assert r.status == "Timeout" and 0.2 <= r.seconds < 5


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = bench("--workload", "deep", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert rc != 0 and not lines


def test_calibration_sample_is_a_short_positive_time():
    assert 0 < calibrate.sample() < 1


def test_references():
    data = workloads.Data(ROOT)
    naive = dict(zip(workloads.FAMILY, workloads.family_clauses(data, "naive", "")))
    opt = dict(zip(workloads.FAMILY, workloads.family_clauses(data, "optimized", "")))
    assert (naive["appCons"][1], opt["appCons"][1]) == (5, 1)  # the paper's headline
    assert lftext.canonical("pi X\\ (hastype X nat)") == lftext.canonical("pi Y\\ (hastype Y nat)")
    assert lftext.canonical("pi X\\ (p X)") != lftext.canonical("pi X\\ (p Y)")
    assert lftext.lst([1, 0], "") == "cons (s z) (cons z nil)"
    assert lftext.premises(workloads.chain_clause(5, False, "optimized")) == 8
