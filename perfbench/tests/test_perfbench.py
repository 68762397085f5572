"""Tests of the benchmark itself: decks, oracle checks, tracer and output.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from slitlogic import cli, nogo, valuation
from tracing import Tracer

ROOT = Path(run.__file__).resolve().parents[1]


def _deck(workload, seed, tmp_path, variants=1):
    return workloads.build(workload, seed, variants, str(tmp_path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload_passes_its_oracle(workload, tmp_path):
    failures = []
    for op in _deck(workload, 7, tmp_path)[0]:
        _, _, reason = run.run_op(cli, op)
        if reason:
            failures.append(f"{op.label}: {reason}")
    assert failures == []


def _cheap_ops(tmp_path):
    """One quick op from each workload."""
    picks = {
        "certify": "nogo chain:2 json",
        "sweep": "scan --values=3 json",
        "audit": "lattice-check file chains:(2, 2) json",
        "evaluate": "eval lukasiewicz 10/xor0 json",
    }
    for workload, label in picks.items():
        yield next(op for op in _deck(workload, 3, tmp_path)[0] if op.label == label)


def test_tampered_exit_code_or_verdict_fails_the_check(tmp_path):
    for op in _cheap_ops(tmp_path):
        report = cli.dispatch(op.argv)
        assert op.check(report) is None, op.label
        report.exit_code = 3 - report.exit_code
        assert op.check(report), op.label
        report = cli.dispatch(op.argv)
        report.payload["verdict"] = "tampered"
        assert op.check(report), op.label


def test_same_seed_same_ops_and_bytes_other_seed_other_ops(tmp_path):
    def argvs(seed):
        return [op.argv for deck in _deck("audit", seed, tmp_path, 2) for op in deck]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)
    for workload in ("certify", "sweep", "evaluate"):
        first, again, other = (
            [op.argv for op in _deck(workload, seed, tmp_path)[0]] for seed in (5, 5, 6)
        )
        assert first == again and first != other

    def output_bytes(seed):
        return [run.run_op(cli, op)[1] for op in _deck("evaluate", seed, tmp_path)[0]]

    assert output_bytes(5) == output_bytes(5)


def test_tracer_restores_every_original_and_keeps_outputs(tmp_path):
    originals = {
        "nogo.bridge": nogo.bridge,
        "nogo.check_assignment": nogo.check_assignment,
        "cli.run_nogo": cli.run_nogo,
        "valuation.as_value": valuation.as_value,
        "ValueSystem.admits": valuation.ValueSystem.__dict__["admits"],
        "Report.render": cli.Report.__dict__["render"],
    }
    ops = list(_cheap_ops(tmp_path))
    plain = [cli.dispatch(op.argv).render() for op in ops]
    tracer = Tracer()
    with tracer:
        assert nogo.bridge is not originals["nogo.bridge"]
        traced = [cli.dispatch(op.argv).render() for op in ops]
    assert traced == plain
    assert tracer.layer_metrics()["nogo.check_calls"][0] > 0
    now = {
        "nogo.bridge": nogo.bridge,
        "nogo.check_assignment": nogo.check_assignment,
        "cli.run_nogo": cli.run_nogo,
        "valuation.as_value": valuation.as_value,
        "ValueSystem.admits": valuation.ValueSystem.__dict__["admits"],
        "Report.render": cli.Report.__dict__["render"],
    }
    assert now == originals


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_decks_do_not_depend_on_the_hash_seed(tmp_path):
    script = (
        "import json, os, sys; sys.path[:0] = ['perfbench', 'src']; import workloads; "
        "d = sys.argv[1]; os.makedirs(d); "
        "ops = [op.argv for w in workloads.WORKLOADS for deck in workloads.build(w, 5, 2, d) "
        "for op in deck]; "
        "files = {f: open(os.path.join(d, f)).read() for f in sorted(os.listdir(d))}; "
        "print(json.dumps([ops, files]).replace(d, '<dir>'))"
    )
    outputs = {
        subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)], cwd=ROOT,
                       capture_output=True, text=True, env={"PYTHONHASHSEED": seed},
                       check=True, timeout=120).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1
