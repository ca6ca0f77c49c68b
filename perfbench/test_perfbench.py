"""Tests of the benchmark harness itself: its gate, its counts and its contract.

Run with the rest of the suite:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import segreml.euler
import segreml.exact
from perfbench import run, tracing
from perfbench.workloads import WORKLOADS, Op, expect_int, expect_oracle, make_pass, symmetric_image, tensor_json


def _one_pass_desk(monkeypatch):
    """desk-mix cut to a single pass and a single timed interpreter spawn."""
    monkeypatch.setitem(WORKLOADS, "desk-mix", replace(WORKLOADS["desk-mix"], min_passes=1, pool_passes=1))
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


def _main_result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()


def test_correct_program_passes_the_gate(monkeypatch, capsys):
    _one_pass_desk(monkeypatch)
    code, detail, result = _main_result(capsys, ["--workload", "desk-mix", "--seed", "5", "--seconds", "0"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == detail["pass_ops"] == 41
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["kernel"] and "gmpy2" in detail["env"]


def test_wrong_engine_trips_the_gate(monkeypatch, capsys, tmp_path):
    _one_pass_desk(monkeypatch)
    original = segreml.euler.mldeg_value
    monkeypatch.setattr(segreml.euler, "mldeg_value", lambda W: original(W) + 1)
    code, detail, result = _main_result(capsys, ["--workload", "desk-mix", "--seed", "5", "--seconds", "0"])
    mldeg_ops = sum(op.argv[0] == "mldeg" for op in make_pass(WORKLOADS["desk-mix"], 5, 0, tmp_path))
    assert code == 1 and result["correct"] is False
    assert result["failed"] == mldeg_ops == 16
    assert detail["fail_ratio"] == pytest.approx(16 / 41)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        ops = make_pass(WORKLOADS["desk-mix"], seed, 0, tmp_path / sub)
        return sorted(p.read_text() for p in (tmp_path / sub).iterdir()), [op.argv[0] for op in ops]

    first = files(7, "a")
    assert files(7, "b") == first
    assert files(8, "c")[0] != first[0]


def test_symmetric_image_keeps_the_ml_degree():
    import random

    from segreml.realize import realize
    from segreml.tensor import ScalingTensor

    rng = random.Random(4)
    for n, r, digits in [(2, 9, 1), (3, 17, 30), (4, 5, 3)]:
        w = symmetric_image(realize(n, r, seed=n).w, rng, digits)
        assert segreml.euler.mldeg_value(ScalingTensor.from_json_dict(tensor_json(w))) == r


def test_untouched_layers_read_zero_and_patches_are_undone(tmp_path):
    from segreml.realize import realize
    from segreml.strata import atlas

    cli = run.import_program()
    engine = tmp_path / "engine.json"
    engine.write_text(json.dumps(tensor_json(realize(3, 17, seed=2).w)))
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(tensor_json(atlas(seed=3)[0][1].w)))
    mldeg_only = [Op(("mldeg", str(engine)), expect_int(17))]
    oracle_only = [Op(("oracle", str(witness), "--trials", "2", "--seed", "1"), expect_oracle(6))]

    tracer, windows, failures = run.traced_pass(cli, mldeg_only)
    counts, _ = tracer.summary([1.0] * len(windows))
    assert not failures and counts["euler.mldeg_value.calls"] == 1
    assert all(counts[f"{name}.calls"] == 0 for name in tracing.SPAN_NAMES if name.split(".")[0] in ("oracle", "groebner", "kernel"))

    tracer, windows, failures = run.traced_pass(cli, oracle_only)
    counts, _ = tracer.summary([1.0] * len(windows))
    assert not failures and counts["kernel.combine.calls"] > 0 and counts["groebner.groebner_basis.calls"] == 2
    assert all(counts[f"{name}.calls"] == 0 for name in tracing.SPAN_NAMES if name.startswith("euler."))

    assert segreml.euler.binary_gcd is segreml.exact.binary_gcd
    assert getattr(segreml.euler.binary_gcd, "__wrapped__", None) is None


def test_counts_repeat_across_hash_seeds(monkeypatch):
    counts = []
    for hashseed in ("1", "2"):
        monkeypatch.setattr(run, "CHILD_HASHSEED", hashseed)
        child = run.child_run("desk-mix", 3)
        assert not child["failures"] and child["hashseed"] == hashseed
        counts.append({name: child["counts"][name] for name in tracing.exact_metric_names()})
    assert counts[0] == counts[1]
    assert counts[0]["euler.chi_VI_XJ.calls"] > 0 and counts[0]["exact.rank.cells"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no segreml sources" in proc.stderr
