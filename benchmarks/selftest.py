"""Tests of the benchmark itself.

Run from the repository root (about a minute):

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these tests out of the repository's default pytest run;
they start many CLI children at the smoke scale.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
from workloads import closed_form_large, oracle_large, perturb_dump

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _cli_pass(make, tmp_path):
    commands = make(random.Random("selftest"), True)
    workdir = str(tmp_path)
    outcomes = run.cli_pass(commands, workdir, run.child_env())
    results = [(o[0], o[1]) for o in outcomes]
    assert run.gate_pass(commands, results, workdir) == []
    return commands, results, workdir


def test_gate_counts_a_corrupted_section(tmp_path):
    commands, results, workdir = _cli_pass(closed_form_large, tmp_path)
    path = os.path.join(workdir, "large.mat")
    perturb_dump(path, path, 3, 1, 1e-9)  # an entry the slant-h predicate leaves unconstrained
    problems = run.gate_pass(commands, results, workdir)
    assert len(problems) == 1 and "deviates" in problems[0]
    assert len(problems) / len(commands) > 0  # the run's fail_ratio rises


def test_gate_counts_an_oracle_dump_missing_a_row(tmp_path):
    commands, results, workdir = _cli_pass(oracle_large, tmp_path)
    path = os.path.join(workdir, "narrow.mat")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _, lo, hi = lines[1].split()
    lines[1] = f"rows {lo} {int(hi) - 1}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    problems = run.gate_pass(commands, results, workdir)
    assert len(problems) == 1 and "misses nonzero rows" in problems[0]


def test_gate_rejects_wrong_exit_code_and_missing_witness(tmp_path):
    commands, results, workdir = _cli_pass(closed_form_large, tmp_path)
    perturbed = commands[-1]
    assert gate.check(perturbed, 0, results[-1][1], workdir).startswith("exit code 0")
    clean_report = results[1][1]
    assert "expected a FAIL report" in gate.check(perturbed, 1, clean_report, workdir)


def test_slant_h_map_reproduces_the_leading_degree_grid():
    # leading block of the slant-h section: block[r][c] is the degree of the
    # coefficient at row r, column c
    grid = [
        [0, 1, -1, 2, -2, 3, -3],
        [2, 3, 1, 4, 0, 5, -1],
        [4, 5, 3, 6, 2, 7, 1],
        [6, 7, 5, 8, 4, 9, 3],
        [8, 9, 7, 10, 6, 11, 5],
    ]
    coeffs = {n: complex(n, 1) for n in range(-7, 14)}
    got = gate.slant_h_map(coeffs, (0, 4), (0, 6))
    assert got.tolist() == [[complex(d, 1) for d in row] for row in grid]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    argv = [*SPEC["command"], "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_malformed_build_output_fails_the_perturbed_check(tmp_path):
    perturbed = closed_form_large(random.Random("selftest"), True)[-1:]
    (tmp_path / "large.mat").write_text("not a matrix dump\n")
    outcomes = run.cli_pass(perturbed, str(tmp_path), run.child_env())
    problems = run.gate_pass(perturbed, [(o[0], o[1]) for o in outcomes], str(tmp_path))
    assert len(problems) == 1 and "exit code" in problems[0]
