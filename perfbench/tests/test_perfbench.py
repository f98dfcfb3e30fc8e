"""Tests of the benchmark itself: a smoke run of every workload, and the output checks."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COLUMNS_REF = BENCH / "reference" / "sweep-power.csv"
PROVENANCE_KEYS = {"git_commit", "src_sha256", "friscov", "numpy", "python", "blas", "blas_version",
                   "blas_threads", "nproc", "seed", "runs"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(tmp_path, workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--trials", "300", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    record = json.loads((tmp_path / "results" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert set(record["provenance"]) == PROVENANCE_KEYS
    assert record["provenance"]["seed"] == 7 and record["provenance"]["runs"] == result["attempted"]


@pytest.fixture
def sweep():
    header, rows = checks.read_csv(COLUMNS_REF)
    config = checks.read_config(BENCH / "configs" / "sweep-power.cfg")
    return header, rows, checks.expected_grid(config)


def problems(header, rows, grid, reference):
    return checks.check_sweep(header, rows, tuple(header), grid, reference, fris_dominates=True)


def test_reference_passes_against_itself(sweep):
    header, rows, grid = sweep
    assert problems(header, rows, grid, copy.deepcopy(rows)) == []


@pytest.mark.parametrize("cells", [("fixed_op",), ("fixed_op", "fixed_op_lo", "fixed_op_hi")])
def test_corrupted_reference_cell_fails(sweep, cells):
    header, rows, grid = sweep
    reference = copy.deepcopy(rows)
    for name in cells:
        reference[12][name] += 0.1
    found = problems(header, rows, grid, reference)
    assert len(found) == 1 and found[0].startswith("row 12:") and "fixed_op" in found[0]


@pytest.mark.parametrize("column, value", [("analytic_op", 1.5), ("fris_cop", -0.01), ("ris_psuc_hi", 1.2)])
def test_forged_out_of_range_probability_fails(sweep, column, value):
    header, rows, grid = sweep
    forged = copy.deepcopy(rows)
    forged[3][column] = value
    assert any(f"row 3: {column} = {value}" in p for p in problems(header, forged, grid, rows))


def test_fris_above_ris_fails(sweep):
    header, rows, grid = sweep
    forged = copy.deepcopy(rows)
    forged[0]["fris_op"] = forged[0]["fris_op_hi"] = forged[0]["ris_op"] + 1e-3
    assert any("fris_op" in p and "ris_op" in p for p in problems(header, forged, grid, None))


def test_gate_report_needs_eight_parseable_lines():
    line = "[GATE] mean gain (m_o=16): measured=0.0123 tolerance=0.02 -> {}"
    report = "\n".join([line.format("PASS")] * 3 + [line.format("FAIL")] * 5)
    assert checks.parse_gates(report) == ([], 5)
    assert checks.parse_gates(report.rsplit("\n", 1)[0])[0]
    assert checks.parse_gates(report.replace("0.0123", "n/a", 1))[0]


def test_malformed_svg_fails(tmp_path):
    path = tmp_path / "plot.svg"
    path.write_text('<svg xmlns="http://www.w3.org/2000/svg"><path d="M0,0"></svg>')
    assert checks.check_svg(path)
