"""Every experiment script imports and parses its options against the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

from szdet.zetas import (
    ModularGeodesicSource,
    load_geodesic_table,
    modular_geodesics,
    norm_of_trace,
    selberg_log_z,
)

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_geodesic_census_round_trip(tmp_path):
    table = tmp_path / "geodesics.tsv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "geodesic_census.py"),
         "--cutoff", "200", "--check-trace", "8", "--save", str(table)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MATCH" in proc.stdout and "MISMATCH" not in proc.stdout
    expected = [(c.word, c.trace) for c in modular_geodesics(200, prec=128)]
    loaded = load_geodesic_table(table, prec=128)
    assert [(c.word, c.trace) for c in loaded.entries] == expected
    digits = int(128 / 3.32) + 2  # as written by save_geodesic_table
    with mp.workprec(128):
        for line in table.read_text().splitlines():
            _, trace, norm = line.split("\t")[:3]
            exact = norm_of_trace(int(trace), 128)
            assert abs(mpf(norm) - exact) <= mpf(10) ** (1 - digits) * exact
    # the file holds every power the sum needs at its precision, down to Re z -> 1
    for z in (mpf("1.5"), mpf(3)):
        got = selberg_log_z(loaded, z, 200, 128).value
        ref = selberg_log_z(ModularGeodesicSource(), z, 200, 128).value
        assert abs(got - ref) <= mpf(2) ** (8 - 128) * (1 + abs(ref))


def test_det_table_sweep_agrees_on_both_paths():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "det_table.py"),
         "--prec", "96", "--cutoff", "300", "--steps", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split(",")[-1] == "two_path_residual"
    assert len(rows) == 4
    for row in rows:
        assert mpf(row.split(",")[-1]) < mpf(2) ** -48


@pytest.mark.parametrize("workload", ["deep_sweep", "cli_cold", "table_twisted", "orbifold_pool"])
def test_benchmark_workload_runs_and_checks(workload):
    # one operation of each benchmark workload, through the library calls
    # or the szdet process the benchmark runs, with its correctness check
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
