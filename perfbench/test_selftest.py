"""Self-tests of the benchmark: its inputs, checks, tracer and declared metrics.

Run with: python3 -m pytest perfbench -q

Two tests pin known defects of the library as strict expected failures, so
the change that fixes either one shows here as an unexpected pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from szdet import cli, gfuncs, orbifold, regdet, verify, zetas  # noqa: E402


def _character_images(ks):
    """Diagonal images chi(L) = diag(omega^k), chi(R) = diag(omega^-k), omega = e^(i pi/3)."""
    dim = len(ks)

    def diag(sign):
        return [
            [mp.expjpi(mp.mpf(sign * k) / 3) if i == j else 0 for j in range(dim)]
            for i, k in enumerate(ks)
        ]

    return diag(1), diag(-1)


@pytest.mark.xfail(
    strict=True,
    raises=(ValueError, TypeError),
    reason="zetas._chi_eigs_for_word unpacks mp.eig(..., left=False, right=False), "
    "which returns a 3-tuple for 1x1 matrices and a bare list otherwise",
)
@pytest.mark.parametrize("ks", [(1,), (1, 2), (1, 2, 5)])
def test_modular_source_with_twisted_rep(ks):
    source = zetas.ModularGeodesicSource(rep=_character_images(ks), dim=len(ks))
    classes = source.classes(200, 64)
    assert classes
    for cls in classes:
        degree = cls.word.count("L") - cls.word.count("R")
        for ell in (1, 2):
            expected = sum(mp.expjpi(mp.mpf(k * degree * ell) / 3) for k in ks)
            assert abs(cls.chi_trace(ell) - expected) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="cli.ResultRow.digits divides the log-Z tail by |det^2|; the tail is "
    "an absolute error of log Z, i.e. a relative error of Z",
)
def test_cli_certified_digits_follow_the_tail():
    # det^2 and log-Z tail printed by `detsq --z 2.5,1 --cutoff-norm 2e4`.
    det = mp.mpc("92.66351552641941921", "-16.76095209900256374")
    row = cli.ResultRow("det_squared", det, 256, tail=mp.mpf("4.76e-7"))
    assert row.digits() == math.floor(workloads.backed_digits(row.tail, 256, 2))


def test_backed_digits():
    assert workloads.backed_digits(mp.mpf("4.76e-7"), 256, 2) == pytest.approx(6.02, abs=0.01)
    assert workloads.backed_digits(mp.mpf("4.76e-7"), 256, 1) == pytest.approx(6.32, abs=0.01)
    assert workloads.backed_digits(0, 256, 2) == 256 * math.log10(2)
    assert workloads.backed_digits(mp.mpf("1e-200"), 128, 2) == 128 * math.log10(2)


def test_class_generator_matches_library():
    ours = workloads.modular_classes(141)
    theirs = [(c.trace, c.word) for c in zetas.modular_geodesics(2e4, prec=64)]
    assert len(ours) == 2201
    assert ours == theirs


def test_twisted_table_is_real_at_real_z(tmp_path):
    path = tmp_path / "twisted.tsv"
    count = workloads.write_twisted_table(path, 500, 2, 128)
    source = zetas.load_geodesic_table(str(path), dim=1, prec=128)
    assert len(source.entries) == count
    value = mp.mpc(zetas.selberg_log_z(source, mp.mpf("2.5"), 500, 128).value)
    assert abs(value.real) > 0
    assert abs(value.imag) <= mp.mpf(2) ** (8 - 128) * abs(value)


def test_inputs_follow_the_seed():
    def points(seed):
        wl = workloads.DeepSweep(ROOT, seed, ROOT)
        return [wl.make_input(i, i) for i in range(6)]

    assert points(3) == points(3)
    assert points(3) != points(4)
    for a, b in zip(points(3)[::2], points(3)[1::2]):
        assert 2 <= a.real <= 3.5 and abs(a.real + b.real - 6) <= 0.011
    for z in points(3):
        assert 2 <= z.real <= 4 and abs(z.imag) <= 3
        assert (z.real * 1024) % 1 == 0 and (z.imag * 1024) % 1 == 0


def test_van_der_corput_cells():
    firsts = [workloads.van_der_corput(j) for j in range(8)]
    assert sorted(firsts) == [i / 8 for i in range(8)]


def test_span_self_time():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["zetas.euler", -1, 0, 0.0, 10.0],
        ["zetas.norm", 0, 0, 1.0, 4.0],
        ["zetas.enumerate", 0, 0, 5.0, 6.0],
        ["zetas.enumerate", -1, tracing.SETUP, 0.0, 2.0],
    ]
    stats = tracer.span_stats()
    assert stats["zetas.euler"]["ops"] == [1, 10.0, 6.0]
    assert stats["zetas.enumerate"]["setup"] == [1, 2.0, 2.0]
    values = tracing.layer_metrics(tracer, ops=2, op_s=5.0, overhead_ratio=1.0)
    assert values["zetas.euler.self_s"] == 3.0
    assert values["zetas.enumerate.s"] == 2.0 + 1.0 / 2


def test_tracer_rebinds_and_restores():
    original = regdet.log_g1
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert regdet.log_g1 is not original and gfuncs.log_g1 is regdet.log_g1
        gfuncs.log_g1(orbifold.modular_orbifold(), 3, 64)
    finally:
        tracer.uninstall()
    assert regdet.log_g1 is original
    stats = tracer.span_stats()
    assert stats["gfuncs.log_g1"]["ops"][0] == 1
    assert stats["numerics.log_gamma"]["ops"][0] >= 1
    assert 0 <= stats["gfuncs.log_g1"]["ops"][2] < stats["gfuncs.log_g1"]["ops"][1]


def test_declared_metrics_match_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_tree_without_szdet(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbifold_pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_orbifold_pool_takes_spread_ranks():
    wl = workloads.OrbifoldPool(ROOT, 7, ROOT)
    wl.m = {"verify": verify}
    pool = wl.pool
    chosen = [wl.make_input(i, i)[0] for i in range(8)]
    ranks = [next(i for i, p in enumerate(pool) if p is o) for o in chosen]
    assert ranks == [0, 511, 256, 255, 128, 383, 384, 127]
