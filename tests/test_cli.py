import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

import szdet.cli as cli
from szdet import numerics, regdet, zetas
from szdet.orbifold import modular_orbifold
from szdet.zetas import ModularGeodesicSource, selberg_log_z


MODULAR_DOC = {
    "schema": 1,
    "genus": 0,
    "cusps": 1,
    "rep_dim": 1,
    "elliptic": [
        {"order": 2, "exponents": [0]},
        {"order": 3, "exponents": [0]},
    ],
    "cusp_data": [{"fixed_dim": 1, "angles": []}],
    "scattering": {"model": "modular"},
}

TORUS_DOC = {
    "schema": 1,
    "genus": 1,
    "cusps": 1,
    "rep_dim": 1,
    "elliptic": [],
    "cusp_data": [{"fixed_dim": 1, "angles": []}],
}


@pytest.fixture()
def modular_doc(tmp_path):
    path = tmp_path / "modular.json"
    path.write_text(json.dumps(MODULAR_DOC))
    return str(path)


@pytest.fixture()
def torus_doc(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_DOC))
    return str(path)


def _rows(output: str) -> dict:
    doc = json.loads(output)
    return {r["label"]: r for r in doc["rows"]}


def test_mn_modular_table(modular_doc, capsys):
    rc = cli.main(["mn", "--orbifold", modular_doc, "--n-max", "3", "--prec", "128"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    got = [float(rows[f"m_{n}"]["re"]) for n in range(4)]
    assert got == [-1.0, 1.0, 1.0, 1.0]
    for n in range(4):
        assert abs(float(rows[f"spectral_residual_{n}"]["re"])) < 1e-30


def test_mn_torus_table(torus_doc, capsys):
    rc = cli.main(["mn", "--orbifold", torus_doc, "--n-max", "2", "--prec", "128"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert [float(rows[f"m_{n}"]["re"]) for n in range(3)] == [1.0, 3.0, 5.0]


def test_mn_single_row(modular_doc, capsys):
    rc = cli.main(["mn", "--orbifold", modular_doc, "--n-max", "0", "--prec", "128"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert set(rows) == {"m_0", "spectral_residual_0"}


def test_detsq_consistent(modular_doc, capsys):
    rc = cli.main([
        "detsq", "--orbifold", modular_doc, "--z", "3",
        "--prec", "128", "--cutoff-norm", "500",
    ])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows["two_path_ok"]["re"] == "1.0"
    assert float(rows["two_path_residual"]["re"]) < 2.0 ** -64
    det = float(rows["det_squared"]["re"])
    dp = float(rows["d_plus"]["re"])
    dm = float(rows["d_minus"]["re"])
    assert abs(det - dp * dm) < 1e-10 * abs(det)
    assert rows["det_squared"]["tail"] is not None
    assert rows["det_squared"]["certified_digits"] > 0
    with mp.workprec(136):
        want = mp.exp(selberg_log_z(ModularGeodesicSource(), 3, 500, 128).value)
        got = mpf(rows["selberg_z_truncated"]["re"])
        assert abs(got - want) < mpf(2) ** -120 * want


def test_detsq_domain_error(modular_doc, capsys):
    # the Euler sum's own refusal, raised before log G1 or phi is evaluated
    rc = cli.main(["detsq", "--orbifold", modular_doc, "--z", "0.5"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "Euler product requires Re(s) > 1" in err and out == ""


def test_detsq_precision_levels_agree(modular_doc, capsys):
    outs = []
    for prec in ("128", "256"):
        rc = cli.main([
            "detsq", "--orbifold", modular_doc, "--z", "4",
            "--prec", prec, "--cutoff-norm", "400",
        ])
        assert rc == 0
        outs.append(_rows(capsys.readouterr().out))
    with mp.workprec(300):
        a = mpf(outs[0]["g1"]["re"])
        b = mpf(outs[1]["g1"]["re"])
        assert abs(a - b) < mpf(10) ** -30
        # determinant rows agree to >= 30 digits as well (same truncation)
        da = mpf(outs[0]["det_squared"]["re"])
        db = mpf(outs[1]["det_squared"]["re"])
        assert abs(da - db) < mpf(10) ** -30 * abs(db)


@pytest.mark.parametrize("z_text", ["10.1", "10.1,0.3"])
def test_detsq_reads_z_at_the_working_precision(z_text, modular_doc, capsys):
    # read at 53 bits, --z 10.1 moved det^2 by 4.4e-15 relative while the
    # row claimed 26 digits; a p-versus-2p run cannot see this, since both
    # runs would read z at 53 bits
    assert cli.main(["detsq", "--orbifold", modular_doc, "--z", z_text,
                     "--prec", "256", "--cutoff-norm", "1e5"]) == 0
    row = _rows(capsys.readouterr().out)["det_squared"]
    assert row["certified_digits"] > 20
    ctx = regdet.SurfaceContext(modular_orbifold(), ModularGeodesicSource(),
                                zetas.ModularScattering(), prec=256, cutoff_norm=1e5)
    with mp.workprec(272):
        z = mpc(*[mpf(p) for p in z_text.split(",")])
        want = regdet.det_squared(ctx, z)
    with mp.workprec(300):
        got = mpc(row["re"], row["im"])
        assert abs(got - want) < mpf(10) ** -row["certified_digits"] * abs(want)


def test_output_deterministic(modular_doc, capsys):
    args = ["mn", "--orbifold", modular_doc, "--n-max", "4", "--prec", "128"]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    assert first == second


def test_csv_format(modular_doc, capsys):
    rc = cli.main([
        "mn", "--orbifold", modular_doc, "--n-max", "1",
        "--prec", "128", "--format", "csv",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "label,re,im,prec_bits,certified_digits,tail"
    assert out.count("\n") == 5  # header + 4 rows


def test_verify_elliptic_passes(capsys):
    rc = cli.main(["verify", "elliptic", "--prec", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # every check reports its residual or mismatch count
    passed = [ln for ln in out.splitlines() if ln.startswith("[PASS]")]
    assert len(passed) == 5
    assert all(re.search(r"  \(.+\)$", ln) for ln in passed), passed


def test_verify_all_passes(capsys):
    rc = cli.main(["verify", "all"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any(ln.startswith("[FAIL]") for ln in lines)
    checks = [ln for ln in lines if ln.startswith("[PASS]")]
    assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
    assert len(checks) == len(lines) - 1 == 19
    # every check reports a residual, a mismatch count or what it raised
    assert all(re.search(r"  \(.*\d.*\)$|  \(raised \w+\)$", ln) for ln in checks), checks


def test_verify_all_passes_at_64_bits(capsys):
    # the scattering checks scale with the precision, as the special ones do
    assert cli.main(["verify", "all", "--prec", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any(ln.startswith("[FAIL]") for ln in lines)
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
    assert all(re.search(r"  \(.*\d.*\)$|  \(raised \w+\)$", ln) for ln in lines[:-1])


@pytest.mark.parametrize("prec, shared_sum", [(64, False), (192, False), (64, True), (192, True)],
                         ids=["64", "192", "64-shared-sum", "192-shared-sum"])
def test_verify_scattering_catches_phi_off_by_half_the_bits(prec, shared_sum, monkeypatch,
                                                             capsys):
    if shared_sum:
        # only zeta_pair's Borwein route is off: phi(s) phi(1 - s) pairs it
        # with mp.zeta's reflection, and phi(2) takes it alone
        original, zeta = zetas.zeta_pair, numerics.riemann_zeta
        calls = []
        monkeypatch.setattr(numerics, "riemann_zeta",
                            lambda s, p=256: calls.append(s) or zeta(s, p))

        def off(s, prec=256):
            n = len(calls)
            a, b = original(s, prec)
            with mp.workprec(prec + 8):
                return (a, b) if len(calls) > n else (a * (1 + mpf(2) ** -(prec // 2)), b)

        monkeypatch.setattr(zetas, "zeta_pair", off)
    else:
        original = zetas.ModularScattering.phi

        def off(self, s, prec=256):
            with mp.workprec(prec + 8):
                return original(self, s, prec) * (1 + mpf(2) ** -(prec // 2))

        monkeypatch.setattr(zetas.ModularScattering, "phi", off)
    assert cli.main(["verify", "scattering", "--prec", str(prec)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] modular phi(s) phi(1-s) = 1  (worst residual" in out
    assert "[FAIL] phi(2) = 45 zeta(3) / pi^3  (residual" in out


@pytest.mark.parametrize("command", ["mn", "detsq", "verify"])
def test_prec_below_double_is_a_usage_error(command, modular_doc, capsys):
    args = {"mn": ["mn", "--orbifold", modular_doc, "--n-max", "1"],
            "detsq": ["detsq", "--orbifold", modular_doc, "--z", "3",
                      "--cutoff-norm", "100"],
            "verify": ["verify", "scattering"]}[command]
    for prec in ("0", "-5", "52"):
        assert cli.main(args + ["--prec", prec]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--prec must be at least 53 bits, got {prec}" in captured.err
    assert cli.main(args + ["--prec", "53"]) == 0
    out = capsys.readouterr().out
    if command == "verify":
        assert "[FAIL]" not in out
    else:
        assert json.loads(out)["precision_bits"] == 53


def test_verify_unknown_suite(capsys):
    rc = cli.main(["verify", "nonsense"])
    assert rc == 64


def test_verify_corrupted_bernoulli_cache(monkeypatch, capsys):
    # A wrong Bernoulli number shows up as a z-dependent error in log G; a
    # constant offset would cancel in the recursion check.
    original = numerics.log_barnes_g

    def corrupted(z, prec=256):
        with mp.workprec(prec + 8):
            return original(z, prec) + mpf(2) ** -60 * z

    monkeypatch.setattr(numerics, "log_barnes_g", corrupted)
    rc = cli.main(["verify", "special", "--prec", "128"])
    assert rc != 0
    assert "[FAIL]" in capsys.readouterr().out


def test_usage_errors(modular_doc, capsys):
    assert cli.main(["mn"]) == 64  # missing --orbifold
    assert cli.main(["detsq", "--orbifold", modular_doc, "--z", "abc"]) == 64
    for z in ("nan", "inf", "inf,1", "3,nan", "3,1,2", "1/0"):
        assert cli.main(["detsq", "--orbifold", modular_doc, "--z", z]) == 64
    for cutoff in ("abc", "", "500,600", "1/0"):
        assert cli.main(["detsq", "--orbifold", modular_doc, "--z", "3",
                         "--cutoff-norm", cutoff]) == 64
    assert cli.main(["mn", "--orbifold", modular_doc, "--n-max", "-2"]) == 64


def test_detsq_reads_the_cutoff_at_the_working_precision(modular_doc, capsys):
    # just below N(100); read as a double it rounded up to N(100) or more and
    # the trace-100 classes entered the sum
    text = "9997.99989997999499859858"
    assert zetas._max_trace_for_cutoff(float(text), 128, 3000) == 100
    assert cli.main(["detsq", "--orbifold", modular_doc, "--z", "3",
                     "--prec", "128", "--cutoff-norm", text]) == 0
    row = _rows(capsys.readouterr().out)["selberg_z_truncated"]
    with mp.workprec(144):
        cutoff = mpf(text)
        assert zetas._max_trace_for_cutoff(cutoff, 128, 3000) == 99
        want = mp.exp(selberg_log_z(ModularGeodesicSource(), 3, cutoff, 128).value)
        assert abs(mpf(row["re"]) - want) < mpf(2) ** -120 * want


def test_detsq_refuses_negative_and_non_finite_cutoffs(modular_doc, capsys):
    for cutoff in ("-1", "nan", "inf"):
        rc = cli.main(["detsq", "--orbifold", modular_doc, "--z", "3",
                       "--prec", "64", "--cutoff-norm", cutoff])
        assert rc == 2
        assert "cutoff" in capsys.readouterr().err


def test_detsq_refuses_cutoff_beyond_enumeration_limit(modular_doc):
    # a trace bound near 1e150 used to keep the enumerator walking for ever
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "szdet.cli", "detsq", "--orbifold", modular_doc,
         "--z", "3", "--cutoff-norm", "1e300"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2
    assert "enumeration limit" in proc.stderr


def test_document_diagnostics(tmp_path, capsys):
    bad = dict(MODULAR_DOC)
    bad["elliptic"] = [{"order": 2, "exponents": [5]},
                       {"order": 3, "exponents": [0]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = cli.main(["mn", "--orbifold", str(path)])
    assert rc == 2
    assert "orbifold" in capsys.readouterr().err

    missing = dict(MODULAR_DOC)
    del missing["cusps"]
    path.write_text(json.dumps(missing))
    rc = cli.main(["mn", "--orbifold", str(path)])
    assert rc == 2
    assert "cusps" in capsys.readouterr().err


def _with_elliptic0(**fields):
    return [dict(MODULAR_DOC["elliptic"][0], **fields), MODULAR_DOC["elliptic"][1]]


@pytest.mark.parametrize("change, path", [
    ({"elliptic": [2, 3]}, "elliptic[0]"),
    ({"elliptic": _with_elliptic0(order="2")}, "elliptic[0].order"),
    ({"elliptic": _with_elliptic0(exponents=0)}, "elliptic[0].exponents"),
    ({"elliptic": _with_elliptic0(exponents=[0.5])}, "elliptic[0].exponents[0]"),
    ({"cusp_data": [5]}, "cusp_data[0]"),
    ({"cusp_data": [{"fixed_dim": 0, "angles": ["x"]}]}, "cusp_data[0].angles[0]"),
    ({"scattering": "modular"}, "scattering"),
    ({"genus": True}, "genus"),
])
def test_wrong_json_type_is_a_document_error(tmp_path, capsys, change, path):
    # each of these used to escape as an internal error (exit 70), and a
    # boolean genus was read as genus 1 with exit 0
    doc_path = tmp_path / "typed.json"
    doc_path.write_text(json.dumps(dict(MODULAR_DOC, **change)))
    rc = cli.main(["mn", "--orbifold", str(doc_path), "--n-max", "1", "--prec", "64"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: expected ")


@pytest.mark.parametrize("change, message", [
    ({"schema": 2}, "schema: unsupported schema version 2"),
    ({"cusps": cli.MAX_CUSPS + 1}, "cusps: 10001 cusps exceed the limit"),
    ({"elliptic": [{"order": 2}]}, "elliptic[0]: needs 'order' and 'exponents'"),
    ({"cusp_data": [{"angles": []}]}, "cusp_data[0]: needs 'fixed_dim'"),
    ({"scattering": {"model": "generic", "file": 3}}, "scattering.file: generic"),
    ({"scattering": {"model": "hyperbolic"}}, "scattering.model: unknown model"),
    # a decimal is read as the exact fraction it writes
    ({"elliptic": _with_elliptic0(exponents=[0.5])},
     "elliptic[0].exponents[0]: expected an integer, got 1/2\n"),
])
def test_document_refusals_name_their_field(tmp_path, capsys, change, message):
    doc_path = tmp_path / "refused.json"
    doc_path.write_text(json.dumps(dict(MODULAR_DOC, **change)))
    rc = cli.main(["mn", "--orbifold", str(doc_path), "--n-max", "1", "--prec", "64"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("text, prefix", [
    (None, "error: orbifold file: "),  # no such file
    ('{"schema": 1,', "error: orbifold file line 1: "),
    # refused before 10^999999999 is expanded, which would take hours
    ('{"cusp_data": [{"angles": [1e-999999999]}]}', "error: orbifold file: decimal"),
    # past Python's 4,300-digit limit on int conversion
    ('{"genus": ' + "1" * 5000 + "}", "error: orbifold file: Exceeds the limit"),
])
def test_unreadable_document_exits_2(tmp_path, capsys, text, prefix):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["mn", "--orbifold", str(path)]) == 2
    assert capsys.readouterr().err.startswith(prefix)


def test_modular_scattering_requires_modular_signature(tmp_path, capsys):
    doc = dict(TORUS_DOC)
    doc["scattering"] = {"model": "modular"}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["detsq", "--orbifold", str(path), "--z", "3"])
    assert rc == 2
    assert "modular" in capsys.readouterr().err


def test_detsq_evaluates_each_value_once(modular_doc, call_counts, monkeypatch, capsys):
    log_z_points = []

    def counted(source, z, cutoff, prec):
        log_z_points.append(z)
        return selberg_log_z(source, z, cutoff, prec)

    monkeypatch.setattr(cli.regdet, "selberg_log_z", counted)
    rc = cli.main([
        "detsq", "--orbifold", modular_doc, "--z", "2.5,1",
        "--prec", "64", "--cutoff-norm", "100",
    ])
    assert rc == 0
    assert call_counts == {"log_g1": 1, "phi": 1}
    assert len(log_z_points) == 1


def test_detsq_refuses_non_modular_geodesics(tmp_path, capsys):
    # detsq enumerates only the modular group's geodesics; a genus-1 surface
    # with generic scattering used to get det^2 from them with exit code 0
    terms = tmp_path / "terms.dat"
    terms.write_text("1 0.3 -0.2\n2.5 0.1 0.05\n")
    doc = dict(TORUS_DOC, scattering={"model": "generic", "file": str(terms)})
    path = tmp_path / "torus_generic.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["detsq", "--orbifold", str(path), "--z", "3", "--cutoff-norm", "500"])
    assert rc == 2
    assert "geodesics" in capsys.readouterr().err


def test_detsq_refuses_a_huge_representation_before_building_it(tmp_path, capsys):
    # the comparison with the modular orbifold used to build its trivial
    # representation, rep_dim zeros per elliptic order, whatever the
    # signature: a 150-byte document asked for 10^12 of them and exited 70
    terms = tmp_path / "terms.dat"
    terms.write_text("1 0.3 -0.2\n")
    doc = {"genus": 1, "cusps": 1, "rep_dim": 10**12,
           "scattering": {"model": "generic", "file": str(terms)}}
    path = tmp_path / "huge_rep.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["detsq", "--orbifold", str(path), "--z", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: geodesics: ")
    assert cli.main(["mn", "--orbifold", str(path), "--n-max", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [int(mpf(rows[f"m_{n}"]["re"])) for n in range(3)] == [10**12, 3 * 10**12, 5 * 10**12]


def test_malformed_scattering_header_is_a_document_error(tmp_path, capsys):
    terms = tmp_path / "terms.dat"
    terms.write_text("1 0\n")
    doc = dict(TORUS_DOC, scattering={"model": "generic", "file": str(terms)})
    path = tmp_path / "torus_generic.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["mn", "--orbifold", str(path)])
    assert rc == 2
    assert "scattering.file" in capsys.readouterr().err


def test_detsq_refuses_a_non_finite_scattering_term(tmp_path, capsys):
    # the modular signature takes a generic model too, so only the loader
    # stands between a nan term and a det^2 computed from it
    terms = tmp_path / "terms.dat"
    terms.write_text("1 0 0\nnan 0.3 0\n")
    doc = dict(MODULAR_DOC, scattering={"model": "generic", "file": str(terms)})
    path = tmp_path / "modular_generic.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["detsq", "--orbifold", str(path), "--z", "3",
                   "--prec", "64", "--cutoff-norm", "500"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scattering.file" in err and "line 2: 'nan' is not a finite number" in err


def test_generic_phi_is_read_at_the_command_precision(tmp_path, capsys):
    # the data file used to be read at 256 bits whatever --prec was, which
    # left phi at 512 bits off by 2.4e-78 relative
    terms = tmp_path / "terms.dat"
    terms.write_text("1 0.1 0.3\n")
    doc = dict(MODULAR_DOC, scattering={"model": "generic", "file": str(terms)})
    path = tmp_path / "modular_generic.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["detsq", "--orbifold", str(path), "--z", "3,1", "--prec", "512",
                     "--cutoff-norm", "100"]) == 0
    row = _rows(capsys.readouterr().out)["phi"]
    with mp.workprec(1200):
        z = mpc(3, 1)
        ref = mp.exp(mp.log(mp.pi) / 2 + mp.loggamma(z - mpf(1) / 2) - mp.loggamma(z)
                     + z / 10 + mpf(3) / 10)
        assert abs(mpc(row["re"], row["im"]) - ref) < mpf(2) ** -500 * abs(ref)


def test_detsq_needs_scattering(torus_doc, capsys):
    rc = cli.main(["detsq", "--orbifold", torus_doc, "--z", "3"])
    assert rc == 2
    assert "scattering" in capsys.readouterr().err


def _mn_in_512_mb(path):
    """`szdet mn` on the document at path, in 512 MB of address space."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "szdet.cli", "mn", "--orbifold", str(path)],
        capture_output=True, text=True, timeout=30, preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


def test_huge_cusp_count_is_a_document_error(tmp_path):
    # one entry per cusp would take about 11 GB for 10^8 cusps; in 512 MB of
    # address space only a refusal before any list is built exits 2
    doc = {k: v for k, v in TORUS_DOC.items() if k != "cusp_data"}
    path = tmp_path / "cusps.json"
    path.write_text(json.dumps(dict(doc, cusps=10**8)))
    proc = _mn_in_512_mb(path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cusps: ")


def test_huge_elliptic_orders_are_a_document_error(tmp_path):
    # mn keeps about 1 KB per unit of order, some 100 GB for an order of
    # 10^8; in 512 MB only a refusal before any per-order table exits 2
    elliptic = [{"order": 5000, "exponents": [0]}, {"order": 10**8, "exponents": [0]}]
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(dict(TORUS_DOC, elliptic=elliptic)))
    proc = _mn_in_512_mb(path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: elliptic: ")
    path.write_text(json.dumps(dict(TORUS_DOC, elliptic=[
        {"order": 5000, "exponents": [0]}, {"order": 5001, "exponents": [0]}])))
    assert cli.main(["mn", "--orbifold", str(path), "--n-max", "0"]) == 2


def test_production_modules_load_no_oracles():
    # detsq and mn run the production modules only: the oracles and the
    # verify suites that use them load with `szdet verify` alone
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import szdet.cli, szdet.regdet, szdet.zetas, szdet.gfuncs\n"
        "import szdet.elliptic, szdet.orbifold, szdet.numerics\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('szdet.oracles', 'szdet.verify', 'g1_oracles',\n"
        "                      'superzeta_oracles')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
