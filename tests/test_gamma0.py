"""Gamma_0(p) described by two documents: (A) the modular signature with the
permutation representation rho_p of PSL(2,Z) on P^1(F_p), of dimension
p + 1, and (B) Gamma_0(p)'s own signature with the trivial representation.
Both describe one Laplacian, but their data reach the elliptic and G1 code
along different paths (one class of order 2 with p + 1 exponents against
nu_2 classes with one each), so comparing them checks alpha, beta, m_n and
the expansion coefficients by an independent route.
"""

import json
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from szdet import gfuncs
from szdet.cli import _load_document, parse_orbifold_document
from szdet.elliptic import m_n_floor
from szdet.gfuncs import g1_coefficients, log_g1
from szdet.orbifold import a_chi, modular_orbifold

P = 256


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _fixed_and_cycles(p: int):
    """(f2, c2, f3, c3): S and ST fix f2 = 1 + (-1|p) and f3 = 1 + (-3|p)
    points of P^1(F_p) and permute the rest in c2 2-cycles and c3 3-cycles."""
    f2, f3 = 1 + _legendre(-1, p), 1 + _legendre(-3, p)
    return f2, (p + 1 - f2) // 2, f3, (p + 1 - f3) // 3


def document_a(p: int, angles=None) -> dict:
    """PSL(2,Z) with rho_p: T fixes infinity and cycles the other p points,
    so the cusp has fixed_dim 2 and angles j/p, j = 1..p-1."""
    f2, c2, f3, c3 = _fixed_and_cycles(p)
    return {
        "schema": 1, "genus": 0, "cusps": 1, "rep_dim": p + 1,
        "elliptic": [
            {"order": 2, "exponents": [0] * (f2 + c2) + [1] * c2},
            {"order": 3, "exponents": [0] * (f3 + c3) + [1] * c3 + [2] * c3},
        ],
        "cusp_data": [{
            "fixed_dim": 2,
            "angles": angles or [Fraction(j, p) for j in range(1, p)],
        }],
    }


def document_b(p: int) -> dict:
    """Gamma_0(p): two cusps, nu_2 = f2 classes of order 2, nu_3 = f3 of
    order 3 and genus 1 + (p + 1)/12 - nu_2/4 - nu_3/3 - 1."""
    nu2, _, nu3, _ = _fixed_and_cycles(p)
    genus = Fraction(p + 1, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    assert genus.denominator == 1
    return {
        "schema": 1, "genus": int(genus), "cusps": 2, "rep_dim": 1,
        "elliptic": ([{"order": 2, "exponents": [0]}] * nu2
                     + [{"order": 3, "exponents": [0]}] * nu3),
        "cusp_data": [{"fixed_dim": 1, "angles": []}] * 2,
    }


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_gamma0_as_the_modular_group_with_rho_p(p):
    orb_a, _ = parse_orbifold_document(document_a(p), P)
    orb_b, _ = parse_orbifold_document(document_b(p), P)
    assert ([m_n_floor(orb_a, n) for n in range(40)]
            == [m_n_floor(orb_b, n) for n in range(40)])
    ca, cb = g1_coefficients(orb_a, P), g1_coefficients(orb_b, P)
    assert (ca.a2t, ca.a1t, ca.a0t) == (cb.a2t, cb.a1t, cb.a0t)
    _, c2, _, c3 = _fixed_and_cycles(p)
    tol = mpf(2) ** (-P // 2)
    with mp.workprec(P + 16):
        assert abs(ca.b1 - cb.b1) < tol
        # log G1 differs by one constant, which cancels in det^2
        shift = (c2 * (-mp.log(4 * mp.pi) / 2)
                 + c3 * (-2 * mp.log(2 * mp.pi) - mp.log(3)))
        assert abs(ca.b0 - cb.b0 - shift) < tol
        for z in (mpf(3), mpc("2.5", 1), mpc(4, -3), mpc("1.5", "0.25")):
            assert abs(log_g1(orb_a, z, P) - log_g1(orb_b, z, P) - shift) < tol
        # a(chi) = 1/(4p) for A and 1/4 for B
        assert abs(p * a_chi(orb_a.rep, P) - a_chi(orb_b.rep, P)) < tol


def test_decimal_angles_are_read_exactly(tmp_path):
    # p = 5: the angles 0.2, 0.4, 0.6 and 0.8 are exact decimals; read as
    # doubles they put a(chi) 4.9e-18 away from 1/20 at any precision
    path = tmp_path / "gamma0_5.json"
    path.write_text(json.dumps(document_a(5, angles=[0.2, 0.4, 0.6, 0.8])))
    orb, _ = _load_document(str(path), P)
    assert orb.rep.cusp_data[0].angles == tuple(Fraction(j, 5) for j in range(1, 5))
    with mp.workprec(P + 16):
        assert abs(a_chi(orb.rep, P) - mpf(1) / 20) < mpf(2) ** (8 - P)


def test_log_g1_takes_one_log_gamma_per_order_and_residue(monkeypatch):
    # document B for p = 13 has two classes of order 2 and two of order 3, all
    # with exponent 0, so their arguments (z + m)/d coincide: log G1 takes as
    # many log Gamma values as for the modular group, with one class of each
    calls = []
    log_gamma = gfuncs.log_gamma
    monkeypatch.setattr(gfuncs, "log_gamma", lambda *a: calls.append(a) or log_gamma(*a))
    counts = []
    for orb in (parse_orbifold_document(document_b(13), P)[0], modular_orbifold()):
        calls.clear()
        log_g1(orb, mpc("2.5", 1), P)
        counts.append(len(calls))
    assert counts == [4, 4]
