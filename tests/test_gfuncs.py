from fractions import Fraction

import pytest
from mpmath import mp, mpf

from g1_oracles import (
    log_g1_asymptotic,
    log_g_e,
    log_g_qd,
    log_tilde_g1,
    order_at,
    order_g_e_at,
    order_g_qd_at,
    order_tilde_g1_at,
)
from szdet.elliptic import g_count, m_n_floor
from szdet.errors import BranchError, SingularityError
from szdet.gfuncs import g1_coefficients, log_g1
from szdet.numerics import frac_to_mpf, log_barnes_g, log_gamma
from szdet.oracles import a0_candidates, b0_candidates
from szdet.orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    Signature,
    modular_orbifold,
    trivial_rep,
)

P = 256


def _torus_orb():
    sig = Signature(1, 1)
    return OrbifoldData(sig, trivial_rep(sig))


def test_coefficients_modular():
    c = g1_coefficients(modular_orbifold(), P)
    assert c.a2t == Fraction(1, 6)
    assert c.a1t == Fraction(-1, 6)
    assert c.b1 == 0
    assert c.a0t == Fraction(-23, 36)


def test_coefficients_no_elliptic():
    c = g1_coefficients(_torus_orb(), P)
    assert c.a1t == Fraction(-1)
    assert c.a0t == Fraction(1, 3)
    assert c.b1 == 0
    with mp.workprec(P + 16):
        # b0 reduces to the pure volume block h vol/2pi (2 zeta'(-1) - log(2pi)/2)
        from szdet.numerics import zeta_prime_minus1

        expect = 2 * zeta_prime_minus1(P) - mp.log(2 * mp.pi) / 2
        assert abs(c.b0 - expect) < mpf(2) ** (20 - P)


def test_b1_vanishes_for_every_representation(orbifold_pool):
    # sum_m beta(R, m) over a full period is 0, so b1 = 0 identically and
    # a1t = -h vol / 2pi for every unitary representation
    from szdet.orbifold import vol_over_2pi

    for orb in orbifold_pool[:15]:
        c = g1_coefficients(orb, 128)
        assert c.b1 == 0
        assert c.a1t == -orb.dim * vol_over_2pi(orb.signature)


def test_log_g1_no_elliptic_value():
    with mp.workprec(P + 16):
        v = log_g1(_torus_orb(), 2, P)
        assert abs(v + 2 * mp.log(2 * mp.pi)) < mpf(2) ** (16 - P)


def test_log_g1_factor_by_factor():
    # one elliptic class of order 2, trivial exponents; rebuild the product
    # from its factors at s = 3.7 and compare against exp(log_g1)
    sig = Signature(0, 2, (2,))
    orb = OrbifoldData(sig, trivial_rep(sig))
    with mp.workprec(P + 16):
        s = mpf("3.7")
        hv = frac_to_mpf(Fraction(1, 2))  # h vol/2pi = 1/2
        block = (-s * mp.log(2 * mp.pi) + 2 * log_barnes_g(s + 1, P)
                 - log_gamma(s, P)) * hv
        factors = block - mpf(1) / 2 * s * mp.log(2) + mpf(1) / 2 * log_gamma(s, P)
        # alpha(R,0) = 0, alpha(R,1) = 2
        factors -= mpf(2) / 2 * log_gamma((s + 1) / 2, P)
        assert abs(mp.exp(log_g1(orb, s, P)) - mp.exp(factors)) < mpf(2) ** (16 - P)


def test_asymptotic_residual_halves():
    for orb in (modular_orbifold(), _torus_orb()):
        with mp.workprec(P + 16):
            e50 = abs(log_g1(orb, mpf(50), P) - log_g1_asymptotic(orb, mpf(50), P))
            e100 = abs(log_g1(orb, mpf(100), P) - log_g1_asymptotic(orb, mpf(100), P))
        if e50 > mpf(2) ** (8 - P):
            assert mpf("0.3") < e100 / e50 < mpf("0.7")


def test_rejected_a0_variant_fails_decay():
    # with the rejected a0~, the residual picks up a log(s) term and the
    # halving ratio drifts to log(100)/log(50) instead of ~1/2
    orb = modular_orbifold()
    adopted, rejected = a0_candidates(orb)
    assert adopted != rejected
    c = g1_coefficients(orb, P)
    with mp.workprec(P + 16):
        def resid(s):
            z = mpf(s)
            bad = (frac_to_mpf(c.a2t) * z * z * (mp.log(z) - mpf(3) / 2)
                   + frac_to_mpf(c.a1t) * z * (mp.log(z) - 1) + c.b1 * z
                   + frac_to_mpf(rejected) * mp.log(z) + c.b0)
            return abs(log_g1(orb, z, P) - bad)

        ratio = resid(100) / resid(50)
        assert not mpf("0.3") < ratio < mpf("0.7")
        assert abs(ratio - mp.log(100) / mp.log(50)) < mpf("0.05")


def test_b0_sign_resolution():
    # constant-term fit at s = 400, 800, 1600 (two Richardson steps) must
    # land on the adopted b0 and reject the sign-flipped candidate
    sig = Signature(0, 2, (3, 5))
    rep = RepresentationData(
        2, elliptic_exponents=((1, 2), (2, 4)),
        cusp_data=(CuspData(1, (0.25,)), CuspData(0, (0.3, 0.65))))
    orb = OrbifoldData(sig, rep)
    adopted, rejected = b0_candidates(orb, P)
    c = g1_coefficients(orb, P)
    with mp.workprec(P + 32):
        def fit_point(s):
            z = mpf(s)
            lg = mp.log(z)
            nonconst = (frac_to_mpf(c.a2t) * z * z * (lg - mpf(3) / 2)
                        + frac_to_mpf(c.a1t) * z * (lg - 1) + c.b1 * z
                        + frac_to_mpf(c.a0t) * lg)
            return log_g1(orb, z, P + 32) - nonconst

        f = [fit_point(s) for s in (400, 800, 1600)]
        r1 = [2 * f[i + 1] - f[i] for i in range(2)]
        fit = (4 * r1[1] - r1[0]) / 3
        assert abs(fit - adopted) < mpf(10) ** -6
        assert abs(fit - rejected) > mpf("0.1")


def test_order_at_equals_m_n(orbifold_pool):
    for orb in orbifold_pool[:20]:
        for n in (0, 1, 2, 7, 23, 50, 100):
            assert order_at(orb, n) == m_n_floor(orb, n)


def test_order_at_examples():
    orb = modular_orbifold()
    assert order_at(orb, 1) == 1
    assert order_at(orb, 0) == -1
    assert order_at(_torus_orb(), 3) == 7


def test_g_qd_orders():
    assert order_g_qd_at(4, 3, 5) == 2
    for d in range(2, 13):
        for q in range(d):
            for n in range(0, 40):
                assert order_g_qd_at(n, q, d) == g_count(n, q, d)


def test_g_qd_value_against_barnes():
    # d = 2, q = 0: G_{0,2}(s) = [G(s/2+1) G((s-2)/2+1)]^2 ... m in {0,1}
    with mp.workprec(P + 16):
        s = mpf("4.2")
        direct = mp.mpf(0)
        for m in range(2):
            for shift in (0, 2):
                direct += log_barnes_g((s - shift + m) / 2 + 1, P)
        assert abs(log_g_qd(s, 0, 2, P) - direct) < mpf(2) ** (16 - P)


def test_tilde_g1_divisor_matches(orbifold_pool):
    for orb in orbifold_pool[:20]:
        for n in (0, 1, 2, 11, 31, 50):
            assert order_tilde_g1_at(n, orb) == m_n_floor(orb, n)


def test_order_g_e_nonnegative(orbifold_pool):
    for orb in orbifold_pool[:10]:
        for n in (0, 1, 5):
            assert order_g_e_at(n, orb) >= 0


def test_g_e_and_tilde_values():
    # G_E is the product of the per-class, per-exponent Barnes blocks, and
    # tilde_G1 * G_E equals the pure volume-type block to an integer power
    orb = modular_orbifold()
    with mp.workprec(P + 16):
        s = mpf("3.7")
        direct = log_g_qd(s, 0, 2, P) + log_g_qd(s, 0, 3, P)
        assert abs(log_g_e(s, orb, P) - direct) < mpf(2) ** (16 - P)
        power = 1 * (2 * 0 - 2 + 1 + 2)  # h(2g-2+c+e) = 1
        block = (-s * mp.log(2 * mp.pi) + 2 * log_barnes_g(s + 1, P)
                 - log_gamma(s, P)) * power
        resid = log_tilde_g1(s, orb, P) + log_g_e(s, orb, P) - block
        assert abs(resid) < mpf(2) ** (16 - P)


def test_log_g1_singularity_guard():
    orb = modular_orbifold()
    with pytest.raises(SingularityError):
        log_g1(orb, mpf(-1) + mpf(2) ** -80, P)


def test_log_g1_branch_guard():
    orb = modular_orbifold()
    with pytest.raises(BranchError):
        log_g1(orb, mpf("-0.5"), P)
