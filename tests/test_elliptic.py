import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from szdet.elliptic import (
    _sine_sum,
    _sines_and_roots,
    alpha,
    beta_coeff,
    g_count,
    m_n_floor,
    m_n_spectral,
    trig_sum_brute,
    trig_sum_closed,
)
from szdet.errors import DomainError
from szdet.oracles import case_table_shift, count_multiples
from szdet.orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    Signature,
    modular_orbifold,
    trivial_rep,
    vol_over_2pi,
)
from szdet.verify import random_orbifold

P = 192


def test_residue_examples():
    # (m, q, d) = (0, 1, 3): residues 1 and 2, wrap count +1
    assert alpha(3, (1,), 0) == 1 + 2 and beta_coeff(3, (1,), 0) == 1
    assert alpha(5, (0,), 0) == 0 and beta_coeff(5, (0,), 0) == 0
    # (4, 3, 5): residues 2 and 1, wraps -1 and 0
    assert alpha(5, (3,), 4) == 2 + 1 and beta_coeff(5, (3,), 4) == -1 + 0


def test_residues_define_the_residues():
    # alpha and beta_coeff (from g_count) against the residue definitions
    for d in range(2, 15):
        for q in range(d):
            for m in range(0, 3 * d):
                assert alpha(d, (q,), m) == (m + q) % d + (m - q) % d
                assert beta_coeff(d, (q,), m) == (
                    ((m + q) % d - m - q) // d + ((m - q) % d - m + q) // d
                )


def test_case_table_exhaustive():
    # the three-case law holds exactly on 0 <= m < d
    for d in range(2, 21):
        for q in range(d):
            for m in range(d):
                assert beta_coeff(d, (q,), m) == case_table_shift(m, q, d)


def test_residue_domain_errors():
    for f in (alpha, beta_coeff):
        with pytest.raises(DomainError):
            f(3, (3,), 0)
        with pytest.raises(DomainError):
            f(3, (0,), -1)
        with pytest.raises(DomainError):
            f(1, (0,), 0)


@given(st.integers(2, 16), st.integers(0, 60), st.integers(1, 3),
       st.data())
def test_alpha_beta_identity(d, m, h, data):
    qs = tuple(data.draw(st.integers(0, d - 1)) for _ in range(h))
    assert alpha(d, qs, m) == 2 * m * h + beta_coeff(d, qs, m) * d
    assert alpha(d, qs, m) == sum((m + q) % d + (m - q) % d for q in qs)
    assert alpha(d, qs, m) >= 0


def test_alpha_examples():
    assert alpha(3, (0,), 1) == 2 and beta_coeff(3, (0,), 1) == 0
    assert alpha(3, (1,), 0) == 3 and beta_coeff(3, (1,), 0) == 1


def test_trivial_character_beta():
    # beta(R, m) = 0 for 0 <= m < d; for m >= d it counts the wraps
    for d in range(2, 13):
        for m in range(d):
            assert beta_coeff(d, (0,), m) == 0
        for m in range(d, 4 * d):
            assert beta_coeff(d, (0,), m) == -2 * (m // d)


def test_trig_sum_examples():
    assert trig_sum_closed(0, 0, 2) == 1
    assert trig_sum_closed(0, 1, 3) == -1
    assert trig_sum_closed(1, 0, 3) == 0
    for (n, q, d) in ((0, 0, 2), (0, 1, 3), (1, 0, 3)):
        v = trig_sum_brute(n, q, d, P)
        assert abs(v - trig_sum_closed(n, q, d)) < mpf(2) ** (-P // 2)


def test_trig_sum_closed_equals_brute_sample():
    rng = random.Random(99)
    for _ in range(300):
        d = rng.randint(2, 30)
        q = rng.randrange(d)
        n = rng.randint(0, 100)
        v = trig_sum_brute(n, q, d, P)
        assert abs(v.real - trig_sum_closed(n, q, d)) < mpf(2) ** (-P // 2)
        assert abs(v.imag) < mpf(2) ** (-P // 2)


@functools.cache
def _reference_trig_tables(d, prec):
    with mp.workprec(prec + 8):
        sins = [mp.sinpi(mp.mpf(j) / d) for j in range(2 * d)]
        roots = [mp.expjpi(2 * mp.mpf(r) / d) for r in range(d)]
    return sins, roots


def _reference_trig_sum(n, q, d, prec):
    """One loop over k for each (n, q, d), with no reduction of n mod d."""
    sins, roots = _reference_trig_tables(d, prec)
    with mp.workprec(prec + 8):
        total = mp.mpc(0)
        for k in range(1, d):
            total += roots[(q * k) % d] * sins[(k * (2 * n + 1)) % (2 * d)] / sins[k]
    return total


def _reference_m_n_spectral(orb, n, prec):
    """The sine-sum m_n with the character trace summed per k, then per R."""
    v = vol_over_2pi(orb.signature)
    with mp.workprec(prec + 8):
        total = mp.mpc(mp.mpf(v.numerator) / v.denominator * orb.dim * (2 * n + 1))
        for d, qs in orb.elliptic_classes():
            sins, roots = _reference_trig_tables(d, prec)
            for k in range(1, d):
                chi_tr = mp.fsum(roots[(q * k) % d] for q in qs)
                total -= chi_tr * sins[(k * (2 * n + 1)) % (2 * d)] / sins[k] / d
    return total


@pytest.mark.parametrize("prec", [128, 256])
def test_sine_sum_table_matches_per_call_reference(prec):
    def close(got, ref):
        return abs(got - ref) <= mpf(2) ** (8 - prec) * (1 + abs(ref))

    rng = random.Random(20261018)
    for _ in range(30):
        orb = random_orbifold(rng)
        ns = {0, 400}
        for d in orb.signature.elliptic_orders:
            ns |= {d - 1, d, 2 * d + 3}
        for n in sorted(ns):
            ref = _reference_m_n_spectral(orb, n, prec)
            assert close(m_n_spectral(orb, n, prec), ref), (orb, n)
    for d in range(2, 31):
        for q in range(d):
            for n in (0, d - 1, d, 2 * d + 3, 400):
                ref = _reference_trig_sum(n, q, d, prec)
                assert close(trig_sum_brute(n, q, d, prec), ref), (n, q, d)


def _full_sine_sum_table(q, d, prec):
    """All d residues of the sine sum in one O(d^2) pass: weights
    omega^(qk) / sin(k pi/d) formed once, then one mp.fsum per residue."""
    with mp.workprec(prec + 8):
        sins = [mp.sinpi(mp.mpf(j) / d) for j in range(2 * d)]
        roots = [mp.expjpi(2 * mp.mpf(r) / d) for r in range(d)]
        weights = [roots[(q * k) % d] / sins[k] for k in range(1, d)]
        return tuple(
            mp.fsum(w * sins[(k * (2 * r + 1)) % (2 * d)] for k, w in enumerate(weights, 1))
            for r in range(d)
        )


@pytest.mark.parametrize("prec", [128, 256])
def test_sine_sum_entries_are_bit_identical_to_the_full_table(prec):
    for d in range(2, 31):
        for q in range(d):
            table = _full_sine_sum_table(q, d, prec)
            for r in reversed(range(d)):  # on demand, in any order
                assert _sine_sum(q, d, r, prec)._mpc_ == table[r]._mpc_, (q, d, r)


def test_sine_sum_builds_only_the_residues_asked_for():
    # orders (300, 300) and n <= 10 need 11 of the 300 residues
    sig = Signature(0, 1, (300, 300))
    orb = OrbifoldData(sig, trivial_rep(sig))
    _sine_sum.cache_clear()
    for n in range(11):
        m_n_spectral(orb, n, 64)
    assert _sine_sum.cache_info().currsize == 11


def test_exponents_of_one_order_share_its_sines_and_roots():
    # 40 exponents of one order 40: one table of sines and roots, not 40
    sig = Signature(1, 1, (40,))
    rep = RepresentationData(40, (tuple(range(40)),), (CuspData(40),))
    _sine_sum.cache_clear()
    _sines_and_roots.cache_clear()
    m_n_spectral(OrbifoldData(sig, rep), 3, 64)
    assert _sine_sum.cache_info().currsize == 40
    assert _sines_and_roots.cache_info().misses == 1


def test_count_examples():
    assert count_multiples(4, 3, 5) == 2 == g_count(4, 3, 5)
    assert count_multiples(0, 0, 5) == 1 == g_count(0, 0, 5)
    assert count_multiples(0, 2, 5) == 0 == g_count(0, 2, 5)


def test_count_lemma_sample():
    rng = random.Random(3)
    for _ in range(500):
        d = rng.randint(2, 20)
        q = rng.randrange(d)
        n = rng.randint(0, 400)
        assert count_multiples(n, q, d) == g_count(n, q, d)


def test_m_n_examples():
    orb = modular_orbifold()
    assert [m_n_floor(orb, n) for n in range(4)] == [-1, 1, 1, 1]
    sp = m_n_spectral(orb, 1, P)
    assert abs(sp - 1) < mpf(2) ** (-P // 2)
    # spectral route at n=1: (1/6)*3 + 1/2 - 0
    assert m_n_floor(orb, 0) == -1  # pole of the gamma factor, kept as-is
    torus = OrbifoldData(Signature(1, 1), trivial_rep(Signature(1, 1)))
    assert m_n_floor(torus, 2) == 5  # h(2g-2+c)(2n+1)


@pytest.mark.parametrize("m_n", [m_n_floor, m_n_spectral])
def test_negative_n_is_a_domain_error(m_n):
    with pytest.raises(DomainError, match="n must be nonnegative"):
        m_n(modular_orbifold(), -1)


@pytest.mark.parametrize("trig_sum", [trig_sum_closed, trig_sum_brute])
@pytest.mark.parametrize("n, q, d", [(0, 0, 1), (3, 3, 3), (3, -1, 3), (-1, 0, 3)])
def test_trig_sums_refuse_outside_their_domain(trig_sum, n, q, d):
    with pytest.raises(DomainError, match="need d >= 2"):
        trig_sum(n, q, d)


def test_m_n_dual_formulas_random(orbifold_pool):
    rng = random.Random(12)
    tol = 10 * mpf(2) ** (-P // 2)
    for orb in orbifold_pool[:25]:
        for n in rng.sample(range(101), 5):
            fl = m_n_floor(orb, n)
            sp = m_n_spectral(orb, n, P)
            assert abs(sp - fl) < tol


def test_m_n_trivial_rep_closed_form(orbifold_pool):
    # for the trivial character the elliptic sum contributes g_count(n, 0, d)
    for orb in orbifold_pool[:10]:
        sig = orb.signature
        triv = OrbifoldData(sig, trivial_rep(sig, 1))
        for n in (0, 1, 17):
            expect = (2 * sig.genus - 2 + sig.cusps + sig.num_elliptic) * (2 * n + 1)
            expect -= sum(g_count(n, 0, d) for d in sig.elliptic_orders)
            assert m_n_floor(triv, n) == expect
