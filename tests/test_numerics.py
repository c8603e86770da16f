import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from szdet import numerics
from szdet.errors import DomainError, PoleError, PrecisionError, ZeroError
from szdet.numerics import (
    _barnes_tail,
    hurwitz_zeta,
    log_barnes_g,
    log_gamma,
    riemann_zeta,
    to_scalar,
    zeta_pair,
    zeta_prime_minus1,
)

P = 256
REL_TOL = mpf(2) ** (16 - P)

# log_gamma, riemann_zeta, hurwitz_zeta and zeta_prime_minus1 are mpmath's
# behind the library's domain checks, so the comparisons with mpmath below
# check those wrappers (precision, rounding, branch), not the values.  The
# independent checks are the recursion, duplication, Lerch, telescoping,
# functional-equation and precision-doubling tests.


def hurwitz_zeta_ds0(z, prec):
    """d/ds zeta_H(s, z) at s = 0, from mpmath at prec bits."""
    with mp.workprec(prec):
        return mp.zeta(0, z, derivative=1)


def test_log_gamma_trivial_values():
    with mp.workprec(P + 8):
        assert abs(log_gamma(1, P)) < REL_TOL
        assert abs(log_gamma(5, P) - mp.log(24)) < REL_TOL
        assert abs(log_gamma(mpf(1) / 2, P) - mp.log(mp.pi) / 2) < REL_TOL


def test_log_gamma_pole_and_cut():
    with pytest.raises(PoleError):
        log_gamma(0, P)
    with pytest.raises(PoleError):
        log_gamma(-3, P)
    with pytest.raises(DomainError):
        log_gamma(mpf("-2.5"), P)


@pytest.mark.parametrize("x", [mpf("-2.5"), mpf("-0.001"), mpf(-10) ** 9 - mpf(1) / 3])
def test_log_barnes_g_refuses_the_negative_real_axis(x):
    with pytest.raises(DomainError, match="lies on the cut"):
        log_barnes_g(x, P)


@pytest.mark.parametrize("prec", [64, 300])
def test_to_scalar_reads_a_fraction_at_the_asked_precision(prec):
    # mp.mpmathify(Fraction(1, 3)) at 300 bits lies 7.4e-91 relative away
    # from 1/3; to_scalar divides the exact numerator and denominator
    for fr in (Fraction(1, 3), Fraction(-7, 10), Fraction(2**200 + 1, 3**90)):
        with mp.workprec(prec):
            want = mpf(fr.numerator) / fr.denominator
        assert to_scalar(fr, prec) == want


@given(
    st.floats(min_value=0.1, max_value=50),
    st.floats(min_value=-50, max_value=50),
)
def test_log_gamma_matches_reference(re, im):
    # wrapper check, not an oracle: log_gamma is mp.loggamma
    z = mpc(re, im)
    with mp.workprec(P + 16):
        ref = mp.loggamma(z)
    assert abs(log_gamma(z, P) - ref) <= REL_TOL * (1 + abs(ref))


def test_gamma_recursion_grid():
    # |log Gamma(z+1) - log z - log Gamma(z)| < 2^(20-P) on 100 points
    rng = __import__("random").Random(5)
    tol = mpf(2) ** (20 - P)
    with mp.workprec(P + 16):
        for _ in range(100):
            z = mpc(0.1 + 49.9 * rng.random(), -50 + 100 * rng.random())
            resid = abs(log_gamma(z + 1, P) - mp.log(z) - log_gamma(z, P))
            assert resid < tol * max(1, abs(log_gamma(z, P)))


def test_barnes_recursion_grid():
    rng = __import__("random").Random(6)
    tol = mpf(2) ** (20 - P)
    with mp.workprec(P + 16):
        for _ in range(100):
            z = mpc(0.1 + 49.9 * rng.random(), -50 + 100 * rng.random())
            resid = abs(
                log_barnes_g(z + 1, P) - log_gamma(z, P) - log_barnes_g(z, P)
            )
            assert resid < tol * max(1, abs(log_barnes_g(z, P)))


def test_duplication_formula_grid():
    rng = __import__("random").Random(7)
    tol = mpf(2) ** (20 - P)
    with mp.workprec(P + 16):
        for _ in range(100):
            z = mpc(0.1 + 25 * rng.random(), -25 + 50 * rng.random())
            lhs = log_gamma(z, P) + log_gamma(z + mpf(1) / 2, P)
            rhs = (1 - 2 * z) * mp.log(2) + mp.log(mp.pi) / 2 + log_gamma(2 * z, P)
            # compare in value space; the logs may differ by 2 pi i k
            assert abs(mp.exp(lhs - rhs) - 1) < tol


def test_barnes_trivial_values():
    assert abs(log_barnes_g(1, P)) < REL_TOL
    with mp.workprec(P + 8):
        assert abs(log_barnes_g(4, P) - mp.log(2)) < REL_TOL


def test_barnes_two_shift_paths():
    # log G(3.5) - log G(2.5) - log Gamma(2.5) = 0: the two sides route
    # through different recursion depths of the asymptotic series
    with mp.workprec(P + 16):
        resid = abs(log_barnes_g(mpf("3.5"), P) - log_barnes_g(mpf("2.5"), P)
                    - log_gamma(mpf("2.5"), P))
    assert resid < mpf(2) ** (18 - P)


def test_barnes_zero_orders():
    for n, order in ((0, 1), (-1, 2), (-4, 5)):
        with pytest.raises(ZeroError) as exc:
            log_barnes_g(n, P)
        assert exc.value.order == order


def test_barnes_against_independent_oracle():
    # exp(log G) must agree with an independent implementation; value space
    # comparison is branch-insensitive
    pts = [mpf("2.5"), mpc("3.5", "2"), mpc("0.3", "-7"), mpc("-4.7", "2.2")]
    with mp.workprec(P + 16):
        for z in pts:
            mine = mp.exp(log_barnes_g(z, P))
            ref = mp.barnesg(z)
            assert abs(mine - ref) <= mpf(2) ** (24 - P) * abs(ref)


def log_barnes_g_by_factors(z, prec):
    """log G(z) with one principal mp.log per factor of the shift.

    The library's former evaluation, kept as the reference: each factor
    s + 1 + i of the shift lies right of z or off the real axis, so its
    principal log is on the continued branch and no branch count is needed;
    the Bernoulli tail is summed term by term, largest first.
    """
    wp = prec + 32
    with mp.workprec(wp):
        s = mp.mpmathify(z) - 1
        shift = max(0, int(mp.ceil(max(20, prec // 3) - s.real)))
        corr = mp.mpf(0)
        if shift:
            corr = shift * log_gamma(s + 1, wp)
            for i in range(shift - 1):
                corr += (shift - 1 - i) * mp.log(s + 1 + i)
        u = s + shift
        tail, pw, k = mp.mpf(0), 1 / (u * u), 1
        while True:
            term = mp.bernoulli(2 * k + 2) / (4 * k * (k + 1)) * pw
            tail += term
            if abs(term) < mpf(2) ** (-(wp + 4)):
                break
            pw /= u * u
            k += 1
        main = (
            u * u / 2 * (mp.log(u) - mp.mpf(3) / 2)
            - mp.log(u) / 12
            + u / 2 * mp.log(2 * mp.pi)
            + zeta_prime_minus1(wp)
            + tail
        )
        val = main - corr
    with mp.workprec(prec):
        return +val


@pytest.mark.parametrize("prec", [53, 64, 128, 272, 512])
def test_barnes_branch_against_per_factor_logs(prec):
    # exp() comparisons cannot see a 2 pi i error in the branch count of the
    # product shift; the per-factor reference can, and must agree bit for bit
    rng = random.Random(2718)
    pts = [mpc(rng.uniform(-40, 8), rng.uniform(-60, 60)) for _ in range(16)]
    pts += [mpc(2, 1e5), mpc(2, 1e9), mpc("3.5", -1e6), mpf("0.25"), mpf(7),
            mpc("-7.5", "-1e-400")]
    # next to a zero of G the factor s - a of the shift has both parts below
    # the smallest float, yet its argument is +-pi/2 and weighs n + a >= 20
    pts += [mpc(-7, "1e-400"), mpc(0, "1e-400"), mpc(-3, "-1e-330"),
            mpc(mpf(-5) + mpf("1e-400"), "-3e-400")]
    for z in pts:
        assert log_barnes_g(z, prec) == log_barnes_g_by_factors(z, prec), z
    # the branch the docstrings state: Im log G(3+50i) ~ -1623.36
    assert abs(log_barnes_g(mpc(3, 50), prec).imag - mpf("-1623.3588190424")) < mpf(10) ** -9


def test_barnes_shift_takes_one_log(monkeypatch):
    # at 256 bits 3+i is shifted by 83 to Re u >= 85: one log for the shift,
    # one of u, and the two constants log(2 pi) and log A
    calls = []
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda *a, **k: calls.append(a) or log(*a, **k))
    log_barnes_g(mpc(3, 1), 256)
    assert 0 < len(calls) <= 4


def test_barnes_tail_refuses_a_diverging_series():
    # at |u| = 2 the terms bottom out near 2^-18, far above 2^-260
    with pytest.raises(PrecisionError, match="diverged"):
        _barnes_tail(mpf(2), 1.0, 256)


def test_riemann_zeta_trivial_values():
    with mp.workprec(P + 8):
        assert abs(riemann_zeta(2, P) - mp.pi**2 / 6) < REL_TOL
        assert riemann_zeta(0, P) == mpf(-1) / 2
        assert abs(riemann_zeta(-1, P) + mpf(1) / 12) < REL_TOL
    with pytest.raises(PoleError):
        riemann_zeta(1, P)


@given(
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=-20, max_value=20),
)
def test_riemann_zeta_matches_reference(re, im):
    # wrapper check, not an oracle: riemann_zeta is mp.zeta
    s = mpc(re, im)
    if abs(s - 1) < 0.05:
        return
    with mp.workprec(P + 16):
        ref = mp.zeta(s)
    assert abs(riemann_zeta(s, P) - ref) <= mpf(2) ** (24 - P) * (1 + abs(ref))


def _zeta_pair_points(prec):
    """Seeded points with Re s in [1, 9] and |Im s| <= 6, the two poles' edges,
    a point on Re s = 1 and the two sides of the |s| = prec + 32 switch, each
    with the number of riemann_zeta calls its route takes."""
    rng = random.Random(prec)
    with mp.workprec(prec + 64):
        eps, t = mpf(2) ** -(prec // 2), mp.sqrt(mpf(prec + 32) ** 2 - 4)
        pts = [mpc(1 + 8 * rng.random(), 12 * rng.random() - 6) for _ in range(10)]
        pts += [mpf(1 + 8 * rng.random()) for _ in range(3)] + [mpf(3), mpf(4)]
        pts += [2 + mpf(2) ** -40, 1 + eps, mpc(1, eps), mpc(1, "28.2694")]
        return [(s, 0) for s in pts] + [(mpc(2, t - 0.5), 0), (mpc(2, t + 0.5), 2)]


@pytest.mark.parametrize("prec", [53, 64, 128, 256, 512])
def test_zeta_pair_matches_mp_zeta(prec, monkeypatch):
    # the shared Borwein sum against mp.zeta at 64 more bits, and the route
    # each point takes
    calls = []
    monkeypatch.setattr(numerics, "riemann_zeta",
                        lambda s, p=P: calls.append(s) or riemann_zeta(s, p))
    for s, routed in _zeta_pair_points(prec):
        del calls[:]
        pair = zeta_pair(s, prec)
        assert len(calls) == routed, s
        with mp.workprec(prec + 64):
            for value, ref in zip(pair, (mp.zeta(s - 1), mp.zeta(s))):
                assert isinstance(value, type(s))
                assert abs(value - ref) <= mpf(2) ** -prec * abs(ref), (s, value, ref)


@pytest.mark.parametrize("s", [2, mpf(2), mpc(2, 0), 1, mpc(1, 0)])
def test_zeta_pair_poles(s):
    with pytest.raises(PoleError, match="zeta pole at s = 1"):
        zeta_pair(s, P)


def test_zeta_prime_minus1():
    # wrapper check, not an oracle: both sides are mpmath's
    with mp.workprec(P + 16):
        ref = mp.zeta(-1, derivative=1)
    assert abs(zeta_prime_minus1(P) - ref) < REL_TOL


def test_hurwitz_trivial_and_recurrence():
    with mp.workprec(P + 8):
        assert abs(hurwitz_zeta(2, 1, P) - mp.pi**2 / 6) < REL_TOL
        s, z = mpf(3), mpf("1.7")
        resid = hurwitz_zeta(s, z, P) - hurwitz_zeta(s, z + 1, P) - z ** (-s)
        assert abs(resid) < REL_TOL
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 2, P)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, -3, P)


def test_hurwitz_telescoping():
    with mp.workprec(P + 16):
        s, z = mpc(3, 1), mpc("1.7", "0.3")
        for n_shift in (1, 7, 20):
            tele = hurwitz_zeta(s, z, P) - hurwitz_zeta(s, z + n_shift, P)
            direct = mp.fsum((z + k) ** (-s) for k in range(n_shift))
            assert abs(tele - direct) < mpf(2) ** (20 - P)


def test_hurwitz_ds0_lerch():
    with mp.workprec(P + 16):
        assert abs(mp.zeta(0, 2, derivative=1) + mp.log(2 * mp.pi) / 2) < mpf(10) ** -60
        for z in (mpf("0.7"), mpf(3), mpf("5.25")):
            lerch = log_gamma(z, P) - mp.log(2 * mp.pi) / 2
            assert abs(mp.zeta(0, z, derivative=1) - lerch) < mpf(10) ** -60


def test_branch_is_continuation_from_positive_axis():
    # not the principal logs: Im grows along the vertical line Re z = 3
    z = mpc(3, 50)
    assert abs(log_gamma(z, P).imag - mpf("149.4664983780")) < mpf(10) ** -9
    assert abs(log_barnes_g(z, P).imag - mpf("-1623.3588190424")) < mpf(10) ** -9


@pytest.mark.parametrize(
    "fn,arg",
    [
        (log_gamma, mpc("3.3", "1.1")),
        (log_barnes_g, mpf("7.5")),
        (riemann_zeta, mpc("0.4", "3")),
        (hurwitz_zeta_ds0, mpf("1.3")),
        (riemann_zeta, mpc(3, 50)),
    ],
)
def test_precision_doubling(fn, arg):
    a = fn(arg, P)
    b = fn(arg, 2 * P)
    assert abs(a - b) <= REL_TOL * (1 + abs(b))


def test_hurwitz_precision_doubling():
    a = hurwitz_zeta(mpc(3, 1), mpc("1.7", "0.3"), P)
    b = hurwitz_zeta(mpc(3, 1), mpc("1.7", "0.3"), 2 * P)
    assert abs(a - b) <= REL_TOL * (1 + abs(b))
