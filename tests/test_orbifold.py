import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from szdet.errors import SignatureError
from szdet.orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    Signature,
    a_chi,
    degree_of_singularity,
    modular_orbifold,
    modular_signature,
    trivial_rep,
    vol_over_2pi,
    volume,
)

P = 192


@pytest.mark.parametrize(
    "sig,expect",
    [
        (Signature(0, 1, (2, 3)), Fraction(1, 6)),
        (Signature(1, 1), Fraction(1)),
        (Signature(0, 3, (7,)), Fraction(13, 7)),
    ],
)
def test_volume_examples(sig, expect):
    assert vol_over_2pi(sig) == expect
    with mp.workprec(P + 8):
        assert abs(volume(sig, P) - 2 * mp.pi * mpf(expect.numerator)
                   / expect.denominator) < mpf(2) ** (8 - P)


def test_volume_rejects_nonhyperbolic():
    with pytest.raises(SignatureError):
        vol_over_2pi(Signature(0, 1))  # 2 pi (-1) < 0
    with pytest.raises(SignatureError):
        vol_over_2pi(Signature(0, 2))  # zero volume


@given(
    st.integers(0, 5), st.integers(1, 5),
    st.lists(st.integers(2, 12), max_size=4),
)
def test_volume_monotone(g, c, orders):
    try:
        base = vol_over_2pi(Signature(g, c, tuple(orders)))
    except SignatureError:
        return
    assert vol_over_2pi(Signature(g + 1, c, tuple(orders))) > base
    assert vol_over_2pi(Signature(g, c + 1, tuple(orders))) > base
    if orders:
        bumped = tuple([orders[0] + 1] + orders[1:])
        assert vol_over_2pi(Signature(g, c, bumped)) > base


def test_degree_of_singularity():
    assert degree_of_singularity(trivial_rep(modular_signature())) == 1
    regular = RepresentationData(1, cusp_data=(CuspData(0, (0.5,)),))
    assert degree_of_singularity(regular) == 0
    mixed = RepresentationData(
        2, cusp_data=(CuspData(1, (0.5,)), CuspData(2)))
    assert degree_of_singularity(mixed) == 3


def test_a_chi_values():
    with mp.workprec(P + 8):
        orb = modular_orbifold()
        assert abs(a_chi(orb.rep, P) - mpf(1) / 2) < mpf(2) ** (8 - P)
        # direct evaluation: (2^1 sin(pi/2))^-1 = 1/2 for k=0, beta=1/2
        half = RepresentationData(1, cusp_data=(CuspData(0, (0.5,)),))
        assert abs(a_chi(half, P) - mpf(1) / 2) < mpf(2) ** (8 - P)
        two = RepresentationData(1, cusp_data=(CuspData(1), CuspData(1)))
        assert abs(a_chi(two, P) - mpf(1) / 4) < mpf(2) ** (8 - P)


def test_a_chi_regular_all_half_angles():
    # all beta = 1/2 forces a(chi) = 2^-(h c): each sine factor is 1
    for h, c in ((1, 1), (2, 2), (3, 1)):
        rep = RepresentationData(
            h, cusp_data=tuple(CuspData(0, (0.5,) * h) for _ in range(c)))
        with mp.workprec(P + 8):
            assert abs(a_chi(rep, P) - mpf(2) ** (-h * c)) < mpf(2) ** (8 - P)


def test_a_chi_positive(orbifold_pool):
    for orb in orbifold_pool[:20]:
        assert a_chi(orb.rep, 64) > 0


def test_degree_bound(orbifold_pool):
    for orb in orbifold_pool:
        assert 0 <= degree_of_singularity(orb.rep) <= orb.dim * orb.signature.cusps


def test_eager_validation():
    sig = modular_signature()
    with pytest.raises(SignatureError):
        OrbifoldData(sig, RepresentationData(1, ((0,),), (CuspData(1),)))
    with pytest.raises(SignatureError):
        OrbifoldData(sig, RepresentationData(1, ((0,), (5,)), (CuspData(1),)))
    with pytest.raises(SignatureError):
        RepresentationData(1, cusp_data=(CuspData(0, (1.5,)),))
    with pytest.raises(SignatureError):
        RepresentationData(1, cusp_data=(CuspData(2),))
    with pytest.raises(SignatureError):
        Signature(0, 0, (2,))
    with pytest.raises(SignatureError):
        Signature(0, 1, (1,))


@pytest.mark.parametrize("build, match", [
    (lambda: Signature(-1, 1), "genus must be nonnegative"),
    (lambda: RepresentationData(0, cusp_data=()), "dimension must be positive"),
    (lambda: RepresentationData(2, cusp_data=(CuspData(0, (0.5,)),)),
     "exactly h - k_j angles"),
    (lambda: OrbifoldData(modular_signature(),
                          RepresentationData(2, ((0,), (0, 0)), (CuspData(2),))),
     "must have length h = 2"),
    (lambda: OrbifoldData(modular_signature(), RepresentationData(1, ((0,), (0,)), ())),
     "need one CuspData per cusp"),
])
def test_invalid_data_is_refused(build, match):
    with pytest.raises(SignatureError, match=match):
        build()
