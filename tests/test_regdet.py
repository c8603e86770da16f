import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from superzeta_oracles import SuperzetaInput, superzeta_direct, voros_product
from szdet.elliptic import m_n_floor
from szdet.errors import (
    BranchError,
    ConvergenceError,
    ProviderDomainError,
    SignatureError,
    SingularityError,
)
from szdet.gfuncs import ExpansionCoefficients, log_g1
from szdet.numerics import hurwitz_zeta, log_gamma
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
)
from szdet import regdet
from szdet.regdet import (
    EulerProductProvider,
    SurfaceContext,
    d_minus,
    d_plus,
    det_squared,
    functional_symmetry_residual,
    phi_from_superzeta,
    superzeta_at_zero,
    superzeta_zero_poly,
    z_minus,
    z_plus,
)
from szdet.zetas import (
    GenericScattering,
    ModularGeodesicSource,
    ModularScattering,
    ValueWithTail,
    selberg_log_z,
)

P = 256


def _generic_ctx(seed: int, cutoff=800) -> SurfaceContext:
    rng = random.Random(seed)
    with mp.workprec(P + 16):
        terms = tuple(
            (mpf(1) + i + mpf(rng.randint(1, 3)) / 4, mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for i in range(1, rng.randint(1, 4))
        )
        model = GenericScattering(
            k=1, c1=mpf(rng.uniform(-2, 2)), c2=mpf(rng.uniform(-1, 1)), terms=terms
        )
    return SurfaceContext(
        modular_orbifold(), ModularGeodesicSource(), model, prec=P, cutoff_norm=cutoff
    )


def test_context_rejects_mismatched_degree():
    sig = modular_signature()
    with pytest.raises(SignatureError):
        SurfaceContext(
            OrbifoldData(sig, trivial_rep(sig)),
            ModularGeodesicSource(),
            GenericScattering(k=3),
            prec=128,
        )


def test_context_rejects_mismatched_source_dimension():
    # a dim-1 source under a 2-dimensional representation used to give
    # det^2(3) = 817.32 against 809.61 from the matching source, unrefused
    orb = modular_orbifold(2)
    with pytest.raises(SignatureError, match="dimension"):
        SurfaceContext(orb, ModularGeodesicSource(dim=1), GenericScattering(k=2),
                       prec=64, cutoff_norm=100)
    ctx = SurfaceContext(orb, ModularGeodesicSource(dim=2), GenericScattering(k=2),
                         prec=64, cutoff_norm=100)
    assert ctx.source.dim == ctx.orb.dim == 2


def test_z_plus_asymptotic_regime(modular_ctx):
    # at Re z = 12 the Euler product is ~1, so Z+ = 1/(G1 Gamma^k) to 1e-6
    with mp.workprec(P + 16):
        z = mpf(12)
        val = z_plus(modular_ctx, z)
        approx = mp.exp(-log_g1(modular_ctx.orb, z, P) - log_gamma(z - mpf(1) / 2, P))
        assert abs(val - approx) / abs(val) < mpf(10) ** -6


def test_z_minus_is_z_plus_times_phi(modular_ctx):
    rng = random.Random(41)
    with mp.workprec(P + 16):
        for _ in range(5):
            z = mpc(1.5 + 3 * rng.random(), -2 + 4 * rng.random())
            lhs = z_minus(modular_ctx, z)
            rhs = z_plus(modular_ctx, z) * modular_ctx.scattering.phi(z, P)
            assert abs(lhs - rhs) < mpf(2) ** (8 - P) * abs(lhs)


def test_z_plus_requires_euler_domain(modular_ctx):
    with pytest.raises(ConvergenceError):
        z_plus(modular_ctx, mpf("0.7"))


def test_det_squared_two_paths(modular_ctx):
    rng = random.Random(47)
    with mp.workprec(P + 16):
        pts = [mpf(3), mpc(4, 1), mpc("2.5", "-0.7")] + [
            mpc(1.5 + 4.5 * rng.random(), -3 + 6 * rng.random()) for _ in range(7)
        ]
        for z in pts:
            ds = det_squared(modular_ctx, z)
            dd = d_plus(modular_ctx, z) * d_minus(modular_ctx, z)
            assert abs(ds - dd) / abs(ds) < mpf(2) ** (-P // 2)


def test_det_squared_generic_contexts():
    for seed in (1, 2, 3):
        ctx = _generic_ctx(seed)
        rng = random.Random(100 + seed)
        with mp.workprec(P + 16):
            for _ in range(4):
                z = mpc(1.6 + 4 * rng.random(), -2 + 4 * rng.random())
                ds = det_squared(ctx, z)
                dd = d_plus(ctx, z) * d_minus(ctx, z)
                assert abs(ds - dd) / abs(ds) < mpf(2) ** (-P // 2)
                pr = phi_from_superzeta(ctx, z)
                ph = ctx.scattering.phi(z, P)
                assert abs(pr - ph) / abs(ph) < mpf(2) ** (-P // 2)


def test_k0_regular_context():
    # a regular representation (k = 0) with the trivial-series model: phi = 1,
    # Z+ = Z/G1, det^2 = exp(2 b1 z + 2 b0) (Z/G1)^2
    sig = modular_signature()
    rep = RepresentationData(1, ((0,), (0,)), (CuspData(0, (Fraction(1, 3),)),))
    orb = OrbifoldData(sig, rep)
    ctx = SurfaceContext(
        orb, ModularGeodesicSource(), GenericScattering(k=0), prec=P, cutoff_norm=500
    )
    with mp.workprec(P + 16):
        z = mpc("2.5", "0.5")
        assert abs(ctx.scattering.phi(z, P) - 1) < mpf(2) ** (8 - P)
        lz = ctx.log_z(z).value
        expect_zp = mp.exp(lz - log_g1(orb, z, P))
        assert abs(z_plus(ctx, z) - expect_zp) < mpf(2) ** (8 - P) * abs(expect_zp)
        expect_det = mp.exp(2 * ctx.coeffs.b1 * z + 2 * ctx.coeffs.b0) * expect_zp**2
        assert abs(det_squared(ctx, z) - expect_det) < mpf(2) ** (-P // 2) * abs(expect_det)


def test_det_squared_cutoff_independence(modular_ctx):
    # log det^2 - 2 log Z does not depend on the geodesic cutoff
    orb = modular_orbifold()
    with mp.workprec(P + 16):
        z = mpf(3)
        vals = []
        for cutoff in (300, 2000):
            ctx = SurfaceContext(
                orb, ModularGeodesicSource(), ModularScattering(), prec=P,
                cutoff_norm=cutoff,
            )
            lz = ctx.log_z(z).value
            vals.append(mp.log(det_squared(ctx, z)) - 2 * lz)
        assert abs(vals[0] - vals[1]) < mpf(2) ** (16 - P)


def test_phi_recovery(modular_ctx):
    with mp.workprec(P + 16):
        from szdet.numerics import riemann_zeta

        target = 45 * riemann_zeta(3, P) / mp.pi**3
        assert abs(phi_from_superzeta(modular_ctx, 2) - target) < mpf(10) ** -20
        for z in (mpc(3, 2), mpc("1.8", "-1.1")):
            a = phi_from_superzeta(modular_ctx, z)
            b = modular_ctx.scattering.phi(z, P)
            assert abs(a - b) / abs(b) < mpf(2) ** (-P // 2)


def test_superzeta_zero_polynomials(modular_ctx):
    pp = superzeta_zero_poly(modular_ctx, +1)
    pm = superzeta_zero_poly(modular_ctx, -1)
    assert pp == (Fraction(-1, 6), Fraction(-5, 6), Fraction(59, 36))
    assert pm == (Fraction(-1, 6), Fraction(-5, 6), Fraction(41, 36))
    assert pp[2] - pm[2] == Fraction(1, 2)  # k/2 exactly
    with mp.workprec(P + 8):
        z = mpc("0.4", "1.7")
        v = superzeta_at_zero(modular_ctx, z, +1)
        expect = -z * z / 6 - 5 * z / 6 + mpf(59) / 36
        assert abs(v - expect) < mpf(2) ** (8 - P)


def test_superzeta_z2_coefficient_is_the_growth_of_m_n(orbifold_pool):
    # m_(n+L) - m_n = 2L h vol/2pi, L the lcm of the elliptic orders, gives
    # c2 = -h vol/2pi from the floor count rather than from a2~
    for orb in orbifold_pool:
        ctx = SurfaceContext(orb, ModularGeodesicSource(dim=orb.dim),
                             GenericScattering(degree_of_singularity(orb.rep)), prec=64)
        period = math.lcm(*orb.signature.elliptic_orders)
        for n in range(0, 51, 10):
            c2 = -Fraction(m_n_floor(orb, n + period) - m_n_floor(orb, n), 2 * period)
            assert superzeta_zero_poly(ctx, +1)[0] == superzeta_zero_poly(ctx, -1)[0] == c2


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_superzeta_zero_poly_refuses_other_signs(modular_ctx, sign):
    with pytest.raises(ValueError, match="sign must be"):
        superzeta_zero_poly(modular_ctx, sign)


def test_superzeta_zero_no_elliptic():
    sig = Signature(1, 1)
    ctx = SurfaceContext(
        OrbifoldData(sig, trivial_rep(sig)), ModularGeodesicSource(),
        ModularScattering(), prec=128, cutoff_norm=100,
    )
    # -z^2 - 0 z - 1/3 + 1/2 = -z^2 + 1/6 for the minus sign
    assert superzeta_zero_poly(ctx, -1) == (Fraction(-1), Fraction(0), Fraction(1, 6))


def test_superzeta_direct_hurwitz_oracle():
    coeffs = _gamma_toy_coeffs()
    inp = SuperzetaInput(
        zeros=tuple(-k for k in range(400)), coeffs=coeffs,
        evaluator=lambda w, p: mp.exp(-log_gamma(w, p)),
    )
    with mp.workprec(P + 16):
        for (s, z) in ((3, mpf("1.5")), (mpc(3, 1), mpf("2.5")), (4, mpf("0.7"))):
            got = superzeta_direct(inp, s, z, prec=P)
            want = hurwitz_zeta(s, z, P)
            assert abs(got.value - want) < got.tail_bound
    with pytest.raises(ConvergenceError):
        superzeta_direct(inp, 2, mpf("1.5"), prec=P)
    with pytest.raises(BranchError):
        superzeta_direct(inp, 3, mpf(-4), prec=P)


def test_superzeta_direct_empty():
    inp = SuperzetaInput(zeros=(), coeffs=_gamma_toy_coeffs(), evaluator=None)
    got = superzeta_direct(inp, 3, mpf(2), prec=128)
    assert got.value == 0 and got.tail_bound == 0


def _gamma_toy_coeffs() -> ExpansionCoefficients:
    with mp.workprec(P + 16):
        return ExpansionCoefficients(
            a2t=Fraction(0), a1t=Fraction(-1), b1=mpf(0),
            a0t=Fraction(1, 2), b0=-mp.log(2 * mp.pi) / 2,
        )


def test_voros_product_toy():
    inp = SuperzetaInput(
        zeros=tuple(-k for k in range(400)), coeffs=_gamma_toy_coeffs(),
        evaluator=lambda w, p: mp.exp(-log_gamma(w, p)),
    )
    with mp.workprec(P + 16):
        rng = random.Random(5)
        for _ in range(8):
            z = mpf("0.5") + mpf("4.5") * mpf(rng.random())
            v = voros_product(inp, z, P)
            lerch = mp.sqrt(2 * mp.pi) * mp.exp(-log_gamma(z, P))
            via_ds0 = mp.exp(-mp.zeta(0, z, derivative=1))
            assert abs(v - lerch) < mpf(10) ** -50
            assert abs(v - via_ds0) < mpf(10) ** -50
        # empty zero list: D = exp(-b0) Delta_f
        empty = SuperzetaInput(zeros=(), coeffs=_gamma_toy_coeffs(),
                               evaluator=lambda w, p: mp.mpf(2))
        assert abs(voros_product(empty, mpf(1), P)
                   - 2 * mp.exp(mp.log(2 * mp.pi) / 2)) < mpf(2) ** (8 - P)


def test_provider_refusal(modular_ctx):
    prov = EulerProductProvider(modular_ctx)
    with pytest.raises(ProviderDomainError):
        functional_symmetry_residual(modular_ctx, mpf(3), prov)
    with pytest.raises(ProviderDomainError):
        prov.log_selberg_z(mpf("0.2"), P)


class _SyntheticSymmetricProvider:
    """Closes the symmetry identity around a hand-chosen even function."""

    def __init__(self, ctx, z_points):
        self.ctx = ctx
        self.domain = set()
        for z in z_points:
            self.domain.add(z)
            self.domain.add(1 - z)

    def _even(self, w):
        u = (w - mpf(1) / 2) ** 2
        return mpf("0.3") * u + mpf("1.7")

    def log_selberg_z(self, w, prec):
        if w not in self.domain:
            raise ProviderDomainError(f"synthetic provider has no data at {w}")
        ctx = self.ctx
        _, c1, c2 = ctx.constants
        with mp.workprec(prec + 16):
            tau = (2 * ctx.coeffs.b1 - c1
                   + 2 * mp.log(a_chi(ctx.orb.rep, prec)))
            target = self._even(w)
            assembled = ((2 * ctx.coeffs.b1 - c1) * w + 2 * ctx.coeffs.b0
                         + mp.mpf(ctx.k) / 2 * mp.log(4 * mp.pi) - c2)
            rest = -log_g1(ctx.orb, w, prec) - ctx.k * log_gamma(w - mpf(1) / 2, prec)
            log_phi = mp.log(ctx.scattering.phi(w, prec))
            return (target + tau * w - assembled - log_phi) / 2 - rest


def test_synthetic_symmetric_provider(modular_ctx):
    with mp.workprec(P + 16):
        for z in (mpc("0.3", "2"), mpc("1.4", "-0.8")):
            prov = _SyntheticSymmetricProvider(modular_ctx, [z])
            r = functional_symmetry_residual(modular_ctx, z, prov)
            assert abs(r) < mpf(2) ** (-P // 2)


class _ZeroProvider:
    def log_selberg_z(self, w, prec):
        return mp.mpf(0)


def test_symmetry_residual_at_real_z_meets_the_cut(modular_ctx):
    # 1 - z lies on the cut of log G1, whatever the provider supplies there
    with pytest.raises(BranchError):
        functional_symmetry_residual(modular_ctx, mpf("3.5"), _ZeroProvider())
    with pytest.raises(SingularityError):
        functional_symmetry_residual(modular_ctx, mpf(3), _ZeroProvider())


def _small_modular_ctx():
    return SurfaceContext(
        modular_orbifold(), ModularGeodesicSource(), ModularScattering(),
        prec=64, cutoff_norm=100,
    )


def test_each_value_evaluated_once_per_point(call_counts, monkeypatch):
    log_z_calls = []

    def counted(*args):
        log_z_calls.append(args[1])
        return selberg_log_z(*args)

    monkeypatch.setattr(regdet, "selberg_log_z", counted)
    ctx = _small_modular_ctx()
    z = mpc("2.5", "1")
    det_squared(ctx, z)
    d_plus(ctx, z)
    d_minus(ctx, z)
    phi_from_superzeta(ctx, z)
    ctx.log_z(z)
    assert call_counts == {"log_g1": 1, "phi": 1}
    assert log_z_calls == [z]


def test_point_memo_keeps_the_last_point(monkeypatch):
    # the evaluations are stubbed: only the memo's bookkeeping is under test
    evaluated = []

    def log_z(source, z, cutoff, prec):
        evaluated.append(z)
        return ValueWithTail(mpf(0), mpf(0))

    monkeypatch.setattr(regdet, "selberg_log_z", log_z)
    monkeypatch.setattr(regdet, "log_g1", lambda orb, w, prec: mpf(0))
    monkeypatch.setattr(regdet, "log_gamma", lambda w, prec: mpf(0))
    monkeypatch.setattr(ModularScattering, "phi", lambda self, s, prec: mpf(1))
    ctx = _small_modular_ctx()
    first, second = mpc(2, 1), mpc("2.5", 1)
    kept = ctx.point(first)
    assert ctx.point(first) is kept and ctx.point(mpf(2) + 1j) is kept
    assert ctx.point(second).z == second  # a new point replaces the last
    assert ctx.point(first) is not kept  # and the old one is evaluated again
    assert evaluated == [first, second, first]


def test_failed_evaluation_keeps_the_last_point_and_records(monkeypatch):
    ctx = _small_modular_ctx()
    kept = ctx.point(mpc(3, 1))
    records = ctx.source._terms[(10, 64)]
    with pytest.raises(ConvergenceError):
        ctx.point(mpc("0.5", 1))  # refused before the records are read

    def refuse(self, s, prec):
        raise ProviderDomainError("phi refused")

    monkeypatch.setattr(ModularScattering, "phi", refuse)
    with pytest.raises(ProviderDomainError):
        ctx.point(mpc(2, 1))  # refused after log Z read the records
    assert ctx.point(mpc(3, 1)) is kept
    assert list(ctx.source._terms) == [(10, 64)]
    assert ctx.source._terms[(10, 64)] is records


def test_d_plus_continuous_on_vertical_line():
    # G1 carries the power h vol / 2pi = 1/6 of Barnes G; a slip in the branch
    # of that power would move a second difference of log D+ by about 1.
    ctx = _small_modular_ctx()
    with mp.workprec(64):
        values = [d_plus(ctx, mpc(2, mpf(j) / 16)) for j in range(12 * 16 + 1)]
        steps = [mp.log(b / a) for a, b in zip(values, values[1:])]
        worst = max(abs(b - a) for a, b in zip(steps, steps[1:]))
    assert worst < 0.1
