"""Acceptance suite: one test per criterion, at the criterion's tolerance.

Each test prints a [PASS] line on success (visible under pytest -s / -v via
the test name); tolerances are pinned here, not configurable.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from g1_oracles import (
    log_g1_asymptotic,
    order_at,
    order_g_qd_at,
    order_tilde_g1_at,
)
from superzeta_oracles import SuperzetaInput, voros_product
from szdet.elliptic import (
    g_count,
    m_n_floor,
    m_n_spectral,
    trig_sum_brute,
    trig_sum_closed,
)
from szdet.errors import ProviderDomainError
from szdet.gfuncs import g1_coefficients, log_g1
from szdet.numerics import (
    frac_to_mpf,
    log_barnes_g,
    log_gamma,
    riemann_zeta,
)
from szdet.orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    modular_orbifold,
    modular_signature,
)
from szdet.oracles import (
    b0_candidates,
    count_multiples,
    matrix_class_counts,
    necklace_counts_by_trace,
)
from szdet.regdet import (
    EulerProductProvider,
    SurfaceContext,
    d_minus,
    d_plus,
    det_squared,
    functional_symmetry_residual,
    phi_from_superzeta,
    superzeta_zero_poly,
)
from szdet.verify import random_orbifold
from szdet.zetas import (
    GenericScattering,
    ModularGeodesicSource,
    ModularScattering,
    norm_of_trace,
    selberg_log_z,
)

P = 256


def _passed(msg):
    print(f"[PASS] {msg}")


def test_c01_dual_multiplicity_formulas():
    tol = 10 * mpf(2) ** -128
    rng = random.Random(20250811)
    worst = mpf(0)
    for _ in range(500):
        orb = random_orbifold(rng)
        for n in range(0, 101):
            d = abs(m_n_spectral(orb, n, 160) - m_n_floor(orb, n))
            worst = max(worst, d)
            assert d <= tol
    # exhaustive over the modular signature's exponent choices, n <= 400
    sig = modular_signature()
    for q2 in range(2):
        for q3 in range(3):
            rep = RepresentationData(1, ((q2,), (q3,)), (CuspData(1),))
            orb = OrbifoldData(sig, rep)
            for n in range(0, 401):
                d = abs(m_n_spectral(orb, n, 160) - m_n_floor(orb, n))
                worst = max(worst, d)
                assert d <= tol
    _passed(f"criterion 1: dual multiplicity formulas agree (worst {mp.nstr(worst, 3)})")


def test_c02_root_of_unity_sine_sum():
    tol = mpf(2) ** -128
    worst = mpf(0)
    for d in range(2, 31):
        for q in range(d):
            for n in range(0, 101):
                v = trig_sum_brute(n, q, d, 160)
                worst = max(worst, abs(v.real - trig_sum_closed(n, q, d)), abs(v.imag))
                assert abs(v.real - trig_sum_closed(n, q, d)) < tol
                assert abs(v.imag) < tol
    _passed(f"criterion 2: sine-sum closed form, d <= 30 (worst {mp.nstr(worst, 3)})")


def test_c03_floor_count_lemma():
    for d in range(2, 21):
        for q in range(d):
            for n in range(0, 401):
                assert count_multiples(n, q, d) == g_count(n, q, d)
    _passed("criterion 3: floor-count lemma exhaustive, d <= 20, n <= 400")


def test_c04_divisor_consistency(orbifold_pool):
    for orb in orbifold_pool[:20]:
        for n in range(0, 51):
            m = m_n_floor(orb, n)
            assert order_at(orb, n) == m
            assert order_tilde_g1_at(n, orb) == m
    for d in range(2, 13):
        for q in range(d):
            for n in range(0, 51):
                assert order_g_qd_at(n, q, d) == g_count(n, q, d)
    _passed("criterion 4: gamma-factor divisors match multiplicities exactly")


def test_c05_special_function_identities():
    rng = random.Random(13)
    tol = mpf(2) ** (20 - P)
    with mp.workprec(P + 16):
        for _ in range(100):
            z = mpc(0.1 + 49.9 * rng.random(), -50 + 100 * rng.random())
            scale_g = max(1, abs(log_gamma(z, P)))
            assert abs(log_gamma(z + 1, P) - mp.log(z) - log_gamma(z, P)) < tol * scale_g
            scale_b = max(1, abs(log_barnes_g(z, P)))
            assert (
                abs(log_barnes_g(z + 1, P) - log_gamma(z, P) - log_barnes_g(z, P))
                < tol * scale_b
            )
            lhs = log_gamma(z, P) + log_gamma(z + mpf(1) / 2, P)
            rhs = (1 - 2 * z) * mp.log(2) + mp.log(mp.pi) / 2 + log_gamma(2 * z, P)
            assert abs(mp.exp(lhs - rhs) - 1) < tol
        for fn, arg in (
            (log_gamma, mpc("3.3", "1.1")),
            (log_barnes_g, mpf("7.5")),
            (riemann_zeta, mpc("0.4", "3")),
        ):
            a, b = fn(arg, P), fn(arg, 2 * P)
            assert abs(a - b) <= mpf(2) ** (16 - P) * (1 + abs(b))
    _passed("criterion 5: Gamma/Barnes recursions, duplication, doubling stability")


def test_c06_voros_lerch_oracle():
    with mp.workprec(P + 16):
        coeffs = __import__("szdet.gfuncs", fromlist=["ExpansionCoefficients"]).ExpansionCoefficients(
            a2t=Fraction(0), a1t=Fraction(-1), b1=mpf(0),
            a0t=Fraction(1, 2), b0=-mp.log(2 * mp.pi) / 2,
        )
    inp = SuperzetaInput(
        zeros=tuple(-k for k in range(400)), coeffs=coeffs,
        evaluator=lambda w, p: mp.exp(-log_gamma(w, p)),
    )
    tol = mpf(10) ** -50
    worst = mpf(0)
    with mp.workprec(P + 16):
        for i in range(20):
            z = mpf(1) / 2 + mpf(45) / 10 * mpf(i) / 19
            v = voros_product(inp, z, P)
            lerch = mp.sqrt(2 * mp.pi) * mp.exp(-log_gamma(z, P))
            via_ds0 = mp.exp(-mp.zeta(0, z, derivative=1))
            worst = max(worst, abs(v - lerch), abs(v - via_ds0))
            assert abs(v - lerch) < tol
            assert abs(v - via_ds0) < tol
    _passed(f"criterion 6: Voros product matches both oracles (worst {mp.nstr(worst, 3)})")


def test_c07_g1_asymptotic_expansion(orbifold_pool):
    rng = random.Random(77)
    with mp.workprec(P + 16):
        for orb in orbifold_pool[:10]:
            e50 = abs(log_g1(orb, mpf(50), P) - log_g1_asymptotic(orb, mpf(50), P))
            e100 = abs(log_g1(orb, mpf(100), P) - log_g1_asymptotic(orb, mpf(100), P))
            assert e50 > 0
            ratio = e100 / e50
            assert mpf("0.3") < ratio < mpf("0.7")
        # b0 sign resolution by the constant-term fit at s = 400 (Richardson
        # through 800 and 1600), for elliptic-rich orbifolds
        fitted = 0
        for orb in [modular_orbifold()] + orbifold_pool[:12]:
            if not orb.signature.elliptic_orders:
                continue
            adopted, rejected = b0_candidates(orb, P)
            c = g1_coefficients(orb, P)

            def fit_point(s):
                z = mpf(s)
                lg = mp.log(z)
                nonconst = (
                    frac_to_mpf(c.a2t) * z * z * (lg - mpf(3) / 2)
                    + frac_to_mpf(c.a1t) * z * (lg - 1)
                    + c.b1 * z
                    + frac_to_mpf(c.a0t) * lg
                )
                return log_g1(orb, z, P + 32) - nonconst

            f = [fit_point(s) for s in (400, 800, 1600)]
            r1 = [2 * f[i + 1] - f[i] for i in range(2)]
            fit = (4 * r1[1] - r1[0]) / 3
            assert abs(fit - adopted) < mpf(10) ** -6
            assert abs(fit - rejected) > abs(adopted - rejected) / 2
            fitted += 1
            if fitted >= 3:
                break
        assert fitted >= 3
    _passed("criterion 7: log G1 expansion decays O(1/s); b0 sign resolved by fit")


def test_c08_modular_scattering():
    model = ModularScattering()
    rng = random.Random(29)
    tol = mpf(10) ** -25
    worst = mpf(0)
    with mp.workprec(P + 16):
        for _ in range(50):
            s = mpc(0.1 + 1.9 * rng.random(), -5 + 10 * rng.random())
            r = abs(model.phi(s, P) * model.phi(1 - s, P) - 1)
            worst = max(worst, r)
            assert r < tol
        target = 45 * riemann_zeta(3, P) / mp.pi**3
        assert abs(model.phi(2, P) - target) < tol
    _passed(f"criterion 8: modular phi functional equation (worst {mp.nstr(worst, 3)})")


def test_c09_geodesic_enumeration_and_decay():
    word_counts = necklace_counts_by_trace(12)
    mat_counts = matrix_class_counts(12, 60)
    for t in range(3, 13):
        assert word_counts.get(t, 0) == mat_counts.get(t, 0)
    src = ModularGeodesicSource()
    with mp.workprec(P + 16):
        vals = [abs(selberg_log_z(src, mpf(s), 3000, P).value) for s in (4, 6, 8)]
        ratios = [vals[i] / vals[i + 1] for i in range(2)]
        alpha = mp.sqrt(norm_of_trace(3, P))
        # geometric decay, at least as fast as the alpha^-Re(s) bound
        assert ratios[0] / 2 < ratios[1] < ratios[0] * 2
        assert all(r > alpha**2 for r in ratios)
    _passed("criterion 9: enumeration matches matrix oracle; log Z decays geometrically")


def _generic_ctx(seed: int) -> SurfaceContext:
    rng = random.Random(seed)
    with mp.workprec(P + 16):
        terms = tuple(
            (mpf(1) + i + mpf(rng.randint(1, 3)) / 4,
             mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for i in range(1, rng.randint(2, 4))
        )
        model = GenericScattering(
            k=1, c1=mpf(rng.uniform(-2, 2)), c2=mpf(rng.uniform(-1, 1)), terms=terms
        )
    return SurfaceContext(
        modular_orbifold(), ModularGeodesicSource(), model, prec=P, cutoff_norm=800
    )


def test_c10_determinant_identities(modular_ctx):
    rng = random.Random(59)
    tol = mpf(2) ** (-P // 2)
    contexts = [modular_ctx] + [_generic_ctx(s) for s in (101, 202, 303)]
    with mp.workprec(P + 16):
        for ctx in contexts:
            for _ in range(20):
                z = mpc(1.5 + 4.5 * rng.random(), -3 + 6 * rng.random())
                ds = det_squared(ctx, z)
                assert abs(ds - d_plus(ctx, z) * d_minus(ctx, z)) / abs(ds) < tol
                pr = phi_from_superzeta(ctx, z)
                ph = ctx.scattering.phi(z, P)
                assert abs(pr - ph) / abs(ph) < tol
            pp = superzeta_zero_poly(ctx, +1)
            pm = superzeta_zero_poly(ctx, -1)
            assert pp[0] == pm[0] == -ctx.orb.dim * Fraction(1, 6)
            assert pp[1] == pm[1]
            assert pp[2] - pm[2] == Fraction(ctx.k, 2)
    _passed("criterion 10: det^2 = D+ D-, phi recovery, superzeta polynomial identities")


def test_c11_z_plus_asymptotics(modular_ctx):
    k = modular_ctx.k
    c = modular_ctx.coeffs
    orb = modular_ctx.orb
    src = ModularGeodesicSource()
    with mp.workprec(P + 32):
        def log_zplus(s):
            z = mpf(s)
            lz = selberg_log_z(src, z, 400, P + 32).value
            return lz - log_g1(orb, z, P + 32) - k * log_gamma(z - mpf(1) / 2, P + 32)

        def nonconst(s):
            z = mpf(s)
            lg = mp.log(z)
            return (
                -frac_to_mpf(c.a2t) * z * z * (lg - mpf(3) / 2)
                - (frac_to_mpf(c.a1t) + k) * z * (lg - 1)
                - c.b1 * z
                + (k - frac_to_mpf(c.a0t)) * lg
            )

        # O(1/z)-consistent decay of the remainder at Re z in {40, 80}
        target = -c.b0 - mpf(k) / 2 * mp.log(2 * mp.pi)
        e40 = abs(log_zplus(40) - nonconst(40) - target)
        e80 = abs(log_zplus(80) - nonconst(80) - target)
        assert mpf("0.3") < e80 / e40 < mpf("0.7")
        # constant-term fit at Re z = 400
        f = [log_zplus(s) - nonconst(s) for s in (400, 800, 1600)]
        r1 = [2 * f[i + 1] - f[i] for i in range(2)]
        fit = (4 * r1[1] - r1[0]) / 3
        assert abs(fit - target) < mpf(10) ** -6
    _passed("criterion 11: log Z+ constant term equals -b0 - (k/2) log 2pi")


def test_c12_out_of_scope_honesty(modular_ctx):
    # the checker must refuse the Euler-product-only provider outright
    with pytest.raises(ProviderDomainError):
        functional_symmetry_residual(
            modular_ctx, mpf(3), EulerProductProvider(modular_ctx)
        )
    # and return zero residual on a synthetic symmetric provider
    from test_regdet import _SyntheticSymmetricProvider

    with mp.workprec(P + 16):
        z = mpc("0.3", "2")
        prov = _SyntheticSymmetricProvider(modular_ctx, [z])
        r = functional_symmetry_residual(modular_ctx, z, prov)
        assert abs(r) < mpf(2) ** (-P // 2)
    _passed("criterion 12: symmetry checker refuses uncontinued data, passes synthetic")
