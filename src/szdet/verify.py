"""Named invariant suites, runnable from the CLI (szdet verify <suite>).

Each suite returns a list of CheckResult; a suite passes when every check
does.  These are quick self-checks at reduced scale; the full-scale
acceptance runs live in the pytest suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from . import elliptic, numerics, oracles, orbifold, regdet, zetas
from .errors import ProviderDomainError, SZDetError


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def random_orbifold(rng: random.Random, max_h: int = 3) -> orbifold.OrbifoldData:
    """A random valid orbifold/representation configuration."""
    while True:
        g = rng.randint(0, 5)
        c = rng.randint(1, 4)
        orders = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4)))
        try:
            sig = orbifold.Signature(g, c, orders)
            orbifold.vol_over_2pi(sig)
            break
        except Exception:
            continue
    h = rng.randint(1, max_h)
    exps = tuple(
        tuple(rng.randrange(d) for _ in range(h)) for d in orders
    )
    cusp = []
    for _ in range(c):
        k_j = rng.randint(0, h)
        angles = tuple(
            Fraction(rng.randint(1, 9), 10) for _ in range(h - k_j)
        )
        cusp.append(orbifold.CuspData(k_j, angles))
    rep = orbifold.RepresentationData(h, exps, tuple(cusp))
    return orbifold.OrbifoldData(sig, rep)


# ---------------------------------------------------------------------------


def suite_elliptic(prec: int) -> list[CheckResult]:
    out = []
    rng = random.Random(20240901)
    worst = mpf(0)
    ok = True
    for _ in range(40):
        orb = random_orbifold(rng)
        for n in sorted(rng.sample(range(101), 6)):
            fl = elliptic.m_n_floor(orb, n)
            sp = elliptic.m_n_spectral(orb, n, prec)
            worst = max(worst, abs(sp - fl))
            ok = ok and abs(sp - fl) <= 10 * mpf(2) ** (-prec // 2)
    out.append(_check("dual multiplicity formulas (40 random orbifolds)", ok,
                      f"worst |spectral - floor| = {mp.nstr(worst, 3)}"))

    worst_re = worst_im = mpf(0)
    for d in range(2, 13):
        for q in range(d):
            for n in range(0, 60):
                b = elliptic.trig_sum_brute(n, q, d, prec)
                worst_re = max(worst_re, abs(b.real - elliptic.trig_sum_closed(n, q, d)))
                worst_im = max(worst_im, abs(b.imag))
    out.append(_check("root-of-unity sine sum closed form (d <= 12)",
                      mp.hypot(worst_re, worst_im) <= mpf(2) ** (-prec // 2),
                      f"worst |brute - closed| = {mp.nstr(worst_re, 3)}, "
                      f"worst |Im| = {mp.nstr(worst_im, 3)}"))

    bad = sum(
        oracles.count_multiples(n, q, d) != elliptic.g_count(n, q, d)
        for d in range(2, 11)
        for q in range(d)
        for n in range(0, 120)
    )
    out.append(_check("floor-count lemma (d <= 10, n <= 120)", bad == 0,
                      f"{bad} mismatches"))

    bad = 0
    for _ in range(200):
        d = rng.randint(2, 12)
        h = rng.randint(1, 3)
        qs = tuple(rng.randrange(d) for _ in range(h))
        m = rng.randint(0, 40)
        bad += elliptic.alpha(d, qs, m) != sum((m + q) % d + (m - q) % d for q in qs)
    out.append(_check("alpha = 2mh + beta d identity", bad == 0,
                      f"{bad} mismatches with the residue sum in 200 draws"))

    bad = sum(
        elliptic.beta_coeff(d, (q,), m) != oracles.case_table_shift(m, q, d)
        for d in range(2, 13)
        for q in range(d)
        for m in range(d)
    )
    out.append(_check("shift case table (m < d, d <= 12)", bad == 0,
                      f"{bad} mismatches"))
    return out


def suite_special(prec: int) -> list[CheckResult]:
    out = []
    rng = random.Random(7)
    tol = mpf(2) ** (20 - prec)
    with mp.workprec(prec + 8):
        pts = [
            mpc(mpf("0.1") + mpf("49.9") * rng.random(),
                mpf(-50) + 100 * rng.random())
            for _ in range(25)
        ]
        worst_g = worst_b = worst_d = mpf(0)
        for z in pts:
            worst_g = max(worst_g, abs(numerics.log_gamma(z + 1, prec) - mp.log(z)
                                       - numerics.log_gamma(z, prec)))
            worst_b = max(worst_b, abs(numerics.log_barnes_g(z + 1, prec)
                                       - numerics.log_gamma(z, prec)
                                       - numerics.log_barnes_g(z, prec)))
            lhs = numerics.log_gamma(z, prec) + numerics.log_gamma(z + mpf(1) / 2, prec)
            rhs = ((1 - 2 * z) * mp.log(2) + mp.log(mp.pi) / 2
                   + numerics.log_gamma(2 * z, prec))
            worst_d = max(worst_d, abs(mp.exp(lhs - rhs) - 1))
    for name, worst in (("Gamma recursion on grid", worst_g),
                        ("Barnes recursion on grid", worst_b),
                        ("duplication formula on grid", worst_d)):
        out.append(_check(name, worst < tol, f"worst residual {mp.nstr(worst, 3)}"))

    with mp.workprec(prec + 8):
        z = mpc("1.7", "0.4")
        s = mpc(3, 1)
        tele = numerics.hurwitz_zeta(s, z, prec) - numerics.hurwitz_zeta(s, z + 15, prec)
        direct = mp.fsum((z + k) ** (-s) for k in range(15))
        r = abs(tele - direct)
    out.append(_check("Hurwitz telescoping (N = 15)", r < tol, f"residual {mp.nstr(r, 3)}"))

    with mp.workprec(2 * prec):
        pairs = [
            (numerics.log_gamma(mpc("3.3", "1.1"), prec),
             numerics.log_gamma(mpc("3.3", "1.1"), 2 * prec)),
            (numerics.riemann_zeta(mpc("0.4", "3"), prec),
             numerics.riemann_zeta(mpc("0.4", "3"), 2 * prec)),
            (numerics.log_barnes_g(mpf("7.5"), prec),
             numerics.log_barnes_g(mpf("7.5"), 2 * prec)),
            # the shift right differs between the two precisions, so a wrong
            # branch count would show as a multiple of 2 pi i
            (numerics.log_barnes_g(mpc("-3.7", "25"), prec),
             numerics.log_barnes_g(mpc("-3.7", "25"), 2 * prec)),
        ]
        worst = max(abs(a - b) / (1 + abs(b)) for a, b in pairs)
    out.append(_check("precision doubling stability", worst <= mpf(2) ** (16 - prec),
                      f"worst |a - b| / (1 + |b|) = {mp.nstr(worst, 3)}"))
    return out


def suite_scattering(prec: int) -> list[CheckResult]:
    out = []
    model = zetas.ModularScattering()
    rng = random.Random(11)
    tol = mpf(2) ** (20 - prec)
    with mp.workprec(prec + 8):
        worst = mpf(0)
        # Re s in [0.2, 2.2]: one of s, 1 - s takes zeta_pair's Borwein sum
        # and the other mp.zeta's reflection, so each route checks the other
        for _ in range(20):
            s = mpc(mpf("0.2") + 2 * rng.random(), mpf(-3) + 6 * rng.random())
            r = abs(model.phi(s, prec) * model.phi(1 - s, prec) - 1)
            worst = max(worst, r)
    out.append(_check("modular phi(s) phi(1-s) = 1", worst < tol,
                      f"worst residual {mp.nstr(worst, 3)}"))

    with mp.workprec(prec + 8):
        target = 45 * numerics.riemann_zeta(3, prec) / mp.pi ** 3
        r = abs(model.phi(2, prec) - target)
    out.append(_check("phi(2) = 45 zeta(3) / pi^3", r < tol,
                      f"residual {mp.nstr(r, 3)}"))

    word = oracles.necklace_counts_by_trace(8)
    mat = oracles.matrix_class_counts(8, 40)
    bad = sum(word.get(t, 0) != mat.get(t, 0) for t in range(3, 9))
    out.append(_check("word vs matrix class counts (t <= 8)", bad == 0,
                      f"{bad} mismatches"))

    src = zetas.ModularGeodesicSource()
    with mp.workprec(prec + 8):
        vals = [abs(zetas.selberg_log_z(src, mpf(s), 2000, prec).value)
                for s in (4, 6, 8)]
        alpha = mp.sqrt(zetas.norm_of_trace(3, prec))
        ratios = [vals[i] / vals[i + 1] for i in range(2)]
        # O(alpha^-Re s) is an upper bound (the observed rate is the sharper
        # N0^-Re s): the decay must be geometric (consistent step ratios)
        # and at least as fast as alpha per unit of Re s.
        ok = (ratios[0] / 2 < ratios[1] < ratios[0] * 2
              and all(r > alpha ** 2 for r in ratios))
    out.append(_check("log Z geometric decay at Re s in {4,6,8}", ok,
                      f"step ratios {[mp.nstr(r, 4) for r in ratios]}, "
                      f"bound rate {mp.nstr(alpha ** 2, 4)}"))
    return out


def suite_regdet(prec: int) -> list[CheckResult]:
    out = []
    orb = orbifold.modular_orbifold()
    ctx = regdet.SurfaceContext(
        orb, zetas.ModularGeodesicSource(), zetas.ModularScattering(),
        prec=prec, cutoff_norm=500,
    )
    with mp.workprec(prec + 8):
        tol = mpf(2) ** (-prec // 2)
        pts = [mpf(3), mpc(4, 1), mpc("2.5", "-0.7")]
        worst = max(
            abs(regdet.det_squared(ctx, z) - regdet.d_plus(ctx, z) * regdet.d_minus(ctx, z))
            / abs(regdet.det_squared(ctx, z))
            for z in pts
        )
    out.append(_check("det^2 = D+ D- (two evaluation paths)", worst < tol,
                      f"worst relative residual {mp.nstr(worst, 3)}"))

    with mp.workprec(prec + 8):
        worst = max(
            abs(regdet.phi_from_superzeta(ctx, z)
                - ctx.scattering.phi(z, prec))
            / abs(regdet.phi_from_superzeta(ctx, z))
            for z in pts
        )
    out.append(_check("scattering determinant recovery", worst < tol,
                      f"worst relative residual {mp.nstr(worst, 3)}"))

    # m_(n+L) - m_n = 2L h vol/2pi, L the lcm of the elliptic orders, gives
    # the z^2 coefficient -h vol/2pi of both polynomials from the floor count
    rng = random.Random(20240917)
    bad = 0
    for _ in range(40):
        orb_r = random_orbifold(rng)
        ctx_r = regdet.SurfaceContext(
            orb_r, zetas.ModularGeodesicSource(dim=orb_r.dim),
            zetas.GenericScattering(orbifold.degree_of_singularity(orb_r.rep)),
            prec=prec,
        )
        period = math.lcm(*orb_r.signature.elliptic_orders)
        n = rng.randint(0, 50)
        c2 = -Fraction(elliptic.m_n_floor(orb_r, n + period)
                       - elliptic.m_n_floor(orb_r, n), 2 * period)
        bad += sum(regdet.superzeta_zero_poly(ctx_r, sign)[0] != c2 for sign in (+1, -1))
    out.append(_check("superzeta polynomials at s = 0: z^2 term from m_n growth "
                      "(40 random orbifolds)", bad == 0, f"{bad} mismatches"))

    with mp.workprec(prec + 8):
        worst = max(
            abs(mp.sqrt(2 * mp.pi) * mp.exp(-numerics.log_gamma(zv, prec))
                - mp.exp(-mp.zeta(0, zv, 1)))
            for zv in (mpf("0.8"), mpf(2), mpf("4.5"))
        )
    out.append(_check("Lerch's formula sqrt(2 pi) / Gamma(z) = exp(-zeta_H'(0, z))",
                      worst < mpf(10) ** (-int(prec * 0.2)),
                      f"worst |sqrt(2 pi) exp(-log_gamma(z)) - exp(-zeta_H'(0, z))| = "
                      f"{mp.nstr(worst, 3)}"))

    try:
        regdet.functional_symmetry_residual(ctx, mpf(3), regdet.EulerProductProvider(ctx))
        raised = None
    except SZDetError as exc:
        raised = exc
    out.append(_check("symmetry checker refuses Euler-product-only provider",
                      isinstance(raised, ProviderDomainError),
                      f"raised {type(raised).__name__ if raised else 'nothing'}"))
    return out


SUITES = {
    "elliptic": suite_elliptic,
    "special": suite_special,
    "scattering": suite_scattering,
    "regdet": suite_regdet,
}


def run_suite(name: str, prec: int) -> list[CheckResult]:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite(prec)]
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](prec)
