import ast
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import ctx_mp_python, mp, mpc, mpf

from szdet import numerics, zetas
from szdet.errors import ConvergenceError, CutoffError, DomainError, PoleError
from szdet.numerics import riemann_zeta, to_scalar
from szdet.oracles import matrix_class_counts, necklace_counts_by_trace
from szdet.zetas import (
    GenericScattering,
    GeodesicClass,
    ListGeodesicSource,
    MAX_ENUMERATED_TRACE,
    ModularGeodesicSource,
    ModularScattering,
    load_generic_scattering,
    load_geodesic_table,
    modular_geodesics,
    norm_of_trace,
    save_geodesic_table,
    selberg_log_z,
    word_matrix,
    _TraceTerms,
    _max_trace_for_cutoff,
    chi_trace,
)

P = 256


def _trace(word):
    m0, _, _, m3 = word_matrix(word)
    return m0 + m3


def test_word_matrix_examples():
    assert word_matrix("LLRR") == (5, 2, 2, 1)
    assert word_matrix("LR") == (2, 1, 1, 1)
    assert word_matrix("LLR") == (3, 2, 1, 1) and word_matrix("LRR") == (3, 1, 2, 1)


def test_word_matrix_matches_letter_by_letter_product():
    letters = {"L": ((1, 1), (0, 1)), "R": ((1, 0), (1, 1))}
    rng = random.Random(7)
    for _ in range(300):
        word = "".join(rng.choice("LR") * rng.randint(1, 6)
                       for _ in range(rng.randint(0, 12)))
        m = ((1, 0), (0, 1))
        for ch in word:
            g = letters[ch]
            m = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(2))
                            for j in range(2)) for i in range(2))
        assert word_matrix(word) == (*m[0], *m[1])
    for word in ("LLxRR", "LRRL ", "RRRRl"):
        with pytest.raises(DomainError, match="only L and R"):
            word_matrix(word)


def _brute_force_necklaces(tmax):
    """(trace, canonical word, primitive?) for every cyclic word with both
    letters and trace <= tmax: every block sequence L^a R^b ... within the
    bound, its least rotation taken naively, duplicates dropped by a set."""
    seen, out = set(), []
    stack = [""]
    while stack:
        w = stack.pop()
        for a in range(1, tmax):
            for b in range(1, tmax):
                word = w + "L" * a + "R" * b
                tr = _trace(word)
                if tr > tmax:
                    break
                stack.append(word)
                canon = min(word[i:] + word[:i] for i in range(len(word)))
                if canon not in seen:
                    seen.add(canon)
                    primitive = all(canon != canon[:d] * (len(canon) // d)
                                    for d in range(1, len(canon))
                                    if len(canon) % d == 0)
                    out.append((tr, canon, primitive))
            if _trace(w + "L" * a + "R") > tmax:
                break
    return sorted(out)


def test_walk_matches_brute_force_reference():
    ref = _brute_force_necklaces(80)
    assert ("LLRLLR" in {w for _, w, p in ref if not p}
            and "LLR" in {w for _, w, p in ref if p})
    for tmax in range(-1, 81):
        # N(t) < t^2 - 2 < t^2 - 1 < N(t + 1): the cutoff t^2 - 1 keeps trace t
        if tmax >= 3:
            assert [(c.trace, c.word) for c in modular_geodesics(tmax * tmax - 1, 64)] == [
                (t, w) for t, w, p in ref if p and t <= tmax]
        counts = {}
        for t, _, _ in ref:
            if t <= tmax:
                counts[t] = counts.get(t, 0) + 1
        assert necklace_counts_by_trace(tmax) == counts


def test_census_of_primitive_classes():
    # N(316) < 1e5 < N(317) and N(1000) < 1e6 < N(1001); the source counts
    # the walk's traces, with one trivial character, as the listed words do
    for tmax, cutoff, census in ((316, 1e5, (9558, 314)), (1000, 1e6, (78441, 998))):
        words = Counter(c.trace for c in modular_geodesics(cutoff, 64))
        assert max(words) == tmax
        assert (sum(words.values()), len(words)) == census
        counts = ModularGeodesicSource().classes(cutoff, 64)
        assert [(t, [n for _, n in groups]) for t, groups in counts] == [
            (t, [words[t]]) for t in sorted(words)]
        assert len({id(chi) for _, groups in counts for chi, _ in groups}) == 1


def test_modular_euler_sum_builds_no_class_and_no_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the modular Euler sum built a class or a word")

    reference = selberg_log_z(ModularGeodesicSource(), mpc(3, 1), 2000, 64)
    for name in ("GeodesicClass", "modular_geodesics"):
        monkeypatch.setattr(zetas, name, refuse)
    assert selberg_log_z(ModularGeodesicSource(), mpc(3, 1), 2000, 64) == reference


def test_euler_sum_forms_no_norm(monkeypatch, tmp_path):
    # the trace rule is integer arithmetic and each trace's record holds
    # log N alone, so neither a cold nor a warm sum forms N(t)
    path = tmp_path / "omega.tsv"
    _write_omega_table(path, modular_geodesics(500, prec=128), 60, 128)
    makers = (ModularGeodesicSource, lambda: load_geodesic_table(path, prec=128))
    points = (mpc(3, 1), mpf(4))
    reference = {(make, cutoff): [selberg_log_z(make(), z, cutoff, 128) for z in points]
                 for make in makers for cutoff in (400, mpf("400.5"))}

    def refuse(*args, **kwargs):
        raise AssertionError("the Euler sum formed a norm")

    monkeypatch.setattr(zetas, "norm_of_trace", refuse)
    for (make, cutoff), values in reference.items():
        source = make()  # the first point is a cold sum, the second a warm one
        assert [selberg_log_z(source, z, cutoff, 128) for z in points] == values


def test_enumeration_limit_is_a_cutoff_error():
    with mp.workprec(200):
        above = norm_of_trace(MAX_ENUMERATED_TRACE + 1, 200) * (1 + mpf(2) ** -100)
        # x = 10^44 - 8 fits the rule's 144 bits, and sqrt(x) rounds up to
        # 10^22 there, but N(10^22) = 10^44 - 2 - 10^-44 is above x
        huge = mpf(10**44 - 8)
    for source in (modular_geodesics, ModularGeodesicSource().classes):
        with pytest.raises(CutoffError, match=str(MAX_ENUMERATED_TRACE)):
            source(above, prec=128)
    assert _max_trace_for_cutoff(huge, 128, 10**22) == 10**22 - 1


def test_smallest_class():
    cl = modular_geodesics(7, prec=128)
    assert len(cl) == 1
    assert cl[0].word == "LR" and cl[0].trace == 3
    with mp.workprec(160):
        expect = (7 + 3 * mp.sqrt(5)) / 2
        assert abs(norm_of_trace(cl[0].trace, 128) - expect) < mpf(2) ** -120
    with pytest.raises(CutoffError):
        modular_geodesics(6, prec=128)


def test_trace_four_classes():
    words = [c.word for c in modular_geodesics(20, prec=128) if c.trace == 4]
    assert words == ["LLR", "LRR"]


def test_enumeration_determinism():
    a = [(c.word, c.trace) for c in modular_geodesics(500, prec=128)]
    b = [(c.word, c.trace) for c in modular_geodesics(500, prec=128)]
    assert a == b
    assert a == sorted(a, key=lambda t: (t[1], t[0]))


def test_enumeration_matches_matrix_oracle():
    word_counts = necklace_counts_by_trace(12)
    mat_counts = matrix_class_counts(12, 60)
    for t in range(3, 13):
        assert word_counts.get(t, 0) == mat_counts.get(t, 0)


def test_necklace_counts_match_matrix_oracle_to_trace_60():
    assert necklace_counts_by_trace(60) == matrix_class_counts(60, 200)


def test_primitive_vs_all_classes():
    # trace 7 contains exactly the squares of the trace-3 classes
    prim_counts = Counter(c.trace for c in modular_geodesics(norm_of_trace(12, 64), prec=64))
    all_counts = necklace_counts_by_trace(12)
    assert all_counts[7] - prim_counts[7] == prim_counts[3]
    for t in (3, 4, 5, 6, 8):
        assert all_counts[t] == prim_counts[t]


def test_selberg_log_z_decay_and_tail():
    src = ModularGeodesicSource()
    v10 = selberg_log_z(src, mpf(10), 3000, P)
    assert abs(v10.value) < mpf(10) ** -7
    v3a = selberg_log_z(src, mpf(3), 1500, P)
    v3b = selberg_log_z(src, mpf(3), 3000, P)
    assert abs(v3b.value - v3a.value) < v3a.tail_bound
    with pytest.raises(ConvergenceError):
        selberg_log_z(src, mpf("0.9"), 100, P)


def test_tail_needs_a_class_below_the_cutoff():
    # N(3) = 6.85...: below it the tail formula has no meaning, and a list
    # source refuses such a cutoff as the modular source does
    src = ListGeodesicSource(entries=tuple(modular_geodesics(500, prec=128)))
    for cutoff in (0, 1, -1, 5):
        with pytest.raises(CutoffError, match="below the smallest norm"):
            src.classes(cutoff, 128)
        with pytest.raises(CutoffError, match="below the smallest norm"):
            selberg_log_z(src, 3, cutoff, 128)
    assert src._terms == {}
    assert selberg_log_z(src, 3, 7, 128).value != 0


def test_selberg_empty_source():
    # an empty list is complete up to no trace, so every cutoff with a
    # class below it reaches beyond the list
    src = ListGeodesicSource(entries=())
    with pytest.raises(CutoffError, match="complete only up to trace 2"):
        selberg_log_z(src, mpf(3), 100, P)
    assert src._terms == {}


def test_class_list_refuses_cutoffs_beyond_its_largest_trace():
    # a table of every class with norm <= 500 holds traces <= 22, and
    # N(22) < 500 < N(23): it is complete up to N(23) and no further
    src = ListGeodesicSource(entries=tuple(modular_geodesics(500, prec=128)))
    with mp.workprec(144):
        n23 = norm_of_trace(23, 144)
        below, above = n23 * (1 - mpf(2) ** -100), n23 * (1 + mpf(2) ** -100)
    assert selberg_log_z(src, 3, below, 128) == selberg_log_z(
        ModularGeodesicSource(), 3, below, 128)
    with pytest.raises(CutoffError, match="complete only up to trace 22"):
        src.classes(above, 128)
    for cutoff in (above, 10**5, "1e300000"):
        with pytest.raises(CutoffError, match="complete only up to trace 22"):
            selberg_log_z(src, 3, cutoff, 128)
    assert list(src._terms) == [(22, 128)]


def test_selberg_chi_table_source():
    # a table-backed source must reproduce the eigenvalue-backed values
    src = ModularGeodesicSource()
    tabled = ListGeodesicSource(
        entries=tuple(
            GeodesicClass(c.word, c.trace, ("table", tuple(
                chi_trace(c.chi, l, c.trace) for l in range(1, 64))))
            for c in modular_geodesics(100, prec=P)
        )
    )
    a = selberg_log_z(src, mpf(4), 100, 128)
    b = selberg_log_z(tabled, mpf(4), 100, 128)
    assert abs(a.value - b.value) < mpf(2) ** -100


def _per_class_log_z(classes, s, prec):
    """log Z summed class by class, each with its own norm series."""
    wp = prec + 16
    with mp.workprec(wp):
        z = mp.mpmathify(s)
        sigma = mp.re(z)
        total = mpf(0)
        for cls in classes:
            n0 = norm_of_trace(cls.trace, wp)
            lmax = max(1, int(mp.ceil((wp + 10) * mp.log(2) / (sigma * mp.log(n0)))))
            step, power, inverse = n0 ** -z, 1, 1
            for ell in range(1, lmax + 1):
                power, inverse = power * step, inverse / n0
                total -= chi_trace(cls.chi, ell, cls.trace) * power / (ell * (1 - inverse))
        return total


def _twisted_table(classes, powers=64):
    # chi(L) = omega, chi(R) = omega^-1, so tr chi(P^l) = omega^(l (#L - #R))
    roots = [mp.expjpi(mpf(k) / 3) for k in range(6)]
    return ListGeodesicSource(entries=tuple(
        GeodesicClass(c.word, c.trace, ("table", tuple(
            roots[ell * (c.word.count("L") - c.word.count("R")) % 6]
            for ell in range(1, powers + 1))))
        for c in classes
    ))


def test_euler_sum_matches_per_class_reference():
    prec, cutoff = 128, 500

    def tol(ref):
        return mpf(2) ** (8 - prec) * (1 + abs(ref))

    src = ModularGeodesicSource()
    z = mpc("2.5", 1)
    ref = _per_class_log_z(modular_geodesics(cutoff, prec=prec), z, prec)
    assert abs(selberg_log_z(src, z, cutoff, prec).value - ref) < tol(ref)
    with mp.workprec(prec + 16):
        table = _twisted_table(modular_geodesics(cutoff, prec=prec))
    for z in (mpf("2.5"), mpc(3, -1)):
        ref = _per_class_log_z(table.entries, z, prec)
        assert abs(selberg_log_z(table, z, cutoff, prec).value - ref) < tol(ref)


def _cancelling_table(classes, powers, prec):
    """Each class twice, with the twisted character and with its negative,
    so every trace's coefficient of N^(-ls) is exactly 0."""
    with mp.workprec(prec):
        twisted = _twisted_table(classes, powers).entries
        return ListGeodesicSource(entries=tuple(
            GeodesicClass(c.word, c.trace, chi) for c in twisted
            for chi in (c.chi, ("table", tuple(-v for v in c.chi[1])))))


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_fixed_point_kernel_matches_independent_reference(prec):
    # the reference sums class by class in mpmath at 2 prec + 64 bits; the
    # tables carry their characters at that precision, so both read one table
    ref_prec = 2 * prec + 64
    modular = ModularGeodesicSource()
    with mp.workprec(ref_prec + 16):
        table_classes = modular_geodesics(500, prec=prec)
        twisted = _twisted_table(table_classes, powers=100)
    cancelling = _cancelling_table(table_classes, 100, ref_prec + 16)
    # the reference reads the modular group's classes from its word listing
    listed = modular_geodesics(2000, prec=prec)
    # 1 + 2^-30 needs the most powers; at 1e3 and 1e6 every N^-s underflows
    # the fixed point to 0
    cases = [(modular, listed, 2000, z, mpf)
             for z in (mpf(3), mpf("1.0625"), 1 + mpf(2) ** -30, mpf(10**3), mpf(10**6))]
    # at Im s = 1e7 and 1e9 the phase Im(s) log N reaches 3e10: formed at the
    # working precision it would lose about 35 bits of the angle
    cases += [(modular, listed, 2000, z, mpc)
              for z in (mpc("2.5", 1), mpc(20, 3), mpc(2, 10**4), mpc(2, 10**7), mpc(2, 10**9))]
    cases += [(table, table.entries, 500, z, mpc) for table in (twisted, cancelling)
              for z in (mpf("2.25"), mpc(3, -1), mpf(10**3))]
    for source, entries, cutoff, z, kind in cases:
        got = selberg_log_z(source, z, cutoff, prec).value
        ref = _per_class_log_z(entries, z, ref_prec)
        assert type(got) is kind, (source, z)
        with mp.workprec(ref_prec):
            assert abs(got - ref) <= mpf(2) ** -prec * (1 + abs(ref)), (source, z)
    assert selberg_log_z(cancelling, mpc(3, -1), 500, prec).value == 0


def test_phase_past_its_precision_is_refused():
    # the phase may take 64 extra bits: |Im s| 2 log 44 < 2^63 at cutoff 2000
    src = ModularGeodesicSource()
    with pytest.raises(DomainError, match="too large"):
        selberg_log_z(src, mpc(2, mpf(10) ** 19), 2000, 128)
    with pytest.raises(DomainError, match="too large"):
        selberg_log_z(src, mpc(2, "-1e400"), 2000, 128)
    assert src._terms == {}
    assert isinstance(selberg_log_z(src, mpc(2, mpf(10) ** 18), 2000, 128).value, mpc)


def test_warm_sum_calls_no_mpmath_exp(monkeypatch):
    # the kernel takes N^-s from mpmath's fixed-point exp and cos/sin; at an
    # integer Re s the tail's x^(1 - Re s) is an integer power, so a warm
    # call then reaches no mpmath exp at all
    from mpmath.libmp import libelefun, libmpc

    src = ModularGeodesicSource()
    table = _twisted_table(modular_geodesics(500, prec=128))
    for z in (mpc(3, 1), mpf(4)):
        selberg_log_z(src, z, 2000, 128)
        selberg_log_z(table, z, 500, 128)

    def refuse(*args, **kwargs):
        raise AssertionError("exp called by a warm Euler sum")

    monkeypatch.setattr(mp, "exp", refuse)
    for module, name in ((libelefun, "mpf_exp"), (libmpc, "mpf_exp"), (libmpc, "mpc_exp")):
        monkeypatch.setattr(module, name, refuse)
    for z in (mpc(3, -2), mpc(4, 5), mpf(3)):
        selberg_log_z(src, z, 2000, 128)
        selberg_log_z(table, z, 500, 128)


def test_term_count_matches_the_mp_expression():
    # powers() divides a float quotient by float(sigma); the parent rule
    # is the mpmath ceiling below, on 21,000 seeded (precision, trace, sigma)
    rng = random.Random(99)
    traces = [3, 4, 5, 1000, MAX_ENUMERATED_TRACE] + rng.sample(range(6, 3000), 65)
    for prec in (64, 128, 256):
        wp = prec + 16
        with mp.workprec(wp):
            bits = (wp + 10) * mp.log(2)
            for t in traces:
                terms = _TraceTerms(t, (), wp)
                with mp.workprec(wp + 24 + 64 + 8):
                    log_norm = 2 * mp.acosh(mpf(t) / 2)
                sigmas = [1 + mpf(2) ** -60, mpf(1) + mpf(2) ** -30, mpf(10) ** 6]
                sigmas += [1 + mpf(rng.random()) ** 4 * rng.choice((1, 10, 1000))
                           for _ in range(97)]
                for sigma in sigmas:
                    expected = max(1, int(mp.ceil(bits / (sigma * log_norm))))
                    assert terms.powers(sigma) == expected, (prec, t, sigma)


def test_euler_sum_evaluates_one_norm_per_trace(norm_calls):
    src = ModularGeodesicSource()
    counts = src.classes(2000, 128)
    assert (sum(n for _, groups in counts for _, n in groups), len(counts)) == (285, 42)
    norm_calls.clear()
    selberg_log_z(src, mpc(3, 1), 2000, 128)
    assert len(norm_calls) <= 45  # a per-class sum makes 285


def test_cold_sum_evaluates_each_character_once_per_trace_and_power(monkeypatch):
    # every enumerated class shares one trivial character, so each trace's
    # coefficient of N^(-ls) costs one chi_trace call however many classes
    # the trace has (285 classes over 42 traces here)
    calls = []

    def counted(chi, ell, trace):
        calls.append((trace, ell))
        return chi_trace(chi, ell, trace)

    monkeypatch.setattr(zetas, "chi_trace", counted)
    selberg_log_z(ModularGeodesicSource(), mpc(3, 1), 2000, 128)
    assert {t for t, _ in calls} == set(range(3, 45))
    assert len(calls) == len(set(calls))


def test_warm_source_does_no_per_class_work(monkeypatch, norm_calls):
    # every cutoff becomes a trace bound by integer arithmetic alone
    cutoffs = (2000, mpf("2000.5"))  # 42 traces at both
    warm = {}
    for cutoff in cutoffs:
        warm[cutoff] = ModularGeodesicSource()
        selberg_log_z(warm[cutoff], mpc(3, 1), cutoff, 128)
        norm_calls.clear()
        _max_trace_for_cutoff(cutoff, 128, MAX_ENUMERATED_TRACE)
        assert norm_calls == []

    def refuse(*args, **kwargs):
        raise AssertionError("per-class work on a warm source")

    monkeypatch.setattr(ModularGeodesicSource, "classes", refuse)
    monkeypatch.setattr(zetas, "chi_trace", refuse)
    for cutoff in cutoffs:
        selberg_log_z(warm[cutoff], mpc("3.5", -1), cutoff, 128)  # needs no new power
    assert norm_calls == []


def test_integer_cutoff_rule_is_exact_above_working_precision():
    # x = s^2 - 3 rounded down to the rule's 144 bits is an integer below
    # N(s) = s^2 - 2 - 1/N(s), which rounds onto x or above it there
    rng = random.Random(2026)
    for _ in range(200):
        bits = rng.randint(60, 109)
        s = rng.getrandbits(bits) | 1 << (bits - 1)
        x = mpf(s * s - 3, prec=144, rounding="d")
        assert _max_trace_for_cutoff(x, 128, s) == s - 1
    assert [_max_trace_for_cutoff(x, 128, 44) for x in (-3, 6, 7, 2000)] == [0, 2, 3, 44]


def test_trace_rule_is_exact_at_the_norms():
    # cutoffs within 2^-k of N(t), k up to 30 bits past the rule's prec + 16,
    # and whole numbers near t^2, against norms at 1000 bits
    rng = random.Random(44)
    for _ in range(400):
        prec, t = rng.choice((53, 64, 128, 256)), rng.randint(3, 3000)
        with mp.workprec(2 * prec + 80):
            n = norm_of_trace(t, 2 * prec + 80)
            k = rng.randint(1, prec + 46)
            for x in (n * (1 + mpf(2) ** -k), n * (1 - mpf(2) ** -k),
                      mpf(t * t - rng.randint(-2, 4))):
                got = _max_trace_for_cutoff(x, prec, 10**6)
                with mp.workprec(1000):
                    assert got < 3 or norm_of_trace(got, 1000) <= x, (prec, t, k)
                    assert x < norm_of_trace(max(got + 1, 3), 1000), (prec, t, k)


def test_trace_terms_are_keyed_by_precision_and_extended_lazily():
    cutoff = 500
    src = ModularGeodesicSource()
    selberg_log_z(src, mpc(3, 1), cutoff, 128)
    assert selberg_log_z(src, mpc(3, 1), cutoff, 256) == selberg_log_z(
        ModularGeodesicSource(), mpc(3, 1), cutoff, 256)

    prec, z = 128, mpc("1.6", -2)
    selberg_log_z(src, mpc(4, 1), cutoff, prec)
    got = selberg_log_z(src, z, cutoff, prec)  # needs more powers than Re z = 4
    assert got == selberg_log_z(ModularGeodesicSource(), z, cutoff, prec)
    ref = _per_class_log_z(modular_geodesics(cutoff, prec=prec), z, prec)
    assert abs(got.value - ref) < mpf(2) ** (8 - prec) * (1 + abs(ref))


def test_source_keeps_the_records_of_its_last_key():
    src = ListGeodesicSource(entries=tuple(modular_geodesics(20, prec=64)))
    selberg_log_z(src, 3, 20, 64)
    kept = src._terms[(4, 64)]
    selberg_log_z(src, mpc(3, 1), 20, 64)  # the same key reads the same records
    assert list(src._terms) == [(4, 64)] and src._terms[(4, 64)] is kept
    selberg_log_z(src, 3, 20, 65)  # a new precision replaces them
    assert list(src._terms) == [(4, 65)]
    selberg_log_z(src, 3, 7, 65)  # and so does a new trace bound
    assert list(src._terms) == [(3, 65)]
    selberg_log_z(src, 3, 20, 64)  # the first key is built again on return
    assert list(src._terms) == [(4, 64)] and src._terms[(4, 64)] is not kept


def test_short_chi_table_fails_only_where_powers_are_missing():
    # at 128 bits the trace-3 series needs 14 powers at Re z = 4 and 47 at 1.2
    with mp.workprec(144):
        table = _twisted_table(modular_geodesics(500, prec=128), powers=20)
    first = selberg_log_z(table, mpf(4), 500, 128)
    with pytest.raises(DomainError):
        selberg_log_z(table, mpf("1.2"), 500, 128)
    assert selberg_log_z(table, mpf(4), 500, 128) == first


def test_non_finite_and_negative_arguments_are_refused():
    src = ModularGeodesicSource()
    for s in ("nan", "inf", "-inf", mpc(3, "inf"), mpc("nan", 1)):
        with pytest.raises(DomainError):
            selberg_log_z(src, mpc(s), 500, 128)
    assert src._terms == {}
    for cutoff in (-1, mpf("-1e10")):
        with pytest.raises(CutoffError):
            ListGeodesicSource(
                entries=tuple(modular_geodesics(500, prec=128))).classes(cutoff, 128)
        with pytest.raises(CutoffError):
            ModularGeodesicSource().classes(cutoff, 128)
        for _ in range(2):  # a failed build stores no record
            with pytest.raises(CutoffError):
                selberg_log_z(src, 3, cutoff, 128)
    for cutoff in (mpf("nan"), mpf("inf"), float("-inf")):
        for source in (src, ListGeodesicSource(entries=())):
            with pytest.raises(CutoffError):
                source.classes(cutoff, 128)
            with pytest.raises(CutoffError):
                selberg_log_z(source, 3, cutoff, 128)


def test_cutoff_boundary_is_one_rule_for_both_sources():
    with mp.workprec(200):
        listed = ListGeodesicSource(
            entries=tuple(modular_geodesics(norm_of_trace(41, 200), prec=128))
        )
        for t in (3, 12, 40):
            n = norm_of_trace(t, 200)
            for cutoff, included in ((n * (1 + mpf(2) ** -100), True),
                                     (n * (1 - mpf(2) ** -100), False)):
                if t == 3 and not included:
                    for source in (listed, ModularGeodesicSource()):
                        with pytest.raises(CutoffError, match="below the smallest norm"):
                            source.classes(cutoff, 128)
                    continue
                kept = listed.classes(cutoff, 128)
                assert (t in {tr for tr, _ in kept}) == included
                # one trivial character per trace, equal by value in both
                assert ModularGeodesicSource().classes(cutoff, 128) == kept
                assert max(tr for tr, _ in kept) == (t if included else t - 1)


def test_modular_phi_value():
    with mp.workprec(P + 16):
        target = 45 * riemann_zeta(3, P) / mp.pi**3
        assert abs(ModularScattering().phi(2, P) - target) < mpf(10) ** -25


def test_modular_phi_functional_equation():
    model = ModularScattering()
    rng = random.Random(17)
    with mp.workprec(P + 16):
        for _ in range(20):
            s = mpc(0.1 + 1.8 * rng.random(), -4 + 8 * rng.random())
            resid = abs(model.phi(s, P) * model.phi(1 - s, P) - 1)
            assert resid < mpf(10) ** -25


def test_modular_phi_poles():
    # s = 1 is the only pole; where a Gamma factor has one, phi is its limit:
    # 0 at s = 0, -1 at s = 1/2 and 1/phi(1 - s) at s = -n and 1/2 - n
    model = ModularScattering()
    with pytest.raises(PoleError):
        model.phi(1, P)
    with mp.workprec(P + 16):
        half, eps = mpf(1) / 2, mpf(2) ** -(P // 2)
        points = {half: mpf(-1), mpf(0): mpf(0)}
        for n in (1, 2, 3):
            points[mpf(-n)] = 1 / model.phi(1 + n, P)
            points[half - n] = 1 / model.phi(half + n, P)
        assert abs(points[mpf(-1)] - mpf("0.573208")) < 1e-6
        assert abs(points[-half] - mpf("0.365381")) < 1e-6
        for s, want in points.items():
            assert abs(model.phi(s, P) - want) <= mpf(2) ** (4 - P) * abs(want)
            # |phi'| < 4 at every one of these points
            for off in (eps, -eps, mpc(0, eps), mpc(0, -eps)):
                assert abs(model.phi(s + off, P) - want) < 4 * eps


def test_scattering_constants():
    assert ModularScattering().constants() == (1, 0, 0)
    with mp.workprec(96):
        g = GenericScattering(k=2, c1=-2 * mp.log(3), c2=0,
                              terms=((2, mpc(1, 1)),))
        k, c1, c2 = g.constants()
        assert k == 2 and abs(c1 + 2 * mp.log(3)) < mpf(2) ** -60 and c2 == 0
        # c2 = log d(1): d(1) = e gives c2 = 1
        ge = GenericScattering(k=1, c1=0, c2=1)
        assert ge.constants()[2] == 1


def test_generic_phi_pure_l():
    # with no terms beyond the leading 1, log phi - k Gamma-terms = c1 s + c2
    from szdet.numerics import log_gamma

    with mp.workprec(P + 16):
        c1, c2 = mpf("0.37"), mpf("-1.21")
        g = GenericScattering(k=2, c1=c1, c2=c2)
        s = mpc("2.3", "0.9")
        val = g.phi(s, P)
        gamma_part = 2 * (mp.log(mp.pi) / 2 + log_gamma(s - mpf(1) / 2, P)
                          - log_gamma(s, P))
        assert abs(mp.log(val) - gamma_part - (c1 * s + c2)) < mpf(2) ** (24 - P)


def test_generic_phi_matches_hand_assembly():
    from szdet.numerics import log_gamma

    rng = random.Random(23)
    with mp.workprec(P + 16):
        terms = ((mpf("1.5"), mpc("0.3", "-0.1")), (mpf(2), mpc("-0.7", "0.2")))
        g = GenericScattering(k=1, c1=mpf("0.11"), c2=mpf("0.05"), terms=terms)
        for _ in range(20):
            s = mpc(1.2 + 3 * rng.random(), -2 + 4 * rng.random())
            by_hand = (
                mp.exp(mp.log(mp.pi) / 2 + log_gamma(s - mpf(1) / 2, P)
                       - log_gamma(s, P) + mpf("0.11") * s + mpf("0.05"))
                * (1 + terms[0][1] * terms[0][0] ** (-2 * s)
                   + terms[1][1] * terms[1][0] ** (-2 * s))
            )
            assert abs(g.phi(s, P) - by_hand) < mpf(2) ** (24 - P) * abs(by_hand)
    with pytest.raises(ConvergenceError):
        GenericScattering(k=0).phi(mpf("0.8"), P)


def test_geodesic_table_roundtrip(tmp_path):
    src = ModularGeodesicSource()
    classes = modular_geodesics(60, prec=128)
    path = tmp_path / "geodesics.tsv"
    save_geodesic_table(path, classes, prec=128)
    loaded = load_geodesic_table(path, dim=1, prec=128)
    assert [c.word for c in loaded.entries] == [c.word for c in classes]

    def per_trace(source):
        return [(t, sum(n for _, n in groups)) for t, groups in source.classes(60, 128)]

    assert per_trace(loaded) == per_trace(src)
    a = selberg_log_z(src, mpf(5), 60, 96)
    b = selberg_log_z(loaded, mpf(5), 60, 96)
    assert abs(a.value - b.value) < mpf(2) ** -80


def test_short_table_line_is_a_domain_error(tmp_path):
    path = tmp_path / "geodesics.tsv"
    path.write_text("LR\t3\t6.854\t1,0\nLLR\t4\n")
    with pytest.raises(DomainError, match="line 2"):
        load_geodesic_table(path)


def _write_omega_table(path, classes, powers, prec):
    """chi(L) = omega, chi(R) = omega^-1 as a table file whose cells are the
    strings of the six sixth roots of unity, so most cells repeat."""
    digits = int(prec / 3.32) + 2
    with mp.workprec(prec + 16):
        roots = [f"{mp.nstr(mp.cospi(mpf(k) / 3), digits)},"
                 f"{mp.nstr(mp.sinpi(mpf(k) / 3), digits)}" for k in range(6)]
        lines = []
        for c in classes:
            degree = c.word.count("L") - c.word.count("R")
            lines.append("\t".join(
                [c.word, str(c.trace), mp.nstr(norm_of_trace(c.trace, prec), digits)]
                + [roots[ell * degree % 6] for ell in range(1, powers + 1)]))
    path.write_text("\n".join(lines) + "\n")


def _write_distinct_table(path, classes, powers, prec):
    """A table of seeded random unit characters: no two cells are equal.
    The file keeps the powers the sum needs at ``prec`` (56 for trace 3 at
    128 bits), so twice ``powers`` are drawn."""
    rng = random.Random(11)
    with mp.workprec(prec + 16):
        entries = [GeodesicClass(c.word, c.trace, ("table", tuple(
            mp.expjpi(mpf(rng.random())) for _ in range(2 * powers))))
            for c in classes]
    save_geodesic_table(path, entries, prec=prec)


def _per_cell_table(path, prec):
    """The table with every cell parsed into a value of its own."""
    entries = []
    with mp.workprec(prec):
        for line in path.read_text().splitlines():
            word, trace, _, *cells = line.split("\t")
            entries.append(GeodesicClass(word, int(trace), ("table", tuple(
                mp.mpc(*[mp.mpf(p) for p in c.split(",")]) for c in cells))))
    return ListGeodesicSource(entries=tuple(entries))


def _table_cells(path):
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    return [r[2] for r in rows], [c for r in rows for c in r[3:]]


def test_repeated_table_cells_are_parsed_once_and_shared(tmp_path, monkeypatch):
    path = tmp_path / "omega.tsv"
    _write_omega_table(path, modular_geodesics(500, prec=128), 32, 128)
    norms, cells = _table_cells(path)
    assert len(set(cells)) <= 6 and len(set(norms)) <= 20 < 32 * len(norms)
    parses = []
    original = ctx_mp_python.from_str

    def counted(text, *args):
        parses.append(text)
        return original(text, *args)

    monkeypatch.setattr(ctx_mp_python, "from_str", counted)
    loaded = load_geodesic_table(path, prec=128)
    assert sorted(parses) == sorted(
        list(set(norms)) + [p for c in set(cells) for p in c.split(",")])
    values = [v for c in loaded.entries for v in c.chi[1]]
    assert len(values) == len(cells)
    assert len({id(v) for v in values}) == len(set(cells))
    # classes whose character cells repeat share one chi object
    rows = [line.split("\t", 3)[3] for line in path.read_text().splitlines()]
    assert len({id(c.chi) for c in loaded.entries}) == len(set(rows)) < len(rows)


@pytest.mark.parametrize("write", [_write_omega_table, _write_distinct_table])
def test_shared_cells_load_bit_identical_to_per_cell_parse(tmp_path, write):
    prec, cutoff = 128, 500
    path = tmp_path / "table.tsv"
    write(path, modular_geodesics(cutoff, prec=prec), 32, prec)
    loaded, oracle = load_geodesic_table(path, prec=prec), _per_cell_table(path, prec)
    assert loaded.entries == oracle.entries
    for z in (mpf("2.25"), mpf("3.5")):
        got, ref = selberg_log_z(loaded, z, cutoff, prec), selberg_log_z(oracle, z, cutoff, prec)
        assert (got.value, got.tail_bound) == (ref.value, ref.tail_bound)
    if write is _write_distinct_table:
        cells = _table_cells(path)[1]
        assert len(set(cells)) == len(cells)


def test_malformed_table_numbers_and_traces_are_domain_errors(tmp_path):
    path = tmp_path / "geodesics.tsv"
    head = "# word trace norm chi\nLR\t3\t6.854\t1,0\t-0.5,0.866\n"
    for line, reason in (
        ("LLR\t4\tabc\t1,0", "'abc' is not a finite number"),
        ("LLR\t4\tnan\t1,0", "'nan' is not a finite number"),
        ("LLR\tx\t13.93\t1,0", "trace column 'x'"),
        ("LLR\t4\t13.93\t1,2,3", "holds 3 numbers"),
        ("LLR\t4\t13.93\t1,abc", "'abc' is not a finite number"),
        ("LLR\t4\t13.93\t\t1,0", "'' is not a finite number"),
        ("LRR\t3\t6.854\t1,0", "does not match the trace 4 of LRR"),
        ("LXR\t4\t13.93\t1,0", "only L and R"),
        ("LLL\t2\t1\t1,0", "not hyperbolic"),
        # each of these would count one class more than the group has
        ("RL\t3\t6.854\t1,0", "RL is not the least rotation of its class, LR"),
        ("LRLLR\t10\t97.99\t1,0", "LRLLR is not the least rotation of its class, LLRLR"),
        ("LRLR\t7\t47.98\t1,0", "LRLR is a proper power"),
        ("LR\t3\t6.854\t1,0", "LR repeats line 2"),
    ):
        # the second bad line repeats the first one's cells
        path.write_text(head + line + "\n" + line + "\n")
        with pytest.raises(DomainError, match="line 3: .*" + re.escape(reason)) as err:
            load_geodesic_table(path)
        assert str(path) in str(err.value)


def test_character_traces_above_the_dimension_are_refused(tmp_path):
    # the tail's dim factor and the Euler sum's rounding bound take
    # |tr chi| <= dim; 2^-20 of it is left for rounding in the file
    path = tmp_path / "geodesics.tsv"
    head = "LR\t3\t6.854\t0.6,0.8000001\t-1,0\n"
    for cells, dim in (("5,0\t25,0", 1), ("0.6,0.81\t1,0", 1), ("3,4\t5,0.5", 5)):
        path.write_text(head + f"LLR\t4\t13.93\t{cells}\n")
        bad = cells.split("\t")[dim > 1]
        with pytest.raises(DomainError, match=re.escape(
                f"{path} line 2: character cell {bad!r} exceeds the dimension {dim}")):
            load_geodesic_table(path, dim=dim)
    table = load_geodesic_table(path, dim=6)
    assert [c.chi[1] for c in table.entries][1] == (mpc(3, 4), mpc(5, 0.5))


def test_cutoff_refusals_have_one_site():
    # every CutoffError comes from the one trace-bound rule, or from the
    # exact rule's check that the cutoff is finite
    sites = Counter()
    for path in (Path(__file__).resolve().parent.parent / "src" / "szdet").glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "CutoffError":
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = scope.parent
                sites[path.name, getattr(scope, "name", None)] += 1
    assert sites == {("zetas.py", "_trace_bound"): 2,
                     ("zetas.py", "_max_trace_for_cutoff"): 1}


def test_huge_cutoffs_are_refused_before_the_exact_trace_bound():
    # the exact trace bound of 1e100000000 has about 1.66e8 bits; both
    # sources compare the cutoff with their largest reachable norm first
    code = """
from szdet.errors import CutoffError
from szdet.zetas import (ListGeodesicSource, ModularGeodesicSource,
                         modular_geodesics, selberg_log_z)
listed = ListGeodesicSource(entries=tuple(modular_geodesics(500, prec=128)))
for source in (ModularGeodesicSource(), listed):
    for call in (source.classes, lambda c, p: selberg_log_z(source, 3, c, p)):
        try:
            call("1e100000000", 128)
        except CutoffError:
            pass
        else:
            raise SystemExit("a huge cutoff was accepted")
    assert source._terms == {}
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr + proc.stdout


@pytest.mark.parametrize("text, reason", [
    ("1 0.1 0.2\n2 0.3\n", "line 2: expected 'u Re(a) Im(a)', got 2 fields"),
    ("1 0\n", "line 1: expected 'k c1 c2', got 2 fields"),
    ("1.5 0.1 0.2\n", "line 1: k '1.5' is not an integer"),
    ("1 abc 0.2\n", "line 1: 'abc' is not a finite number"),
    ("1 0.1 0.2\n2 abc 0\n", "line 2: 'abc' is not a finite number"),
    ("1 0.1 0.2\n# note\nnan 0.3 0\n", "line 3: 'nan' is not a finite number"),
    ("1 0.1 0.2\n2 inf 0\n", "line 2: 'inf' is not a finite number"),
    ("1 0.1 0.2\n2 0.3 -inf\n", "line 2: '-inf' is not a finite number"),
    ("1 0.1 0.2\n0.5 0.3 0\n", "terms need u_n > 1"),
])
def test_malformed_scattering_file_is_a_domain_error(tmp_path, text, reason):
    path = tmp_path / "scattering.dat"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"{path}") + ".*" + re.escape(reason)):
        load_generic_scattering(path)


def _load_comment_only_file(tmp_path):
    path = tmp_path / "scattering.dat"
    path.write_text("# no data\n\n")
    return load_generic_scattering(path)


@pytest.mark.parametrize("call, match", [
    (lambda tmp_path: norm_of_trace(2), "hyperbolic classes have trace >= 3"),
    (_load_comment_only_file, "empty scattering data file"),
    (lambda tmp_path: chi_trace(("principal", 1), 1, 3), "unknown chi kind"),
])
def test_domain_refusals(tmp_path, call, match):
    with pytest.raises(DomainError, match=match):
        call(tmp_path)


def test_generic_scattering_parsed_at_working_precision(tmp_path):
    path = tmp_path / "scattering.dat"
    path.write_text("1 0.1 0.2\n1.5 0.3 0\n")
    g = load_generic_scattering(path, prec=256)
    with mp.workprec(256):
        assert g.c1 == mpf("0.1") and g.terms[0][1] == mpf("0.3")


def test_generic_scattering_keeps_its_numbers_exact():
    # u_n used to be compared after rounding to 64 bits, and c1, c2 came
    # back at 256 bits whatever precision was asked
    near = "1.5" + "0" * 25 + "1"  # 1.5 + 1e-26, equal to 1.5 at 64 bits
    for u in (near, Fraction(3, 2) + Fraction(1, 10**26), mpf(near, prec=128)):
        g = GenericScattering(k=1, c1="0.1", terms=((Fraction(3, 2), 1), (u, 2)))
        with mp.workprec(600):
            assert abs(g.constants(512)[1] - mpf(1) / 10) < mpf(2) ** -510
    with pytest.raises(DomainError, match="strictly increasing"):
        GenericScattering(k=1, terms=(("1.5", 1), (Fraction(3, 2), 2)))
    for u in (mpf("inf"), float("nan"), "inf", "abc", mpc(2, 1)):
        with pytest.raises(DomainError, match="finite reals"):
            GenericScattering(k=1, terms=((u, 1),))


@pytest.mark.parametrize("z, prec, calls", [
    (mpc(3, 1), 256, 0),
    (mpc("0.3", 1), 256, 2),  # Re(2z - 1) < 0: mp.zeta reflects
    (mpc(2, 200), 64, 2),  # |2z| = 400 > 64 + 16 + 32 bits
])
def test_phi_takes_the_shared_zeta_sum_only_on_its_domain(z, prec, calls, monkeypatch):
    seen = []
    original = numerics.riemann_zeta
    monkeypatch.setattr(numerics, "riemann_zeta",
                        lambda s, p=P: seen.append(s) or original(s, p))
    ModularScattering().phi(z, prec)
    assert len(seen) == calls


def _save_generic_scattering(path, model, prec):
    """Write the format load_generic_scattering reads, at ``prec`` bits."""
    with mp.workprec(prec), open(path, "w") as fh:
        digits = int(prec / 3.32) + 2
        c1, c2 = to_scalar(model.c1, prec), to_scalar(model.c2, prec)
        fh.write(f"{model.k} {mp.nstr(c1, digits)} {mp.nstr(c2, digits)}\n")
        for u, a in model.terms:
            av = mp.mpc(to_scalar(a, prec))
            fh.write(f"{mp.nstr(to_scalar(u, prec), digits)} "
                     f"{mp.nstr(av.real, digits)} {mp.nstr(av.imag, digits)}\n")


def test_generic_scattering_roundtrip(tmp_path):
    with mp.workprec(160):
        g = GenericScattering(k=2, c1=mpf("0.25"), c2=mpf("-0.5"),
                              terms=((mpf("1.25"), mpc("0.5", "0.25")),))
        path = tmp_path / "scattering.dat"
        _save_generic_scattering(path, g, prec=160)
        h = load_generic_scattering(path, prec=160)
        assert h.k == 2
        s = mpc("2.2", "1.4")
        assert abs(g.phi(s, 128) - h.phi(s, 128)) < mpf(2) ** -100
