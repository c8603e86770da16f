"""The four benchmark workloads: seeded inputs, set-up, one operation, its check.

Every workload draws its inputs from ``random.Random`` seeded with the
workload name, the benchmark seed and the operation index, so the same seed
gives the same inputs.  Operations come in pairs of slots, 2p and 2p + 1,
that mirror each other: where cost depends on Re z, slot 2p takes Re z in the
cell of the van der Corput point ``v(p)`` of [2, 4) (``2 + 1.99 v(p)`` plus a
seeded offset of at most 0.01) and slot 2p + 1 takes 6 - Re z; the imaginary
part is uniform in [-3, 3].  Every run thus covers the strip evenly from its
first operations on and ends on a whole pair, which keeps run-to-run spread
small while every value still comes from the seed.  Coordinates are rounded
to multiples of 2^-10, so the decimal strings handed to the CLI are exact and
the in-process checks see the same points.

``check`` raises CheckFailed when a result breaks an identity and otherwise
returns the number of decimal digits of the result that its Euler tail bound
backs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from mpmath import mp

LOG10_2 = math.log10(2)
CLI_TIMEOUT_S = 60

# The README's modular orbifold document.
MODULAR_DOCUMENT = {
    "schema": 1,
    "genus": 0, "cusps": 1, "rep_dim": 1,
    "elliptic": [{"order": 2, "exponents": [0]},
                 {"order": 3, "exponents": [0]}],
    "cusp_data": [{"fixed_dim": 1, "angles": []}],
    "scattering": {"model": "modular"},
}


class CheckFailed(Exception):
    """A result broke the identity its workload checks."""


class SetupError(Exception):
    """The checkout under test cannot be measured."""


def van_der_corput(n: int) -> float:
    """The n-th point of the base-2 van der Corput sequence in [0, 1)."""
    value, denom = 0.0, 1.0
    while n:
        denom *= 2
        n, bit = divmod(n, 2)
        value += bit / denom
    return value


def _dyadic(x: float) -> float:
    return round(x * 1024) / 1024


def seeded_point(slot: int, rng: random.Random) -> tuple[float, float]:
    """(Re z, Im z) with 2 <= Re z <= 4 and |Im z| <= 3, as described above."""
    pair, mirrored = divmod(slot, 2)
    re = 2 + 1.99 * van_der_corput(pair) + 0.01 * rng.random()
    return _dyadic(6 - re if mirrored else re), _dyadic(rng.uniform(-3, 3))


def backed_digits(tail, prec: int, power: int) -> float:
    """Decimal digits of exp(power * log Z) backed by the log-Z tail bound.

    An absolute error t in log Z is a relative error expm1(power * t) in
    Z^power; det^2 carries Z^2 (power 2), Z_chi itself power 1.  Digits are
    capped at the working precision.
    """
    full = prec * LOG10_2
    t = power * abs(float(tail))
    if t == 0:
        return full
    if t > 50:
        return -t / math.log(10)
    return min(full, -math.log10(math.expm1(t)))


def check_location(root: Path, module_file: str) -> None:
    src = (root / "src").resolve()
    if src not in Path(module_file).resolve().parents:
        raise SetupError(f"szdet imported from {module_file}, outside {src}")


def drop_szdet() -> None:
    """Forget every loaded szdet module, so the next import runs its code again."""
    for key in [k for k in sys.modules if k == "szdet" or k.startswith("szdet.")]:
        del sys.modules[key]


def fresh_import(root: Path, names) -> dict:
    """Import ``szdet.<name>`` for each name, from the checkout's source tree."""
    modules = {n: importlib.import_module("szdet." + n) for n in names}
    check_location(root, sys.modules["szdet"].__file__)
    return modules


class Workload:
    name = ""
    prec = 256
    setup_reps = 5
    imports: tuple = ()
    rss_scope = "self"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.m = {}
        self.state = None

    def op_rng(self, index) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def prepare(self) -> None:
        """Benchmark-side inputs; not part of set-up time."""

    def setup(self, tracer=None) -> float:
        """Import szdet afresh and build the workload's state; returns seconds.

        The previous set-up's modules and state are freed before the clock
        starts, so every repetition begins from the same heap.
        """
        self.m, self.state = {}, None
        drop_szdet()
        gc.collect()
        start = perf_counter()
        self.m = fresh_import(self.root, self.imports)
        if tracer is not None:
            tracer.install()
        try:
            self.state = self.build()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return perf_counter() - start

    def build(self):
        return None

    def run_traced(self, inp, tracer):
        tracer.install()
        try:
            return self.run(inp)
        finally:
            tracer.uninstall()


class DeepSweep(Workload):
    """det^2, D+, D- and the recovered phi at one z, modular group, cutoff 1e5."""

    name = "deep_sweep"
    setup_reps = 3
    cutoff = 10**5
    imports = ("regdet", "zetas", "orbifold")

    def build(self):
        regdet, zetas, orbifold = (self.m[k] for k in self.imports)
        ctx = regdet.SurfaceContext(
            orbifold.modular_orbifold(),
            zetas.ModularGeodesicSource(),
            zetas.ModularScattering(),
            prec=self.prec,
            cutoff_norm=self.cutoff,
        )
        ctx.source.classes(ctx.cutoff_norm, ctx.prec)
        return ctx

    def make_input(self, index, slot):
        return mp.mpc(*seeded_point(slot, self.op_rng(index)))

    def run(self, z):
        regdet, ctx = self.m["regdet"], self.state
        return (
            regdet.det_squared(ctx, z),
            regdet.d_plus(ctx, z),
            regdet.d_minus(ctx, z),
            regdet.phi_from_superzeta(ctx, z),
        )

    def check(self, z, out):
        det, d_plus, d_minus, phi_recovered = out
        phi = self.m["zetas"].ModularScattering().phi(z, self.prec)
        _check_det_and_phi(det, d_plus, d_minus, phi_recovered, phi, self.prec, z)
        return backed_digits(self.state.log_z(z).tail_bound, self.prec, 2)


def _check_det_and_phi(det, d_plus, d_minus, phi_recovered, phi, prec, z):
    with mp.workprec(prec + 16):
        tol = mp.mpf(2) ** (-(prec // 2))
        if not abs(det - d_plus * d_minus) <= tol * abs(det):
            raise CheckFailed(f"det^2 != D+ D- at z = {z}")
        if not abs(phi_recovered - phi) <= tol * abs(phi):
            raise CheckFailed(f"recovered phi != phi at z = {z}")


class CliCold(Workload):
    """One ``python -m szdet.cli detsq`` process per operation."""

    name = "cli_cold"
    setup_reps = 3
    cutoff = 2000
    rss_scope = "children"

    def prepare(self):
        drop_szdet()
        self.m = fresh_import(self.root, ("zetas",))
        self.document = self.workdir / "modular.json"
        self.document.write_text(json.dumps(MODULAR_DOCUMENT, indent=2))
        paths = [str(self.root / "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        probe = subprocess.run(
            [sys.executable, "-c", "import szdet; print(szdet.__file__)"],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if probe.returncode != 0:
            raise SetupError(f"child cannot import szdet: {probe.stderr.strip()}")
        check_location(self.root, probe.stdout.strip())
        self.warmups = 0

    def setup(self, tracer=None):
        """One untimed warm-up invocation; its wall time is the set-up time."""
        self.warmups += 1
        z = self.make_input(f"warmup{self.warmups}", 0)
        start = perf_counter()
        proc = self.run(z)
        elapsed = perf_counter() - start
        self.check(z, proc)
        return elapsed

    def make_input(self, index, slot):
        return seeded_point(slot, self.op_rng(index))

    def _cli_args(self, z):
        return [
            "detsq", "--orbifold", str(self.document), "--z", f"{z[0]!r},{z[1]!r}",
            "--prec", str(self.prec), "--cutoff-norm", str(self.cutoff),
        ]

    def _spawn(self, command):
        return subprocess.run(
            command, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def run(self, z):
        return self._spawn([sys.executable, "-m", "szdet.cli", *self._cli_args(z)])

    def run_traced(self, z, tracer):
        spans = self.workdir / "cli-spans.json"
        spans.unlink(missing_ok=True)
        shim = self.root / "perfbench" / "traced_cli.py"
        proc = self._spawn([sys.executable, str(shim), str(spans), *self._cli_args(z)])
        if spans.exists():
            tracer.merge(json.loads(spans.read_text()))
        return proc

    def check(self, z, proc):
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        rows = {r["label"]: r for r in json.loads(proc.stdout)["rows"]}
        scattering = self.m["zetas"].ModularScattering()
        k, c1, c2 = scattering.constants()
        with mp.workprec(self.prec + 16):
            def value(label):
                return mp.mpc(rows[label]["re"], rows[label]["im"])

            if value("two_path_ok") != 1:
                raise CheckFailed(f"two_path_ok = {rows['two_path_ok']['re']} at z = {z}")
            w = mp.mpc(*z)
            d_plus, d_minus = value("d_plus"), value("d_minus")
            phi_recovered = mp.pi ** (mp.mpf(k) / 2) * mp.exp(c1 * w + c2) * d_minus / d_plus
            phi = scattering.phi(w, self.prec)
            _check_det_and_phi(
                value("det_squared"), d_plus, d_minus, phi_recovered, phi, self.prec, z
            )
            tail = mp.mpf(rows["log_z_tail_bound"]["re"])
        return backed_digits(tail, self.prec, 2)


# omega^m = exp(i pi m / 3) for m = 0..5, as (cos, sin / (sqrt(3) / 2)).
_SIXTH_ROOTS = ((1, 0), (0.5, 1), (-0.5, 1), (-1, 0), (-0.5, -1), (0.5, -1))


def modular_classes(tmax: int) -> list[tuple[int, str]]:
    """(trace, canonical word) of each primitive hyperbolic class of PSL(2,Z), trace <= tmax.

    Classes are cyclic words in L = [[1,1],[0,1]] and R = [[1,0],[1,1]] with
    both letters, walked as blocks L^a R^b; the canonical word is the least
    rotation, which starts at a block.
    """
    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    seen, out = set(), []
    stack = [((1, 0, 0, 1), ())]
    while stack:
        m, blocks = stack.pop()
        a = 1
        while True:
            ml = mul(m, (1, a, 0, 1))
            if ml[0] + ml[1] + ml[3] > tmax:
                break
            b = 1
            while True:
                full = mul(ml, (1, 0, b, 1))
                trace = full[0] + full[3]
                if trace > tmax:
                    break
                cycle = blocks + ((a, b),)
                word = "".join("L" * x + "R" * y for x, y in cycle)
                starts, pos = [], 0
                for x, y in cycle:
                    starts.append(pos)
                    pos += x + y
                canon = min(word[i:] + word[:i] for i in starts)
                if canon not in seen:
                    seen.add(canon)
                    if (canon + canon).find(canon, 1) == len(canon):
                        out.append((trace, canon))
                stack.append((full, cycle))
                b += 1
            a += 1
    out.sort()
    return out


def write_twisted_table(path: Path, cutoff, k: int, prec: int) -> int:
    """Geodesic table of the character chi(L) = omega^k, chi(R) = omega^-k.

    Written in the README's cache format (word, trace, norm, then Re,Im of
    tr chi(P^l) for l = 1, 2, ...).  Each class carries every power l with
    N^(-2l) >= 2^-(prec + 40), enough for any Re z >= 2.  Returns the number
    of classes.
    """
    digits = int(prec * LOG10_2) + 10
    with mp.workprec(prec + 16):
        x = mp.mpf(cutoff)
        half_sqrt3 = mp.sqrt(3) / 2

        def norm(t):
            lam = (t + mp.sqrt(mp.mpf(t) ** 2 - 4)) / 2
            return lam * lam

        tmax = 2
        while norm(tmax + 1) <= x:
            tmax += 1
        lines = []
        for trace, word in modular_classes(tmax):
            n0 = norm(trace)
            powers = int(mp.ceil((prec + 40) * mp.log(2) / (2 * mp.log(n0))))
            degree = word.count("L") - word.count("R")
            cells = [word, str(trace), mp.nstr(n0, digits)]
            for ell in range(1, powers + 1):
                re, im = _SIXTH_ROOTS[(k * degree * ell) % 6]
                cells.append(f"{mp.nstr(mp.mpf(re), digits)},{mp.nstr(im * half_sqrt3, digits)}")
            lines.append("\t".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


class TableTwisted(Workload):
    """log Z_chi at real z from a loaded table of a twisted character, 128 bits."""

    name = "table_twisted"
    setup_reps = 5
    prec = 128
    cutoff = 20000
    imports = ("zetas",)

    def prepare(self):
        self.k = self.rng.randint(1, 5)
        self.table = self.workdir / f"twisted-k{self.k}.tsv"
        write_twisted_table(self.table, self.cutoff, self.k, self.prec)

    def build(self):
        return self.m["zetas"].load_geodesic_table(
            str(self.table), dim=1, prec=self.prec
        )

    def make_input(self, index, slot):
        return mp.mpf(seeded_point(slot, self.op_rng(index))[0])

    def run(self, z):
        return self.m["zetas"].selberg_log_z(self.state, z, self.cutoff, self.prec)

    def check(self, z, out):
        # Inverse classes carry conjugate characters, so at real z the sum is
        # real up to rounding, however it is grouped.
        with mp.workprec(self.prec + 16):
            value = mp.mpc(out.value)
            if not abs(value.imag) <= mp.mpf(2) ** (8 - self.prec) * abs(value):
                raise CheckFailed(f"Im log Z_chi = {mp.nstr(value.imag, 5)} at real z = {z}")
        return backed_digits(out.tail_bound, self.prec, 1)


class OrbifoldPool(Workload):
    """Multiplicities, G1 and generic phi for one random orbifold per operation."""

    name = "orbifold_pool"
    setup_reps = 9
    imports = ("verify", "elliptic", "gfuncs", "zetas", "orbifold")
    n_max = 10
    pool_size = 512

    @functools.cached_property
    def pool(self):
        """512 seeded verify.random_orbifold draws, sorted by their number of Gamma factors.

        Slot 2p takes the draw at rank r = 512 v(p) and slot 2p + 1 the one at
        rank 511 - r, so every run samples the same quantiles of the work per
        orbifold (log G1 evaluates about one log Gamma per elliptic order)
        while each orbifold is still a seeded random draw.
        """
        random_orbifold = self.m["verify"].random_orbifold
        draws = [random_orbifold(self.rng) for _ in range(self.pool_size)]
        return sorted(draws, key=lambda o: (sum(o.signature.elliptic_orders), o.dim))

    def make_input(self, index, slot):
        pair, mirrored = divmod(slot % self.pool_size, 2)
        rank = int(self.pool_size * van_der_corput(pair))
        rank = self.pool_size - 1 - rank if mirrored else rank
        rng = self.op_rng(index)
        points = [
            mp.mpc(_dyadic(rng.uniform(2, 4)), _dyadic(rng.uniform(-3, 3)))
            for _ in range(3)
        ]
        return self.pool[rank], points

    def run(self, inp):
        orb, points = inp
        elliptic, gfuncs = self.m["elliptic"], self.m["gfuncs"]
        multiplicities = [
            (elliptic.m_n_floor(orb, n), elliptic.m_n_spectral(orb, n, self.prec))
            for n in range(self.n_max + 1)
        ]
        gfuncs.g1_coefficients(orb, self.prec)
        scattering = self.m["zetas"].GenericScattering(
            k=self.m["orbifold"].degree_of_singularity(orb.rep)
        )
        values = [
            (gfuncs.log_g1(orb, z, self.prec), scattering.phi(z, self.prec))
            for z in points
        ]
        return multiplicities, values

    def check(self, inp, out):
        multiplicities, values = out
        for n, (floor, spectral) in enumerate(multiplicities):
            if floor != int(mp.nint(spectral)):
                raise CheckFailed(f"m_{n}: floor {floor} != spectral {spectral}")
        for log_g1, phi in values:
            if not (mp.isfinite(log_g1) and mp.isfinite(phi)):
                raise CheckFailed("log G1 or phi is not finite")
        return self.prec * LOG10_2


WORKLOADS = {w.name: w for w in (DeepSweep, CliCold, TableTwisted, OrbifoldPool)}
