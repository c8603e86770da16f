"""Command-line surface: parse orbifold documents, compute, verify.

Subcommands
    mn      --orbifold DOC --n-max N        trivial-zero multiplicity table
    detsq   --orbifold DOC --z RE[,IM]      det^2 and its constituents
    verify  SUITE                           run invariant suites

Flags: --prec <bits>, at least 53 (default 256 for mn and detsq, 192 for
verify); mn and detsq take --format json|csv (default json), and detsq takes
--cutoff-norm <real> (default 1e6).  detsq reads --z and --cutoff-norm at
the working precision, --prec plus 16 bits.

Exit codes: 0 ok, 2 domain error, 64 usage, 70 internal.

The orbifold document is JSON:

    {
      "schema": 1,
      "genus": 0, "cusps": 1, "rep_dim": 1,
      "elliptic": [{"order": 2, "exponents": [0]},
                   {"order": 3, "exponents": [0]}],
      "cusp_data": [{"fixed_dim": 1, "angles": []}],
      "scattering": {"model": "modular"}          // or {"model": "generic",
                                                  //     "file": "terms.dat"}
    }

"modular" scattering is permitted only with the modular signature and a
trivial one-dimensional representation.  Every numeric cell in the output
carries its precision in bits and a certified digit count; rows with a
truncation tail carry it in the ``tail`` column.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpc, mpf

from . import regdet, zetas
from .elliptic import m_n_floor, m_n_spectral
from .errors import SZDetError
from .numerics import DEFAULT_PREC, to_scalar
from .orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    Signature,
    modular_orbifold,
    modular_signature,
    trivial_rep,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# the least --prec, that of an IEEE double; from there on verify's
# tolerances 2^(20 - prec) and 2^(-prec/2) stay far below 1
MIN_PREC = 53

# the parser builds one entry per cusp; ~115 B each, so 10,000 cost ~1 MB
MAX_CUSPS = 10_000
# mn keeps 3d sines and roots of unity per elliptic order d, ~1 KB per unit
# of d at 256 bits; one order of 10,000 runs mn in ~35 MB
MAX_ORDER_SUM = 10_000
# a document decimal becomes the fraction it writes, which expands
# 10^|exponent|: that takes minutes at 10^8, microseconds at 10^4000
MAX_DECIMAL_EXPONENT = 4000


class UsageError(Exception):
    pass


class DocumentError(Exception):
    """Orbifold document failed validation; message carries the field path."""


@dataclass
class ResultRow:
    label: str
    value: object  # mpf/mpc/int
    prec_bits: int
    tail: Optional[object] = None

    def digits(self) -> int:
        """Certified decimal digits: from the tail bound when present."""
        full = int(self.prec_bits * 0.30103)
        if self.tail is None:
            return full
        with mp.workprec(64):
            t = abs(to_scalar(self.tail, 64))
            if t == 0:
                return full
            v = abs(to_scalar(self.value, 64))
            if v == 0:
                return 0
            rel = t / v
            if rel >= 1:
                return 0
            return min(full, int(-mp.log10(rel)))


def _row_dict(row: ResultRow) -> dict:
    with mp.workprec(row.prec_bits):
        v = mp.mpc(to_scalar(row.value, row.prec_bits))
        digits = int(row.prec_bits * 0.30103) + 2
        out = {
            "label": row.label,
            "re": mp.nstr(v.real, digits),
            "im": mp.nstr(v.imag, digits),
            "prec_bits": row.prec_bits,
            "certified_digits": row.digits(),
            "tail": mp.nstr(to_scalar(row.tail, 64), 4) if row.tail is not None else None,
        }
    return out


def emit_table(rows: list[ResultRow], fmt: str, meta: dict) -> str:
    dicts = [_row_dict(r) for r in rows]
    if fmt == "json":
        return json.dumps({"schema": 1, **meta, "rows": dicts}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["label", "re", "im", "prec_bits", "certified_digits", "tail"]
    )
    writer.writeheader()
    for d in dicts:
        writer.writerow(d)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Orbifold document
# ---------------------------------------------------------------------------


def parse_orbifold_document(doc: dict, prec: int):
    """Validate a JSON document into (OrbifoldData, scattering model or None);
    a field of the wrong JSON type is a DocumentError naming its path.  A
    generic scattering file is read at prec + 16 bits, the working precision
    of a command at ``prec`` bits."""

    def fail(path, msg):
        raise DocumentError(f"{path}: {msg}")

    kinds = {"an object": dict, "a list": list, "an integer": int,
             "a number": (int, float, Fraction)}

    def typed(path, value, kind):
        if isinstance(value, bool) or not isinstance(value, kinds[kind]):
            shown = str(value) if isinstance(value, Fraction) else repr(value)
            fail(path, f"expected {kind}, got {shown}")
        return value

    def listed(path, value, kind):
        return tuple(typed(f"{path}[{j}]", v, kind)
                     for j, v in enumerate(typed(path, value, "a list")))

    typed("$", doc, "an object")
    if typed("schema", doc.get("schema", 1), "an integer") != 1:
        fail("schema", f"unsupported schema version {doc.get('schema')}")
    for key in ("genus", "cusps", "rep_dim"):
        if key not in doc:
            fail(key, "missing required field")
        typed(key, doc[key], "an integer")
    if doc["cusps"] > MAX_CUSPS:
        fail("cusps", f"{doc['cusps']} cusps exceed the limit of {MAX_CUSPS}")
    orders, exponents = [], []
    for i, e in enumerate(listed("elliptic", doc.get("elliptic", []), "an object")):
        if "order" not in e or "exponents" not in e:
            fail(f"elliptic[{i}]", "needs 'order' and 'exponents'")
        orders.append(typed(f"elliptic[{i}].order", e["order"], "an integer"))
        exponents.append(
            listed(f"elliptic[{i}].exponents", e["exponents"], "an integer"))
    if sum(orders) > MAX_ORDER_SUM:
        fail("elliptic", f"orders summing to {sum(orders)} exceed the limit "
                         f"of {MAX_ORDER_SUM}")
    h = doc["rep_dim"]
    cusp_spec = doc.get(
        "cusp_data", [{"fixed_dim": h, "angles": []}] * doc["cusps"]
    )
    cusps = []
    for i, cd in enumerate(listed("cusp_data", cusp_spec, "an object")):
        if "fixed_dim" not in cd:
            fail(f"cusp_data[{i}]", "needs 'fixed_dim'")
        cusps.append(CuspData(
            typed(f"cusp_data[{i}].fixed_dim", cd["fixed_dim"], "an integer"),
            listed(f"cusp_data[{i}].angles", cd.get("angles", []), "a number"),
        ))
    try:
        sig = Signature(doc["genus"], doc["cusps"], tuple(orders))
        rep = RepresentationData(h, tuple(exponents), tuple(cusps))
        orb = OrbifoldData(sig, rep)
    except SZDetError as exc:
        raise DocumentError(f"orbifold: {exc}") from exc

    scattering = None
    sc = doc.get("scattering")
    if sc is not None:
        model = typed("scattering", sc, "an object").get("model")
        if model == "modular":
            if sig != modular_signature() or rep != trivial_rep(sig, 1):
                fail(
                    "scattering.model",
                    "'modular' requires the modular signature (0;1;2,3) "
                    "with the trivial 1-dimensional representation",
                )
            scattering = zetas.ModularScattering()
        elif model == "generic":
            if not isinstance(sc.get("file"), str):
                fail("scattering.file", "generic scattering needs a data file path")
            try:
                scattering = zetas.load_generic_scattering(sc["file"], prec + 16)
            except (OSError, SZDetError, ValueError) as exc:
                fail("scattering.file", str(exc))
        else:
            fail("scattering.model", f"unknown model {model!r}")
    return orb, scattering


def _exact_decimal(text: str) -> Fraction:
    """A JSON decimal as the fraction it writes, so 0.2 is 1/5 exactly."""
    if abs(Decimal(text).as_tuple().exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal {text[:30]} has an exponent beyond "
                         f"{MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


def _load_document(path: str, prec: int):
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_exact_decimal)
    except OSError as exc:
        raise DocumentError(f"orbifold file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"orbifold file line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # the exponent bound, or Python's int digit limit
        raise DocumentError(f"orbifold file: {exc}") from exc
    return parse_orbifold_document(doc, prec)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_mn(orb: OrbifoldData, n_max: int, prec: int, fmt: str) -> str:
    rows = []
    for n in range(n_max + 1):
        fl = m_n_floor(orb, n)
        sp = m_n_spectral(orb, n, prec)
        rows.append(ResultRow(f"m_{n}", fl, prec))
        rows.append(ResultRow(f"spectral_residual_{n}", sp - fl, prec))
    return emit_table(rows, fmt, {"command": "mn", "precision_bits": prec})


def _reals(text: str, prec: int) -> list:
    """The comma-separated reals of an option, read at the command's working
    precision, prec + 16 bits, so that a decimal is not first rounded to a
    double; [] when some part does not parse."""
    with mp.workprec(prec + 16):
        try:
            return [mpf(p) for p in text.split(",")]
        except (ValueError, ZeroDivisionError):  # mpf reads "1/0" as a ratio
            return []


def _parse_z(text: str, prec: int):
    """--z, one or two finite reals at the working precision."""
    parts = _reals(text, prec)
    if 1 <= len(parts) <= 2 and all(mp.isfinite(p) for p in parts):
        with mp.workprec(prec + 16):
            return parts[0] if len(parts) == 1 else mpc(*parts)
    raise UsageError(f"cannot parse --z value {text!r}; use finite RE or RE,IM")


def _parse_cutoff(text: str, prec: int):
    """--cutoff-norm, one real at the working precision; the Euler sum
    refuses a negative or non-finite one."""
    parts = _reals(text, prec)
    if len(parts) == 1:
        return parts[0]
    raise UsageError(f"cannot parse --cutoff-norm value {text!r}; use one real")


def cmd_detsq(orb, scattering, z, prec: int, cutoff, fmt: str) -> str:
    if scattering is None:
        raise DocumentError(
            "scattering: detsq needs a scattering model in the document"
        )
    # the signature first: a modular document lists rep_dim exponents per
    # elliptic order, so only then is the trivial representation cheap to build
    if orb.signature != modular_signature() or orb != modular_orbifold(orb.dim):
        raise DocumentError(
            "geodesics: detsq enumerates geodesics only for the modular group "
            "(0;1;2,3) with a trivial representation"
        )
    ctx = regdet.SurfaceContext(
        orb, zetas.ModularGeodesicSource(dim=orb.dim), scattering,
        prec=prec, cutoff_norm=cutoff,
    )
    point = ctx.point(z)
    tail = point.log_z.tail_bound
    with mp.workprec(prec + 8):
        det = regdet.det_squared(ctx, z)
        dp = regdet.d_plus(ctx, z)
        dm = regdet.d_minus(ctx, z)
        two_path = abs(det - dp * dm) / abs(det)
        rows = [
            ResultRow("det_squared", det, prec, tail=tail),
            ResultRow("d_plus", dp, prec, tail=tail),
            ResultRow("d_minus", dm, prec, tail=tail),
            ResultRow("phi", point.phi, prec),
            ResultRow("selberg_z_truncated", mp.exp(point.log_z.value), prec, tail=tail),
            ResultRow("g1", mp.exp(point.log_g1), prec),
            ResultRow("log_z_tail_bound", tail, prec),
            ResultRow("two_path_residual", two_path, prec),
            ResultRow("two_path_ok", int(two_path < mpf(2) ** (-prec // 2)), prec),
        ]
    return emit_table(rows, fmt, {"command": "detsq", "precision_bits": prec})


def cmd_verify(suite: str, prec: int, out=None) -> int:
    from . import verify  # the suites and their oracles stay off detsq and mn

    try:
        results = verify.run_suite(suite, prec)
    except KeyError:
        raise UsageError(
            f"unknown suite {suite!r}; choose from elliptic, special, "
            "scattering, regdet, all"
        )
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}{detail}", file=out)
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return EXIT_OK if failed == 0 else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="szdet", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prec", type=int, default=DEFAULT_PREC,
                        help="working precision in bits (default 256)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--orbifold", required=True,
                        help="path to the orbifold JSON document")

    mn = sub.add_parser("mn", help="trivial-zero multiplicity table")
    common(mn)
    mn.add_argument("--n-max", type=int, default=10)

    dq = sub.add_parser("detsq", help="regularized determinant at z")
    common(dq)
    dq.add_argument("--z", required=True, help="evaluation point RE or RE,IM")
    dq.add_argument("--cutoff-norm", default="1e6",
                    help="Euler-product norm cutoff (default 1e6)")

    vf = sub.add_parser("verify", help="run invariant suites")
    vf.add_argument("suite",
                    help="elliptic | special | scattering | regdet | all")
    vf.add_argument("--prec", type=int, default=192)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.prec < MIN_PREC:
            raise UsageError(f"--prec must be at least {MIN_PREC} bits, "
                             f"got {args.prec}")
        if args.command == "verify":
            return cmd_verify(args.suite, args.prec)
        orb, scattering = _load_document(args.orbifold, args.prec)
        if args.command == "mn":
            if args.n_max < 0:
                raise UsageError("--n-max must be nonnegative")
            sys.stdout.write(cmd_mn(orb, args.n_max, args.prec, args.format))
            return EXIT_OK
        if args.command == "detsq":
            z = _parse_z(args.z, args.prec)
            cutoff = _parse_cutoff(args.cutoff_norm, args.prec)
            sys.stdout.write(
                cmd_detsq(orb, scattering, z, args.prec, cutoff, args.format)
            )
            return EXIT_OK
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SZDetError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
