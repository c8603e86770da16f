"""The toy Voros engine: superzeta sums and regularized products over an
explicit zero list.

Voros's construction (Commun. Math. Phys. 110 (1987)) regularizes a product
over zeros y_k through the superzeta function sum_k (z - y_k)^(-s); on the
zeros y_k = -k of 1/Gamma it must reproduce Lerch's formula and the Hurwitz
zeta function.  Tests run it as an independent route; the library does not
evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from mpmath import mp

from szdet.errors import BranchError, ConvergenceError
from szdet.gfuncs import ExpansionCoefficients
from szdet.numerics import DEFAULT_PREC, _is_real, _real, _rounded, to_scalar
from szdet.zetas import ValueWithTail


def plog(z):
    """Principal log; BranchError exactly on the cut (-inf, 0]."""
    if _is_real(z) and _real(z) <= 0:
        raise BranchError(f"log argument {z} lies on the cut (-inf, 0]")
    return mp.log(z)


@dataclass
class SuperzetaInput:
    """Explicit zeros y_k (with multiplicity), expansion coefficients of the
    Hadamard-normalized log Delta_f, and an evaluator for Delta_f itself."""

    zeros: tuple
    coeffs: ExpansionCoefficients
    evaluator: Callable


def superzeta_direct(
    inp: SuperzetaInput, s, z, cutoff: Optional[int] = None, prec: int = DEFAULT_PREC
) -> ValueWithTail:
    """sum_k (z - y_k)^(-s) over the listed zeros, with an integral tail bound.

    Convergent for Re(s) > 2 (order-two zero counting); the tail estimate
    assumes the zeros keep roughly their trailing mean spacing.  Raises
    BranchError when some z - y_k lies on the cut (-inf, 0].
    """
    wp = prec + 16
    with mp.workprec(wp):
        ss = to_scalar(s, wp)
        w = to_scalar(z, wp)
        if _real(ss) <= 2:
            raise ConvergenceError("superzeta direct sum requires Re(s) > 2")
        zeros = inp.zeros[:cutoff] if cutoff is not None else inp.zeros
        total = mp.mpf(0)
        for y in zeros:
            total += mp.exp(-ss * plog(w - to_scalar(y, wp)))
        if zeros:
            sigma = _real(ss)
            r = abs(w - to_scalar(zeros[-1], wp))
            tailk = min(len(zeros) - 1, 5)
            gap = (
                abs(to_scalar(zeros[-1], wp) - to_scalar(zeros[-1 - tailk], wp)) / tailk
                if tailk
                else mp.mpf(1)
            )
            gap = gap if gap > 0 else mp.mpf(1)
            tail = 2 * r ** (1 - sigma) / ((sigma - 1) * gap)
        else:
            tail = mp.mpf(0)
    return ValueWithTail(_rounded(prec, total), _rounded(prec, tail))


def voros_product(inp: SuperzetaInput, z, prec: int = DEFAULT_PREC):
    """D_f(z) = exp(-(b1 z + b0)) Delta_f(z).

    Equals exp(-d/ds SZ_f(s, z)|_{s=0}) whenever log Delta_f satisfies the
    order-two asymptotic template with the supplied coefficients.
    """
    with mp.workprec(prec + 16):
        w = to_scalar(z, prec + 16)
        expo = (
            to_scalar(inp.coeffs.b1, prec + 16) * w
            + to_scalar(inp.coeffs.b0, prec + 16)
        )
        val = mp.exp(-expo) * inp.evaluator(w, prec + 16)
    return _rounded(prec, val)
