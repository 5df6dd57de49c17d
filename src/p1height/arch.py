"""Archimedean height series by renormalized high-precision iteration.

Scale the point to sup norm 1, apply the lift, read off the norm
m_n = ||Phi(u_n)||, rescale the image to sup norm 1, repeat.  The series
is sum_n -log(m_n)/d^(n+1).  Renormalizing every step keeps all
magnitudes inside [||Phi||_min, 1], so nothing ever overflows or underflows,
and it makes each step value available with no d*log||u|| correction.  The
norms fold into one product B = prod_n m_n^(d^(terms-1-n)) by
B <- B^d * m_n, so a run takes one logarithm: value = -log(B)/d^terms.

Truncation is controlled by a uniform bound on the step values: the
triangle inequality bounds ||Phi(u)|| from above by (d+1)*coeff_norm, and
evaluating the exact cofactor identities

    a1*F + b1*G = Res * X^(2d-1),   a2*F + b2*G = Res * Y^(2d-1)

at a unit-norm pair bounds it from below by |Res|/(2d*cofactor_norm).  The
resulting truncation bound is proved, and so is the bound on the error of
summing the norms (see arch_height); the rounding budget of
terms * 2^(8 - precision) for the orbit itself is asserted, not proved
(ROADMAP item 2).

The step kernel calls mpmath's libmp primitives on raw values, so no mpf
object is built per operation.  It makes the same correctly rounded
operations in the same order as the mpf-operator loop it replaced, but
calls libmp only for the inexact ones and writes each exact one (a product
by +-2^e, such as a coordinate +-1 or a coefficient 1, 2, 4 or 8, an
absolute value, a sum with zero) as the value libmp returns, so every unit
pair and norm of the orbit is bit-identical to that loop's.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (
    fnone, fone, from_int, mpf_add, mpf_div, mpf_log, mpf_lt, mpf_mul, mpf_neg,
    mpf_pow_int, round_nearest,
)

from .forms import MapLift, ProjectivePoint
from .numerics import resolve_precision_bits

__all__ = ["ArchResult", "arch_height", "arch_step", "arch_step_bound"]


@dataclass(frozen=True)
class ArchResult:
    """Truncated archimedean series with tail bound and precision bookkeeping.

    value: sum_{n<terms} step_n / d^(n+1) with step_n = -log||Phi(u_n)||,
        taken as -log(B)/d^terms with B = prod_n ||Phi(u_n)||^(d^(terms-1-n)).
    tail_bound: step_bound/((d-1) d^terms), plus the orbit's rounding budget,
        plus the error of summing the norms (see arch_height).
    step_bound: rigorous uniform bound on every |step_n| (arch_step_bound).
    """

    value: mp.mpf
    tail_bound: mp.mpf
    step_bound: mp.mpf
    precision_bits: int
    terms: int


# +1 and -1, indexed by an mpf's sign bit
_UNIT = (fone, fnone)
# bits above the run's precision at which the norms are folded into one product
_SUM_GUARD_BITS = 16


def _raw_coefficients(lift: MapLift, prec: int):
    """F's and G's coefficients as libmp values rounded to prec bits."""
    return [[from_int(c, prec, round_nearest) for c in f.coefficients] for f in (lift.F, lift.G)]


def _step(fc, gc, ux, uy, prec: int):
    """(Phi(u)/m, m) for the unit pair u = (ux, uy), m = max(|F(u)|, |G(u)|).

    Horner in x with the powers of y alongside, acc = acc*x + c*y^i, each
    inexact operation rounded to nearest at prec bits by libmp.  Each exact
    one is written as the value libmp returns: F and G share the y-powers,
    y^1 is uy itself (uy has prec bits), a zero coefficient or y-power adds
    nothing, and a sum with a zero accumulator is the addend.  A factor
    +-2^e (mantissa 1), such as ux or uy = +-1 or a coefficient 1, 2, 4 or 8
    in absolute value, multiplies by moving an exponent and flipping a sign,
    and so do the powers of such a uy.  |F(u)| and |G(u)| clear the sign
    bit, and the coordinate whose absolute value is m becomes +-1 (|F(u)|
    on a tie, as max keeps its first argument).  libmp's zero (0, 0, 0, 0)
    passes every shortcut unchanged.
    """
    rnd = round_nearest
    if uy[1] == 1:
        ys = [(uy[0] & i, uy[1], uy[2] * i, 1) for i in range(1, len(fc))]
    else:
        ys = [uy]
        for _ in range(len(fc) - 2):
            ys.append(mpf_mul(ys[-1], uy, prec, rnd))
    xs, xm, xe, _ = ux
    fa, ga = fc[0], gc[0]
    for cf, cg, yp in zip(fc[1:], gc[1:], ys):
        if xm == 1:
            if fa[1]:
                fa = (fa[0] ^ xs, fa[1], fa[2] + xe, fa[3])
            if ga[1]:
                ga = (ga[0] ^ xs, ga[1], ga[2] + xe, ga[3])
        else:
            fa = mpf_mul(fa, ux, prec, rnd)
            ga = mpf_mul(ga, ux, prec, rnd)
        if not yp[1]:
            continue
        if cf[1]:
            if cf[1] == 1 or yp[1] == 1:
                t = (cf[0] ^ yp[0], cf[1] * yp[1], cf[2] + yp[2], cf[3] + yp[3] - 1)
            else:
                t = mpf_mul(cf, yp, prec, rnd)
            fa = mpf_add(fa, t, prec, rnd) if fa[1] else t
        if cg[1]:
            if cg[1] == 1 or yp[1] == 1:
                t = (cg[0] ^ yp[0], cg[1] * yp[1], cg[2] + yp[2], cg[3] + yp[3] - 1)
            else:
                t = mpf_mul(cg, yp, prec, rnd)
            ga = mpf_add(ga, t, prec, rnd) if ga[1] else t
    afa, aga = (0, fa[1], fa[2], fa[3]), (0, ga[1], ga[2], ga[3])
    if mpf_lt(afa, aga):
        return mpf_div(fa, aga, prec, rnd), _UNIT[ga[0]], aga
    if not afa[1]:
        raise ValueError(
            f"both forms vanished at the {prec}-bit working precision, which a "
            "morphism does only when it is too low; raise precision_bits (--precision)"
        )
    return _UNIT[fa[0]], mpf_div(ga, afa, prec, rnd), afa


def arch_step(lift: MapLift, u) -> mp.mpf:
    """One series step at a unit-sup-norm real pair: -log max(|F(u)|, |G(u)|).

    The pair must already satisfy max(|u_x|, |u_y|) = 1 up to a few ulp at
    the current working precision; scaling input is the caller's job, which
    is what makes the step value readable without a norm correction.
    """
    prec = mp.mp.prec
    ux, uy = mp.mpf(u[0]), mp.mpf(u[1])
    norm = max(abs(ux), abs(uy))
    if abs(norm - 1) > mp.mpf(2) ** (4 - prec):
        raise ValueError("arch_step needs sup norm 1; divide the pair by its sup norm first")
    _, _, m = _step(*_raw_coefficients(lift, prec), ux._mpf_, uy._mpf_, prec)
    return -mp.log(mp.make_mpf(m))


def arch_step_bound(lift: MapLift) -> mp.mpf:
    """Rigorous uniform bound on |arch_step| over all unit-sup-norm pairs.

    Upper side: each form has at most d+1 monomials of size at most
    coeff_norm on unit inputs, so ||Phi(u)|| <= (d+1)*coeff_norm.  Lower
    side: the cofactor identity for the coordinate realizing the unit norm
    gives |Res| <= 2d * cofactor_norm * ||Phi(u)||.  The bound is the larger
    of log((d+1)*coeff_norm) and log(2d*cofactor_norm/|Res|), picked by
    comparing exact integers so only one logarithm is taken, clamped below
    at 0.  Computed at the current working precision.
    """
    d = lift.degree
    R = abs(lift.resultant)
    upper = (d + 1) * lift.coeff_norm
    lower = 2 * d * lift.cofactor_identity.coeff_norm
    side = mp.mpf(upper) if upper * R >= lower else mp.mpf(lower) / R
    return max(mp.log(side), mp.mpf(0))


def arch_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    precision_bits: int | None = None,
) -> ArchResult:
    """Truncated archimedean series at P by renormalized iteration.

    The orbit's norms m_n fold into B <- B^d * m_n, each operation rounded
    to nearest at wp = bits + _SUM_GUARD_BITS, and value = -log(B)/d^terms,
    since log B = sum_n d^(terms-1-n) * log m_n.

    Summation error, against the exact sum_n -log(m_n)/d^(n+1) of the
    computed norms, with eps = 2^-wp: mpf_mul rounds once (relative error
    at most eps) and mpf_pow_int rounds once after a guarded power (at most
    2*eps), so step n moves log B by at most 4*eps.  Each later step raises
    B to the power d, so in the value that error is
    4*eps * d^(terms-1-n) / d^terms = 4*eps / d^(n+1); over all steps it
    stays below 4*eps/(d-1) <= 4*eps, with no factor of terms.  mpf_log
    works 20 bits above wp and rounds once; its relative error, charged at
    2*eps, adds 2*eps*|value|.  The final division by the exact integer
    d^terms rounds once at bits, adding 2^-bits * |value|.  With the 16-bit
    guard the total is below (1 + |value|) * 2^-bits, and tail_bound
    charges twice that.

    The full series differs from the returned value by at most
    tail_bound = step_bound/((d-1) d^terms) + terms * 2^(8 - bits)
    + (1 + |value|) * 2^(1 - bits).  The truncation term and the summation
    term are proved; the orbit's rounding budget terms * 2^(8 - bits) is
    asserted, not proved.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    d = lift.degree
    rnd = round_nearest
    fc, gc = _raw_coefficients(lift, bits)
    scale = from_int(max(abs(P.x), abs(P.y)), bits, rnd)
    ux, uy = (mpf_div(from_int(v, bits, rnd), scale, bits, rnd) for v in (P.x, P.y))
    wp = bits + _SUM_GUARD_BITS
    B = fone
    for _ in range(terms):
        ux, uy, m = _step(fc, gc, ux, uy, bits)
        B = mpf_mul(mpf_pow_int(B, d, wp, rnd), m, wp, rnd)
    dn = d**terms
    value = mp.make_mpf(mpf_neg(mpf_div(mpf_log(B, wp, rnd), from_int(dn), bits, rnd)))
    with mp.workprec(bits):
        bound = arch_step_bound(lift)
        tail = (
            bound / ((d - 1) * dn)
            + terms * mp.mpf(2) ** (8 - bits)
            + (1 + abs(value)) * mp.mpf(2) ** (1 - bits)
        )
    return ArchResult(
        value=value,
        tail_bound=tail,
        step_bound=bound,
        precision_bits=bits,
        terms=terms,
    )
