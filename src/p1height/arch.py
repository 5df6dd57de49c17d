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

The orbit and the fold of its norms run on Python ints, with no libmp call:
each operation on pairs (m, e) = m*2^e is exact and then rounded by _round
to the value libmp returns, so the orbit is the mpf-operator loop's exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_log, mpf_neg, round_nearest

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


# bits above the run's precision at which the norms are folded into one product
_SUM_GUARD_BITS = 16


def _round(m: int, e: int, prec: int):
    """m*2^e, m signed and 0 for zero, rounded to nearest, ties to even, to
    prec bits.  >> floors, so it drops a remainder; a carry gives +-2^prec."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    t = m >> (n - 1)
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, e + n
    return t >> 1, e + n


def _from_int(n: int, prec: int):
    """n rounded to prec bits, as from_int; a power of two gets mantissa +-1."""
    z = max((n & -n).bit_length() - 1, 0)
    return _round(n >> z, z, prec)


def _add(a, b, prec: int):
    """a + b rounded to prec bits, for operands of prec bits.  With leading bits
    over prec + 4 apart it is the larger one, as mpf_add's sticky bit rounds off."""
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return b if am == 0 else a
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    if ae - be + am.bit_length() - bm.bit_length() > prec + 4:
        return am, ae
    return _round((am << ae - be) + bm, be, prec)


def _div(a, b, prec: int):
    """a/b rounded to prec bits for operands of prec bits, b != 0, as in mpf_div:
    a quotient of prec + 5 bits or more, and a sticky bit if r != 0 (r/b in (0, 1))."""
    (am, ae), (bm, be) = a, b
    extra = prec - am.bit_length() + bm.bit_length() + 5
    q, r = divmod(am << extra, bm)
    return _round(2 * q + 1, ae - be - extra - 1, prec) if r else _round(q, ae - be - extra, prec)


def _raw_coefficients(lift: MapLift, prec: int):
    """F's and G's coefficients as int pairs rounded to prec bits."""
    return [[_from_int(c, prec) for c in f.coefficients] for f in (lift.F, lift.G)]


def _step(fc, gc, ux, uy, prec: int):
    """(Phi(u)/m, m) for the unit pair u = (ux, uy), m = max(|F(u)|, |G(u)|).

    Horner in x, yp = yp*y shared by F and G, acc = acc*x + c*yp, as the
    mpf-operator loop; a result calls _round only if it outgrows prec bits.
    The coordinate whose absolute value is m becomes +-1 (|F(u)|'s on a tie,
    as max keeps its first argument) and the other is divided by m.
    """
    (xm, xe), (ym, ye), pm, pe = ux, uy, 1, 0
    (fm, fe), (gm, ge) = fc[0], gc[0]
    for (cm, ce), (km, ke) in zip(fc[1:], gc[1:]):
        pm, pe = pm * ym, pe + ye
        pm, pe = _round(pm, pe, prec) if pm.bit_length() > prec else (pm, pe)
        fm, fe = fm * xm, fe + xe
        fm, fe = _round(fm, fe, prec) if fm.bit_length() > prec else (fm, fe)
        if cm:  # a zero coefficient adds nothing
            tm, te = cm * pm, ce + pe
            fm, fe = _add((fm, fe), _round(tm, te, prec) if tm.bit_length() > prec else (tm, te), prec)
        gm, ge = gm * xm, ge + xe
        gm, ge = _round(gm, ge, prec) if gm.bit_length() > prec else (gm, ge)
        if km:
            tm, te = km * pm, ke + pe
            gm, ge = _add((gm, ge), _round(tm, te, prec) if tm.bit_length() > prec else (tm, te), prec)
    af, ag = abs(fm), abs(gm)
    lead = af.bit_length() + fe - ag.bit_length() - ge if af and ag else af - ag
    if not lead and af:  # equal leading bits: the exponents lie < prec + 2 apart
        lead = (af << fe - ge) - ag if fe >= ge else af - (ag << ge - fe)
    if lead < 0:
        return _div((fm, fe), (ag, ge), prec), (1 if gm > 0 else -1, 0), (ag, ge)
    if not af:
        raise ValueError(
            f"both forms vanished at the {prec}-bit working precision, which a "
            "morphism does only when it is too low; raise precision_bits (--precision)"
        )
    return (1 if fm > 0 else -1, 0), _div((gm, ge), (af, fe), prec), (af, fe)


def _sum_norms(norms, d: int, bits: int) -> mp.mpf:
    """sum_n -log(m_n)/d^(n+1) over the N norms as -log(B)/d^N, B folded on
    ints as arch_height derives, so that no int exceeds 2w + bits(m_n) bits."""
    wp = bits + _SUM_GUARD_BITS
    w, bm, be = wp + d.bit_length() + 2, 1, 0
    for mm, me in norms:
        pm, pe = bm, be
        for bit in bin(d)[3:]:
            pm, pe = _round(pm * pm, 2 * pe, w)
            if bit == "1":
                pm, pe = _round(pm * bm, pe + be, w)
        bm, be = _round(pm * mm, pe + me, wp)
    dn, rnd = d ** len(norms), round_nearest
    log_b = mpf_log(from_man_exp(bm, be), wp, rnd)
    return mp.make_mpf(mpf_neg(mpf_div(log_b, from_int(dn), bits, rnd)))


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
    pairs = [(-man if sign else man, exp) for sign, man, exp, _ in (ux._mpf_, uy._mpf_)]
    _, _, m = _step(*_raw_coefficients(lift, prec), *pairs, prec)
    return -mp.log(mp.make_mpf(from_man_exp(*m)))


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

    value = -log(B)/d^terms, as log B = sum_n d^(terms-1-n) * log m_n, with
    B <- B^d * m_n on ints (_sum_norms): B^d by left-to-right
    square-and-multiply, each product rounded to w = wp + bitlen(d) + 2
    bits, then the product by m_n rounded to wp = bits + _SUM_GUARD_BITS.

    Summation error, against the exact sum_n -log(m_n)/d^(n+1) of the
    computed norms, with eps = 2^-wp: rounding to w bits moves a log by at
    most tau = 2^-w * (1 + 2^(1-w)).  If the partial power for B^j is within
    (2j - 1)*tau of j*log B (B^1 is exact), its square is within
    (2*2j - 1)*tau and that times B within (2*(2j+1) - 1)*tau, so B^d is
    within (2d - 1)*tau < eps/2, as d < 2^bitlen(d); the product by m_n
    adds below eps*(1 + 2*eps), so step n moves log B by under 2*eps, and
    in the value by 2*eps * d^(terms-1-n) / d^terms = 2*eps / d^(n+1), as
    each later step raises B to the power d.  Over all steps that stays
    below 2*eps/(d-1) <= 2*eps, with no factor of terms.  mpf_log
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
    fc, gc = _raw_coefficients(lift, bits)
    scale = _from_int(max(abs(P.x), abs(P.y)), bits)
    ux, uy = (_div(_from_int(v, bits), scale, bits) for v in (P.x, P.y))
    norms = []
    for _ in range(terms):
        ux, uy, m = _step(fc, gc, ux, uy, bits)
        norms.append(m)
    value = _sum_norms(norms, d, bits)
    dn = d**terms
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
