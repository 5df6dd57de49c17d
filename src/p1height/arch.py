"""Archimedean height series by renormalized fixed-point iteration.

Scale the point to sup norm 1, apply the lift, read off the norm
m_n = ||Phi(u_n)||, rescale the image to sup norm 1, repeat.  The series
is sum_n -log(m_n)/d^(n+1).  Renormalizing every step keeps all
magnitudes inside [||Phi||_min, (d+1)*coeff_norm], so nothing ever
overflows or underflows, and it makes each step value available with no
d*log||u|| correction.  The norms fold into one product
B = prod_n m_n^(d^(terms-1-n)) by B <- B^d * m_n, so a run takes one
logarithm: value = -log(B)/d^terms.

Truncation is controlled by a uniform bound on the step values: the
triangle inequality bounds ||Phi(u)|| from above by (d+1)*coeff_norm, and
evaluating the exact cofactor identities

    a1*F + b1*G = Res * X^(2d-1),   a2*F + b2*G = Res * Y^(2d-1)

at a unit-norm pair bounds it from below by L = |Res|/(2d*cofactor_norm).

The orbit runs in fixed point on Python ints, with no libmp call.  A unit
pair is (1, t/2^p) or (t/2^p, 1) with an int |t| <= 2^p, so F and G there
are Horner chains acc = (acc*t >> p) + (c << p).  Each >> floors, and
|t/2^p| <= 1 never magnifies an earlier error, so each value is off by
under d units of 2^-p, however much its terms cancel.  p = bits + guard
(_guard_bits) holds that and the floor of the next t to 2^-(bits+2) of
each norm.  The truncation and summation bounds are proved (arch_height);
the budget terms * 2^(8 - bits) for the propagation of these errors along
the orbit is asserted, not proved (ROADMAP item 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_log, mpf_lt, mpf_neg,
    mpf_shift, round_nearest,
)

from .forms import MapLift, ProjectivePoint
from .numerics import resolve_precision_bits

__all__ = ["ArchResult", "arch_height", "arch_step", "arch_step_bound"]


@dataclass(frozen=True)
class ArchResult:
    """Truncated archimedean series with tail bound and precision bookkeeping.

    value: sum_{n<terms} step_n / d^(n+1) with step_n = -log||Phi(u_n)||,
        taken as -log(B)/d^terms with B = prod_n ||Phi(u_n)||^(d^(terms-1-n)).
        Each norm is a Horner value within d units of 2^-p of the exact
        norm at its unit pair, which the guard in p = precision_bits + guard
        makes 2^-(precision_bits+2) relative (_guard_bits).
    tail_bound: step_bound/((d-1) d^terms), plus the orbit's asserted
        budget terms * 2^(8 - precision_bits), plus the error of summing
        the norms (see arch_height).
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


def _guard_bits(lift: MapLift) -> int:
    """Bits above the run's precision at which the orbit runs.

    A step's own errors, in units of 2^-p: under d in each Horner value, and
    the floor of t', which moves the forms at the next pair by under
    d(d+1)*coeff_norm, a bound on |dF/ds| over |s| <= 1; in all under
    E = 2d(d+1)*coeff_norm.  With L = |Res|/(2d*cofactor_norm) <= ||Phi(u)||
    (arch_step_bound's lower side), 2^guard > 4E/L, as a < 2^bitlen(a) and
    b >= 2^(bitlen(b)-1), so they are under 2^-(bits+2) of each norm.
    """
    d = lift.degree
    lower = 2 * d * lift.cofactor_identity.coeff_norm
    ratio = lower.bit_length() - abs(lift.resultant).bit_length() + 1
    return max(0, ratio) + (d * (d + 1) * lift.coeff_norm).bit_length() + 3


def _chains(lift: MapLift, p: int):
    """F's and G's coefficients times 2^p in the Horner order of each unit
    pair: chains[0] for (1, s), from the Y^d coefficient down, chains[1]
    for (s, 1), from the X^d coefficient down."""
    f, g = ([c << p for c in form.coefficients] for form in (lift.F, lift.G))
    return (f[::-1], g[::-1]), (f, g)


def _step(chains, k: int, t: int, p: int):
    """(k', t', m) for the unit pair u = (1, t/2^p) if k = 0, (t/2^p, 1) if k = 1.

    F and G are Horner chains in s = t/2^p; with |s| <= 1 each is off by
    under d units of 2^-p from 2^p times its exact value at u, which the
    guard in p = bits + guard makes under 2^-(bits+2) of m (_guard_bits).
    The larger of |F|, |G| (F's on a tie) is m, the norm m*2^-p, and its
    form becomes the coordinate +1: t' = floor(2^p * other/dominant), the
    signed dominant absorbing the sign, which the norm does not see.
    """
    fc, gc = chains[k]
    f = g = 0
    for a, b in zip(fc, gc):
        f = (f * t >> p) + a
        g = (g * t >> p) + b
    if abs(f) >= abs(g):
        if not f:
            raise ValueError(
                f"both forms vanished at the {p}-bit working precision, which a "
                "morphism does only when it is too low; raise precision_bits (--precision)"
            )
        return 0, (g << p) // f, abs(f)
    return 1, (f << p) // g, abs(g)


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
    is what makes the step value readable without a norm correction.  The
    step is _step's at p = prec + guard, on t = floor(2^p * other/dominant),
    plus d*log|dominant| for the few ulp by which |dominant| misses 1.
    """
    prec = mp.mp.prec
    ux, uy = mp.mpf(u[0]), mp.mpf(u[1])
    if abs(max(abs(ux), abs(uy)) - 1) > mp.mpf(2) ** (4 - prec):
        raise ValueError("arch_step needs sup norm 1; divide the pair by its sup norm first")
    k, dom, other = (0, ux, uy) if abs(ux) >= abs(uy) else (1, uy, ux)
    p = prec + _guard_bits(lift)
    (dsign, dm, de, _), (osign, om, oe, _) = dom._mpf_, other._mpf_
    dm, om = -dm if dsign else dm, -om if osign else om
    # a shift below -(bits(om) + 1) leaves |quotient| < 1/2 and so its floor alone
    s = max(p + oe - de, -om.bit_length() - 1)
    t = (om << s) // dm if s >= 0 else om // (dm << -s)
    _, _, m = _step(_chains(lift, p), k, t, p)
    return -mp.log(mp.make_mpf(from_man_exp(m, -p))) - lift.degree * mp.log(abs(dom))


def _step_bound(lift: MapLift, prec: int):
    """arch_step_bound as a raw mpf at prec bits, each operation rounded to nearest."""
    d = lift.degree
    R = abs(lift.resultant)
    upper = (d + 1) * lift.coeff_norm
    lower = 2 * d * lift.cofactor_identity.coeff_norm
    rnd = round_nearest
    if upper * R >= lower:
        side = from_int(upper, prec, rnd)
    else:
        side = mpf_div(from_int(lower, prec, rnd), from_int(R), prec, rnd)
    log_side = mpf_log(side, prec, rnd)
    return fzero if mpf_lt(log_side, fzero) else log_side


def arch_step_bound(lift: MapLift) -> mp.mpf:
    """Rigorous uniform bound on |arch_step| over all unit-sup-norm pairs.

    Upper side: each form has at most d+1 monomials of size at most
    coeff_norm on unit inputs, so ||Phi(u)|| <= (d+1)*coeff_norm.  Lower
    side: the cofactor identity for the coordinate realizing the unit norm
    gives |Res| <= 2d * cofactor_norm * ||Phi(u)||.  The bound is the larger
    of log((d+1)*coeff_norm) and log(2d*cofactor_norm/|Res|), picked by
    comparing exact integers so only one logarithm is taken, clamped below
    at 0.  Computed at the current working precision (_step_bound).
    """
    return mp.make_mpf(_step_bound(lift, mp.mp.prec))


def arch_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    precision_bits: int | None = None,
) -> ArchResult:
    """Truncated archimedean series at P by renormalized fixed-point iteration.

    The orbit starts at (1, t/2^p), t = floor(2^p * y/x), if |x| >= |y|,
    else at (t/2^p, 1), and runs _step at p = bits + guard: each Horner
    value within d units of 2^-p, and with the floor of each next t under
    2^-(bits+2) of every norm (_guard_bits), so no norm rounds to zero.
    Their propagation along the orbit is the asserted budget below.

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
    term are proved; the orbit's budget terms * 2^(8 - bits) is asserted.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    d = lift.degree
    p = bits + _guard_bits(lift)
    chains = _chains(lift, p)
    k, t = (0, (P.y << p) // P.x) if abs(P.x) >= abs(P.y) else (1, (P.x << p) // P.y)
    norms = []
    for _ in range(terms):
        k, t, m = _step(chains, k, t, p)
        norms.append((m, -p))
    value = _sum_norms(norms, d, bits)
    rnd = round_nearest
    bound = _step_bound(lift, bits)
    truncation = mpf_div(bound, from_int((d - 1) * d**terms), bits, rnd)
    budget = from_man_exp(terms, 8 - bits)
    summation = mpf_shift(mpf_add(fone, mpf_abs(value._mpf_), bits, rnd), 1 - bits)
    tail = mpf_add(mpf_add(truncation, budget, bits, rnd), summation, bits, rnd)
    return ArchResult(
        value=value,
        tail_bound=mp.make_mpf(tail),
        step_bound=mp.make_mpf(bound),
        precision_bits=bits,
        terms=terms,
    )
