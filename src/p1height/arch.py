"""Archimedean height series by renormalized high-precision iteration.

Scale the point to sup norm 1, apply the lift, read off the step value
-log ||Phi(u)||, rescale the image to sup norm 1, repeat.  The step values
are divided by d^(n+1) and summed.  Renormalizing every step keeps all
magnitudes inside [||Phi||_min, 1], so nothing ever overflows or underflows,
and it makes each step value available with no d*log||u|| correction.

Truncation is controlled by a uniform bound on the step values: the
triangle inequality bounds ||Phi(u)|| from above by (d+1)*coeff_norm, and
evaluating the exact cofactor identities

    a1*F + b1*G = Res * X^(2d-1),   a2*F + b2*G = Res * Y^(2d-1)

at a unit-norm pair bounds it from below by |Res|/(2d*cofactor_norm).  The
resulting truncation bound is proved; the rounding budget of
terms * 2^(8 - precision) is asserted, not proved (ROADMAP item 2).

The step kernel calls mpmath's libmp primitives on raw values, so no mpf
object is built per operation.  It makes the same correctly rounded
operations in the same order as the mpf-operator loop it replaced, and
skips only exact ones, so every value is bit-identical to that loop's.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (
    fnone, fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_log, mpf_lt, mpf_mul, mpf_sub,
    round_nearest,
)

from .forms import MapLift, ProjectivePoint
from .numerics import log_int, resolve_precision_bits

__all__ = ["ArchResult", "arch_height", "arch_step", "arch_step_bound"]


@dataclass(frozen=True)
class ArchResult:
    """Truncated archimedean series with tail bound and precision bookkeeping.

    value: sum_{n<terms} step_n / d^(n+1) with step_n = -log||Phi(u_n)||.
    tail_bound: step_bound/((d-1) d^terms) plus the rounding budget.
    step_bound: rigorous uniform bound on every |step_n| (arch_step_bound).
    """

    value: mp.mpf
    tail_bound: mp.mpf
    step_bound: mp.mpf
    precision_bits: int
    terms: int


# +1 and -1, indexed by an mpf's sign bit
_UNIT = (fone, fnone)


def _raw_coefficients(lift: MapLift, prec: int):
    """F's and G's coefficients as libmp values rounded to prec bits."""
    return [[from_int(c, prec, round_nearest) for c in f.coefficients] for f in (lift.F, lift.G)]


def _step(fc, gc, ux, uy, prec: int):
    """(Phi(u)/m, m) for the unit pair u = (ux, uy), m = max(|F(u)|, |G(u)|).

    Horner in x with the powers of y alongside, acc = acc*x + c*y^i, each
    operation rounded to nearest at prec bits.  Exact shortcuts only: F and
    G share the y-powers, y^1 is uy itself (uy has prec bits), a zero
    coefficient adds nothing, and the coordinate whose absolute value is m
    becomes +-1 (|F(u)| on a tie, as max keeps its first argument).
    """
    rnd = round_nearest
    ys = [uy]
    for _ in range(len(fc) - 2):
        ys.append(mpf_mul(ys[-1], uy, prec, rnd))
    fa, ga = fc[0], gc[0]
    for cf, cg, yp in zip(fc[1:], gc[1:], ys):
        fa = mpf_mul(fa, ux, prec, rnd)
        if cf[1]:
            fa = mpf_add(fa, mpf_mul(cf, yp, prec, rnd), prec, rnd)
        ga = mpf_mul(ga, ux, prec, rnd)
        if cg[1]:
            ga = mpf_add(ga, mpf_mul(cg, yp, prec, rnd), prec, rnd)
    afa, aga = mpf_abs(fa), mpf_abs(ga)
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
    gives |Res| <= 2d * cofactor_norm * ||Phi(u)||.  Both log bounds are
    clamped below at 0.  Computed at the current working precision.
    """
    d = lift.degree
    ident = lift.cofactor_identity
    upper = log_int((d + 1) * lift.coeff_norm)
    lower = log_int(2 * d * ident.coeff_norm) - log_int(abs(lift.resultant))
    return max(upper, lower, mp.mpf(0))


def arch_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    precision_bits: int | None = None,
) -> ArchResult:
    """Truncated archimedean series at P by renormalized iteration.

    The full series differs from the returned value by at most tail_bound,
    which combines the proved truncation bound with a rounding budget of
    terms * 2^(8 - precision_bits) that is asserted, not proved.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    d = lift.degree
    rnd = round_nearest
    fc, gc = _raw_coefficients(lift, bits)
    scale = from_int(max(abs(P.x), abs(P.y)), bits, rnd)
    ux, uy = (mpf_div(from_int(v, bits, rnd), scale, bits, rnd) for v in (P.x, P.y))
    total = fzero
    denom = d
    for _ in range(terms):
        ux, uy, m = _step(fc, gc, ux, uy, bits)
        step = mpf_div(mpf_log(m, bits, rnd), from_int(denom), bits, rnd)
        total = mpf_sub(total, step, bits, rnd)
        denom *= d
    with mp.workprec(bits):
        bound = arch_step_bound(lift)
        tail = bound / ((d - 1) * d**terms) + terms * mp.mpf(2) ** (8 - bits)
    return ArchResult(
        value=mp.make_mpf(total),
        tail_bound=tail,
        step_bound=bound,
        precision_bits=bits,
        terms=terms,
    )
