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
resulting constant is rigorous, so the reported tail bound is a proof, not
an observation; a coarse budget of terms * 2^(8 - precision) covers rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

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


def _eval_real(coeffs, x, y):
    # Horner in x with powers of y accumulated alongside
    acc = coeffs[0]
    yp = mp.mpf(1)
    for c in coeffs[1:]:
        yp *= y
        acc = acc * x + c * yp
    return acc


def _step(fc, gc, ux, uy):
    """Images of the unit pair (ux, uy) under the mpf coefficient lists fc, gc, and their sup norm."""
    fa = _eval_real(fc, ux, uy)
    ga = _eval_real(gc, ux, uy)
    m = max(abs(fa), abs(ga))
    if m == 0:
        raise RuntimeError(
            "internal error: both forms vanished at working precision, which "
            "cannot happen for a morphism away from precision exhaustion"
        )
    return fa, ga, m


def arch_step(lift: MapLift, u) -> mp.mpf:
    """One series step at a unit-sup-norm real pair: -log max(|F(u)|, |G(u)|).

    The pair must already satisfy max(|u_x|, |u_y|) = 1 up to a few ulp at
    the current working precision; scaling input is the caller's job, which
    is what makes the step value readable without a norm correction.
    """
    ux, uy = mp.mpf(u[0]), mp.mpf(u[1])
    norm = max(abs(ux), abs(uy))
    if abs(norm - 1) > mp.mpf(2) ** (4 - mp.mp.prec):
        raise ValueError("arch_step needs sup norm 1; divide the pair by its sup norm first")
    fc = [mp.mpf(c) for c in lift.F.coefficients]
    gc = [mp.mpf(c) for c in lift.G.coefficients]
    _, _, m = _step(fc, gc, ux, uy)
    return -mp.log(m)


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
    which combines the rigorous truncation bound with a coarse rounding
    budget of terms * 2^(8 - precision_bits).
    """
    if not isinstance(terms, int) or terms < 1:
        raise ValueError("terms must be a positive integer")
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    d = lift.degree
    with mp.workprec(bits):
        fc = [mp.mpf(c) for c in lift.F.coefficients]
        gc = [mp.mpf(c) for c in lift.G.coefficients]
        scale = mp.mpf(max(abs(P.x), abs(P.y)))
        ux, uy = mp.mpf(P.x) / scale, mp.mpf(P.y) / scale
        total = mp.mpf(0)
        denom = d
        for _ in range(terms):
            fa, ga, m = _step(fc, gc, ux, uy)
            total -= mp.log(m) / denom
            denom *= d
            ux, uy = fa / m, ga / m
        bound = arch_step_bound(lift)
        tail = bound / ((d - 1) * d**terms) + terms * mp.mpf(2) ** (8 - bits)
    return ArchResult(
        value=total,
        tail_bound=tail,
        step_bound=bound,
        precision_bits=bits,
        terms=terms,
    )
