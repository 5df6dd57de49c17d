"""Canonical height assembly, the limit-definition oracle, and self-checks.

The canonical height of P under the map is

    canonical = h(P) - (archimedean series) - (nonarchimedean series)

where h is the naive logarithmic height on coprime integer coordinates.
Both series are truncated with proved tail bounds; the error bound adds an
asserted rounding budget, false near a repelling fixed point (ROADMAP item
4).  Canonical heights are non-negative and vanish exactly on preperiodic
points; a computed value below -error_bound is treated as a bug and raised.

The oracle in this module takes the slow road instead: it iterates the map
on exact normalized integer pairs and returns d^(-n) h(of the n-th iterate),
whose limit is the same canonical height.  Coordinates grow like d^n digits,
so the oracle is for cross-checking at small n only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (
    from_int, mpf_abs, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sub, round_nearest,
)

from .arch import ArchResult, arch_height
from .forms import MapLift, ProjectivePoint, _budget, normalize_point
# nonarch_height_factored is unused here; perfbench/spans.py wraps it in this module
from .nonarch import (  # noqa: F401
    NonArchResult,
    PartialFactorization,
    nonarch_height,
    nonarch_height_factored,
)
from .numerics import _check_positive_int, _check_precision_bits, _log_int, resolve_precision_bits

__all__ = [
    "BudgetExceededError",
    "HeightBreakdown",
    "canonical_height",
    "canonical_height_oracle",
    "height_identity_check",
    "naive_height",
]


class BudgetExceededError(RuntimeError):
    """A computation would exceed its resource budget."""


@dataclass(frozen=True)
class HeightBreakdown:
    """Canonical height with the naive height and both series it came from.

    canonical = naive - arch.value - nonarch.value at the working precision;
    error_bound = nonarch.tail_bound + arch.tail_bound.
    """

    naive: mp.mpf
    nonarch: NonArchResult
    arch: ArchResult
    canonical: mp.mpf
    error_bound: mp.mpf

    @property
    def precision_bits(self) -> int:
        return self.arch.precision_bits


def naive_height(P: ProjectivePoint, precision_bits: int = 256) -> mp.mpf:
    """Naive logarithmic height log max(|x|, |y|) of a normalized point, at an
    int precision_bits of at least 64."""
    _check_precision_bits(precision_bits)
    return mp.make_mpf(_log_int(max(abs(P.x), abs(P.y)), precision_bits))


def canonical_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int = 50,
    precision_bits: int | None = None,
    factoring: PartialFactorization | None = None,
) -> HeightBreakdown:
    """Canonical height of P under the lifted map, with an error bound that
    is not rigorous near a repelling fixed point (ROADMAP item 4).

    Both series run `terms` steps.  `factoring` picks the coprime parts of
    |Res| that the nonarchimedean gcd loop runs over: None runs it once
    against |Res|; a PartialFactorization, e.g. trial_division(|Res|, B),
    runs it per part.  Both give the same g-sequence and value.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    na = nonarch_height(lift, P, terms, precision_bits=bits, parts=factoring)
    ar = arch_height(lift, P, terms, precision_bits=bits)
    naive = naive_height(P, bits)
    rnd = round_nearest
    canonical = mpf_sub(mpf_sub(naive._mpf_, ar.value._mpf_, bits, rnd), na.value._mpf_, bits, rnd)
    err = mpf_add(na.tail_bound._mpf_, ar.tail_bound._mpf_, bits, rnd)
    if mpf_lt(canonical, mpf_neg(err)):
        raise RuntimeError(
            "computed canonical height is negative beyond its error bound; "
            "this indicates a bug, not a property of the input"
        )
    return HeightBreakdown(
        naive=naive,
        nonarch=na,
        arch=ar,
        canonical=mp.make_mpf(canonical),
        error_bound=mp.make_mpf(err),
    )


def canonical_height_oracle(
    lift: MapLift,
    P: ProjectivePoint,
    n_max: int,
    precision_bits: int = 256,
) -> list[mp.mpf]:
    """Exact-orbit height sequence [d^(-n) h(n-th normalized iterate)], n = 0..n_max.

    Successive entries converge to the canonical height; this is the
    definition made executable, entirely independent of the series route.
    Iterate coordinates are exact integers divided by their gcd each step,
    so they grow like d^n digits; each iterate is charged to the parser's
    work budget before it runs, and BudgetExceededError refuses it past that.
    """
    _check_positive_int(n_max, "n_max")
    _check_precision_bits(precision_bits)
    d = lift.degree
    x, y = P.x, P.y
    # d^n = odd^n * 2^(k*n): divide by the odd part and shift, so no int with
    # k*n trailing zero bits is converted (mpmath strips those bit by bit)
    k = (d & -d).bit_length() - 1
    denom = 1
    out = []
    charge = _budget(BudgetExceededError)
    for n in range(n_max + 1):
        if n:
            # Horner step i of lift.apply, for both forms: y-power and accumulator (i-1)*b + h bits by
            # b, coefficient by the i*b-bit y-power; then the images' gcd and two divisions by it (<= |Res|)
            b, h = max(abs(x), abs(y)).bit_length(), lift.coeff_norm.bit_length() + (d + 1).bit_length()
            for i in range(1, d + 1):
                charge(4, (i - 1) * b + h, b)
                charge(2, h, i * b)
            charge(1, d * b + h, d * b + h)
            charge(2, d * b + h, lift.resultant.bit_length())
            fx, gy = lift.apply(x, y)
            g = math.gcd(fx, gy)
            x, y = fx // g, gy // g
            denom *= d >> k
        log_h = _log_int(max(abs(x), abs(y)), precision_bits)
        entry = mpf_div(log_h, from_int(denom), precision_bits, round_nearest)
        out.append(mp.make_mpf(mpf_shift(entry, -k * n)))
    return out


def height_identity_check(
    lift: MapLift,
    P: ProjectivePoint,
    precision_bits: int = 128,
) -> mp.mpf:
    """Residual of the one-step height identity at P; zero up to rounding.

    h(image of P) - d*h(P) must equal -(step + log g), where step is d times
    the one-term arch_height value, the series' own first step, and g is the
    exact gcd of the two evaluations.  The left side goes through exact
    integer normalization, the right through the fixed-point orbit, each
    term rounded to nearest at precision_bits (at least 64), so a nonzero
    residual beyond rounding pinpoints an inconsistency between the routes.
    """
    _check_precision_bits(precision_bits)
    fx, gy = lift.apply(P.x, P.y)
    g = math.gcd(fx, gy)
    d, bits, rnd = lift.degree, precision_bits, round_nearest
    step = mpf_mul(from_int(d), arch_height(lift, P, 1, bits).value._mpf_, bits, rnd)
    h_image = naive_height(normalize_point(fx, gy), bits)._mpf_
    h_p = mpf_mul(from_int(d), naive_height(P, bits)._mpf_, bits, rnd)
    residual = mpf_sub(h_image, h_p, bits, rnd)
    for term in (step, _log_int(g, bits)):
        residual = mpf_add(residual, term, bits, rnd)
    return mp.make_mpf(mpf_abs(residual))
