"""Canonical height assembly, the limit-definition oracle, and self-checks.

The canonical height of P under the map is

    canonical = h(P) - (archimedean series) - (nonarchimedean series)

where h is the naive logarithmic height on coprime integer coordinates.
Both series are truncated with rigorous tail bounds, so the result comes
with a symmetric error bound.  Canonical heights are non-negative and
vanish exactly on preperiodic points; a computed value below -error_bound
is treated as a bug and raised.

The oracle in this module takes the slow road instead: it iterates the map
on exact normalized integer pairs and returns d^(-n) h(of the n-th iterate),
whose limit is the same canonical height.  Coordinates grow like d^n digits,
so the oracle is for cross-checking at small n only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import mpf_add, mpf_lt, mpf_neg, mpf_sub, round_nearest

from .arch import ArchResult, arch_height, arch_step
from .forms import MapLift, ProjectivePoint, _budget, normalize_point
# nonarch_height_factored is unused here; perfbench/spans.py wraps it in this module
from .nonarch import (  # noqa: F401
    NonArchResult,
    PartialFactorization,
    nonarch_height,
    nonarch_height_factored,
    trial_division,
)
from .numerics import _log_int, log_int, resolve_precision_bits

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
    """Naive logarithmic height log max(|x|, |y|) of a normalized point."""
    return mp.make_mpf(_log_int(max(abs(P.x), abs(P.y)), precision_bits))


def canonical_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int = 50,
    precision_bits: int | None = None,
    factoring: PartialFactorization | int | None = None,
) -> HeightBreakdown:
    """Canonical height of P under the lifted map, with a rigorous error bound.

    Both series run `terms` steps.  `factoring` picks the coprime parts of
    |Res| that the nonarchimedean gcd loop runs over: None runs it once
    against |Res|; a PartialFactorization runs it per part; an integer B
    first builds parts by trial division of |Res| up to B.  All three give
    the same g-sequence and value.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, terms, lift.coeff_norm)
    if factoring is not None and not isinstance(factoring, PartialFactorization):
        factoring = trial_division(abs(lift.resultant), int(factoring))
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
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    d = lift.degree
    x, y = P.x, P.y
    out = []
    with mp.workprec(precision_bits):
        out.append(log_int(max(abs(x), abs(y))))
    # d^n = odd^n * 2^(k*n): divide by the odd part and shift, so no int with
    # k*n trailing zero bits is converted (mpmath strips those bit by bit)
    k = (d & -d).bit_length() - 1
    denom = 1
    charge = _budget(BudgetExceededError)
    for n in range(1, n_max + 1):
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
        with mp.workprec(precision_bits):
            out.append(mp.ldexp(log_int(max(abs(x), abs(y))) / denom, -k * n))
    return out


def height_identity_check(
    lift: MapLift,
    P: ProjectivePoint,
    precision_bits: int = 128,
) -> mp.mpf:
    """Residual of the one-step height identity at P; zero up to rounding.

    h(image of P) - d*h(P) must equal -(step + log g), where step is the
    archimedean step value at P scaled to unit sup norm and g is the exact
    gcd of the two evaluations.  The left side goes through exact integer
    normalization, the right through high-precision reals, so a nonzero
    residual beyond rounding pinpoints an inconsistency between the routes.
    """
    fx, gy = lift.apply(P.x, P.y)
    g = math.gcd(fx, gy)
    image = normalize_point(fx, gy)
    d = lift.degree
    with mp.workprec(precision_bits):
        h_image = log_int(max(abs(image.x), abs(image.y)))
        h_p = log_int(max(abs(P.x), abs(P.y)))
        scale = mp.mpf(max(abs(P.x), abs(P.y)))
        u = (mp.mpf(P.x) / scale, mp.mpf(P.y) / scale)
        step = arch_step(lift, u)
        return abs(h_image - d * h_p + step + log_int(g))
