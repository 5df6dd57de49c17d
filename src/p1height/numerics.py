"""Precision policy and small helpers shared by the series computations.

Every real number in the package is a raw libmp value at an explicit
precision, rounded to nearest and made an mp.mpf once; _log_int is the one
integer logarithm.  Nothing opens a workprec scope or reads mpmath's context
precision.  The default working precision below assumes that per-step
errors grow by a factor of about d per term of the series, and it pays for
the bit_length(coeff_norm) bits of the integer logarithms' integer parts.
Near a repelling fixed point the errors grow by its multiplier instead, so
there the precision and the error bound fall short (ROADMAP item 4).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_int, from_rational, mpf_log, mpf_pos, round_nearest, to_str

MIN_PRECISION_BITS = 64
PRECISION_FLOOR_BITS = 256
GUARD_BITS = 64


def default_precision_bits(degree: int, terms: int, coeff_norm: int) -> int:
    """Working precision in bits for a run of `terms` series steps.

    max(256, 64 + ceil(terms * log2(degree)) + bit_length(coeff_norm)): the
    floor keeps short runs comfortably exact, the growth term pays for errors
    that grow by d per step (near a repelling fixed point they grow by its
    multiplier, ROADMAP item 4), and the coefficient term for the logarithms.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    growth = math.ceil(terms * math.log2(degree))
    scale = max(int(coeff_norm).bit_length(), 1)
    return max(PRECISION_FLOOR_BITS, GUARD_BITS + growth + scale)


def _check_precision_bits(precision_bits) -> None:
    """Raise ValueError unless precision_bits is an int of at least MIN_PRECISION_BITS."""
    if not (isinstance(precision_bits, int) and precision_bits >= MIN_PRECISION_BITS):
        raise ValueError(f"precision_bits must be an int of at least {MIN_PRECISION_BITS}")


def _check_positive_int(value, name: str) -> None:
    """Raise ValueError unless value is an int of at least 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_run_parameters(terms, precision_bits: int | None) -> None:
    """Raise ValueError unless terms is a positive int and precision_bits is
    None (the default precision) or an int of at least MIN_PRECISION_BITS."""
    _check_positive_int(terms, "terms")
    if precision_bits is not None:
        _check_precision_bits(precision_bits)


def resolve_precision_bits(
    precision_bits: int | None, degree: int, terms: int, coeff_norm: int
) -> int:
    """The working precision of a run: precision_bits, or the default when None.

    Checks the run parameters first (check_run_parameters), so an unusable
    terms or precision fails before any series work starts.
    """
    check_run_parameters(terms, precision_bits)
    if precision_bits is None:
        return default_precision_bits(degree, terms, coeff_norm)
    return precision_bits


def decimal_digits(n: int) -> int:
    """An upper bound on the number of decimal digits of |n|, from its bit length."""
    return abs(n).bit_length() * 30103 // 100000 + 1


def int_str_digits_limit() -> int | None:
    """Python's limit on the digits of an int<->str conversion; None when unlimited."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return (getter() or None) if getter else None


def _log_int(n: int, prec: int):
    """Natural log of a positive integer as a raw mpf: n rounded to nearest
    at prec bits, then its logarithm rounded to nearest at prec bits.

    The rounded n keeps the leading prec bits of the mantissa plus the full
    binary exponent, so this is accurate to a few ulp even for integers of
    hundreds of thousands of bits; it never overflows the way float(n) would.
    """
    if n <= 0:
        raise ValueError("_log_int needs a positive integer")
    return mpf_log(from_int(n, prec, round_nearest), prec, round_nearest)


def to_decimal_string(x: mp.mpf, precision_bits: int, max_digits: int | None = None) -> str:
    """x rounded to nearest at precision_bits and rendered with every
    significant digit the precision supports, max(8, floor(0.30103 * bits)),
    or max_digits when that is fewer; mp.nstr(x, digits) at that precision."""
    digits = max(8, int(precision_bits * 0.30103))
    return to_str(mpf_pos(x._mpf_, precision_bits, round_nearest), min(digits, max_digits or digits))


def _ceil_decimal_string(x: mp.mpf, digits: int) -> str:
    """Finite x >= 0 rounded up to `digits` significant digits, as to_str prints them:
    the exact least v = q * 10^k >= x with q <= 10^digits, at most one unit in its last
    digit above x; rounded to 64 bits, v is near enough to q * 10^k for to_str to print q."""
    _, man, exp, bc = x._mpf_
    exact, k = man * Fraction(2) ** exp, (exp + bc - 1) * 30103 // 100000 - digits - 1
    while exact > Fraction(10) ** (k + digits):
        k += 1
    v = math.ceil(exact / Fraction(10) ** k) * Fraction(10) ** k
    return to_str(from_rational(v.numerator, v.denominator, 64, round_nearest), digits)
