"""Precision policy and small helpers shared by the series computations.

A job's real scalars (logarithms, series values, bounds and report digits)
are raw libmp values at the job's one explicit precision, rounded to
nearest, each made an mp.mpf once; no job opens a workprec scope.  Only the
exact-orbit oracle and the wrappers log_int, arch.arch_step and
arch.arch_step_bound work at mpmath's context precision.  The default
working precision below is chosen so that accumulated rounding stays far
below the rigorous truncation tail bounds: per-step errors can be amplified
by a factor of about d per term of the series, and the integer logarithms
carry about bit_length(coeff_norm) bits in their integer parts.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
from mpmath.libmp import from_int, from_str, mpf_log, mpf_pos, round_nearest, to_str

MIN_PRECISION_BITS = 64
PRECISION_FLOOR_BITS = 256
GUARD_BITS = 64


def default_precision_bits(degree: int, terms: int, coeff_norm: int) -> int:
    """Working precision in bits for a run of `terms` series steps.

    max(256, 64 + ceil(terms * log2(degree)) + bit_length(coeff_norm)): the
    floor keeps short runs comfortably exact, the growth term tracks the
    worst-case error amplification of the renormalized iteration, and the
    coefficient term pays for the size of the integer logarithms involved.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    growth = math.ceil(terms * math.log2(degree))
    scale = max(int(coeff_norm).bit_length(), 1)
    return max(PRECISION_FLOOR_BITS, GUARD_BITS + growth + scale)


def check_run_parameters(terms, precision_bits: int | None) -> None:
    """Raise ValueError unless terms is a positive int and precision_bits is
    None or at least MIN_PRECISION_BITS."""
    if not isinstance(terms, int) or terms < 1:
        raise ValueError("terms must be a positive integer")
    if precision_bits is not None and precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")


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
        raise ValueError("log_int needs a positive integer")
    return mpf_log(from_int(n, prec, round_nearest), prec, round_nearest)


def log_int(n: int) -> mp.mpf:
    """Natural log of a positive integer at the current working precision (_log_int)."""
    return mp.make_mpf(_log_int(n, mp.mp.prec))


def to_decimal_string(x, precision_bits: int, digits: int | None = None) -> str:
    """x, an mpf or a decimal string, rounded to nearest at precision_bits
    and rendered with `digits` significant digits, by default every digit
    the precision supports; mp.nstr(mp.mpf(x), digits) at that precision."""
    if digits is None:
        digits = max(8, int(precision_bits * 0.30103))
    if isinstance(x, str):
        return to_str(from_str(x, precision_bits, round_nearest), digits)
    return to_str(mpf_pos(x._mpf_, precision_bits, round_nearest), digits)
