"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by a route deliberately different
from the implementation under test: determinants by cofactor expansion or
by Gaussian elimination over Fraction instead of fraction-free elimination,
gcd sequences from full-size exact orbits instead of reduced ones,
polynomial identities by coefficient convolution, polynomial powers by
repeated multiplication of exponent-tuple dicts instead of Miller's
recurrence on a packed list, the archimedean series by mpf operators
instead of raw libmp calls, trial division one prime at a time instead of
by block gcds.  It also holds the text strategy that fuzzes the parsers.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath as mp
from hypothesis import strategies as st

from p1height.forms import (
    _KEY_BASE,
    BinaryForm,
    MapLift,
    ProjectivePoint,
    evaluate,
    normalize_point,
)
from p1height.nonarch import PartialFactorization, _primes_upto


def brute_det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row; fine up to 8x8."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j, c in enumerate(m[0]):
        if c == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * c * brute_det(minor)
    return total


def fraction_det(m: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over Fraction, sharing nothing with Bareiss."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def sylvester_rows(F: BinaryForm, G: BinaryForm) -> list[list[int]]:
    """The 2d x 2d Sylvester matrix, rebuilt independently of the package."""
    d = F.degree
    n = 2 * d
    rows = []
    for coeffs in (F.coefficients, G.coefficients):
        for k in range(d):
            row = [0] * n
            row[k : k + d + 1] = list(coeffs)
            rows.append(row)
    return rows


def convolve(a, b):
    """Coefficient list of the product of two forms (descending X order)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add_lists(a, b):
    return [x + y for x, y in zip(a, b)]


def cofactor_identities_hold(F: BinaryForm, G: BinaryForm, ident) -> bool:
    """Expand a1*F + b1*G and a2*F + b2*G and compare against the exact targets."""
    d = F.degree
    lhs1 = add_lists(
        convolve(ident.a1.coefficients, F.coefficients),
        convolve(ident.b1.coefficients, G.coefficients),
    )
    lhs2 = add_lists(
        convolve(ident.a2.coefficients, F.coefficients),
        convolve(ident.b2.coefficients, G.coefficients),
    )
    want1 = [ident.resultant] + [0] * (2 * d - 1)
    want2 = [0] * (2 * d - 1) + [ident.resultant]
    return lhs1 == want1 and lhs2 == want2


def monomial_key(exponents: tuple[int, ...]) -> int:
    """The parser's int key of an exponent tuple (X, Y), or (z,) in the phi form."""
    return sum(exponents) * _KEY_BASE + sum(exponents[1:])


def exponent_keyed(poly: dict[int, int], nvars: int = 2) -> dict[tuple[int, ...], int]:
    """A parser dict re-keyed by exponent tuples, (X, Y) or (z,)."""
    out = {}
    for key, c in poly.items():
        t, j = divmod(key, _KEY_BASE)
        out[(t - j, j) if nvars == 2 else (t,)] = c
    return out


def tuple_power(p: dict[tuple[int, ...], int], e: int, nvars: int) -> dict:
    """p^e by e schoolbook multiplications of exponent-tuple dicts."""
    out = {(0,) * nvars: 1}
    for _ in range(e):
        prod: dict[tuple[int, ...], int] = {}
        for m, c in out.items():
            for n, v in p.items():
                k = tuple(a + b for a, b in zip(m, n))
                prod[k] = prod.get(k, 0) + c * v
        out = {k: v for k, v in prod.items() if v}
    return out


def random_form(rng, degree: int, lo: int = -20, hi: int = 20) -> BinaryForm:
    return BinaryForm(tuple(rng.randint(lo, hi) for _ in range(degree + 1)))


def random_lift(rng, degree: int, lo: int = -20, hi: int = 20) -> MapLift:
    """A random morphism lift; retries until the resultant is nonzero."""
    from p1height.forms import NotAMorphismError

    while True:
        F = random_form(rng, degree, lo, hi)
        G = random_form(rng, degree, lo, hi)
        if F.is_zero() or G.is_zero():
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # random pairs may carry content
                return MapLift.from_forms(F, G)
        except NotAMorphismError:
            continue


def random_point(rng, bound: int = 50) -> ProjectivePoint:
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if x or y:
            return normalize_point(x, y)


def exact_gcd_sequence(lift: MapLift, P: ProjectivePoint, n: int) -> list[int]:
    """The per-step gcds along the exact normalized orbit (full-size integers)."""
    x, y = P.x, P.y
    out = []
    for _ in range(n):
        a = evaluate(lift.F, x, y)
        b = evaluate(lift.G, x, y)
        g = math.gcd(a, b)
        out.append(g)
        x, y = a // g, b // g
    return out


def _reference_eval_real(coeffs, x, y):
    acc = coeffs[0]
    yp = mp.mpf(1)
    for c in coeffs[1:]:
        yp *= y
        acc = acc * x + c * yp
    return acc


def _reference_norm(fc, gc, ux, uy):
    fa = _reference_eval_real(fc, ux, uy)
    ga = _reference_eval_real(gc, ux, uy)
    m = max(abs(fa), abs(ga))
    if m == 0:
        raise ValueError("both forms vanished at working precision")
    return fa, ga, m


def reference_arch_orbit(lift: MapLift, P: ProjectivePoint, terms: int, bits: int):
    """(value, pairs, norms) of the archimedean series by mpf operators, one
    rounding per operator: Horner in x with y-powers alongside,
    max(abs, abs), mp.log(m) / d^(n+1), and both coordinates divided by m.

    pairs[n] is the unit pair u_n (pairs[0] is P scaled), and norms[n] is
    m = max(|F(u_n)|, |G(u_n)|), which gives u_(n+1).
    """
    d = lift.degree
    with mp.workprec(bits):
        fc = [mp.mpf(c) for c in lift.F.coefficients]
        gc = [mp.mpf(c) for c in lift.G.coefficients]
        scale = mp.mpf(max(abs(P.x), abs(P.y)))
        ux, uy = mp.mpf(P.x) / scale, mp.mpf(P.y) / scale
        pairs, norms = [(ux, uy)], []
        total = mp.mpf(0)
        denom = d
        for _ in range(terms):
            fa, ga, m = _reference_norm(fc, gc, ux, uy)
            total -= mp.log(m) / denom
            denom *= d
            ux, uy = fa / m, ga / m
            pairs.append((ux, uy))
            norms.append(m)
    return total, pairs, norms


def reference_arch_step(lift: MapLift, u) -> mp.mpf:
    """-log max(|F(u)|, |G(u)|) by mpf operators at the current precision."""
    fc = [mp.mpf(c) for c in lift.F.coefficients]
    gc = [mp.mpf(c) for c in lift.G.coefficients]
    return -mp.log(_reference_norm(fc, gc, mp.mpf(u[0]), mp.mpf(u[1]))[2])


def reference_trial_division(R: int, bound: int):
    """trial_division as one remainder per sieve prime, in order, stopping
    at rest == 1 or p*p > rest; a remainder <= bound is a prime power."""
    parts, prov = [], []
    rest = R
    for p in _primes_upto(bound):
        if rest == 1 or p * p > rest:
            break
        if rest % p == 0:
            q = p
            rest //= p
            while rest % p == 0:
                q *= p
                rest //= p
            parts.append(q)
            prov.append("prime-power")
    if rest > 1:
        parts.append(rest)
        prov.append("prime-power" if rest <= bound else "cofactor")
    return PartialFactorization(tuple(parts), tuple(prov))


# the grammar's characters and '**', three whitespaces, and '&', which no token takes
_GRAMMAR_PIECES = (
    *"0123456789", *"XYxyzZa_", *"+-*^()/;=,[]", "**", " ", "\t", "\n", "&",
)


@st.composite
def grammar_texts(draw):
    """(s, text): text over the grammar's alphabet, as an F/G pair, a phi form or s bare."""
    pieces = st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=24).map("".join)
    s, t = draw(pieces), draw(pieces)
    return s, draw(st.sampled_from((f"F = {s}; G = {t}", f"phi(z) = {s}", s)))
