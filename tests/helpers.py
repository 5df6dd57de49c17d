"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by a route deliberately different
from the implementation under test: determinants by cofactor expansion or
by Gaussian elimination over Fraction instead of fraction-free elimination,
gcd sequences from full-size exact orbits instead of reduced ones,
polynomial identities by coefficient convolution, polynomial powers by
repeated multiplication of exponent-tuple dicts instead of Miller's
recurrence on a packed list, the archimedean series by mpf operators
instead of fixed-point ints, a run's logarithms, bounds and assembly by mpf
operators in a workprec scope instead of raw libmp calls, the exact-orbit
oracle's entries by a division by the whole d^n in a workprec scope instead
of raw libmp calls on its odd part.  It also holds the text strategy that
fuzzes the parsers, a strategy of small maps and points with a step count
for their exact orbits, and a generator and strategies of points near a
repelling fixed point.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath as mp
from hypothesis import assume, reject
from hypothesis import strategies as st

from p1height.forms import (
    _KEY_BASE,
    BinaryForm,
    MapLift,
    NotAMorphismError,
    ProjectivePoint,
    evaluate,
    normalize_point,
)


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


# steps by degree: the exact orbit's values grow like d^n, and these keep each
# case within about 20 ms
STOP_TERMS = {2: 14, 3: 8, 4: 7, 5: 6, 12: 4}


@st.composite
def stop_case(draw):
    """A map of degree 2, 3, 4, 5 or 12 with coefficients |c| <= 3, a point,
    and the degree's STOP_TERMS."""
    d = draw(st.sampled_from(tuple(STOP_TERMS)))
    coeffs = st.tuples(*[st.integers(-3, 3)] * (d + 1))
    F, G = BinaryForm(draw(coeffs)), BinaryForm(draw(coeffs))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # drawn pairs may carry content
            lift = MapLift.from_forms(F, G)
    except NotAMorphismError:
        reject()
    x, y = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    assume(x or y)
    return lift, normalize_point(x, y), STOP_TERMS[d]


def _reference_eval_real(coeffs, x, y):
    acc = coeffs[0]
    yp = mp.mpf(1)
    for c in coeffs[1:]:
        yp *= y
        acc = acc * x + c * yp
    return acc


def reference_arch_orbit(lift: MapLift, P: ProjectivePoint, terms: int, bits: int) -> mp.mpf:
    """The archimedean series by mpf operators, one rounding per operator:
    Horner in x with y-powers alongside, max(abs, abs), mp.log(m) / d^(n+1),
    and both coordinates divided by m."""
    d = lift.degree
    with mp.workprec(bits):
        fc = [mp.mpf(c) for c in lift.F.coefficients]
        gc = [mp.mpf(c) for c in lift.G.coefficients]
        scale = mp.mpf(max(abs(P.x), abs(P.y)))
        ux, uy = mp.mpf(P.x) / scale, mp.mpf(P.y) / scale
        total = mp.mpf(0)
        denom = d
        for _ in range(terms):
            fa, ga = _reference_eval_real(fc, ux, uy), _reference_eval_real(gc, ux, uy)
            m = max(abs(fa), abs(ga))
            if m == 0:
                raise ValueError("both forms vanished at working precision")
            total -= mp.log(m) / denom
            denom *= d
            ux, uy = fa / m, ga / m
    return total


def _abs(x):
    """|x| exactly: abs() of an mpf rounds to the working precision."""
    return mp.fneg(x, exact=True) if x < 0 else x


def _floor_to_grid(x, p):
    """x rounded down to a multiple of 2^-p, exactly."""
    return mp.ldexp(mp.floor(mp.ldexp(x, p), prec=0), -p)


def _grid_quotient(a, b, p):
    """floor(a/b) on the 2^-p grid for |a| <= |b|.  A quotient rounded
    toward -inf at p + 2 bits lies between that grid point, which it can
    represent as |a/b| <= 1, and a/b, so its floor to the grid is exact."""
    return _floor_to_grid(mp.fdiv(a, b, prec=p + 2, rounding="f"), p)


def reference_unit_pair(x, y, p):
    """(k, s) of the fixed-point unit pair for the real pair (x, y): (1, s)
    for k = 0 when |x| >= |y|, else (s, 1) for k = 1."""
    return (0, _grid_quotient(y, x, p)) if _abs(x) >= _abs(y) else (1, _grid_quotient(x, y, p))


def _reference_fixed_point_step(lift: MapLift, k: int, s, p: int):
    """(f, g, out) by mpf operators at u = (1, s) for k = 0 or (s, 1) for
    k = 1: F(u) and G(u) by Horner in s, F(1, s) = sum c_i s^i and
    F(s, 1) = sum c_i s^(d-i), each product floored to the 2^-p grid and
    every other operation exact; out = (k', s', m) with m the larger of
    |F(u)|, |G(u)| (F's on a tie), k' the side of its form and s' the other
    value over it on the grid, or None when both are 0."""
    values = []
    for form in (lift.F, lift.G):
        acc = mp.mpf(0)
        for c in form.coefficients[::-1] if k == 0 else form.coefficients:
            acc = mp.fadd(_floor_to_grid(mp.fmul(acc, s, exact=True), p), c, exact=True)
        values.append(acc)
    fa, ga = values
    if fa == 0 and ga == 0:
        return fa, ga, None
    k2, dom, other = (0, fa, ga) if _abs(fa) >= _abs(ga) else (1, ga, fa)
    return fa, ga, (k2, _grid_quotient(other, dom, p), _abs(dom))


def reference_fixed_point_orbit(lift: MapLift, k: int, s, terms: int, p: int):
    """The archimedean orbit at the fixed-point precision p by mpf operators:
    one (k, t, f, g, out) per step from the unit pair (k, s), with the unit
    pair's s, F's and G's values and out = (k', t', m) all scaled by 2^p to
    ints, as the kernel holds them.  The list stops at a step whose forms
    both vanish, whose out is None."""

    def scaled(v):
        return int(mp.ldexp(v, p))

    steps = []
    for _ in range(terms):
        fa, ga, out = _reference_fixed_point_step(lift, k, s, p)
        steps.append((k, scaled(s), scaled(fa), scaled(ga), out and (out[0], scaled(out[1]), scaled(out[2]))))
        if out is None:
            break
        k, s, _ = out
    return steps


def reference_oracle(lift: MapLift, P: ProjectivePoint, n_max: int, bits: int) -> list:
    """canonical_height_oracle by mpf operators in a workprec(bits) scope:
    mp.log of the n-th exact normalized iterate's larger coordinate, divided
    by the whole int d^n, for n = 0..n_max."""
    d = lift.degree
    x, y = P.x, P.y
    out = []
    with mp.workprec(bits):
        for n in range(n_max + 1):
            if n:
                fx, gy = lift.apply(x, y)
                g = math.gcd(fx, gy)
                x, y = fx // g, gy // g
            out.append(mp.log(mp.mpf(max(abs(x), abs(y)))) / d**n)
    return out


def reference_epilogue(lift: MapLift, P: ProjectivePoint, terms: int, bits: int, gs, arch_value) -> dict:
    """canonical_height's scalar work by mpf operators in a workprec(bits)
    scope, from the run's g-sequence gs and archimedean value: the naive
    height, the nonarchimedean value and tail, the archimedean step bound and
    tail, and the assembled height and error bound, keyed by their
    HeightBreakdown paths."""
    d, R, dn = lift.degree, abs(lift.resultant), lift.degree**terms
    weights: dict[int, int] = {}
    w = dn
    for g in gs:
        w //= d
        if g > 1:
            weights[g] = weights.get(g, 0) + w
    upper = (d + 1) * lift.coeff_norm
    lower = 2 * d * lift.cofactor_identity.coeff_norm
    with mp.workprec(bits):
        naive = mp.log(mp.mpf(max(abs(P.x), abs(P.y))))
        na_value = mp.fsum(mp.log(mp.mpf(g)) * w for g, w in weights.items()) / dn
        na_tail = mp.log(mp.mpf(R)) / ((d - 1) * dn)
        side = mp.mpf(upper) if upper * R >= lower else mp.mpf(lower) / R
        step_bound = max(mp.log(side), mp.mpf(0))
        ar_tail = (
            step_bound / ((d - 1) * dn)
            + terms * mp.mpf(2) ** (8 - bits)
            + (1 + abs(arch_value)) * mp.mpf(2) ** (1 - bits)
        )
        canonical = naive - arch_value - na_value
        error_bound = na_tail + ar_tail
    return {
        "naive": naive,
        "nonarch.value": na_value,
        "nonarch.tail_bound": na_tail,
        "arch.value": arch_value,
        "arch.tail_bound": ar_tail,
        "arch.step_bound": step_bound,
        "canonical": canonical,
        "error_bound": error_bound,
    }


def repelling_fixed_point_case(d: int, c: int, k: int) -> tuple[MapLift, ProjectivePoint]:
    """phi(z) = z^d - c, Res = +-1, and P = [floor(beta*2^k), 2^k] for its
    repelling fixed point beta > 1, the root of b^d - b - c, whose multiplier
    d*beta^(d-1) is about d*c^((d-1)/d): the orbit of P leaves beta by that
    factor per step, so rounding errors along it grow faster than d per
    step.  floor(beta*2^k) is found by integer bisection on
    b^d - b*2^((d-1)k) - c*2^(dk), which increases from below 0 at 2^k."""
    lift = MapLift.from_forms(BinaryForm((1,) + (0,) * (d - 1) + (-c,)), BinaryForm((0,) * d + (1,)))
    lo, hi = 1 << k, (c + 2) << k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**d - (mid << ((d - 1) * k)) - (c << (d * k)) <= 0:
            lo = mid
        else:
            hi = mid
    return lift, normalize_point(lo, 1 << k)


# repelling_fixed_point_case's d, c of 20 to 70 bits and k, as keyword strategies for @given
repelling_fixed_point_strategies = {
    "d": st.sampled_from((2, 3)),
    "c": st.integers(1 << 19, (1 << 70) - 1),
    "k": st.integers(300, 500),
}


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
