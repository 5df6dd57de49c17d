"""Exact-arithmetic layer: forms, points, resultants, cofactors, parsing."""

import math
import operator
import random
import time
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p1height import forms, nonarch
from p1height.fixtures import fixture_lift
from p1height.forms import (
    BinaryForm,
    BudgetExceededError,
    MapLift,
    NotAMorphismError,
    ParseError,
    ProjectivePoint,
    cofactors,
    evaluate,
    _PolyParser,
    _exact_step,
    _tokenize,
    normalize_point,
    parse_map,
    parse_point,
    resultant,
)
from p1height.nonarch import _block_size, _form_evaluator

from helpers import (
    brute_det,
    cofactor_identities_hold,
    convolve,
    exact_gcd_sequence,
    exponent_keyed,
    fraction_det,
    grammar_texts,
    monomial_key,
    random_form,
    random_lift,
    stop_case,
    sylvester_rows,
    tuple_power,
)


# ---------------------------------------------------------------------------
# BinaryForm and evaluation


def test_form_basic_properties():
    f = BinaryForm((3, 0, -2))
    assert f.degree == 2
    assert f.norm == 3
    assert not f.is_zero()
    assert BinaryForm((0, 0)).is_zero()
    assert BinaryForm((7,)).degree == 0


def test_form_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        BinaryForm(())
    with pytest.raises(ValueError):
        BinaryForm((1, 2.5))
    with pytest.raises(ValueError):
        BinaryForm((1, "2"))


def test_evaluate_examples():
    f = BinaryForm((1, 1, 1))  # X^2 + XY + Y^2
    assert evaluate(f, 1, 1) == 3
    for a in (2, 7, 10**40):
        g = BinaryForm((a, 0, 1))  # aX^2 + Y^2
        assert evaluate(g, a, 1) == a**3 + 1
    for d in (1, 2, 5):
        h = BinaryForm(tuple(range(1, d + 2)))
        assert evaluate(h, 0, 0) == 0


def test_evaluate_homogeneity():
    rng = random.Random(101)
    for _ in range(200):
        d = rng.randint(1, 5)
        f = random_form(rng, d, -30, 30)
        x, y, c = rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-9, 9)
        assert evaluate(f, c * x, c * y) == c**d * evaluate(f, x, y)


def test_form_evaluator_examples():
    f = BinaryForm((1, 1, 1))
    assert _form_evaluator((f,))(1, 1, 5, (5).__rmod__) == [3]
    for a in (2, 5, 11, 10**30 + 7):
        g = BinaryForm((a, 0, 1))
        assert _form_evaluator((g,))(a, 1, a * a, (a * a).__rmod__) == [1]  # a^3 + 1 mod a^2
    assert _form_evaluator((f,))(12345, -678, 1, (1).__rmod__) == [0]


@st.composite
def _forms_modulus_and_point(draw):
    """1-3 forms of one degree 1..90, a modulus, and coordinates of either sign beyond it.

    About half the draws have degree 1..4 and 700-bit coefficients: one
    block covers such a form, and the walk reduces its unreduced sum once.
    """
    single = draw(st.booleans())
    d = draw(st.integers(1, 4) if single else st.integers(5, 90))
    if single:
        coeff = st.builds(operator.mul, st.sampled_from((-1, 1)), st.integers(2**699, 2**700))
    else:
        bound = draw(st.sampled_from((9, 2**700)))
        coeff = st.integers(-bound, bound)
    coeffs = st.tuples(*[coeff] * (d + 1))
    fs = tuple(BinaryForm(draw(coeffs)) for _ in range(draw(st.integers(1, 3))))
    composite = draw(st.integers(2, 2**40)) * draw(st.integers(2, 2**40))
    m = draw(
        st.one_of(
            st.integers(2**64, 2**4000),
            st.sampled_from((1, 2)),
            st.integers(1, 2**4000),
            st.integers(1, 4000 // composite.bit_length()).map(lambda e: composite**e),
        )
    )
    coordinate = st.integers(-4 * m - 2**64, 4 * m + 2**64)
    return fs, m, draw(coordinate), draw(coordinate)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_forms_modulus_and_point())
def test_form_evaluator_matches_evaluate_for_every_block_size(case):
    fs, m, x, y = case
    want = [evaluate(f, x, y) % m for f in fs]
    d = fs[0].degree
    # a Barrett reducer taken from the gcd loop's chain, with the crossover
    # lowered so that moduli from 64 bits up take it, at the chosen k and at
    # the single block; plain `%` at every k
    with mock.patch.object(nonarch, "_BARRETT_MIN_BITS", 64):
        [(_, barrett)] = nonarch._chain(m, 2, 1, fs)
    assert (barrett == m.__rmod__) == (m.bit_length() < 64)
    assert _form_evaluator(fs)(x, y, m, barrett) == want
    for k in range(1, d + 2):
        with mock.patch.object(nonarch, "_block_size", lambda _: k):
            ev = _form_evaluator(fs)
        assert ev(x, y, m, m.__rmod__) == want
    assert ev(x, y, m, barrett) == want


def test_block_size_is_set_by_the_degree():
    # degree: block size; the pair (F, G) then costs 3, 14, 46, 53 and 62
    # full-size products per step, against 4d for two Horner walks
    table = {2: 3, 8: 3, 48: 7, 65: 11, 80: 9}
    assert {d: _block_size(d) for d in table} == table


# ---------------------------------------------------------------------------
# point normalization


def test_normalize_point_examples():
    from fractions import Fraction

    assert normalize_point(-5, 1) == ProjectivePoint(-5, 1)
    assert normalize_point(Fraction(4, 6), Fraction(2, 3)) == ProjectivePoint(1, 1)
    assert normalize_point(3, 0) == ProjectivePoint(1, 0)
    assert normalize_point(0, 7) == ProjectivePoint(0, 1)
    assert normalize_point(4, 6) == ProjectivePoint(2, 3)
    assert normalize_point(-4, -6) == ProjectivePoint(2, 3)
    assert normalize_point(5, -1) == ProjectivePoint(-5, 1)
    assert normalize_point("1/2", "3/4") == ProjectivePoint(2, 3)
    assert normalize_point("1/2", " 3/4 ") == ProjectivePoint(2, 3)
    assert normalize_point(7, Fraction(1, 2)) == ProjectivePoint(14, 1)
    assert normalize_point(-3, 0) == ProjectivePoint(1, 0)


def test_normalize_point_rejects():
    with pytest.raises(ValueError):
        normalize_point(0, 0)
    with pytest.raises(TypeError):
        normalize_point(0.5, 1)
    # strings follow parse_point's grammar of integer literals and ratios, so no
    # exponent notation builds a huge integer before the string is refused
    for text in ("x", "1e10000000", "1e1000000", "0.5", "1e5", "1_000", "1/0", "3/"):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            normalize_point(text, 1)
        with pytest.raises(ValueError):
            parse_point(f"[{text}, 1]")
        assert time.perf_counter() - start < 0.1


def test_normalize_point_accepts_only_rationals_and_strings():
    # a Decimal in exponent notation would build its whole integer (3.3 million
    # bits for 1e1000000), so any type but int, bool, Fraction and str is
    # refused before any conversion
    from decimal import Decimal
    from fractions import Fraction

    for v in (Decimal("1e1000000"), Decimal("0.5"), complex(1, 0), None, [1]):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rational"):
            normalize_point(v, 1)
        with pytest.raises(ValueError, match="rational"):
            normalize_point(1, v)
        assert time.perf_counter() - start < 0.01
    assert normalize_point(True, 2) == ProjectivePoint(1, 2)
    assert normalize_point(-(10**40), Fraction(3, 7)) == ProjectivePoint(-(7 * 10**40), 3)
    assert normalize_point("-10000000000000000000000000000000000000000", "3/7") == ProjectivePoint(-(7 * 10**40), 3)


def test_projective_point_invariants():
    with pytest.raises(ValueError):
        ProjectivePoint(2, 4)
    with pytest.raises(ValueError):
        ProjectivePoint(1, -1)
    with pytest.raises(ValueError):
        ProjectivePoint(-1, 0)
    with pytest.raises(ValueError):
        ProjectivePoint(0, 0)


# bool is an int subclass: ProjectivePoint(True, 1) would print [True, 1]
@pytest.mark.parametrize("x, y", [(True, 1), (1, True), (False, True)])
def test_projective_point_refuses_bool_coordinates(x, y):
    with pytest.raises(ValueError, match="bool"):
        ProjectivePoint(x, y)


@pytest.mark.parametrize("coeffs", [(True, 0, 1), (1, False), (True,)])
def test_binary_form_refuses_bool_coefficients(coeffs):
    with pytest.raises(ValueError, match="bool"):
        BinaryForm(coeffs)


def test_other_int_subclasses_build_and_normalize_point_converts_a_bool():
    class Int(int):
        pass

    assert ProjectivePoint(Int(3), Int(2)) == ProjectivePoint(3, 2)
    assert BinaryForm((Int(1), 0, Int(2))).coefficients == (1, 0, 2)
    assert normalize_point(True, 2) == ProjectivePoint(1, 2)
    assert str(normalize_point(True, 1)) == "[1, 1]"


def test_guards_and_renderings_that_other_tests_miss():
    # _divide_exact's two corruption guards: a coefficient and a polynomial remainder
    with pytest.raises(ArithmeticError):
        forms._divide_exact([3, 1], [2])
    with pytest.raises(ArithmeticError):
        forms._divide_exact([1, 0, 1], [1, 1])
    assert (str(BinaryForm((-5,))), str(BinaryForm((0, 0))), str(BinaryForm((7,)))) == ("-5", "0", "7")
    with pytest.raises(ValueError, match="ints"):
        ProjectivePoint(1.0, 2)
    lift = MapLift.from_forms(BinaryForm((1, 0, 1)), BinaryForm((0, 2, 0)))
    assert str(lift) == "[X^2 + Y^2, 2*X*Y]"


# ---------------------------------------------------------------------------
# resultants


def test_resultant_matches_bruteforce_determinant():
    rng = random.Random(303)
    for _ in range(60):
        d = rng.randint(1, 4)
        F = random_form(rng, d, -50, 50)
        G = random_form(rng, d, -50, 50)
        expected = brute_det(sylvester_rows(F, G))
        assert resultant(F, G) == expected
        # size bound: |Res| <= (2d)! * norm^(2d)
        norm = max(F.norm, G.norm)
        if norm:
            assert abs(expected) <= math.factorial(2 * d) * norm ** (2 * d)


def test_resultant_matches_fraction_elimination():
    # every fourth pair shares the factor X - kY, so its resultant is zero
    rng = random.Random(313)
    zeros = 0
    for n in range(100):
        d = rng.randint(1, 6)
        if n % 4 == 0:
            shared = (1, -rng.randint(-5, 5))
            F = BinaryForm(tuple(convolve(shared, random_form(rng, d - 1, -9, 9).coefficients)))
            G = BinaryForm(tuple(convolve(shared, random_form(rng, d - 1, -9, 9).coefficients)))
        else:
            F = random_form(rng, d, -30, 30)
            G = random_form(rng, d, -30, 30)
        expected = fraction_det(sylvester_rows(F, G))
        assert resultant(F, G) == expected
        zeros += expected == 0
    assert zeros >= 25


def test_resultant_sign_convention():
    # monic root products: F = X(X - Y), G = (X - 2Y)(X - 3Y);
    # prod over root pairs of (r_i - s_j) = (-2)(-3)(-1)(-2) = 12
    assert resultant(BinaryForm((1, -1, 0)), BinaryForm((1, -5, 6))) == 12
    for a in (2, 6, 13, 10**25 + 9):
        assert resultant(BinaryForm((a, 0, 1)), BinaryForm((0, 1, 0))) == a


def test_resultant_closed_forms():
    for a in (0, 1, 7, -4, 10**50 + 3):
        F = BinaryForm((1, 1, 1))
        G = BinaryForm((1, a, 2))
        assert resultant(F, G) == a * a - 3 * a + 3
    for d in (1, 2, 3, 4):
        Xd = BinaryForm((1,) + (0,) * d)
        Yd = BinaryForm((0,) * d + (1,))
        assert resultant(Xd, Yd) == 1


def test_resultant_zero_iff_common_root():
    rng = random.Random(404)
    for _ in range(40):
        k = rng.randint(-8, 8)
        shared = (1, -k)  # X - kY
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        b = (rng.randint(-9, 9), rng.randint(-9, 9))
        F = BinaryForm(tuple(convolve(shared, a)))
        G = BinaryForm(tuple(convolve(shared, b)))
        if F.is_zero() or G.is_zero():
            continue
        assert resultant(F, G) == 0
    assert resultant(BinaryForm((1, 0, 0)), BinaryForm((1, 0, 0))) == 0


def test_resultant_validations():
    with pytest.raises(ValueError):
        resultant(BinaryForm((1, 0)), BinaryForm((1, 0, 0)))
    with pytest.raises(ValueError):
        resultant(BinaryForm((1,)), BinaryForm((2,)))


@st.composite
def _form_pairs(draw):
    """Two forms of one degree 1..12 for the elimination.

    Coefficients come from {-1, 0, 1} (whose remainder sequences often skip
    degrees), from +-30 or from +-2^700; either form may lose its X^d or
    its Y^d coefficient, and some pairs share the linear factor X - kY.
    """
    d = draw(st.integers(1, 12))
    bound = draw(st.sampled_from((1, 30, 2**700)))
    shared = draw(st.integers(-3, 3)) if draw(st.integers(0, 3)) == 0 else None
    coeffs = st.lists(st.integers(-bound, bound), min_size=d + 1, max_size=d + 1)
    pair = []
    for _ in range(2):
        c = draw(coeffs)
        if shared is not None:
            c = convolve((1, -shared), c[1:])
        for end in (0, -1):
            if draw(st.integers(0, 5)) == 0:
                c[end] = 0
        pair.append(BinaryForm(tuple(c)))
    return tuple(pair)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_form_pairs())
# F without X^d trades places with G; g = F(x, 1) is then the constant 3
@example((BinaryForm((0, 0, 0, 3)), BinaryForm((2, -1, 4, 5))))
# the same trade, and g = x loses 7 leading zeros
@example((BinaryForm((0,) * 7 + (1, 0)), BinaryForm((1,) + (0,) * 7 + (1,))))
# neither form has an X^d term, so both vanish at [1, 0] and Res = 0
@example((BinaryForm((0, 1, 2)), BinaryForm((0, 3, 1))))
def test_elimination_matches_fraction_determinant_and_identities(pair):
    F, G = pair
    res = resultant(F, G)
    assert res == fraction_det(sylvester_rows(F, G))
    if res:
        assert cofactor_identities_hold(F, G, cofactors(F, G))


# Res and (a1, b1, a2, b2), pinned from the Bareiss elimination the PRS replaced
_PINNED_ELIMINATIONS = {
    "degree gap": (
        (1, 0, 1, -1, -1), (-1, 1, 0, 1, 1),
        2, ((1, 0, 2, 1), (-1, -1, 2, 1), (-5, 8, -4, 7), (-5, 3, -6, 9)),
    ),
    # the same pair with X and Y swapped, whose PRS on F(x, 1), G(x, 1) has
    # the gap: (a1, b1) and (a2, b2) trade places, reversed, and Res keeps its
    # sign because d^2 is even
    "degree gap, X and Y swapped": (
        (-1, -1, 1, 0, 1), (1, 1, 0, 1, -1),
        2, ((7, -4, 8, -5), (9, -6, 3, -5), (1, 2, 0, 1), (1, 2, -1, -1)),
    ),
    "F without X^d": (
        (0, 2, -1, 3), (1, 1, 0, -2),
        -164, ((27, 38, -106), (-164, 110, -159), (3, -14, -30), (0, -6, 37)),
    ),
    "G without X^d": (
        (2, -1, 0, 1), (0, 0, 3, 1),
        -88, ((-44, -22, -2), (-6, 16, 2), (0, 0, -108), (72, -60, 20)),
    ),
    "F without Y^d": (
        (1, 3, -2, 0), (2, 0, 1, 5),
        -2630, ((-300, -320, 1525), (-1165, 610, 0), (-146, 230, -3), (73, 104, -526)),
    ),
    "degree 1": ((2, 3), (-1, 4), 11, ((4,), (-3,), (1,), (2,))),
    "negative": ((1, 0, -1), (1, -4, 2), -7, ((-10, 8), (3, 4), (-4, 13), (4, 3))),
}


@pytest.mark.parametrize("case", sorted(_PINNED_ELIMINATIONS))
def test_pinned_eliminations(case):
    f, g, res, forms_want = _PINNED_ELIMINATIONS[case]
    F, G = BinaryForm(f), BinaryForm(g)
    ident = cofactors(F, G)
    assert resultant(F, G) == ident.resultant == res == fraction_det(sylvester_rows(F, G))
    got = (ident.a1, ident.b1, ident.a2, ident.b2)
    assert tuple(c.coefficients for c in got) == forms_want
    assert cofactor_identities_hold(F, G, ident)


def test_pinned_degree_gap_occurs():
    # every end coefficient is nonzero, so a gap of 2 or more between a
    # dividend and its divisor is an abnormal step of the PRS; the PRS the
    # elimination runs is replayed alone, because the elimination's own
    # reduction of x^(2d-1)*b2 has a wide gap too
    f, g, *_ = _PINNED_ELIMINATIONS["degree gap, X and Y swapped"]
    assert f[0] and f[-1] and g[0] and g[-1]
    with mock.patch.object(forms, "_prs", wraps=forms._prs) as prs:
        resultant(BinaryForm(f), BinaryForm(g))
    with mock.patch.object(forms, "_prem", wraps=forms._prem) as prem:
        forms._prs(*prs.call_args.args)
    assert max(len(a) - len(b) for (a, b), _ in prem.call_args_list) >= 2


def test_ex1_cofactor_identities_hold():
    lift = fixture_lift("ex1")
    assert lift.degree == 80
    assert cofactor_identities_hold(lift.F, lift.G, lift.cofactor_identity)


# ---------------------------------------------------------------------------
# cofactors


def test_cofactor_identities_random():
    rng = random.Random(505)
    done = 0
    while done < 100:
        d = rng.choice((2, 3, 4))
        F = random_form(rng, d, -20, 20)
        G = random_form(rng, d, -20, 20)
        if resultant(F, G) == 0:
            continue
        ident = cofactors(F, G)
        assert ident.resultant == resultant(F, G)
        assert ident.a1.degree == d - 1
        assert ident.b1.degree == d - 1
        assert cofactor_identities_hold(F, G, ident)
        done += 1


def test_cofactor_identity_pointwise():
    rng = random.Random(606)
    for _ in range(5):
        lift = random_lift(rng, rng.choice((2, 3)))
        ident = lift.cofactor_identity
        d = lift.degree
        for _ in range(20):
            x, y = rng.randint(-30, 30), rng.randint(-30, 30)
            fa, ga = evaluate(lift.F, x, y), evaluate(lift.G, x, y)
            lhs1 = evaluate(ident.a1, x, y) * fa + evaluate(ident.b1, x, y) * ga
            lhs2 = evaluate(ident.a2, x, y) * fa + evaluate(ident.b2, x, y) * ga
            assert lhs1 == ident.resultant * x ** (2 * d - 1)
            assert lhs2 == ident.resultant * y ** (2 * d - 1)


def test_cofactors_power_map():
    ident = cofactors(BinaryForm((1, 0, 0)), BinaryForm((0, 0, 1)))
    assert ident.resultant == 1
    assert ident.a1.coefficients == (1, 0)
    assert ident.b1.is_zero()
    assert ident.a2.is_zero()
    assert ident.b2.coefficients == (0, 1)


def test_cofactors_rsa_shape():
    for a in (5, 10**20 + 39):
        ident = cofactors(BinaryForm((a, 0, 1)), BinaryForm((0, 1, 0)))
        assert cofactor_identities_hold(BinaryForm((a, 0, 1)), BinaryForm((0, 1, 0)), ident)


def test_cofactors_zero_resultant_rejected():
    with pytest.raises(NotAMorphismError):
        cofactors(BinaryForm((1, 0, 0)), BinaryForm((1, 0, 0)))


# ---------------------------------------------------------------------------
# MapLift


def test_map_lift_from_forms():
    lift = MapLift.from_forms(BinaryForm((1, 0, 1)), BinaryForm((0, 1, 0)))
    assert lift.degree == 2
    assert lift.resultant == 1
    assert lift.coeff_norm == 1
    assert lift.apply(2, 1) == (5, 2)


def test_map_lift_validations():
    with pytest.raises(ValueError):
        MapLift.from_forms(BinaryForm((1, 0)), BinaryForm((0, 1)))  # degree 1
    with pytest.raises(ValueError):
        MapLift.from_forms(BinaryForm((1, 0, 0)), BinaryForm((1, 0)))
    with pytest.raises(NotAMorphismError):
        MapLift.from_forms(BinaryForm((1, 0, 0)), BinaryForm((1, 0, 0)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stop_case())
def test_exact_step_iterates_the_normalized_orbit(case):
    # the one exact-orbit step behind the oracle, the identity check and
    # exact_log_gcd, iterated on its own output from P: its g's are the exact
    # orbit's gcds, each dividing |Res|, and its pairs are, up to sign, the
    # normalized MapLift.apply orbit, so coprime.  Half the gcd loop's steps:
    # a gcd of coprime full-size values takes quadratic time, and the last of
    # the loop's steps would take most of the run
    lift, P, terms = case
    steps = terms // 2
    charge = forms._budget(BudgetExceededError)  # one running cost, as the oracle keeps
    x, y, Q, gs = P.x, P.y, P, []
    for _ in range(steps):
        x, y, g = _exact_step(lift, x, y, charge)
        Q = normalize_point(*lift.apply(Q.x, Q.y))
        assert (x, y) in ((Q.x, Q.y), (-Q.x, -Q.y))
        assert lift.resultant % g == 0
        gs.append(g)
    assert gs == exact_gcd_sequence(lift, P, steps)


def test_parse_map_reports_map_checks_as_parse_errors():
    with pytest.raises(ParseError, match=r"\(got 2 and 3\)"):
        parse_map("F = X^2; G = Y^3")
    for text in ("F = X; G = Y", "phi(z) = 3z + 1", "phi(z) = 5"):
        with pytest.raises(ParseError, match="degree at least 2"):
            parse_map(text)


def test_map_lift_content_warning():
    with pytest.warns(UserWarning, match="content"):
        MapLift.from_forms(BinaryForm((2, 0, 0)), BinaryForm((0, 0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MapLift.from_forms(BinaryForm((1, 0, 0)), BinaryForm((0, 0, 1)))


def test_cofactor_identity_cached_and_consistent():
    rng = random.Random(707)
    lift = random_lift(rng, 3)
    assert lift.cofactor_identity is lift.cofactor_identity
    assert lift.cofactor_identity.resultant == lift.resultant


# ---------------------------------------------------------------------------
# parsing: maps


def test_parse_map_pair_form():
    lift = parse_map("F = X^2 + X*Y + Y^2; G = X^2 + 7*X*Y + 2*Y^2")
    assert lift.F.coefficients == (1, 1, 1)
    assert lift.G.coefficients == (1, 7, 2)
    assert lift.resultant == 7 * 7 - 21 + 3
    # -X*Y + Y*X cancels inside the product
    assert parse_map("F = (X+Y)*(X-Y); G = X*Y").F.coefficients == (1, 0, -1)
    # a power of a form with a gap between its terms
    assert parse_map("F = (X^2 - Y^2)^2; G = X^2*Y^2").F.coefficients == (1, 0, -2, 0, 1)


def test_parse_map_syntax_variants():
    reference = parse_map("F = 3*X^2 + 2*X*Y + Y^2; G = X*Y").F.coefficients
    assert parse_map("F = 3X^2 + 2XY + Y^2; G = XY").F.coefficients == reference
    assert parse_map("f = 3 X**2 + 2 X Y + Y**2; g = X Y").F.coefficients == reference
    assert parse_map("F = Y^2 + 2XY + 3X^2; G = XY").F.coefficients == reference
    assert parse_map("F = 4X^2 - (X^2 + Y^2) + 2XY + 2Y^2; G = XY").F.coefficients == reference
    # a power of a sum of several degrees, homogeneous once the rest cancels
    assert parse_map("F = (X+Y+1)^2 + 2X^2 - 2X - 2Y - 1; G = XY").F.coefficients == reference
    # a product with a zero factor is the zero polynomial, whatever its degree
    assert parse_map("F = 3X^2 + 2XY + Y^2 + 0*X^5*Y^2; G = XY").F.coefficients == reference


def test_parse_map_large_coefficients():
    big = 10**120 + 7
    lift = parse_map(f"F = {big}*X^3 + Y^3; G = X^2*Y - 5*Y^3")
    assert lift.F.coefficients[0] == big
    assert lift.G.coefficients == (0, 1, 0, -5)


def test_parse_map_phi_form():
    lift = parse_map("phi(z) = (7*z^2 + 1) / z")
    assert lift.F.coefficients == (7, 0, 1)
    assert lift.G.coefficients == (0, 1, 0)
    lift2 = parse_map("phi(z) = z^2 - 1")
    assert lift2.F.coefficients == (1, 0, -1)
    assert lift2.G.coefficients == (0, 0, 1)
    lift3 = parse_map("phi(w) = (w^3 + 2) / (3w^2 - w)")
    assert lift3.F.coefficients == (1, 0, 0, 2)
    assert lift3.G.coefficients == (0, 3, -1, 0)
    # one term on each side of the '/'
    lift4 = parse_map("phi(z) = z^3/2")
    assert lift4.F.coefficients == (1, 0, 0, 0)
    assert lift4.G.coefficients == (0, 0, 0, 2)
    lift5 = parse_map("phi(z) = -z^2/(z+1)")
    assert lift5.F.coefficients == (-1, 0, 0)
    assert lift5.G.coefficients == (0, 1, 1)
    lift6 = parse_map("phi(z) = (3*z^2 + 1)/(2*z)")
    assert lift6.F.coefficients == (3, 0, 1)
    assert lift6.G.coefficients == (0, 2, 0)


def test_parse_map_errors():
    bad = [
        "F = X^2 + Y; G = Y^2",  # not homogeneous
        "phi(z) = z",  # degree 1
        "F = X; G = Y",  # degree 1
        "nonsense",
        "F = X^2 + a*X*Y; G = Y^2",  # unknown variable
        "F = X^2/2; G = Y^2",  # non-integer coefficient
        "F = X^2",  # missing G
        "F = X^2; F = Y^2",  # duplicate
        "F = X^2; G = Y^2; F = X*Y",  # three statements
        "phi(z) = (z^2 + 1) / 0",  # zero denominator
        "phi(z) = (z^2 + 1) / (z - z)",
        "F = X^2 + ; G = Y^2",  # dangling operator
        "F = 0; G = Y^2",  # zero form
        "P = [1, 2]",
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_map(text)
    with pytest.raises(NotAMorphismError):
        parse_map("F = X^2; G = X^2")
    with pytest.raises(NotAMorphismError):
        parse_map("phi(z) = (z^2 + z) / (z + 1)")  # common root z = -1


_SLASH_INSIDE = (
    "'/' inside a polynomial is not supported; coefficients must be integers, "
    "and only the phi(z) form takes one top-level '/'"
)
_PHI_SUM = (
    "the phi(z) form takes one term on each side of its '/'; put a sum in parentheses, "
    "as in (z^2 + 1)/(2z)"
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("F = X^2 & Y; G = Y^2", "unexpected character '&' at position 4 of 'X^2 & Y'"),
        ("F =   X*Y + $; G = Y^2", "unexpected character '$' at position 6 of 'X*Y + $'"),
        (
            "F = " + "X^2 + " * 10 + "X*Y # Y^2 + " + "Y^2 + " * 5 + "Y^2; G = Y^2",
            "unexpected character '#' at position 64 of '...2 + X^2 + X^2 + X*Y # Y^2 + Y^2 + Y^2 + ...'",
        ),
        ("F = X^2 ); G = Y^2", "unexpected ')' after a complete expression"),
        ("F = X^Y; G = Y^2", "exponent must be a nonnegative integer literal"),
        ("F = X^5000; G = Y^2", "exponent 5000 exceeds the supported maximum 4096"),
        # a pair of unequal degrees is refused by the map check, not charged an elimination
        ("F = X^4096; G = Y^2", "F and G must have the same degree (got 4096 and 2)"),
        ("F = (X+Y; G = Y^2", "missing closing parenthesis"),
        ("F = /X; G = Y^2", "'/' is not allowed here; only integer coefficients are supported"),
        ("F = X^2/2; G = Y^2", _SLASH_INSIDE),
        ("F = *X; G = Y^2", "unexpected '*' in expression"),
        ("H = X^2; G = Y^2", "each statement must assign to F or G, as in F = X^2 + Y^2"),
        ("phi(z) = 0", "the numerator must not be the zero polynomial"),
        ("phi(z) = 0/0", "the numerator must not be the zero polynomial"),
        ("phi(z) = z/0", "the denominator must not be the zero polynomial"),
        # the phi form's right-hand side is tokenized and parsed as one expression
        ("phi(z) = (z^2 & 1)/z", "unexpected character '&' at position 5 of '(z^2 & 1)/z'"),
        ("phi(z) = / z", "'/' is not allowed here; only integer coefficients are supported"),
        # '/' binds tighter than a sum beside it, so the sum needs parentheses
        *((f"phi(z) = {rhs}", _PHI_SUM)
          for rhs in ("z^2 + 1/z", "z^3/2 - 1", "z^2/z + 1", "1/z^2 + z")),
        ("phi(z) = (z^2+1)/z/2", _SLASH_INSIDE),
        ("phi(z) = (z/2)", _SLASH_INSIDE),
    ],
)
def test_parse_map_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert str(exc.value) == message


def test_parse_map_bounds_nested_powers_before_expanding(monkeypatch):
    # each power checks the degree it would form, deg(base) * e, before expanding;
    # the inner power may expand within the budget, the outer one never does
    expanded = []
    ppow = forms._ppow

    def spy(p, e, charge):
        expanded.append(max(p, default=0) // forms._KEY_BASE * e)
        return ppow(p, e, charge)

    monkeypatch.setattr(forms, "_ppow", spy)
    for text, degree in (("((X+Y)^4096)^4096", 16777216), ("(X^2)^3000", 6000)):
        expanded.clear()
        with pytest.raises(ParseError, match=f"a power of degree {degree},"):
            parse_map(f"F = {text}; G = Y^2")
        assert degree not in expanded
        assert all(d <= forms._MAX_EXPONENT for d in expanded)
    monkeypatch.undo()
    lift = parse_map("F = ((X+Y)^3)^3; G = Y^9")
    assert lift.degree == 9
    assert lift.F.coefficients == tuple(math.comb(9, i) for i in range(10))


@pytest.mark.parametrize(
    "text",
    [
        "F = (X^3000 - X^3000 + X*Y)^2; G = X^4 + Y^4",
        "F = ((X+Y)^3000 - (X+Y)^3000 + X*Y)^2; G = X^4 + Y^4",
        "phi(z) = (z^2100 - z^2100 + z^2 + 1)^2/(2*z)",
    ],
)
def test_parse_map_accepts_large_terms_that_cancel(text):
    # only the degree a product or power forms counts, not a degree its terms
    # would reach had they not cancelled
    lift = parse_map(text)
    assert lift.degree == 4
    if text.startswith("phi"):
        assert (lift.F.coefficients, lift.G.coefficients) == ((1, 0, 2, 0, 1), (0, 0, 0, 2, 0))
    else:
        assert (lift.F.coefficients, lift.G.coefficients) == ((0, 0, 1, 0, 0), (1, 0, 0, 0, 1))


def test_parse_map_bounds_products_before_multiplying(monkeypatch):
    def parse(text):
        return _PolyParser(_tokenize(text), ("X", "Y")).parse()

    def multiply(*args):
        raise AssertionError("a product was formed before its degree was checked")

    monkeypatch.setattr(forms, "_pmul", multiply)
    with pytest.raises(ParseError, match="degree 8192"):
        parse("X^4096*Y^4096")
    with pytest.raises(ParseError, match="degree 8192"):
        parse("X^4096 Y^4096")  # implicit multiplication
    monkeypatch.undo()
    assert exponent_keyed(parse("X^2048*Y^2048")) == {(2048, 2048): 1}


@pytest.mark.parametrize(
    "text, a, b, e", [("(X+Y)^4096", 1, 1, 4096), ("(2*X-3*Y)^2048", 2, -3, 2048)]
)
def test_parser_expands_large_binomial_powers(text, a, b, e):
    # binomial powers up to the largest degree the parser accepts
    got = exponent_keyed(_PolyParser(_tokenize(text), ("X", "Y")).parse())
    assert got == {(e - j, j): math.comb(e, j) * a ** (e - j) * b**j for j in range(e + 1)}


def test_parser_expands_powers_of_sums_of_several_degrees():
    def parse(text):
        return exponent_keyed(_PolyParser(_tokenize(text), ("X", "Y")).parse())

    f, e = math.factorial, 256
    trinomial = {
        (i, j): f(e) // (f(i) * f(j) * f(e - i - j)) for i in range(e + 1) for j in range(e + 1 - i)
    }
    assert parse("(X+Y+1)^256") == trinomial
    assert parse("(X+1)^2048") == {(i, 0): math.comb(2048, i) for i in range(2049)}


@st.composite
def _power_bases(draw):
    """(nvars, base): an exponent-tuple dict in one or two variables, with
    exponents up to 4 each, so terms mix degrees and leave gaps."""
    nvars = draw(st.sampled_from((1, 2)))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)).filter(bool)
    return nvars, draw(st.dictionaries(exponents, coefficients, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_power_bases(), st.integers(0, 16))
@example((2, {(1, 0): 1, (0, 1): 1, (0, 0): 1}), 16)  # mixed degrees
@example((2, {(3, 0): 2, (0, 3): -1, (1, 1): 5}), 7)  # gaps, no constant term
@example((2, {(2, 2): -3, (0, 1): 4}), 9)  # every term has a Y
@example((1, {(4,): -3, (1,): 5}), 16)  # the phi form's one variable, gaps
@example((2, {}), 0)  # 0^0 = 1
def test_ppow_matches_repeated_multiplication(base, e):
    nvars, p = base
    # the budget is the parser's; this test checks the expansion alone
    got = forms._ppow({monomial_key(m): c for m, c in p.items()}, e, lambda *work: None)
    assert exponent_keyed(got, nvars) == tuple_power(p, e, nvars)


def _parse_xy(text):
    return _PolyParser(_tokenize(text), ("X", "Y")).parse()


# the cost of one product of two one-limb coefficients
_ONE_LIMB = 1 + forms._PRODUCT_COST


def test_power_work_is_bounded_before_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("a power was expanded before its cost was charged")

    # (X+Y+1)^e packs X^i Y^j as x^(i*(e+1) + j*(e+2)), so its list has
    # e*(e+2) + 1 entries, and each takes one product per term of the base,
    # of a coefficient of up to 4096*(1 + 2) bits (192 limbs) by one limb
    monkeypatch.setattr(forms, "_power_coefficients", expand)
    with pytest.raises(ParseError, match=f"at least {3 * 16785409 * (192 + forms._PRODUCT_COST)} "):
        parse_map("F = (X+Y+1)^4096; G = Y^4096")
    monkeypatch.undo()
    # the outer power is a short list, but its base has 801 terms; only the inner one expands
    expanded, original = [], forms._power_coefficients
    monkeypatch.setattr(forms, "_power_coefficients", lambda a, e: expanded.append(e) or original(a, e))
    with pytest.raises(ParseError, match="over the supported maximum"):
        _parse_xy("((X+Y)^800)^5")
    assert expanded == [800]
    monkeypatch.undo()
    # (X+Y+1)^11 takes 3*(11*13 + 1) products of one limb by one
    monkeypatch.setattr(forms, "_MAX_COST", 432 * _ONE_LIMB)
    assert len(_parse_xy("(X+Y+1)^11")) == 78
    with pytest.raises(ParseError, match=f"at least {507 * _ONE_LIMB} "):
        _parse_xy("(X+Y+1)^12")
    # a sparse base expands on the gcd of its gaps, not on every exponent between
    assert exponent_keyed(_parse_xy("(X^60*Y^60 + 1)^13")) == {
        (60 * k, 60 * k): math.comb(13, k) for k in range(14)
    }


def test_product_work_is_bounded_before_multiplying(monkeypatch):
    formed, original = [], forms._pmul

    def multiply(p, q):
        # the large products are counted, not formed
        if len(p) * len(q) < 1000:
            return original(p, q)
        formed.append(len(p) * len(q))
        return {}

    monkeypatch.setattr(forms, "_pmul", multiply)
    _parse_xy("(X+Y)^1024*(X-Y)^1024")
    assert formed == [1025 * 1025]
    with pytest.raises(ParseError, match="over the supported maximum"):
        _parse_xy("(X+2*Y)^2048*(X-Y)^2048")
    assert formed == [1025 * 1025]
    monkeypatch.undo()
    # (X+Y)^3 takes 4*2 products, (X-Y)^2 3*2 and their product 4*3, all of one limb
    monkeypatch.setattr(forms, "_MAX_COST", (8 + 6 + 12) * _ONE_LIMB)
    assert exponent_keyed(_parse_xy("(X+Y)^3*(X-Y)^2")) == {(5, 0): 1, (4, 1): 1, (3, 2): -2, (2, 3): -2, (1, 4): 1, (0, 5): 1}
    with pytest.raises(ParseError, match=f"at least {(8 + 8 + 16) * _ONE_LIMB} "):
        _parse_xy("(X+Y)^3*(X-Y)^3")


def test_power_coefficient_bits_are_bounded_before_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("a power was expanded before its coefficient bits were charged")

    literal = "7" * 4000
    monkeypatch.setattr(forms, "_power_coefficients", expand)
    with pytest.raises(ParseError, match="over the supported maximum"):
        parse_map(f"F = ({literal}*X + Y)^4096; G = Y^4096")
    monkeypatch.undo()
    # (X+Y)^8 takes 9*2 products of one limb by one; the same shapes with a
    # 65-bit coefficient multiply more limbs, and so cost more
    monkeypatch.setattr(forms, "_MAX_COST", 18 * _ONE_LIMB)
    assert exponent_keyed(_parse_xy("(X+Y)^8")) == {(8 - j, j): math.comb(8, j) for j in range(9)}
    assert exponent_keyed(_parse_xy("(2*X)^72")) == {(72, 0): 2**72}
    with pytest.raises(ParseError, match=f"at least {20 * _ONE_LIMB} "):
        _parse_xy("(X+Y)^9")
    for text in ("(18446744073709551616*X + Y)^8", "(18446744073709551616*X)^72", "((3)^2)^500"):
        with pytest.raises(ParseError, match="over the supported maximum"):
            _parse_xy(text)


def test_sum_of_powers_is_refused_before_its_third_expansion(monkeypatch):
    expanded, original = [], forms._power_coefficients

    def expand(a, e):
        expanded.append(e)
        return original(a, e)

    monkeypatch.setattr(forms, "_power_coefficients", expand)
    # the budget charges the whole statement, and each term costs 432 products
    monkeypatch.setattr(forms, "_MAX_COST", 432 * _ONE_LIMB * 5 // 2)
    with pytest.raises(ParseError, match="over the supported maximum"):
        _parse_xy(" + ".join(["(X+Y+1)^11"] * 8))
    assert expanded == [11, 11]


def test_product_of_constant_powers_is_refused_before_the_large_product(monkeypatch):
    formed, original = [], forms._pmul

    def multiply(p, q):
        formed.append(1)
        return original(p, q)

    monkeypatch.setattr(forms, "_pmul", multiply)
    # (3^4096)^16 has 1623 limbs, so the k-th product of the chain takes
    # k*1623^2 limb products; fifteen factors fit the budget, sixteen do not
    chain = " * ".join(["(3^4096)^16"] * 15)
    assert _parse_xy(chain) == {0: 3 ** (4096 * 16 * 15)}
    formed.clear()
    with pytest.raises(ParseError, match="over the supported maximum"):
        _parse_xy(chain + " * (3^4096)^16")
    assert len(formed) == 14
    with pytest.raises(ParseError, match="over the supported maximum"):
        _parse_xy("(3^4096)^256")


class _Eliminated(Exception):
    """Raised by a spy in place of the elimination."""


def _refuse_elimination(monkeypatch):
    def eliminate(*args):
        raise _Eliminated

    monkeypatch.setattr(forms, "_eliminate", eliminate)


def _random_pair_text(d, bits, seed):
    rng = random.Random(seed)
    F, G = (BinaryForm(tuple(rng.randint(-(2**bits), 2**bits) for _ in range(d + 1)))
            for _ in range(2))
    return f"F = {F}; G = {G}"


@pytest.mark.parametrize(
    "text",
    [
        _random_pair_text(60, 700, 1),
        "F = (X+Y)^150; G = (X-2*Y)^150 + X^150",
        "phi(z) = z^4096",
        "F = X^2048 + Y^2048; G = X*Y^2047",
    ],
)
def test_elimination_is_refused_before_it_runs(monkeypatch, text):
    _refuse_elimination(monkeypatch)
    with pytest.raises(ParseError, match="over the supported maximum"):
        parse_map(text)


@pytest.mark.parametrize(
    "case", ["ex1", "ex2", "ex3", "ex4", "d = 20, 700 bits", "phi(z) = z^1024", "phi(z) = z^2048"]
)
def test_elimination_budget_keeps_the_fixtures(monkeypatch, case):
    if case.startswith("ex"):
        lift = fixture_lift(case)
        text = f"F = {lift.F}; G = {lift.G}"
    else:
        text = _random_pair_text(20, 700, 1) if case.startswith("d") else case
    _refuse_elimination(monkeypatch)
    with pytest.raises(_Eliminated):
        parse_map(text)


def _juxtaposed(form: BinaryForm) -> str:
    """form in lower case, without '*' and with '**', as in -12x**3y**2 + 7xy - y**5."""
    d, out = form.degree, ""
    for i, c in enumerate(form.coefficients):
        if c:
            mono = "".join(v + (f"**{e}" if e > 1 else "") for v, e in (("x", d - i), ("y", i)) if e)
            out += (" - " if c < 0 else " + ") + (str(abs(c)) if abs(c) != 1 or not mono else "") + mono
    return out[1:] if out.startswith(" -") else out[3:]


def _in_z(form: BinaryForm) -> str:
    """form(z, 1) as a sum of c*z^k, zero coefficients left out."""
    d = form.degree
    return " + ".join(f"{c}*z^{d - i}" for i, c in enumerate(form.coefficients) if c)


def test_parse_map_roundtrip_str():
    # pairs of degrees 2 to 48 with zero, negative and multi-digit
    # coefficients, each written as str() writes it, without '*' and with
    # '**', and as the phi(z) form
    rng = random.Random(808)
    for d in (2, 3, 8, 13, 21, 34, 48):
        F = G = BinaryForm((1,) + (0,) * d)
        while not resultant(F, G):
            F, G = (
                BinaryForm((rng.choice((-1, 1)) * rng.randint(1, 999),) + tuple(
                    rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**6), 10**6))) for _ in range(d)
                ))
                for _ in range(2)
            )
        for text in (
            f"F = {F}; G = {G}",
            f"F = {_juxtaposed(F)}; G = {_juxtaposed(G)}",
            f"phi(z) = ({_in_z(F)})/({_in_z(G)})",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                again = parse_map(text)
            assert (again.F, again.G) == (F, G)


def _lead_nonzero_form(rng, d: int) -> BinaryForm:
    while True:
        coefficients = tuple(rng.randint(-9, 9) for _ in range(d + 1))
        if coefficients[0]:
            return BinaryForm(coefficients)


def _maps_workload_texts(seed: int) -> list[str]:
    """The map texts of perfbench's `maps` workload at `seed`: 60 pairs of
    degrees 8 to 48 evenly, coefficients in [-9, 9], content 1 and a
    resultant nonzero mod 2^61 - 1."""
    rng = random.Random(seed)
    degrees = [8 + 41 * k // 60 for k in range(60)]
    rng.shuffle(degrees)
    texts = []
    for d in degrees:
        while True:
            F, G = _lead_nonzero_form(rng, d), _lead_nonzero_form(rng, d)
            if math.gcd(*F.coefficients, *G.coefficients) == 1 and resultant(F, G) % (2**61 - 1):
                break
        texts.append(f"F = {F}; G = {G}")
        rng.randint(-20, 20), rng.randint(1, 20)  # the job's point
    return texts


# the inputs of the budget tests above that parse_map can take in well under a second
_BUDGET_TEST_TEXTS = (
    "F = (X+Y+1)^4096; G = Y^4096",
    "F = ((X+Y)^800)^5; G = Y^4000",
    "F = (X+Y)^3*(X-Y)^2; G = Y^5",
    "F = " + " + ".join(["(X+Y+1)^11"] * 8) + "; G = Y^11",
    "F = " + " * ".join(["(3^4096)^16"] * 16) + "; G = Y^2",
    "F = (3^4096)^256; G = Y^2",
    f"F = ({'7' * 4000}*X + Y)^4096; G = Y^4096",
    "F = (18446744073709551616*X + Y)^8; G = Y^8",
    "F = (2*X)^72; G = Y^72",
    "F = ((X+Y)^3000 - (X+Y)^3000 + X*Y)^2; G = X^4 + Y^4",
    "F = 3X^2 + 2XY + Y^2 + 0*X^5*Y^2; G = XY",
    "F = 4X^2 - (X^2 + Y^2) + 2XY + 2Y^2; G = XY",
    "F = -3*-X^2*--Y + (-X)^3 - 2^3*X^0*Y^3; G = -(X - Y)^3",
    "phi(z) = -z^2/(z+1)",
    "phi(z) = (z^2100 - z^2100 + z^2 + 1)^2/(2*z)",
    _random_pair_text(60, 700, 1),
    _random_pair_text(20, 700, 1),
    "F = (X+Y)^150; G = (X-2*Y)^150 + X^150",
    "phi(z) = z^4096",
    "F = X^2048 + Y^2048; G = X*Y^2047",
)


def test_parser_charges_the_pinned_work_on_maps_and_budget_inputs(monkeypatch):
    # a run of single-term factors folds into one coefficient and key, and
    # must charge what times(), _ppow and a negation charge for it, call by
    # call; the pinned count and total are those of products, powers and
    # negations each formed as a dict, so a fold that charges less fails
    calls, budget = [], forms._budget

    def recording_budget(error=ParseError):
        charge = budget(error)

        def record(*args):
            calls.append(args)
            charge(*args)

        return record

    texts = _maps_workload_texts(1) + list(_BUDGET_TEST_TEXTS)
    monkeypatch.setattr(forms, "_budget", recording_budget)
    _refuse_elimination(monkeypatch)
    for text in texts:
        with pytest.raises((_Eliminated, ParseError)):
            parse_map(text)
    total = sum(
        n * (((a + 63) >> 6) * ((b + 63) >> 6) + (over[0] if over else forms._PRODUCT_COST))
        for n, a, b, *over in calls
    )
    assert (len(calls), total) == (12895, 1570333175183)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grammar_texts())
def test_parsers_return_or_raise_their_own_errors(case):
    s, text = case
    # a low exponent cap keeps every accepted power cheap to expand
    with mock.patch.object(forms, "_MAX_EXPONENT", 64), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            assert isinstance(parse_map(text), MapLift)
        except (ParseError, NotAMorphismError):
            pass
        try:
            assert isinstance(parse_point(s), ProjectivePoint)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# parsing: points


def test_parse_point_forms():
    assert parse_point("P = [-5, 1]") == ProjectivePoint(-5, 1)
    assert parse_point("[-5, 1]") == ProjectivePoint(-5, 1)
    assert parse_point("[4, 6]") == ProjectivePoint(2, 3)
    assert parse_point("P = 2/3") == ProjectivePoint(2, 3)
    assert parse_point("-7") == ProjectivePoint(-7, 1)
    assert parse_point("[1/2, 3/4]") == ProjectivePoint(2, 3)
    assert parse_point("[3, 0]") == ProjectivePoint(1, 0)
    assert parse_point("p = [ -2 , 4 ]") == ProjectivePoint(-1, 2)


def test_parse_point_errors():
    for text in ["", "[1]", "[1, 2, 3]", "[0, 0]", "[1, x]", "1.5", "2/0", "[1, 2"]:
        with pytest.raises(ParseError):
            parse_point(text)
