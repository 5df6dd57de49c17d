"""Tests for the reduced-orbit gcd loop."""

import math
import random
import tracemalloc
import warnings
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import p1height
from p1height import nonarch
from p1height.fixtures import load_fixture
from p1height.forms import (
    BinaryForm,
    MapLift,
    NotAMorphismError,
    ProjectivePoint,
    evaluate,
    normalize_point,
    parse_map,
)
from p1height.nonarch import (
    _form_evaluator,
    _gcd_loop,
    _headroom,
    _reciprocals,
    _reducer,
    _unit_chart,
    exact_log_gcd,
    nonarch_height,
)

from helpers import exact_gcd_sequence, random_lift, random_point, stop_case


def _lift(f_coeffs, g_coeffs):
    return MapLift.from_forms(BinaryForm(tuple(f_coeffs)), BinaryForm(tuple(g_coeffs)))


def test_form_evaluator_refuses_forms_of_mixed_degrees():
    with pytest.raises(ValueError, match="one degree"):
        _form_evaluator((BinaryForm((1, 0, 1)), BinaryForm((1, 1))))


# ---------------------------------------------------------------------------
# the reduced loop against the exact full-size orbit


def test_gcd_sequence_matches_exact_orbit():
    # the whole point of the reduced loop: identical g_i without ever
    # holding an integer bigger than R^N
    rng = random.Random(1301)
    checked = 0
    while checked < 40:
        lift = random_lift(rng, rng.choice((2, 3)))
        if abs(lift.resultant) == 1:
            continue
        P = random_point(rng)
        n = rng.randint(2, 8)
        res = nonarch_height(lift, P, n)
        assert list(res.gcd_sequence) == exact_gcd_sequence(lift, P, n)
        checked += 1


def test_every_gcd_divides_resultant():
    rng = random.Random(1302)
    for _ in range(25):
        lift = random_lift(rng, 2)
        R = abs(lift.resultant)
        res = nonarch_height(lift, random_point(rng), 6)
        for g in res.gcd_sequence:
            assert g >= 1 and R % g == 0


def test_unit_resultant_short_circuits():
    lift = _lift((1, 0, 0, 0), (0, 0, 0, 1))  # X^3, Y^3 has resultant 1
    res = nonarch_height(lift, ProjectivePoint(7, 3), 12)
    assert res.value == mp.mpf(0)
    assert res.tail_bound == mp.mpf(0)
    assert res.gcd_sequence == (1,) * 12
    assert res.modulus_bits == 1
    assert res.terms == 12


def test_doubly_vanishing_residues_take_whole_modulus():
    # second step of this orbit reduces to (1, 0) mod 6 and both forms
    # vanish there mod 6; the loop must report g = 6, matching the exact run
    lift = _lift((6, 0, 1), (0, 1, 0))
    P = ProjectivePoint(6, 1)
    res = nonarch_height(lift, P, 2)
    assert res.gcd_sequence == (1, 6)
    assert list(res.gcd_sequence) == exact_gcd_sequence(lift, P, 2)


def test_refinement_never_exceeds_tail_bound():
    rng = random.Random(1303)
    for _ in range(10):
        lift = random_lift(rng, 2)
        P = random_point(rng)
        short = nonarch_height(lift, P, 4)
        long = nonarch_height(lift, P, 8, precision_bits=short.precision_bits)
        gap = long.value - short.value
        assert gap >= 0
        assert gap <= short.tail_bound + mp.mpf(2) ** (10 - short.precision_bits)
        assert short.gcd_sequence == long.gcd_sequence[:4]


def test_value_is_sum_of_gcd_logs():
    rng = random.Random(1304)
    for _ in range(10):
        lift = random_lift(rng, 3)
        res = nonarch_height(lift, random_point(rng), 5)
        d = lift.degree
        with mp.workprec(res.precision_bits):
            total = mp.mpf(0)
            for i, g in enumerate(res.gcd_sequence):
                total += mp.log(g) / d ** (i + 1)
            assert abs(total - res.value) <= mp.mpf(2) ** (8 - res.precision_bits)


def test_terms_validation():
    lift = _lift((2, 0, 3), (0, 5, 0))
    P = ProjectivePoint(2, 1)
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError):
            nonarch_height(lift, P, bad)


def test_the_split_run_names_are_gone_from_the_public_api():
    for name in ("PartialFactorization", "trial_division", "nonarch_height_factored"):
        assert name not in p1height.__all__
        assert not hasattr(p1height, name)
        assert not hasattr(nonarch, name)


# ---------------------------------------------------------------------------
# single exact steps


def test_exact_log_gcd_examples():
    assert exact_log_gcd(_lift((1, 0, 0), (0, 0, 1)), ProjectivePoint(2, 3)) == mp.mpf(0)
    # X^2+XY+Y^2 and X^2+6XY+2Y^2 at (1, 1) evaluate to 3 and 9
    lift = _lift((1, 1, 1), (1, 6, 2))
    v = exact_log_gcd(lift, ProjectivePoint(1, 1), precision_bits=128)
    with mp.workprec(128):
        assert abs(v - mp.log(3)) <= mp.mpf(2) ** -120
    # aX^2+Y^2 and XY at (a, 1): gcd(a^3 + 1, a) = 1
    a = 7
    assert exact_log_gcd(_lift((a, 0, 1), (0, 1, 0)), ProjectivePoint(a, 1)) == mp.mpf(0)


def test_exact_log_gcd_agrees_with_first_series_term():
    rng = random.Random(1305)
    for _ in range(10):
        lift = random_lift(rng, 2)
        P = random_point(rng)
        res = nonarch_height(lift, P, 1)
        v = exact_log_gcd(lift, P, precision_bits=res.precision_bits)
        with mp.workprec(res.precision_bits):
            expected = v / lift.degree
            assert abs(expected - res.value) <= mp.mpf(2) ** (8 - res.precision_bits)


def test_reduction_mod_resultant_preserves_step_gcd():
    # the lemma the whole loop rests on: shifting either evaluation by a
    # multiple of R never changes its gcd with R
    rng = random.Random(1306)
    for _ in range(200):
        lift = random_lift(rng, rng.choice((2, 3)))
        R = abs(lift.resultant)
        if R == 1:
            continue
        P = random_point(rng)
        fv = evaluate(lift.F, P.x, P.y)
        gv = evaluate(lift.G, P.x, P.y)
        k1, k2 = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        assert math.gcd(fv + k1 * R, gv + k2 * R, R) == math.gcd(fv, gv, R)


# ---------------------------------------------------------------------------
# Barrett reduction down the modulus chain


@st.composite
def _modulus_chain(draw):
    """A chain modulus R, its length, a form setting the headroom, and a
    crossover somewhere along the chain."""
    R = draw(st.one_of(st.sampled_from((2, 3, 12)), st.integers(2, 2**1400)))
    steps = 200 if R in (2, 3, 12) else draw(st.integers(2, 8))
    d = draw(st.integers(1, 90))
    c = draw(st.integers(1, 2**700))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d + 1, max_size=d + 1))
    crossover = draw(st.integers(2, (R**steps).bit_length()))
    return R, steps, BinaryForm(tuple(s * c for s in signs)), crossover, draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_modulus_chain())
def test_barrett_chain_reduces_exactly_and_keeps_its_reciprocal_close(case):
    R, steps, form, crossover, seed = case
    rng = random.Random(seed)
    E = _headroom((form,))
    with mock.patch.object(nonarch, "_BARRETT_MIN_BITS", crossover):
        for M, mu in _reciprocals(R**steps, R, steps, E):
            n = M.bit_length()
            if n < crossover:
                assert mu is None
            else:
                assert 0 <= ((1 << (2 * n + E)) // M) - mu <= 4
            red = _reducer(M, mu, E)
            edge = (1 << (2 * n + E)) - 1
            # the single-block sums at their largest, either sign, and a random one
            top = sum(abs(c) for c in form.coefficients) * (M - 1) ** 2
            dot = sum(c * rng.randrange(M) * rng.randrange(M) for c in form.coefficients)
            values = (rng.randrange(M) * rng.randrange(M), 2 * M * M - 1, edge, -edge, top, -top, dot)
            assert [red(v) for v in values] == [v % M for v in values]


@pytest.mark.parametrize("fixture_id", ["ex3", "ex4"])
def test_barrett_loop_gives_the_plain_loop_g_sequence(fixture_id):
    fx = load_fixture(fixture_id)
    lift, P = fx.lift(), fx.point()
    R = abs(lift.resultant)
    top = R**50
    # the first steps reduce by Barrett under the default crossover
    assert top.bit_length() > 2 * nonarch._BARRETT_MIN_BITS
    forms = (lift.F, lift.G)
    barrett = _gcd_loop(forms, P, R, top, 50)
    with mock.patch.object(nonarch, "_BARRETT_MIN_BITS", math.inf):
        assert _gcd_loop(forms, P, R, top, 50) == barrett


# ---------------------------------------------------------------------------
# the small-size Horner body against the Paterson-Stockmeyer body


def _exact_modulus_gcds(forms, P, modulus, n):
    """gcd(modulus, F, G) along the exact orbit that divides each step by it."""
    x, y = P.x, P.y
    out = []
    for _ in range(n):
        a, b = (evaluate(f, x, y) for f in forms)
        g = math.gcd(modulus, a, b)
        out.append(g)
        x, y = a // g, b // g
    return out


@st.composite
def _loop_case(draw):
    """Two forms of one degree 1..6, a point, a modulus and a term count."""
    d = draw(st.integers(1, 6))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
    forms = tuple(
        BinaryForm(tuple(draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))))
        for _ in range(2)
    )
    x, y = draw(
        st.one_of(
            st.sampled_from(((1, 0), (0, 1), (-1, 0))),
            st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)),
        )
    )
    assume(x or y)
    modulus = draw(
        st.one_of(
            st.just(1),
            st.sampled_from((2, 3, 4, 8, 9, 25, 27, 49, 121)),  # prime powers
            st.sampled_from((6, 12, 30, 36, 360, 1001)),  # composites
            st.integers(2, 2**40),
        )
    )
    return forms, normalize_point(x, y), modulus, draw(st.integers(1, 30))


# -3X^2 - 3XY - 3Y^2 and -3X^2 - 2XY - 3Y^2 mod 6: the first step is exact at
# P, and the second step's pair picks the chart each example names; each run
# meets all three kinds of step, and its g-sequence mixes 1 and 3
_CHART_FORMS = (BinaryForm((-3, -3, -3)), BinaryForm((-3, -2, -3)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_loop_case())
@example((_CHART_FORMS, ProjectivePoint(-3, 4), 6, 6))  # y a unit: the chart (x/y, 1)
@example((_CHART_FORMS, ProjectivePoint(-3, 1), 6, 6))  # only x a unit: (1, y/x), reversed
@example((_CHART_FORMS, ProjectivePoint(-1, 1), 6, 6))  # neither a unit: the pair as it is
def test_horner_and_walk_bodies_give_one_g_sequence(case):
    forms, P, modulus, terms = case
    top = modulus**terms
    runs = []
    # every step by Horner; then the walk wherever the exact values would pass
    # the live modulus, plain and then scaled to a unit chart
    for cap, scale_from in ((math.inf, math.inf), (-1, math.inf), (-1, 0)):
        with (
            mock.patch.object(nonarch, "_HORNER_MAX_BITS", cap),
            mock.patch.object(nonarch, "_SCALE_MIN_DEGREE", scale_from),
        ):
            runs.append(_gcd_loop(forms, P, modulus, top, terms))
    assert runs[0] == runs[1] == runs[2]
    if forms[0].degree**terms <= 10_000:  # the exact orbit stays cheap
        assert runs[0] == _exact_modulus_gcds(forms, P, modulus, terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    modulus=st.one_of(st.sampled_from((1, 2, 6, 12, 30, 49)), st.integers(2, 2**300)),
    e=st.integers(1, 12),
    crossover=st.integers(2, 4000),
    seed=st.integers(0, 2**32),
)
@example(modulus=2**127 - 1, e=3, crossover=2, seed=1)  # Barrett at an odd exponent
def test_unit_chart_is_a_unit_multiple_of_the_pair(modulus, e, crossover, seed):
    # the pair comes in below modulus^(e+1), as the loop's quotients do; odd e
    # puts the Newton steps' products at their largest against the reducer
    rng = random.Random(seed)
    live = modulus**e
    x, y = rng.randrange(live * modulus), rng.randrange(live * modulus)
    if seed % 3 == 0:
        y -= y % math.gcd(modulus, 6)  # y shares a small factor with a composite modulus
    with mock.patch.object(nonarch, "_BARRETT_MIN_BITS", crossover):
        ((M, mu),) = _reciprocals(live, modulus, 1, 3)
    red = _reducer(M, mu, 3)

    def bounded_red(v):
        # past its bound Barrett's correction loop spins instead of failing
        assert abs(v) < live * live
        return red(v)

    w, one, flip = _unit_chart(x, y, modulus, e, live, bounded_red)
    if math.gcd(y, modulus) == 1:
        # (x/y, 1), for the forms themselves
        assert (one, flip) == (1, False) and 0 <= w < live and (w * y - x) % live == 0
    elif math.gcd(x, modulus) == 1:
        # (1, y/x) read backwards, for the reversed forms
        assert (one, flip) == (1, True) and 0 <= w < live and (w * x - y) % live == 0
    else:
        assert (w, one, flip) == (x, y, False)


def test_reversed_plan_at_w_1_is_the_walk_at_1_w():
    # F^rev(X, Y) = F(Y, X), so the second plan's residues at (w, 1) are the
    # first plan's at (1, w), bit for bit, by % and by Barrett alike
    rng = random.Random(2801)
    for _ in range(60):
        d = rng.choice((1, 2, 5, 12, 33, 80))
        forms = tuple(
            BinaryForm(tuple(rng.randint(-(2**70), 2**70) for _ in range(d + 1))) for _ in "FG"
        )
        rev = tuple(BinaryForm(f.coefficients[::-1]) for f in forms)
        M = rng.randrange(2, 2 ** rng.choice((8, 200, 3000)))
        w = rng.randrange(M)
        E = _headroom(forms)
        with mock.patch.object(nonarch, "_BARRETT_MIN_BITS", rng.choice((2, math.inf))):
            ((_, mu),) = _reciprocals(M, 2, 1, E)
        red = _reducer(M, mu, E)
        got = _form_evaluator(rev)(w, 1, M, red)
        assert got == _form_evaluator(forms)(1, w, M, red)
        assert got == [evaluate(f, 1, w) % M for f in forms]


@pytest.mark.parametrize("fixture_id, flipped, stuck", [("ex1", 23, 0), ("ex2", 17, 2)])
def test_unsplit_loop_evaluates_every_charted_step_at_y_1(fixture_id, flipped, stuck):
    # two steps are exact (ex1's first two, ex2's first and fourth) and every
    # other one walks, charted: against |Res| itself only x is a unit on 23 of
    # ex1's 48 charted steps and on 17 of ex2's; the reversed plan evaluates
    # those at (w, 1), as the forward plan does the rest.  On 2 of ex2's steps
    # neither coordinate is a unit, and the forward plan takes the pair as it is
    fx = load_fixture(fixture_id)
    lift, P = fx.lift(), fx.point()
    R, terms = abs(lift.resultant), 50
    plans, events = [], []
    make_plan, chart = nonarch._form_evaluator, nonarch._unit_chart

    def spy_plan(forms):
        index, ev = len(plans), make_plan(forms)
        plans.append(forms)

        def spy(x, y, m, red):
            events.append(("ev", index, x, y))
            return ev(x, y, m, red)

        return spy

    def spy_chart(x, y, *args):
        events.append(("chart", x, y))
        return chart(x, y, *args)

    with (
        mock.patch.object(nonarch, "_form_evaluator", spy_plan),
        mock.patch.object(nonarch, "_unit_chart", spy_chart),
    ):
        res = nonarch_height(lift, P, terms)
    gs = res.gcd_sequence
    # the catalog's patterns
    if fixture_id == "ex1":
        assert gs == (36, 2, 12) + tuple(2 if i % 2 else 4 for i in range(3, terms))
    else:
        assert set(gs) == {1, 19, 27, 513}
        assert gs[20:] == gs[:-20]
    assert res.modulus_bits == (R**terms).bit_length()
    assert len(plans) == 2
    assert plans[1] == tuple(BinaryForm(f.coefficients[::-1]) for f in plans[0])
    # each walk step charts, then evaluates
    walked = terms - 2
    assert len(events) == 2 * walked
    counts = {"forward": 0, "flipped": 0, "stuck": 0}
    for (kind, x, y), (ev, index, ex, ey) in zip(events[::2], events[1::2]):
        assert (kind, ev) == ("chart", "ev")
        if math.gcd(y, R) == 1:
            counts["forward"] += 1
            assert (index, ey) == (0, 1)
        elif math.gcd(x, R) == 1:
            counts["flipped"] += 1
            assert (index, ey) == (1, 1)
        else:
            counts["stuck"] += 1
            assert (index, ex, ey) == (0, x, y)
    assert counts == {"forward": walked - flipped - stuck, "flipped": flipped, "stuck": stuck}


def test_scaled_loop_holds_a_few_top_powers_at_most():
    # a list of every modulus^e the Newton lifts use would hold about
    # terms/2 top powers, 200 here; the loop peaks near 27 with charts and
    # near 35 without
    lift = parse_map("phi(z) = (z^8 + 7)/(3*z^7 + 2)")
    R, terms = abs(lift.resultant), 400
    top = R**terms
    # the first steps reduce by Barrett, odd exponents included
    assert top.bit_length() > nonarch._BARRETT_MIN_BITS
    charts = []
    with (
        mock.patch.object(nonarch, "_SCALE_MIN_DEGREE", 0),
        mock.patch.object(nonarch, "_unit_chart", _spy_charts(charts)),
    ):
        tracemalloc.start()
        try:
            _gcd_loop((lift.F, lift.G), ProjectivePoint(2, 1), R, top, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # at (2, 1) the first four steps' values fit below the live modulus, and
    # the last six steps' values fit _HORNER_MAX_BITS; every other step charts
    assert charts == list(range(terms - 4, 6, -1))
    assert peak <= 40 * top.bit_length() // 8


def _spy_walks(walked):
    """A _form_evaluator that records each plan it builds and the modulus of each walk."""
    make_plan = nonarch._form_evaluator

    def spy_plan(forms):
        ev = make_plan(forms)
        walked.append(forms)

        def spy(x, y, m, red):
            walked.append(m)
            return ev(x, y, m, red)

        return spy

    return spy_plan


def _spy_links(links):
    """A _reciprocals that records each link the loop takes, one per step run."""
    chain = nonarch._reciprocals

    def spy(*args):
        for link in chain(*args):
            links.append(link[0])
            yield link

    return spy


def _spy_charts(charts):
    """A _unit_chart that records the exponent e of each live modulus it charts against."""
    chart = nonarch._unit_chart

    def spy(*args):
        charts.append(args[3])
        return chart(*args)

    return spy


@pytest.mark.parametrize(
    "fixture_id, terms, exact, charted",
    [("ex1", 50, 2, 48), ("ex2", 50, 2, 48), ("ex3", 100, 8, 0), ("ex4", 100, 4, 0)],
)
def test_exact_steps_are_those_whose_values_are_small(fixture_id, terms, exact, charted):
    # on these fixtures a step is exact Horner when d * bits(pair) is within
    # bits(live): the first steps from a small P, and any step whose pair
    # comes out small, like ex2's fourth.  A looser cut (exact while
    # d * bits <= 8 * bits(live)) took ex3@100's loop from 0.77 to 1.93 s,
    # since the full-size exact values then need a quadratic `%`
    fx = load_fixture(fixture_id)
    lift, P = fx.lift(), fx.point()
    R = abs(lift.resultant)
    walked, links, charts = [], [], []
    with (
        mock.patch.object(nonarch, "_form_evaluator", _spy_walks(walked)),
        mock.patch.object(nonarch, "_reciprocals", _spy_links(links)),
        mock.patch.object(nonarch, "_unit_chart", _spy_charts(charts)),
    ):
        _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)
    plans = [w for w in walked if isinstance(w, tuple)]
    moduli = [w for w in walked if isinstance(w, int)]
    # both plans are built once, at the first walk step, the second only with charts
    assert walked[: len(plans)] == plans
    assert len(plans) == (0 if not moduli else 2 if lift.degree >= nonarch._SCALE_MIN_DEGREE else 1)
    # ex1, ex2 and ex3 run every step; ex4's orbit mod |Res| cycles through
    # g = 1 by its fourth step, which ends the loop before its first walk
    assert len(links) == (4 if fixture_id == "ex4" else terms)
    assert len(links) - len(moduli) == exact
    # from degree _SCALE_MIN_DEGREE every walk step charts; the quadratics never do
    assert [R**e for e in charts] == (moduli if lift.degree >= nonarch._SCALE_MIN_DEGREE else [])
    assert len(charts) == charted


# maps of degree 12 and 14 from the `maps` benchmark workload (seed 1) at its
# 10 terms, with d * bits(|Res|^10) of 10068 and 15288.  Each row: F, G, the
# point, and the steps that walk, every one of them charted
_CHARTED_MAPS = [
    ((-4, 5, 5, 0, 9, 9, -4, 1, 7, 3, 4, 8, 3), (6, -2, 0, -9, -7, -5, 6, -6, 2, -1, 0, 8, 0), (-3, 1), 8),
    ((9, 0, -3, 3, -4, -5, -9, -9, 3, -5, 8, -8, 9, 3, -1), (-5, -7, 5, 0, -9, -8, 8, -8, 7, -5, -8, -1, -6, 4, -7), (-8, 1), 9),
]


@pytest.mark.parametrize("F, G, point, walks", _CHARTED_MAPS, ids=["d12", "d14"])
def test_every_walk_step_charts_from_degree_12_whatever_the_modulus(F, G, point, walks):
    # the chart rule reads the degree alone, so runs with a small
    # d * bits(top modulus) chart every step that walks.  The d = 12 run's
    # last step is exact, its pair below 2048/12 bits
    lift, P = _lift(F, G), normalize_point(*point)
    R, terms = abs(lift.resultant), 10
    assert lift.degree * (R**terms).bit_length() < 40_000
    walked, charts = [], []
    with (
        mock.patch.object(nonarch, "_form_evaluator", _spy_walks(walked)),
        mock.patch.object(nonarch, "_unit_chart", _spy_charts(charts)),
    ):
        gs = _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)
    assert [R**e for e in charts] == [w for w in walked if isinstance(w, int)]
    assert len(charts) == walks
    # the exact orbit's values pass 10^5 bits by its fourth step at d = 14
    assert gs[:4] == exact_gcd_sequence(lift, P, 4)


def test_points_workload_map_builds_no_walk_plan():
    # Res 12 and d = 2: at 50 terms every pair of residues has exact values of
    # about 360 bits, within _HORNER_MAX_BITS, so no step walks; a point of
    # 3000 bits is past both bounds, so the first step walks on the reduced
    # pair, and every later pair is a residue again, evaluated exactly
    lift = parse_map("phi(z) = (3*z^2 + 1)/(2*z)")
    R, terms = abs(lift.resultant), 50
    rng = random.Random(2901)
    for _ in range(20):
        P = normalize_point(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        walked = []
        with mock.patch.object(nonarch, "_form_evaluator", _spy_walks(walked)):
            gs = _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)
        assert walked == []
        assert gs[:12] == exact_gcd_sequence(lift, P, 12)
    P = normalize_point(3**1893, 2)
    walked = []
    with mock.patch.object(nonarch, "_form_evaluator", _spy_walks(walked)):
        gs = _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)
    assert walked == [(lift.F, lift.G), R**terms]
    assert gs[:6] == exact_gcd_sequence(lift, P, 6)


# d = 2 maps at [1, 0] whose g_i nearly all equal R: a brute force over
# coefficients |c| <= 4 finds 26 distinct R from 2 to 34 with g_i = R on at
# least 18 of 20 steps.  There the paper's start modulus R^N is the ideal one,
# so they are the worst case of a schedule sized by the g_i (ROADMAP item 2).
# Each row: F, G, the steps whose g_i is not R, the steps that walk
_WORST_CASE_MAPS = [
    # R = 34: [1, 0] -> [4, 3], a fixed point with positive values, so every step is exact
    ((4, 3, 4), (3, 3, 2), 1, 0),
    # the others walk once a negative value reduces to a full-size residue,
    # until the live modulus, and with it the pair, is below 1024 bits, where
    # d * bits(pair) is within _HORNER_MAX_BITS
    ((-2, -4, -3), (0, -1, -1), 0, 505),  # R = 2, 1530 steps
    ((-4, -3, 4), (1, 1, 0), 1, 141),  # R = 12, 427 steps
    ((-4, -1, -4), (-3, 0, -4), 1, 105),  # R = 28, 319 steps
    ((-3, -2, -3), (-4, -4, -3), 1, 101),  # R = 33, 304 steps
]


@pytest.mark.parametrize("F, G, misses, walks", _WORST_CASE_MAPS, ids=["R34", "R2", "R12", "R28", "R33"])
def test_worst_case_gcd_family_matches_the_exact_orbit_and_exact_horner(F, G, misses, walks):
    lift = _lift(F, G)
    R, P = abs(lift.resultant), ProjectivePoint(1, 0)
    assert list(nonarch_height(lift, P, 12).gcd_sequence) == exact_gcd_sequence(lift, P, 12)
    # a top modulus of about 1530 bits, whose residues pass _HORNER_MAX_BITS at d = 2
    # (300 terms at R = 34)
    terms = math.ceil(1530 / math.log2(R))
    walked = []
    with mock.patch.object(nonarch, "_form_evaluator", _spy_walks(walked)):
        walk = nonarch_height(lift, P, terms)
    # the same run with every step exact Horner on the whole pair
    exact = []
    with (
        mock.patch.object(nonarch, "_HORNER_MAX_BITS", math.inf),
        mock.patch.object(nonarch, "_form_evaluator", _spy_walks(exact)),
    ):
        horner = nonarch_height(lift, P, terms, walk.precision_bits)
    assert exact == []
    assert walk.gcd_sequence == horner.gcd_sequence
    assert sum(g != R for g in walk.gcd_sequence) == misses
    assert sum(isinstance(w, int) for w in walked) == walks


def test_first_step_at_a_negative_point_hands_the_reducer_no_full_size_value(monkeypatch):
    # ex1's point is [-5, 1]: reduced mod the top power first, -5 becomes a
    # full-size residue, and the walk hands the reducer products near top^2;
    # the first step evaluates F and G exactly at P instead, then reduces once
    fx = load_fixture("ex1")
    lift, P = fx.lift(), fx.point()
    R, terms = abs(lift.resultant), 2
    top = R**terms
    assert P.x < 0 and lift.degree * top.bit_length() > nonarch._HORNER_MAX_BITS  # the walk
    handed, original = {}, nonarch._reducer

    def reducer(M, mu, extra):
        red = original(M, mu, extra)

        def spy(v):
            handed[M] = max(handed.get(M, 0), v.bit_length())
            return red(v)

        return spy

    monkeypatch.setattr(nonarch, "_reducer", reducer)
    gs = _gcd_loop((lift.F, lift.G), P, R, top, terms)
    assert handed.get(top, 0) < top.bit_length() // 2
    assert handed[R] > R.bit_length()  # the second step's walk reduces through the spy
    assert gs == exact_gcd_sequence(lift, P, terms)


# ---------------------------------------------------------------------------
# the stop once the orbit mod the modulus cycles through g = 1


@pytest.mark.parametrize(
    "source, terms, steps", [("ex4", 50, 4), ("ex4", 100, 4), ("phi(z) = z^2 - 3", 50, 2)]
)
def test_loop_stops_once_its_orbit_mod_res_cycles_through_g_1(source, terms, steps):
    # ex4: g_1 = |Res|, then the next two pairs agree mod |Res|; z^2 - 3 has
    # |Res| = 1, where every pair is (0, 0) and the second step repeats the first
    if source.startswith("ex"):
        fx = load_fixture(source)
        lift, P = fx.lift(), fx.point()
    else:
        lift, P = parse_map(source), ProjectivePoint(5, 3)
    R = abs(lift.resultant)
    links = []
    with mock.patch.object(nonarch, "_reciprocals", _spy_links(links)):
        gs = _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)
    assert links == [R ** (terms - i) for i in range(steps)]
    assert gs == exact_gcd_sequence(lift, P, steps) + [1] * (terms - steps)


def test_cycle_test_reduces_nothing_mod_res_beyond_one_value_per_step():
    # a key is saved unreduced and its G half compared mod |Res| only once the
    # F halves match; ex3's orbit never repeats, so the loop's one reduction
    # mod |Res| per step is fx % |Res| (d = 2 takes no chart, whose inverse
    # reduces too)
    reductions = []

    class Modulus(int):
        def __rmod__(self, value):
            reductions.append(value)
            return value % int(self)

    fx = load_fixture("ex3")
    lift, P = fx.lift(), fx.point()
    R, terms = abs(lift.resultant), 50
    gs = _gcd_loop((lift.F, lift.G), P, Modulus(R), R**terms, terms)
    assert len(reductions) == terms
    assert gs == _gcd_loop((lift.F, lift.G), P, R, R**terms, terms)


def test_stop_keeps_the_exact_g_sequence_in_every_kernel():
    # the stop must leave every g_i as the exact orbit has it, on the default
    # kernels and on walked, charted steps; and it must fire in both, which
    # it does where the orbit mod |Res| falls into a cycle of g = 1 steps
    defaults = {name: getattr(nonarch, name) for name in ("_HORNER_MAX_BITS", "_SCALE_MIN_DEGREE")}
    modes = {"default": defaults, "walk": dict.fromkeys(defaults, 0)}
    fired = dict.fromkeys(modes, 0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stop_case())
    def check(case):
        lift, P, terms = case
        R = abs(lift.resultant)
        exact = exact_gcd_sequence(lift, P, terms)
        for mode, values in modes.items():
            links = []
            with mock.patch.multiple(nonarch, **values), mock.patch.object(nonarch, "_reciprocals", _spy_links(links)):
                assert _gcd_loop((lift.F, lift.G), P, R, R**terms, terms) == exact
            fired[mode] += len(links) < terms

    check()
    # 16 of the 200 maps stop early by default and 19 on the walk
    assert min(fired.values()) >= 10


# ---------------------------------------------------------------------------
# random small maps against the exact orbit


def test_random_quadratic_runs_match_the_exact_orbit():
    rng = random.Random(1308)
    checked = 0
    while checked < 15:
        lift = random_lift(rng, 2)
        R = abs(lift.resultant)
        if R < 2:
            continue
        P = random_point(rng)
        res = nonarch_height(lift, P, 6)
        assert list(res.gcd_sequence) == exact_gcd_sequence(lift, P, 6)
        assert res.modulus_bits == (R**6).bit_length()
        checked += 1


@st.composite
def _small_map_and_point(draw):
    d = draw(st.integers(2, 3))
    coeffs = st.tuples(*[st.integers(-20, 20)] * (d + 1))
    F, G = BinaryForm(draw(coeffs)), BinaryForm(draw(coeffs))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # drawn pairs may carry content
            lift = MapLift.from_forms(F, G)
    except NotAMorphismError:
        reject()
    x, y = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    assume(x or y)
    return lift, normalize_point(x, y)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_small_map_and_point())
def test_one_driver_agrees_with_the_exact_orbit(case):
    lift, P = case
    assume(abs(lift.resultant) > 1)
    res = nonarch_height(lift, P, 5)
    exact = exact_gcd_sequence(lift, P, 5)
    assert list(res.gcd_sequence) == exact
    with mp.workprec(res.precision_bits):
        total = mp.fsum(mp.log(g) / lift.degree ** (i + 1) for i, g in enumerate(exact))
        assert abs(total - res.value) <= mp.mpf(2) ** (8 - res.precision_bits)
