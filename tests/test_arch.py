"""Tests for the renormalized archimedean iteration and its step bound."""

import inspect
import random
import sys
import textwrap

import mpmath as mp
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_div, normalize, round_nearest

from p1height import arch
from p1height.arch import (
    _add, _div, _from_int, _raw_coefficients, _round, _step, _sum_norms, arch_height, arch_step, arch_step_bound,
)
from p1height.fixtures import load_fixture
from p1height.forms import BinaryForm, CofactorIdentity, MapLift, ProjectivePoint, normalize_point
from p1height.numerics import default_precision_bits

from helpers import random_lift, random_point, reference_arch_orbit, reference_arch_step, reference_unit_step


def _lift(f_coeffs, g_coeffs):
    return MapLift.from_forms(BinaryForm(tuple(f_coeffs)), BinaryForm(tuple(g_coeffs)))


def _power_map(d):
    f = [0] * (d + 1)
    g = [0] * (d + 1)
    f[0] = 1
    g[d] = 1
    return _lift(f, g)


# ---------------------------------------------------------------------------
# single steps


def test_arch_step_power_map_is_zero_at_unit_points():
    lift = _power_map(2)
    with mp.workprec(128):
        assert arch_step(lift, (mp.mpf(1), mp.mpf("0.5"))) == mp.mpf(0)
        assert arch_step(lift, (mp.mpf("-0.25"), mp.mpf(1))) == mp.mpf(0)


def test_arch_step_known_value():
    # X^2+Y^2 and XY at (1, 1) give max(2, 1) = 2
    lift = _lift((1, 0, 1), (0, 1, 0))
    with mp.workprec(128):
        step = arch_step(lift, (mp.mpf(1), mp.mpf(1)))
        assert abs(step + mp.log(2)) <= mp.mpf(2) ** -120


def test_arch_step_rejects_unscaled_pairs():
    lift = _power_map(2)
    with mp.workprec(128):
        for bad in ((2, 1), (0.5, 0.25), (0, 0)):
            with pytest.raises(ValueError):
                arch_step(lift, bad)


def test_arch_step_scale_invariance_through_prenormalized_pairs():
    # (x, y)/||.|| and (cx, cy)/||.|| are the same reals, so the steps agree
    # to rounding; this pins down that no hidden absolute scale enters
    rng = random.Random(1401)
    with mp.workprec(128):
        for _ in range(20):
            lift = random_lift(rng, 2)
            x, y = rng.randint(-50, 50), rng.randint(1, 50)
            c = rng.randint(2, 9)
            n1 = max(abs(x), abs(y))
            n2 = max(abs(c * x), abs(c * y))
            s1 = arch_step(lift, (mp.mpf(x) / n1, mp.mpf(y) / n1))
            s2 = arch_step(lift, (mp.mpf(c * x) / n2, mp.mpf(c * y) / n2))
            assert abs(s1 - s2) <= mp.mpf(2) ** -100


# ---------------------------------------------------------------------------
# the uniform step bound


def test_step_bound_power_map():
    # unit coefficients and resultant 1: the cofactor side gives log(2d),
    # which beats the triangle-inequality side log(d+1) for every d >= 2
    lift = _power_map(3)
    with mp.workprec(128):
        bound = arch_step_bound(lift)
        assert abs(bound - mp.log(6)) <= mp.mpf(2) ** -100


def test_step_bound_dominates_sampled_steps():
    rng = random.Random(1402)
    with mp.workprec(128):
        for _ in range(10):
            lift = random_lift(rng, rng.choice((2, 3)))
            bound = arch_step_bound(lift)
            sup = mp.mpf(0)
            for _ in range(1000):
                t = mp.mpf(rng.uniform(-1, 1))
                u = (mp.mpf(1), t) if rng.random() < 0.5 else (t, mp.mpf(1))
                sup = max(sup, abs(arch_step(lift, u)))
            assert sup <= bound


def test_step_bound_finite_and_positive_on_small_fixture_analog():
    lift = _lift((1, 1, 1), (1, 11, 2))
    with mp.workprec(128):
        bound = arch_step_bound(lift)
        assert bound > 0
        assert mp.isfinite(bound)


# ---------------------------------------------------------------------------
# the truncated series


def test_arch_height_power_map_vanishes():
    lift = _power_map(2)
    res = arch_height(lift, ProjectivePoint(2, 1), 10)
    assert res.value == mp.mpf(0)
    assert res.terms == 10
    assert res.tail_bound > 0  # rounding budget stays honest even here


def test_arch_height_refinement_within_tail_bound():
    rng = random.Random(1403)
    for _ in range(10):
        lift = random_lift(rng, 2)
        P = random_point(rng, bound=30)
        short = arch_height(lift, P, 5, precision_bits=256)
        long = arch_height(lift, P, 10, precision_bits=256)
        assert abs(long.value - short.value) <= short.tail_bound


def test_arch_height_precision_refinement():
    rng = random.Random(1404)
    for _ in range(5):
        lift = random_lift(rng, 2)
        P = random_point(rng, bound=30)
        lo = arch_height(lift, P, 30, precision_bits=128)
        hi = arch_height(lift, P, 30, precision_bits=256)
        assert abs(lo.value - hi.value) <= mp.mpf(2) ** -64


def test_arch_height_validations():
    lift = _power_map(2)
    P = ProjectivePoint(2, 1)
    with pytest.raises(ValueError):
        arch_height(lift, P, 0)
    with pytest.raises(ValueError):
        arch_height(lift, P, 5, precision_bits=32)


def test_steps_along_orbit_respect_bound():
    # re-walk the renormalized orbit by hand and check every step against
    # the uniform bound the series trusts for its tail
    rng = random.Random(1405)
    for _ in range(5):
        lift = random_lift(rng, 2)
        with mp.workprec(192):
            bound = arch_step_bound(lift)
            ux, uy = mp.mpf(3) / 7, mp.mpf(1)
            for _ in range(25):
                step = arch_step(lift, (ux, uy))
                assert abs(step) <= bound
                fa = ux * ux * lift.F.coefficients[0] + ux * uy * lift.F.coefficients[1] + uy * uy * lift.F.coefficients[2]
                ga = ux * ux * lift.G.coefficients[0] + ux * uy * lift.G.coefficients[1] + uy * uy * lift.G.coefficients[2]
                m = max(abs(fa), abs(ga))
                ux, uy = fa / m, ga / m


def test_arch_series_tracks_large_coefficient_map():
    # aX^2+Y^2 over XY at (a, 1): the first step is -log a + O(a^-3), and the
    # series value stays within the rigorous tail of -log(a)/2 - log(a)/4 - ...
    a = 10**6
    lift = _lift((a, 0, 1), (0, 1, 0))
    P = ProjectivePoint(a, 1)
    res = arch_height(lift, P, 50, precision_bits=512)
    with mp.workprec(512):
        # closed-form comparison: the orbit alternates between (a+eps, 1)/a
        # and unit pairs whose F-value is near a, so value ~ -log a
        assert abs(res.value + mp.log(a)) < mp.mpf("1e-5")
        assert abs(res.value) > mp.log(a) / 2


# ---------------------------------------------------------------------------
# the int kernel against the mpf-operator loop: the orbit bit for bit, the
# one-logarithm sum to (1 + |value|) * 2^-prec


def _unchecked_lift(F, G):
    """A MapLift without the elimination, which takes minutes at degree 60
    with 700-bit coefficients.  The series value depends on F, G, the point
    and the precision alone; only the tail bound reads the stand-in
    resultant and cofactors, and these tests do not check it."""
    zero = BinaryForm((0,) * (F.degree + 1))
    ident = CofactorIdentity(zero, zero, zero, zero, 1)
    return MapLift(F, G, F.degree, 1, max(F.norm, G.norm, 1), ident)


def _dense_int(bits_seed):
    # a length drawn uniformly and every bit random, so that rounding to
    # fewer bits is inexact: of 200 draws from st.integers(-2^700, 2^700)
    # only 4 exceed 2^300, and 2 of those are powers of 2
    bits, seed = bits_seed
    rng = random.Random(seed)
    return rng.choice((-1, 1)) * rng.getrandbits(bits)


_COEFF = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.tuples(st.integers(1, 700), st.integers(0, 2**32)).map(_dense_int),
    # +-2^k, a mantissa +-1 whose products fit and never round, and
    # +-(2^k - 1), which rounds to 2^k at fewer than k bits of precision
    st.builds(lambda k, m, s: s * (2**k - m), st.integers(0, 1200), st.integers(0, 1), st.sampled_from((-1, 1))),
)


@st.composite
def _series_cases(draw):
    shape = draw(st.sampled_from(("random", "points", "tie", "tie-negated")))
    if shape == "points":
        f, g = (3, 0, 1), (0, 2, 0)
    elif shape == "random":
        d = draw(st.integers(2, 60))
        f = draw(st.lists(_COEFF, min_size=d + 1, max_size=d + 1))
        g = draw(st.lists(_COEFF, min_size=d + 1, max_size=d + 1))
    else:
        # |F(u)| = |G(u)| at every u: the tie goes to F on every step
        d = draw(st.integers(2, 12))
        f = draw(st.lists(_COEFF, min_size=d + 1, max_size=d + 1))
        g = [-c for c in f] if shape == "tie-negated" else list(f)
    if not any(f) or not any(g):
        f, g = (1, 0, 1), (0, 2, 0)  # ties at (1, 1)
    coord = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
    x, y = draw(coord), draw(coord)
    if x == 0 and y == 0:
        y = 1
    prec = draw(st.one_of(st.integers(64, 400), st.integers(64, 1200)))
    terms = draw(st.integers(1, 12))
    t = draw(st.fractions(-1, 1, max_denominator=10**6))
    return f, g, normalize_point(x, y), prec, terms, t


def _pair(raw):
    """A libmp tuple as the kernel's (signed mantissa, exponent) pair."""
    sign, man, exp, _ = raw
    return -man if sign else man, exp


def _raw(pairs):
    """The kernel's pairs as normalized libmp tuples."""
    return tuple(from_man_exp(*p) for p in pairs)


def _check_against_reference(lift, P, terms, prec, series=arch_height):
    """Every step of the kernel (next unit pair and its norm m) equals the
    mpf-operator loop's bit for bit, and the series value is within
    2*(1 + |S|)*2^-prec of S, the sum of -log(m_n)/d^(n+1) over the loop's
    norms at 4*prec.  The bound is the summation term of arch_height's
    tail_bound; the value alone would not show orbit differences, since a
    log compresses last-bit differences of a large m."""
    try:
        _, pairs, norms = reference_arch_orbit(lift, P, terms, prec)
    except ValueError:
        with pytest.raises(ValueError, match="vanished"):
            series(lift, P, terms, precision_bits=prec)
        return
    value = series(lift, P, terms, precision_bits=prec).value
    d = lift.degree
    with mp.workprec(4 * prec):
        S = -mp.fsum(mp.log(m) / d ** (n + 1) for n, m in enumerate(norms))
        assert abs(value - S) <= 2 * (1 + abs(S)) * mp.mpf(2) ** -prec
    fc, gc = _raw_coefficients(lift, prec)
    for n, m in enumerate(norms):
        u = [_pair(v._mpf_) for v in pairs[n]]
        assert _raw(_step(fc, gc, *u, prec)) == (*(v._mpf_ for v in pairs[n + 1]), m._mpf_)


def _outcome(fn):
    try:
        return fn()._mpf_
    except ValueError:
        return "both forms vanished"


# no shrinking: a broken kernel fails in seconds, not minutes of minimizing
@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=[Phase.explicit, Phase.generate])
@given(_series_cases())
def test_raw_kernel_is_bit_identical_to_the_mpf_operator_loop(case):
    f, g, P, prec, terms, t = case
    lift = _unchecked_lift(BinaryForm(tuple(f)), BinaryForm(tuple(g)))
    _check_against_reference(lift, P, terms, prec)
    with mp.workprec(prec):
        scale = mp.mpf(max(abs(P.x), abs(P.y)))
        tm = mp.mpf(t.numerator) / t.denominator
        for u in ((mp.mpf(P.x) / scale, mp.mpf(P.y) / scale), (mp.mpf(1), tm), (-tm, mp.mpf(-1))):
            assert _outcome(lambda: arch_step(lift, u)) == _outcome(lambda: reference_arch_step(lift, u))


@pytest.mark.parametrize("fixture_id", ["ex1", "ex2", "ex3", "ex4"])
def test_raw_kernel_is_bit_identical_on_the_fixtures(fixture_id):
    fx = load_fixture(fixture_id)
    lift = fx.lift()
    bits = default_precision_bits(lift.degree, 50, lift.coeff_norm)
    _check_against_reference(lift, fx.point(), 50, bits)


def _mutant(old, new):
    """arch_height with `old` replaced by `new` in its source or in
    _sum_norms', both compiled in a copy of the arch module's namespace."""
    sources = [textwrap.dedent(inspect.getsource(fn)) for fn in (arch._sum_norms, arch.arch_height)]
    assert sum(src.count(old) for src in sources) == 1
    namespace = dict(vars(arch))
    for src in sources:
        exec(compile(src.replace(old, new), arch.__file__, "exec"), namespace)
    return namespace["arch_height"]


@pytest.mark.parametrize(
    "old, new",
    [
        # weight d^(terms-n) for m_n: B <- (B*m_n)^d
        pytest.param(
            "pm, pe = bm, be", "pm, pe = bm, be = _round(bm * mm, be + me, wp); mm, me = 1, 0", id="m_n-before-the-power"
        ),
        pytest.param("bin(d)[3:]", "bin(d - 1)[3:]", id="power-d-1"),  # B <- B^(d-1) * m_n
        ("from_int(dn)", "from_int(dn // d)"),
    ],
)
@pytest.mark.parametrize("case", ["ex3", "points map"])
def test_reference_check_rejects_wrong_weights(old, new, case):
    if case == "ex3":
        fx = load_fixture(case)
        lift, P = fx.lift(), fx.point()
    else:
        lift, P = _lift((3, 0, 1), (0, 2, 0)), ProjectivePoint(5, 7)
    bits = default_precision_bits(lift.degree, 50, lift.coeff_norm)
    mutant = _mutant(old, new)
    _check_against_reference(lift, P, 50, bits)
    with pytest.raises(AssertionError):
        _check_against_reference(lift, P, 50, bits, series=mutant)


# ---------------------------------------------------------------------------
# single steps of the int kernel at exact unit coordinates


@pytest.mark.parametrize(
    "f, g",
    [
        ((3, 0, 1), (0, 2, 0)),  # the points map: a zero accumulator and coefficients 1 and 2
        ((2, 4, 1), (0, 2, 0)),
        ((-8, 3, 0, 5, 4), (1, -7, 2, 0, -9)),  # summands of one size, so a product left unrounded shows
        ((2**600, -(2**700 - 1), 2**5 - 1, -6), (0, 2**64 - 1, -(2**1000), 1)),
        ((1, 0, 1), (1, 0, -1)),  # |F| = |G| at u = (+-1, +-1): the tie goes to F
        ((0, 0, 0, 1), (1, 0, 0, 0)),  # F = Y^3 stays zero through x = -1 at u = (-1, 0)
        ((1, 0, -1), (1, 0, -1)),  # both forms vanish at u = (+-1, +-1)
    ],
)
@pytest.mark.parametrize("prec", [64, 300])
def test_step_shortcuts_are_bit_identical_to_the_mpf_operator_loop(f, g, prec):
    # one coordinate +-1 and the other +-1, 0, +-2^-e or a prec-bit fraction,
    # so products by +-1, 0 and powers of two, which fit in prec bits and do
    # not round, run beside rounded ones; each result must be the loop's
    lift = _unchecked_lift(BinaryForm(f), BinaryForm(g))
    fc, gc = _raw_coefficients(lift, prec)
    rng = random.Random(1702)
    with mp.workprec(prec):
        others = [mp.mpf(t) for t in (1, -1, 0, 0.5, -0.5, 2**-5, -(2**-5))]
        others += [mp.mpf(rng.getrandbits(prec) - 2 ** (prec - 1)) / 2 ** (prec - 1) for _ in range(20)]
    for t in others:
        for x, y in ((1, t), (-1, t), (t, 1), (t, -1)):
            with mp.workprec(prec):
                u = (mp.mpf(x)._mpf_, mp.mpf(y)._mpf_)
            try:
                expected = reference_unit_step(lift, u, prec)
            except ValueError:
                with pytest.raises(ValueError, match="vanished"):
                    _step(fc, gc, *map(_pair, u), prec)
                continue
            assert _raw(_step(fc, gc, *map(_pair, u), prec)) == expected


def _libmp_round(m, e, prec):
    return normalize(int(m < 0), abs(m), e, abs(m).bit_length(), prec, round_nearest)


def _random_value(rng, prec):
    """A nonzero pair of at most prec bits, as libmp keeps it."""
    m = rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(1, prec)) | 1)
    return _pair(_libmp_round(m, rng.randint(-3 * prec, 3 * prec), prec))


@pytest.mark.parametrize("prec", [53, 64, 256, 1200])
def test_int_rounding_matches_libmp_normalize(prec):
    rng = random.Random(1800 + prec)
    cases = [(0, 5), (0, -(2**40))]
    for s in (1, -1):
        cases.append((s * (2 ** (prec + 1) - 1), 3))  # rounds up with a carry to 2^prec
        for n in (1, 2, 9, prec):
            q = rng.getrandbits(prec - 1) | 1 << (prec - 1)
            for low in (0, 1):  # half an ulp exactly, to even q and to odd q
                cases.append((s * ((q + low) << n | 1 << (n - 1)), -n))
            cases.append((s * ((q << n) + (1 << (n - 1)) + 1), 0))  # just above half
            cases.append((s * ((q << n) + (1 << (n - 1)) - 1), 0))  # just below half
    cases += [(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 3 * prec)), rng.randint(-prec, prec)) for _ in range(300)]
    for m, e in cases:
        assert from_man_exp(*_round(m, e, prec)) == _libmp_round(m, e, prec)
    for n in [0, 1, -1, 2**prec, -(2 ** (prec + 3)), 2 ** (prec + 1) - 1, 3 << 2 * prec]:
        assert from_man_exp(*_from_int(n, prec)) == from_int(n, prec, round_nearest)
    for _ in range(100):
        n = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 3 * prec)) << rng.randint(0, 64)
        assert from_man_exp(*_from_int(n, prec)) == from_int(n, prec, round_nearest)


@pytest.mark.parametrize("prec", [53, 64, 256, 1200])
def test_int_sum_and_quotient_match_mpf_add_and_mpf_div(prec):
    rng = random.Random(1810 + prec)
    values = [_random_value(rng, prec) for _ in range(300)]
    a0 = values[0]
    cases = list(zip(values[::2], values[1::2]))
    cases += [((0, 0), a0), (a0, (0, 0)), ((0, 0), (0, 0)), (a0, (-a0[0], a0[1]))]
    for gap in (prec + 3, prec + 4, prec + 5, 2**40):
        # leading bits `gap` apart, the larger operand first and second
        for am, ae in values[:20]:
            bm = rng.choice((-1, 1)) * (rng.getrandbits(prec) | 1)
            b = (bm, ae + am.bit_length() - bm.bit_length() - gap)
            cases += [((am, ae), b), (b, (am, ae))]
    for a, b in cases:
        ta, tb = from_man_exp(*a), from_man_exp(*b)
        assert from_man_exp(*_add(a, b, prec)) == mpf_add(ta, tb, prec, round_nearest)
        if b[0]:
            assert from_man_exp(*_div(a, b, prec)) == mpf_div(ta, tb, prec, round_nearest)
    for a in values[:50]:  # divisors +-2^k, which libmp divides without divmod
        for b in ((1, 0), (-1, 7), (1, -(2**40))):
            assert from_man_exp(*_div(a, b, prec)) == mpf_div(from_man_exp(*a), from_man_exp(*b), prec, round_nearest)


@pytest.mark.parametrize("d", [2, 3, 48, 80, 2204])
def test_truncated_fold_stays_within_the_charged_summation_term(d):
    # seeded norms in [2^-20, 2^20]; the value must be within the summation
    # term (1 + |S|) * 2^(1 - bits) of tail_bound of the term-by-term sum S
    # and of the same fold at four times the precision, and the fold may form
    # no int wider than 2w + bits(m_n), w = wp + bitlen(d) + 2, which forming
    # the exact d*wp-bit power of B would
    rng = random.Random(1820 + d)
    bits, terms = 256, 20
    wp = bits + arch._SUM_GUARD_BITS
    widths = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is arch._round.__code__:
            widths.append(frame.f_locals["m"].bit_length())

    for _ in range(3):
        norms = [(rng.getrandbits(bits) | 1 << (bits - 1), rng.randint(-bits - 20, 20 - bits)) for _ in range(terms)]
        sys.setprofile(profile)
        try:
            value = _sum_norms(norms, d, bits)
        finally:
            sys.setprofile(None)
        with mp.workprec(4 * wp):
            S = -mp.fsum(mp.log(mp.make_mpf(from_man_exp(*m))) / mp.mpf(d) ** (n + 1) for n, m in enumerate(norms))
            charged = (1 + abs(S)) * mp.mpf(2) ** (1 - bits)
            assert abs(value - S) <= charged
            assert abs(value - _sum_norms(norms, d, 4 * wp)) <= charged
    assert widths and max(widths) < 2 * (wp + d.bit_length() + 2) + bits


def test_raw_kernel_is_bit_identical_where_an_exponent_doubles_every_step():
    # F = X^2 + Y^2, G = Y^2 at [2, 1]: u_n = (1, y_n) with y_(n+1) about
    # y_n^2, so the exponent of y_50 is about -2^50 and every sum 1 + y^2
    # returns its larger operand, with no shift by the exponent gap
    lift = _unchecked_lift(BinaryForm((1, 0, 1)), BinaryForm((0, 0, 1)))
    _check_against_reference(lift, ProjectivePoint(2, 1), 50, 256)


def test_arch_height_makes_no_libmp_call_per_step(monkeypatch):
    # every libmp function arch imports, counted over whole arch_height runs:
    # a run at 50 terms makes as many calls as one at 10 (the final log and
    # division), where a kernel with libmp in its loop makes more per step
    calls = []
    for name, fn in list(vars(arch).items()):
        if callable(fn) and getattr(fn, "__module__", "").startswith("mpmath.libmp"):
            monkeypatch.setattr(arch, name, lambda *a, _fn=fn: (calls.append(_fn), _fn(*a))[1])

    def counts(lift, P):
        out = []
        for terms in (10, 50):
            calls.clear()
            arch_height(lift, P, terms)
            out.append(len(calls))
        return out

    rng = random.Random(1701)
    lift = _unchecked_lift(BinaryForm((3, 0, 1)), BinaryForm((0, 2, 0)))
    for _ in range(20):
        short, long = counts(lift, normalize_point(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)))
        assert 0 < short == long

    def form(d):
        while True:
            c = [rng.randint(-9, 9) for _ in range(d + 1)]
            if c[0]:
                return BinaryForm(tuple(c))

    for d in range(8, 49):
        lift = _unchecked_lift(form(d), form(d))
        short, long = counts(lift, normalize_point(rng.randint(-20, 20), rng.randint(1, 20)))
        assert 0 < short == long
