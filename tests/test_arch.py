"""Tests for the renormalized archimedean iteration and its step bound."""

import inspect
import random
import textwrap
from collections import Counter

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1height import arch
from p1height.arch import _raw_coefficients, _step, arch_height, arch_step, arch_step_bound
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
# the raw-libmp kernel against the mpf-operator loop: the orbit bit for bit,
# the one-logarithm sum to (1 + |value|) * 2^-prec


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
    # +-2^k, which the kernel multiplies by moving an exponent, and
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


def _raw(pair):
    return tuple(v._mpf_ for v in pair)


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
        assert _step(fc, gc, *_raw(pairs[n]), prec) == (*_raw(pairs[n + 1]), m._mpf_)


def _outcome(fn):
    try:
        return fn()._mpf_
    except ValueError:
        return "both forms vanished"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
    """arch_height with `old` replaced by `new` in its source, compiled in a
    copy of the arch module's namespace."""
    src = textwrap.dedent(inspect.getsource(arch.arch_height))
    assert src.count(old) == 1
    namespace = dict(vars(arch))
    exec(compile(src.replace(old, new), arch.__file__, "exec"), namespace)
    return namespace["arch_height"]


@pytest.mark.parametrize(
    "old, new",
    [
        # weight d^(terms-n) for m_n: multiply before raising to the power d
        ("mpf_mul(mpf_pow_int(B, d, wp, rnd), m, wp, rnd)", "mpf_pow_int(mpf_mul(B, m, wp, rnd), d, wp, rnd)"),
        ("mpf_pow_int(B, d, wp, rnd)", "mpf_pow_int(B, d - 1, wp, rnd)"),
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
# the exact shortcuts of the step kernel


@pytest.mark.parametrize(
    "f, g",
    [
        ((3, 0, 1), (0, 2, 0)),  # the points map: a zero accumulator and coefficients 1 and 2
        ((2, 4, 1), (0, 2, 0)),
        ((-8, 3, 0, 5, 4), (1, -7, 2, 0, -9)),  # summands of one size, so a product left unrounded shows
        ((2**600, -(2**700 - 1), 2**5 - 1, -6), (0, 2**64 - 1, -(2**1000), 1)),
        ((1, 0, 1), (1, 0, -1)),  # |F| = |G| at u = (+-1, +-1): the tie goes to F
        ((0, 0, 0, 1), (1, 0, 0, 0)),  # F = Y^3 stays libmp's zero through x = -1 at u = (-1, 0)
        ((1, 0, -1), (1, 0, -1)),  # both forms vanish at u = (+-1, +-1)
    ],
)
@pytest.mark.parametrize("prec", [64, 300])
def test_step_shortcuts_are_bit_identical_to_the_mpf_operator_loop(f, g, prec):
    # one coordinate +-1 and the other +-1, 0, +-2^-e or a prec-bit fraction,
    # so every exact shortcut of _step runs and so does every rounded
    # operation beside it; each result must be the loop's, bit for bit
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
                    _step(fc, gc, *u, prec)
                continue
            assert _step(fc, gc, *u, prec) == expected


def test_step_makes_only_the_inexact_libmp_calls(monkeypatch):
    # every libmp arithmetic call of arch_height, per series step; from_int,
    # which converts the coefficients and the point once per run, is not
    # counted.  Products by +-1, 0 and powers of two are written out, so on
    # the points map only y^2, one sum, the comparison, the division and the
    # fold's two operations are left (15.1 calls per step before), and maps
    # with coefficients in [-9, 9] keep about 112 of their 195
    calls = Counter()
    for name in [n for n in vars(arch) if n.startswith("mpf_")]:
        fn = getattr(arch, name)
        monkeypatch.setattr(arch, name, lambda *a, _fn=fn, _name=name: (calls.update((_name,)), _fn(*a))[1])
    rng = random.Random(1701)
    lift = _unchecked_lift(BinaryForm((3, 0, 1)), BinaryForm((0, 2, 0)))
    for _ in range(20):
        arch_height(lift, normalize_point(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)), 50)
    assert sum(calls.values()) <= 8 * 20 * 50

    def form(d):
        while True:
            c = [rng.randint(-9, 9) for _ in range(d + 1)]
            if c[0]:
                return BinaryForm(tuple(c))

    calls.clear()
    degrees = range(8, 49)
    for d in degrees:
        arch_height(_unchecked_lift(form(d), form(d)), normalize_point(rng.randint(-20, 20), rng.randint(1, 20)), 10)
    assert sum(calls.values()) <= 115 * len(degrees) * 10
