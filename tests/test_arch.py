"""Tests for the renormalized archimedean iteration and its step bound."""

import inspect
import math
import random
import sys
import textwrap
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, normalize, round_nearest

from p1height import arch
from p1height.arch import _chains, _round, _step, _step_bound, _sum_norms, arch_height
from p1height.fixtures import load_fixture
from p1height.forms import BinaryForm, CofactorIdentity, MapLift, ProjectivePoint, normalize_point
from p1height.numerics import default_precision_bits

from helpers import random_lift, random_point, reference_arch_orbit, reference_fixed_point_orbit, reference_unit_pair


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


def _unit_step(lift, k, s, prec=128):
    """_step at the unit pair (1, s) for k = 0 or (s, 1) for k = 1, s a
    multiple of 2^-p, at p = prec + guard: (p, (k', t', m))."""
    p = prec + arch._guard_bits(lift)
    return p, _step(_chains(lift, p), k, int(s * (1 << p)), p)


def test_step_power_map_is_zero_at_unit_points():
    # X^2 and Y^2 at (1, 1/2) and (-1/4, 1): the norm is exactly 1
    lift = _power_map(2)
    for k, s in ((0, Fraction(1, 2)), (1, Fraction(-1, 4))):
        p, (_, _, m) = _unit_step(lift, k, s)
        assert m == 1 << p


def test_step_known_value():
    # X^2+Y^2 and XY at (1, 1) give max(2, 1) = 2, and the next pair (1, 1/2)
    lift = _lift((1, 0, 1), (0, 1, 0))
    p, out = _unit_step(lift, 0, 1)
    assert out == (0, 1 << (p - 1), 2 << p)


# ---------------------------------------------------------------------------
# the uniform step bound


def test_step_bound_power_map():
    # unit coefficients and resultant 1: the cofactor side gives log(2d),
    # which beats the triangle-inequality side log(d+1) for every d >= 2
    bound = mp.make_mpf(_step_bound(_power_map(3), 128))
    with mp.workprec(128):
        assert abs(bound - mp.log(6)) <= mp.mpf(2) ** -100


def test_step_bound_dominates_sampled_steps():
    rng = random.Random(1402)
    for _ in range(10):
        lift = random_lift(rng, rng.choice((2, 3)))
        bound = mp.make_mpf(_step_bound(lift, 128))
        p = 128 + arch._guard_bits(lift)
        chains = _chains(lift, p)
        sup = mp.mpf(0)
        with mp.workprec(128):
            for _ in range(1000):
                _, _, m = _step(chains, rng.randrange(2), rng.randint(-(1 << p), 1 << p), p)
                sup = max(sup, abs(mp.log(mp.ldexp(m, -p))))
        assert sup <= bound


def test_step_bound_finite_and_positive_on_small_fixture_analog():
    bound = mp.make_mpf(_step_bound(_lift((1, 1, 1), (1, 11, 2)), 128))
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
    # every step of the series' own orbit against the uniform bound it
    # trusts for its tail
    rng = random.Random(1405)
    for _ in range(5):
        lift = random_lift(rng, 2)
        res, steps = _traced_steps(lambda: arch_height(lift, ProjectivePoint(3, 7), 25, precision_bits=192))
        assert len(steps) == 25
        with mp.workprec(192):
            for _, _, p, *_, (_, _, m) in steps:
                assert abs(mp.log(mp.ldexp(m, -p))) <= res.step_bound


def test_arch_height_reports_the_step_bound_it_charges():
    # the bound in the result is _step_bound's own, bit for bit, at the
    # precision the series ran at
    rng = random.Random(1406)
    for _ in range(5):
        lift = random_lift(rng, rng.choice((2, 3)))
        res = arch_height(lift, random_point(rng, bound=30), 10, precision_bits=160)
        assert res.step_bound == mp.make_mpf(_step_bound(lift, res.precision_bits))


def test_series_floors_a_coordinate_far_below_one_unit():
    # the first t = floor(2^p * y/x) is 0 or -1 however far below 2^-p the
    # smaller coordinate lies, and the orbit from it is the reference loop's
    lift = _power_map(2)
    big = 1 << 10000
    for x, y in ((big, 1), (-big, 1), (1, big), (-1, big), (1 << 140, 3), (-(1 << 140), 3), (3, 1 << 140), (-3, 1 << 140)):
        res, steps = _check_against_reference(lift, ProjectivePoint(x, y), 3, 128)
        if abs(x) == big or abs(y) == big:
            assert steps[0][1] == (0 if x > 0 else -1)
        assert res.value == mp.mpf(0)


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
# the fixed-point kernel against exact arithmetic and the mpf-operator loop:
# each Horner value within d units of 2^-p of the exact form and bit for bit
# the loop's, each quotient the exact floor, each norm the exact max, the fold
# within the summation term of tail_bound, and the series within its rounding
# terms of a 3000-bit run


def _unchecked_lift(F, G):
    """A MapLift without the elimination, which takes minutes at degree 60
    with 700-bit coefficients.  Its stand-in resultant 1 and zero cofactors
    give the smallest guard; the kernel's contract holds at any p, and only
    the tail bound reads the stand-ins, which these tests do not check."""
    zero = BinaryForm((0,) * (F.degree + 1))
    ident = CofactorIdentity(zero, zero, zero, zero, 1)
    return MapLift(F, G, F.degree, 1, max(F.norm, G.norm, 1), ident)


def _dense_int(bits_seed):
    # a length drawn uniformly and every bit random, so that Horner values
    # carry bits below 2^-p: of 200 draws from st.integers(-2^700, 2^700)
    # only 4 exceed 2^300, and 2 of those are powers of 2
    bits, seed = bits_seed
    rng = random.Random(seed)
    return rng.choice((-1, 1)) * rng.getrandbits(bits)


_COEFF = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.tuples(st.integers(1, 700), st.integers(0, 2**32)).map(_dense_int),
    # +-2^k and +-(2^k - 1): terms of far apart sizes, which cancel or do not
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


def _exact_forms(lift, k, t, p):
    """2^p * F(u) and 2^p * G(u) as Fractions at u = (1, t/2^p) for k = 0 and
    (t/2^p, 1) for k = 1, summed monomial by monomial over 2^(p*d)."""
    d = lift.degree
    weights = [t**i << p * (d - i) for i in range(d + 1)]  # 2^(p*d) * s^i at (1, s)
    if k == 1:
        weights.reverse()
    return [Fraction(sum(c * w for c, w in zip(form.coefficients, weights)), 1 << p * (d - 1)) for form in (lift.F, lift.G)]


def _floor_ratio(other, dom, p):
    """t for the unit pair whose dominant coordinate is dom: floor(2^p * other/dom)."""
    return math.floor(Fraction(other) * 2**p / Fraction(dom))


def _traced_steps(run):
    """(run(), steps) with one (k, t, p, f, g, out) per _step call that run
    makes, read from _step's frame as it returns; out is its result, or None
    when it raised "vanished", and then run() is None."""
    steps = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is arch._step.__code__:
            v = frame.f_locals
            steps.append((v["k"], v["t"], v["p"], v["f"], v["g"], arg))

    sys.setprofile(profile)
    try:
        return run(), steps
    except ValueError as exc:
        assert "vanished" in str(exc) and steps[-1][-1] is None
        return None, steps
    finally:
        sys.setprofile(None)


def _check_step(lift, step):
    """One traced _step: |t| <= 2^p, F's and G's Horner values within d units
    of the exact values, m exactly the larger, t' exactly the floor quotient by
    the signed dominant value (F's on a tie), and "vanished" only where both
    exact values lie within d units of 0."""
    k, t, p, f, g, out = step
    d = lift.degree
    assert abs(t) <= 1 << p
    F, G = _exact_forms(lift, k, t, p)
    assert abs(f - F) < d and abs(g - G) < d
    if out is None:
        assert f == g == 0 and abs(F) < d and abs(G) < d
        return
    k2, t2, m = out
    assert m == max(abs(f), abs(g))
    assert k2 == (0 if abs(f) >= abs(g) else 1)
    dom, other = (f, g) if k2 == 0 else (g, f)
    assert t2 == _floor_ratio(other, dom, p)


def _check_series(lift, P, terms, bits, series=arch_height):
    """(result, steps) of a traced series(lift, P, terms, bits).  The first
    unit pair is P's floor quotient, every step passes _check_step at one p
    and starts where the last one ended, and the value is within the
    summation term 2*(1 + |S|)*2^-bits of tail_bound of S, the sum of
    -log(m_n * 2^-p)/d^(n+1) over the traced norms at 4*bits.  The result is
    None when a step vanished."""
    res, steps = _traced_steps(lambda: series(lift, P, terms, precision_bits=bits))
    d, p = lift.degree, steps[0][2]
    k = 0 if abs(P.x) >= abs(P.y) else 1
    assert steps[0][:2] == (k, _floor_ratio(*((P.y, P.x) if k == 0 else (P.x, P.y)), p))
    for n, step in enumerate(steps):
        assert step[2] == p
        _check_step(lift, step)
        if n + 1 < len(steps):
            assert steps[n + 1][:2] == step[-1][:2]
    if res is None:
        return None, steps
    assert len(steps) == terms
    with mp.workprec(4 * bits):
        S = -mp.fsum(mp.log(mp.ldexp(mp.mpf(out[2]), -p)) / mp.mpf(d) ** (n + 1) for n, (*_, out) in enumerate(steps))
        assert abs(res.value - S) <= 2 * (1 + abs(S)) * mp.mpf(2) ** -bits
    return res, steps


def _check_against_reference(lift, P, terms, bits, series=arch_height):
    """_check_series, and every traced step bit for bit the mpf-operator
    loop's at the same p (helpers.reference_fixed_point_orbit): the same unit
    pair in, F's and G's values, the next unit pair and the norm out, and
    "vanished" at the same step.  Returns what _check_series does."""
    res, steps = _check_series(lift, P, terms, bits, series)
    p = steps[0][2]
    reference = reference_fixed_point_orbit(lift, *reference_unit_pair(P.x, P.y, p), terms, p)
    assert [(k, t, f, g, out) for k, t, _, f, g, out in steps] == reference
    return res, steps


# no shrinking: a broken kernel fails in seconds, not minutes of minimizing
@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=[Phase.explicit, Phase.generate])
@given(_series_cases())
def test_raw_kernel_is_bit_identical_to_the_mpf_operator_loop(case):
    f, g, P, prec, terms, t = case
    lift = _unchecked_lift(BinaryForm(tuple(f)), BinaryForm(tuple(g)))
    _, steps = _check_against_reference(lift, P, terms, prec)
    # one step off the orbit, at the unit pairs (1, t) and (t, 1)
    p = steps[0][2]
    chains = _chains(lift, p)
    t = math.floor(t * 2**p)
    for k in (0, 1):
        _, (step,) = _traced_steps(lambda: _step(chains, k, t, p))
        _check_step(lift, step)
        assert [(k, t, *step[3:])] == reference_fixed_point_orbit(lift, k, mp.ldexp(t, -p), 1, p)


def _series_case(case):
    if case == "points map":
        return _lift((3, 0, 1), (0, 2, 0)), ProjectivePoint(5, 7)
    fx = load_fixture(case)
    return fx.lift(), fx.point()


def _check_against_3000_bits(lift, P, terms, bits):
    """_check_against_reference, and the value within tail_bound's rounding terms,
    terms * 2^(8 - bits) + (1 + |value|) * 2^(1 - bits), of the mpf-operator
    loop at 3000 bits; both sides truncate at `terms`, so tail_bound's
    truncation term is left out.  Returns the traced steps."""
    res, steps = _check_against_reference(lift, P, terms, bits)
    reference = reference_arch_orbit(lift, P, terms, 3000)
    with mp.workprec(3000):
        assert abs(res.value - reference) <= terms * mp.mpf(2) ** (8 - bits) + (1 + abs(res.value)) * mp.mpf(2) ** (1 - bits)
    return steps


def _check_series_case(case):
    lift, P = _series_case(case)
    _check_against_3000_bits(lift, P, 50, default_precision_bits(lift.degree, 50, lift.coeff_norm))


@pytest.mark.parametrize("fixture_id", ["ex1", "ex2", "ex3", "ex4"])
def test_raw_kernel_is_bit_identical_on_the_fixtures(fixture_id):
    _check_series_case(fixture_id)


def test_points_map_series_is_within_its_rounding_terms_of_a_3000_bit_run():
    _check_series_case("points map")


def test_raw_kernel_is_bit_identical_where_an_exponent_doubles_every_step():
    # F = X^2 + Y^2, G = Y^2 at [2, 1]: u_n = (1, y_n) with y_(n+1) about
    # y_n^2, so the exponent of the exact y_50 is about -2^50; t, which
    # holds y_n on the 2^-p grid, falls to 0 within about log2(p) steps
    # and stays there
    steps = _check_against_3000_bits(_lift((1, 0, 1), (0, 0, 1)), ProjectivePoint(2, 1), 50, 256)
    p = steps[0][2]
    assert all(step[:2] == (0, 0) for step in steps[p.bit_length() + 2 :])


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
    lift, P = _series_case(case)
    bits = default_precision_bits(lift.degree, 50, lift.coeff_norm)
    mutant = _mutant(old, new)
    _check_series(lift, P, 50, bits)
    with pytest.raises(AssertionError):
        _check_series(lift, P, 50, bits, series=mutant)


# ---------------------------------------------------------------------------
# single steps of the fixed-point kernel at exact unit pairs


@pytest.mark.parametrize(
    "f, g",
    [
        ((3, 0, 1), (0, 2, 0)),  # the points map: a zero coefficient and coefficients 1 and 2
        ((2, 4, 1), (0, 2, 0)),
        ((-8, 3, 0, 5, 4), (1, -7, 2, 0, -9)),  # summands of one size, which cancel
        ((2**600, -(2**700 - 1), 2**5 - 1, -6), (0, 2**64 - 1, -(2**1000), 1)),
        ((1, 0, 1), (1, 0, -1)),  # |F| = |G| at u = (+-1, +-1): the tie goes to F
        ((0, 0, 0, 1), (1, 0, 0, 0)),  # F = Y^3 is zero on (1, 0) and G = X^3 on (0, 1)
        ((1, 0, -1), (1, 0, -1)),  # both forms vanish at u = (+-1, +-1)
    ],
)
@pytest.mark.parametrize("prec", [64, 300])
def test_step_shortcuts_are_bit_identical_to_the_mpf_operator_loop(f, g, prec):
    # both dominant sides, and the other coordinate +-1, 0, +-1/2, +-2^-5,
    # where no product's floor drops a bit, or a random p-bit fraction, where
    # the floors do: each step must pass _check_step and be the loop's
    lift = _unchecked_lift(BinaryForm(f), BinaryForm(g))
    p = prec + arch._guard_bits(lift)
    chains = _chains(lift, p)
    rng = random.Random(1702)
    ts = [1 << p, -(1 << p), 0, 1 << (p - 1), -(1 << (p - 1)), 1 << (p - 5), -(1 << (p - 5))]
    ts += [rng.randint(-(1 << p), 1 << p) for _ in range(20)]
    for k in (0, 1):
        for t in ts:
            _, (step,) = _traced_steps(lambda: _step(chains, k, t, p))
            _check_step(lift, step)
            assert [(k, t, *step[3:])] == reference_fixed_point_orbit(lift, k, mp.ldexp(t, -p), 1, p)


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
        assert from_man_exp(*_round(m, e, prec)) == normalize(int(m < 0), abs(m), e, abs(m).bit_length(), prec, round_nearest)


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
