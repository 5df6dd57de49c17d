"""Tests for canonical height assembly, the exact-orbit oracle, and self-checks."""

import dataclasses
import functools
import random

import mpmath as mp
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from p1height import arch, forms, height, nonarch
from p1height.arch import arch_height
from p1height.fixtures import load_fixture
from p1height.forms import BinaryForm, MapLift, ProjectivePoint, normalize_point
from p1height.height import (
    BudgetExceededError,
    canonical_height,
    canonical_height_oracle,
    height_identity_check,
    naive_height,
)
from p1height.nonarch import nonarch_height, trial_division
from p1height.numerics import _log_int, default_precision_bits

from helpers import (
    random_lift,
    random_point,
    reference_epilogue,
    reference_oracle,
    repelling_fixed_point_case,
    repelling_fixed_point_strategies,
)


def _lift(f_coeffs, g_coeffs):
    return MapLift.from_forms(BinaryForm(tuple(f_coeffs)), BinaryForm(tuple(g_coeffs)))


def _power_map(d):
    f = [0] * (d + 1)
    g = [0] * (d + 1)
    f[0] = 1
    g[d] = 1
    return _lift(f, g)


# ---------------------------------------------------------------------------
# naive height


def test_naive_height_examples():
    with mp.workprec(256):
        assert naive_height(ProjectivePoint(-5, 1)) == mp.log(5)
        assert naive_height(ProjectivePoint(0, 1)) == mp.mpf(0)
        assert naive_height(ProjectivePoint(1, 0)) == mp.mpf(0)
        assert naive_height(ProjectivePoint(2, 3)) == mp.log(3)


# ---------------------------------------------------------------------------
# closed-form canonical heights


def test_power_map_canonical_height_is_naive_height():
    bd = canonical_height(_power_map(2), ProjectivePoint(2, 1), terms=20)
    assert bd.arch.value == mp.mpf(0)
    assert bd.nonarch.value == mp.mpf(0)
    with mp.workprec(bd.precision_bits):
        assert bd.canonical == mp.log(mp.mpf(2))
        assert bd.error_bound == bd.nonarch.tail_bound + bd.arch.tail_bound


def test_preperiodic_points_have_height_zero():
    cases = [
        (_power_map(2), ProjectivePoint(0, 1)),
        (_power_map(2), ProjectivePoint(1, 1)),
        (_power_map(2), ProjectivePoint(1, 0)),
        (_lift((1, 0, -1), (0, 0, 1)), ProjectivePoint(0, 1)),  # z^2 - 1, orbit 0 -> -1 -> 0
    ]
    for lift, P in cases:
        bd = canonical_height(lift, P, terms=30)
        assert abs(bd.canonical) <= bd.error_bound


def test_breakdown_is_internally_consistent():
    rng = random.Random(1501)
    for _ in range(10):
        lift = random_lift(rng, 2)
        P = random_point(rng)
        bd = canonical_height(lift, P, terms=8)
        with mp.workprec(bd.precision_bits):
            assert bd.canonical == bd.naive - bd.arch.value - bd.nonarch.value
            assert bd.error_bound == bd.nonarch.tail_bound + bd.arch.tail_bound
        assert bd.canonical >= -bd.error_bound
        assert bd.precision_bits == bd.arch.precision_bits


def _check_epilogue(lift, P, terms, bits):
    # every mpf field, to the bit, against the same formulas by mpf operators
    bd = canonical_height(lift, P, terms, precision_bits=bits)
    fields = {
        "naive": bd.naive,
        "nonarch.value": bd.nonarch.value,
        "nonarch.tail_bound": bd.nonarch.tail_bound,
        "arch.value": bd.arch.value,
        "arch.tail_bound": bd.arch.tail_bound,
        "arch.step_bound": bd.arch.step_bound,
        "canonical": bd.canonical,
        "error_bound": bd.error_bound,
    }
    ref = reference_epilogue(lift, P, terms, bd.precision_bits, bd.nonarch.gcd_sequence, bd.arch.value)
    assert {k: v._mpf_ for k, v in fields.items()} == {k: v._mpf_ for k, v in ref.items()}


_EPILOGUE_BITS = pytest.mark.parametrize("bits", [None, 64, 1000], ids=["default", "64", "1000"])


@_EPILOGUE_BITS
@pytest.mark.parametrize("terms", [8, 20])
@pytest.mark.parametrize("fixture_id", ["ex1", "ex2", "ex3", "ex4"])
def test_epilogue_is_bit_identical_to_the_mpf_operator_formulas_on_the_fixtures(fixture_id, terms, bits):
    fx = load_fixture(fixture_id)
    _check_epilogue(fx.lift(), fx.point(), terms, bits)


@_EPILOGUE_BITS
def test_epilogue_is_bit_identical_to_the_mpf_operator_formulas_on_the_points_map(bits):
    # the benchmark's points map, phi(z) = (3z^2 + 1)/(2z), at seeded points
    lift = _lift((3, 0, 1), (0, 2, 0))
    rng = random.Random(2101)
    for _ in range(10):
        P = normalize_point(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        _check_epilogue(lift, P, 50, bits)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    degree=st.integers(2, 5),
    terms=st.integers(1, 12),
    bits=st.sampled_from([None, 64, 1000]),
    coeff=st.sampled_from([20, 2**100]),
)
def test_epilogue_is_bit_identical_to_the_mpf_operator_formulas_on_small_maps(seed, degree, terms, bits, coeff):
    # 100-bit coefficients make the step bound's integers wider than 64 bits
    rng = random.Random(seed)
    _check_epilogue(random_lift(rng, degree, -coeff, coeff), random_point(rng), terms, bits)


def test_a_height_negative_beyond_its_bound_raises(monkeypatch):
    lift, P = _lift((3, 0, 1), (0, 2, 0)), ProjectivePoint(5, 2)
    bd = canonical_height(lift, P, 10)
    assert bd.error_bound < 0.5
    ar = bd.arch
    # canonical = naive - arch - nonarch: an arch value raised by canonical + 1 leaves about -1
    shifted = dataclasses.replace(ar, value=ar.value + bd.canonical + 1)
    monkeypatch.setattr(height, "arch_height", lambda *args, **kwargs: shifted)
    with pytest.raises(RuntimeError, match="negative beyond its error bound"):
        canonical_height(lift, P, 10)


# ---------------------------------------------------------------------------
# the exact-orbit oracle


def test_oracle_power_map_is_constant():
    seq = canonical_height_oracle(_power_map(2), ProjectivePoint(2, 1), 8)
    with mp.workprec(256):
        for v in seq:
            assert abs(v - mp.log(2)) <= mp.mpf(2) ** -240


def test_oracle_preperiodic_orbit_is_zero():
    seq = canonical_height_oracle(_lift((1, 0, -1), (0, 0, 1)), ProjectivePoint(0, 1), 6)
    assert all(v == mp.mpf(0) for v in seq)


def test_oracle_converges_to_series_value():
    rng = random.Random(1502)
    for _ in range(5):
        lift = random_lift(rng, 2, lo=-10, hi=10)
        P = random_point(rng, bound=20)
        seq = canonical_height_oracle(lift, P, 10)
        bd = canonical_height(lift, P, terms=30)
        assert abs(seq[-1] - bd.canonical) < mp.mpf("1e-2")


def test_oracle_respects_work_budget(monkeypatch):
    lift = random_lift(random.Random(1503), 3)
    P = ProjectivePoint(10**40, 1)
    monkeypatch.setattr(forms, "_MAX_COST", 100_000)
    with pytest.raises(BudgetExceededError, match="exact-orbit iterate .* work budget"):
        canonical_height_oracle(lift, P, 50)
    with pytest.raises(ValueError):
        canonical_height_oracle(lift, P, 0)


@pytest.mark.parametrize(
    "case, n_max",
    [("ex1", 2), ("ex2", 5), ("ex3", 8), ("ex4", 6), ("points map", 5), ("cubic map", 6),
     ("sextic map", 6), ("fixed point of z^2 - 2", 300), ("fixed point of z^2", 2000)],
)
def test_oracle_entries_equal_the_division_by_d_to_the_n(case, n_max):
    # the oracle divides log h(iterate n) by the odd part of d^n and then
    # shifts by its power of two; the shift is exact, so each entry must be
    # the rounded quotient by the whole d^n, bit for bit
    if case.startswith("ex"):
        fx = load_fixture(case)
        lift, P = fx.lift(), fx.point()
    else:
        lift, P = {
            "points map": (_lift((3, 0, 1), (0, 2, 0)), ProjectivePoint(5, 7)),
            "cubic map": (_lift((1, 0, -2, 1), (0, 3, 0, 1)), ProjectivePoint(2, 3)),
            "sextic map": (_lift((1, 0, 0, 0, 0, 3, 1), (0, 0, 0, 2, 0, 0, 5)), ProjectivePoint(-3, 4)),
            "fixed point of z^2 - 2": (_lift((1, 0, -2), (0, 0, 1)), ProjectivePoint(2, 1)),
            "fixed point of z^2": (_power_map(2), ProjectivePoint(0, 1)),
        }[case]
    for prec in (64, 256, 1000, default_precision_bits(lift.degree, 8, lift.coeff_norm) + 64):
        seq = canonical_height_oracle(lift, P, n_max, precision_bits=prec)
        assert [v._mpf_ for v in seq] == [v._mpf_ for v in reference_oracle(lift, P, n_max, prec)]


class _LimbTally(int):
    """An int whose products add their 64-bit limb products to _LimbTally.limbs."""

    limbs = 0

    def __mul__(self, other):
        _LimbTally.limbs += -(-self.bit_length() // 64) * -(-other.bit_length() // 64)
        return _LimbTally(int(self) * int(other))

    __rmul__ = __mul__


def test_oracle_charge_bounds_the_limb_products_of_its_iterate(monkeypatch):
    # the limb part of each charge, recorded in place of the budget
    charged = []
    monkeypatch.setattr(height, "_budget", lambda error: (
        lambda n, a_bits, b_bits, overhead=0: charged.append(n * -(-a_bits // 64) * -(-b_bits // 64))
    ))
    rng = random.Random(1505)
    for _ in range(80):
        c = 2 ** rng.randint(1, 400)
        lift = random_lift(rng, rng.randint(2, 12), -c, c)
        P = random_point(rng, 2 ** rng.randint(1, 3000))
        charged.clear()
        _LimbTally.limbs = 0
        # coordinates that tally lift.apply's products; its result is plain
        canonical_height_oracle(lift, ProjectivePoint(_LimbTally(P.x), _LimbTally(P.y)), 1)
        # the last two charges price the gcd of the images and the divisions by it
        assert 0 < _LimbTally.limbs <= sum(charged[:-2])


def test_oracle_tail_consistency_band():
    # the oracle sequence converges geometrically: successive gaps shrink by
    # about 1/d, so (rescaled max gap + 1) * d^-n / (d-1) is a crude but
    # workable band for the distance from seq[-1] to the limit
    rng = random.Random(1504)
    for _ in range(50):
        lift = random_lift(rng, 2, lo=-10, hi=10)
        P = random_point(rng, bound=20)
        n_max = 8
        seq = canonical_height_oracle(lift, P, n_max)
        bd = canonical_height(lift, P, terms=30)
        d = lift.degree
        rescaled = [abs(seq[n + 1] - seq[n]) * d ** (n + 1) for n in range(n_max)]
        band = (max(rescaled) + 1) * mp.mpf(d) ** (-n_max) / (d - 1) + bd.error_bound
        assert abs(bd.canonical - seq[-1]) <= band


# ---------------------------------------------------------------------------
# the one-step height identity


def test_identity_check_examples():
    assert height_identity_check(_power_map(2), ProjectivePoint(2, 3)) < mp.mpf("1e-25")
    lift = _lift((1, 1, 1), (1, 11, 2))
    assert height_identity_check(lift, ProjectivePoint(1, 1)) < mp.mpf("1e-25")


def test_identity_check_random():
    rng = random.Random(1505)
    for _ in range(30):
        lift = random_lift(rng, rng.choice((2, 3)))
        P = random_point(rng)
        assert height_identity_check(lift, P) < mp.mpf("1e-20")


def test_functoriality_under_the_map():
    # canonical height multiplies by d along the orbit; both runs carry
    # rigorous error bounds, so the difference must sit inside their sum
    rng = random.Random(1506)
    for _ in range(10):
        lift = random_lift(rng, 2, lo=-10, hi=10)
        P = random_point(rng, bound=20)
        image = normalize_point(*lift.apply(P.x, P.y))
        bd_p = canonical_height(lift, P, terms=25)
        bd_i = canonical_height(lift, image, terms=25)
        gap = abs(bd_i.canonical - lift.degree * bd_p.canonical)
        assert gap <= bd_i.error_bound + lift.degree * bd_p.error_bound


def test_scaled_lift_gives_same_canonical_height():
    # multiplying both forms by c shifts every local series but not their
    # total; the two error bounds cover the tiny truncation mismatch
    import warnings

    rng = random.Random(1507)
    for _ in range(5):
        lift = random_lift(rng, 2, lo=-8, hi=8)
        c = rng.randint(2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scaled = MapLift.from_forms(
                BinaryForm(tuple(c * v for v in lift.F.coefficients)),
                BinaryForm(tuple(c * v for v in lift.G.coefficients)),
            )
        P = random_point(rng, bound=20)
        bd = canonical_height(lift, P, terms=30)
        bd_c = canonical_height(scaled, P, terms=30)
        assert abs(bd.canonical - bd_c.canonical) <= bd.error_bound + bd_c.error_bound


# ---------------------------------------------------------------------------
# factoring policies


def test_factoring_policies_agree():
    lift = _lift((3, 1, 1), (1, 4, 2))
    P = ProjectivePoint(5, 2)
    plain = canonical_height(lift, P, terms=12)
    parts = trial_division(abs(lift.resultant), 1000)
    by_parts = canonical_height(lift, P, terms=12, factoring=parts)
    assert plain.canonical == by_parts.canonical
    assert plain.nonarch.gcd_sequence == by_parts.nonarch.gcd_sequence
    assert by_parts.nonarch.modulus_bits <= plain.nonarch.modulus_bits


def test_factoring_ignored_for_unit_resultant():
    lift = _power_map(2)
    parts = trial_division(abs(lift.resultant), 1000)
    bd = canonical_height(lift, ProjectivePoint(3, 2), terms=10, factoring=parts)
    assert bd.nonarch.modulus_bits == 1


def test_factoring_refuses_anything_but_parts():
    # a trial-division bound is not a factoring: build the parts with trial_division
    lift = _lift((3, 1, 1), (1, 4, 2))
    P = ProjectivePoint(5, 2)
    for bad in (1000, 1000.7, (abs(lift.resultant),)):
        with pytest.raises(TypeError, match="PartialFactorization"):
            canonical_height(lift, P, terms=12, factoring=bad)
        with pytest.raises(TypeError, match="PartialFactorization"):
            nonarch_height(lift, P, 12, parts=bad)


def test_precision_is_checked_before_any_layer_runs(monkeypatch):
    def loop(*args):
        raise AssertionError("the gcd loop ran before the precision was checked")

    monkeypatch.setattr(nonarch, "_gcd_loop", loop)
    lift = _lift((2, 1, 3), (1, 5, 7))
    assert abs(lift.resultant) > 1
    P = ProjectivePoint(3, 2)
    for bits in (-5, 0, 32, 63, 100.5):
        for run in (canonical_height, nonarch_height, arch_height):
            with pytest.raises(ValueError, match="precision_bits"):
                run(lift, P, 10, precision_bits=bits)
    # None means the default precision to the series entries; these three have no default to take
    for bits in (None, -5, 0, 32, 63, 100.5):
        for run in (
            lambda: height_identity_check(lift, P, precision_bits=bits),
            lambda: canonical_height_oracle(lift, P, 2, precision_bits=bits),
            lambda: naive_height(P, bits),
        ):
            with pytest.raises(ValueError, match="precision_bits"):
                run()
    monkeypatch.undo()
    assert canonical_height(lift, P, 10, precision_bits=64).precision_bits == 64


def test_numerics_helpers_refuse_arguments_outside_their_domain():
    with pytest.raises(ValueError, match="degree"):
        default_precision_bits(1, 10, 1)
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            _log_int(n, 64)


_NEAR_ROOT_C = 2**80


@functools.cache
def _near_root(x):
    """The near-root map, the point [x, 1] and its canonical height at 3000 bits."""
    c = _NEAR_ROOT_C
    lift = forms.parse_map(f"F = X*(X - {c}*Y)^2 + Y^3; G = Y*((X - {c}*Y)^2 + 2*Y^2)")
    P = normalize_point(x, 1)
    return lift, P, canonical_height(lift, P, terms=5, precision_bits=3000)


def _check_near_root(x, bits):
    lift, P, reference = _near_root(x)
    low = canonical_height(lift, P, terms=5, precision_bits=bits)
    with mp.workprec(3000):
        assert abs(low.canonical - reference.canonical) <= low.error_bound


_NEAR_ROOT_BITS = pytest.mark.parametrize("bits", [64, 96, 128])
_NEAR_ROOT_POINTS = pytest.mark.parametrize("x", [_NEAR_ROOT_C + 1, _NEAR_ROOT_C], ids=["c+1", "c"])


@_NEAR_ROOT_BITS
@_NEAR_ROOT_POINTS
def test_low_precision_height_lies_within_its_error_bound_of_a_3000_bit_run(x, bits):
    # at [c + 1, 1] scaled to (1, 2^-80), the expanded F sums terms of size 1 to
    # about 2^-160 and G to about 3*2^-240; the orbit's guard bits, set from the
    # cofactor lower bound on ||Phi(u)||, hold each Horner value's absolute error
    # to 2^-bits of the norm however much these terms cancel
    _check_near_root(x, bits)


@_NEAR_ROOT_BITS
@_NEAR_ROOT_POINTS
def test_near_root_check_fails_without_the_guard_bits(monkeypatch, x, bits):
    # the orbit at p = bits: its arch values come out 0.0, 7.4 and 22.2 against
    # 36.7 at [c + 1, 1]; at [c, 1], 0.0 at 64 bits, and both forms vanish at
    # 96 and 128
    _near_root(x)  # the reference keeps its guard
    monkeypatch.setattr(arch, "_guard_bits", lambda lift: 0)
    with pytest.raises((AssertionError, ValueError, RuntimeError)):
        _check_near_root(x, bits)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the orbit budget terms * 2^(8 - bits) assumes rounding grows by d per step; "
    "near a repelling fixed point it grows by the multiplier (ROADMAP item 4)",
)
@pytest.mark.parametrize("e, k", [(20, 300), (60, 600)])
def test_default_precision_height_near_a_repelling_fixed_point_lies_within_both_bounds_of_a_6000_bit_run(e, k):
    # at the default 256 bits the gap is 3.3e-8 against 2.7e-14 for e = 20,
    # and 8.0e-3 against 7.6e-14 for e = 60
    _check_against_6000_bits(*repelling_fixed_point_case(2, 1 << e, k))


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the orbit budget terms * 2^(8 - bits) assumes rounding grows by d per step; "
    "near a repelling fixed point it grows by the multiplier (ROADMAP item 4)",
)
@settings(max_examples=10, deadline=None, database=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
@given(**repelling_fixed_point_strategies)
@example(d=2, c=2**20, k=300)
def test_default_precision_height_near_any_repelling_fixed_point_lies_within_both_bounds_of_a_6000_bit_run(d, c, k):
    # each case fails at the default precision: the gap is 3.3e-8 against
    # 2.7e-14 at (2, 2^20, 300), 2.2e-5 against 4.1e-23 at (3, 2^40 + 12345,
    # 400) and 2.4e-3 against 7.0e-23 at (3, 5^30, 500)
    _check_against_6000_bits(*repelling_fixed_point_case(d, c, k))


def _check_against_6000_bits(lift, P):
    low = canonical_height(lift, P, 50)
    high = canonical_height(lift, P, 50, precision_bits=6000)
    with mp.workprec(6000):
        assert abs(low.canonical - high.canonical) <= low.error_bound + high.error_bound


# phi(z) = a*z^2 + b with b = r - a*r^2 fixes r, with multiplier 2*a*r:
# a = 243 at r = 1/3 (multiplier 162) and a = 2187 at r = +-2/5 (+-1749.6)
_QUADRATIC_FIXED_POINTS = (
    ("F = 729*X^2 - 80*Y^2; G = 3*Y^2", "1/3"),
    ("F = 54675*X^2 - 8738*Y^2; G = 25*Y^2", "2/5"),
    ("F = 54675*X^2 - 8758*Y^2; G = 25*Y^2", "-2/5"),
)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the orbit budget terms * 2^(8 - bits) assumes rounding grows by d per step; "
    "at a repelling fixed point of a*z^2 + b it grows by the multiplier (ROADMAP item 4)",
)
def test_default_precision_height_at_a_rational_fixed_point_of_a_quadratic_holds_zero():
    # the canonical height of a fixed point is 0 exactly, so each default run's
    # interval must hold 0; the runs report 3.17e-11 against a bound of 2.05e-14
    # at 1/3, and 1.26e-7 against 3.6e-14 at +-2/5
    outside = []
    for text, point in _QUADRATIC_FIXED_POINTS:
        lift, P = forms.parse_map(text), forms.parse_point(point)
        F, G = lift.F.coefficients, lift.G.coefficients
        if (F[0] * P.x**2 + F[2] * P.y**2) * P.y != G[2] * P.y**2 * P.x:  # not an AssertionError,
            raise ValueError(f"{point} is not a fixed point of {text}")  # which the xfail takes
        h = canonical_height(lift, P)
        if abs(h.canonical) > h.error_bound:
            outside.append((point, h.canonical, h.error_bound))
    assert not outside
