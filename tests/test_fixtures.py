"""Tests pinning the fixture constants, their provenance, and the catalog."""

import math

import mpmath as mp
import pytest

import p1height.fixtures as fixtures
from p1height.fixtures import Fixture, fixture_ids, fixture_lift, load_fixture
from p1height.forms import ProjectivePoint, resultant

RSA768_P = int(
    "33478071698956898786044169848212690817704794983713768568912431"
    "388982883793878002287614711652531743087737814467999489"
)
RSA768_Q = int(
    "36746043666799590428244633799627952632279158164343087642676032"
    "283815739666511279233373417143396810270092798736308917"
)


def _dyadic_digits(x, digits_after):
    # exact decimal expansion of a positive dyadic float, truncated
    sign, man, exp, bc = x._mpf_
    assert sign == 0 and exp < 0
    return str((man * 10**digits_after) >> -exp)


# ---------------------------------------------------------------------------
# data files


def test_data_checksum_detects_corruption(monkeypatch):
    monkeypatch.setitem(fixtures._CHECKSUMS, "rsa768.txt", "0" * 64)
    with pytest.raises(RuntimeError, match="corrupted"):
        fixtures._load_data("rsa768.txt")


def test_ex1_digit_strings_regenerate_from_dyadic_constants():
    with mp.workprec(84):
        p = +mp.pi
    with mp.workprec(85):
        e = +mp.e
    assert _dyadic_digits(p, 80) == fixtures._load_data("ex1_num_digits.txt")
    assert _dyadic_digits(e, 80) == fixtures._load_data("ex1_den_digits.txt")


def test_ex1_digit_strings_match_true_constants_to_26_digits():
    num = fixtures._load_data("ex1_num_digits.txt")
    den = fixtures._load_data("ex1_den_digits.txt")
    with mp.workprec(400):
        true_pi = mp.nstr(+mp.pi, 40).replace(".", "")
        true_e = mp.nstr(+mp.e, 40).replace(".", "")

    def prefix_len(a, b):
        n = 0
        for ca, cb in zip(a, b):
            if ca != cb:
                break
            n += 1
        return n

    assert prefix_len(num, true_pi) == 26
    assert prefix_len(den, true_e) == 26


def test_pi201_is_truncated_pi():
    text = fixtures._load_data("pi_digits_201.txt")
    assert len(text) == 201
    with mp.workprec(1200):
        assert int(text) == int(mp.floor(mp.pi * mp.mpf(10) ** 200))


def test_rsa768_is_the_published_challenge_modulus():
    text = fixtures._load_data("rsa768.txt")
    n = int(text)
    assert len(text) == 232
    assert n.bit_length() == 768
    assert RSA768_P * RSA768_Q == n


# ---------------------------------------------------------------------------
# built lifts


def test_catalog_shape():
    assert fixture_ids() == ("ex1", "ex2", "ex3", "ex4")
    degrees = tuple(load_fixture(i).degree for i in fixture_ids())
    assert degrees == (80, 65, 2, 2)
    for i in fixture_ids():
        fx = load_fixture(i)
        assert isinstance(fx, Fixture)
        assert fx.lift().degree == fx.degree
        assert fx.provenance
        assert fx.expected


def test_fixture_points():
    assert load_fixture("ex1").point() == ProjectivePoint(-5, 1)
    assert load_fixture("ex2").point() == ProjectivePoint(0, 1)
    assert load_fixture("ex3").point() == ProjectivePoint(1, 1)
    p4 = load_fixture("ex4").point()
    assert p4.y == 1
    assert p4.x == int(fixtures._load_data("rsa768.txt"))


def test_ex2_coefficients_follow_the_rule():
    lift = fixture_lift("ex2")
    assert lift.degree == 65

    # primality by trial division, independent of the fixture's literal primes
    def is_prime(n):
        return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))

    for i, c in enumerate(lift.F.coefficients):
        assert c == (-i if is_prime(i) else 1)
    for i, c in enumerate(lift.G.coefficients):
        assert c == (1 if i <= 33 else -1)


def test_ex3_resultant_closed_form():
    lift = fixture_lift("ex3")
    a = int(fixtures._load_data("pi_digits_201.txt"))
    assert lift.resultant == a * a - 3 * a + 3
    assert lift.resultant % (3 * 7 * 61) == 0
    assert resultant(lift.F, lift.G) == lift.resultant


def test_ex4_resultant_is_the_modulus():
    lift = fixture_lift("ex4")
    a = int(fixtures._load_data("rsa768.txt"))
    assert abs(lift.resultant) == a


def test_ex1_resultant_size():
    assert abs(fixture_lift("ex1").resultant).bit_length() == 654


def test_ex2_resultant_head_and_divisibility():
    R = abs(fixture_lift("ex2").resultant)
    assert str(R).startswith("201910883195612036622")
    assert R % 513 == 0


def test_fixture_lift_is_cached():
    assert fixture_lift("ex3") is fixture_lift("ex3")


@pytest.mark.parametrize(
    "fixture_id, files",
    [
        ("ex1", ["ex1_num_digits.txt", "ex1_den_digits.txt"]),
        ("ex2", []),
        ("ex3", ["pi_digits_201.txt"]),
        ("ex4", ["rsa768.txt"]),
    ],
)
def test_fixture_inputs_read_each_data_file_once(monkeypatch, fixture_id, files):
    # a CLI --fixture job calls lift() and then point(); each reads through
    # the cached inputs, so a data file is read and hashed once
    reads, load = [], fixtures._load_data

    def spy(name):
        reads.append(name)
        return load(name)

    monkeypatch.setattr(fixtures, "_load_data", spy)
    fixtures._inputs.cache_clear()
    fixture_lift.cache_clear()
    fx = load_fixture(fixture_id)
    fx.lift()
    assert fx.point() == fx.point()
    assert reads == files


def test_unknown_fixture():
    with pytest.raises(KeyError, match="ex1"):
        load_fixture("nope")
    with pytest.raises(KeyError):
        fixture_lift("nope")
