"""Built-in example inputs with pinned constants and reference values.

Four fixtures exercise the height machinery across the regimes that matter:

* ex1: a dense degree-80 pair whose coefficients are digit strings, with a
  654-bit resultant that nothing could factor, and a working modulus of
  tens of thousands of bits;
* ex2: a sparse-rule degree-65 pair whose gcd sequence turns out to be
  periodic, and whose canonical height is tiny but provably nonzero;
* ex3: a quadratic pair with one 201-digit coefficient and a resultant
  with a closed form;
* ex4: a quadratic pair built around the RSA-768 challenge modulus, whose
  resultant is exactly that modulus, so factoring it is hopeless but the
  gcd loop does not care.

Constants live in data files checked against pinned SHA-256 digests, and
each fixture records how its constants were constructed, so everything here
can be regenerated from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .forms import BinaryForm, MapLift, ProjectivePoint, normalize_point

__all__ = ["Fixture", "fixture_ids", "load_fixture", "fixture_lift"]

_CHECKSUMS = {
    "ex1_num_digits.txt": "0b56d1e94d8f0d7adad06334824b4f9630c34ed3a383d2550f163d853a572ffd",
    "ex1_den_digits.txt": "d9d5aea430a0491fda473a7916fe07badad0bc51ebb01b264fcc26a1ae34facc",
    "pi_digits_201.txt": "ae637da33305bfeb3056104232ca48e984be2f6764b3103ca7f6c3bf0673b1a5",
    "rsa768.txt": "f505ea6eede0061bf52501cedde28d7da6e17b5bbc055f4353561d58b196b660",
}


def _load_data(name: str) -> str:
    payload = (
        resources.files("p1height").joinpath("data", name).read_text(encoding="ascii").strip()
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != _CHECKSUMS[name]:
        raise RuntimeError(f"fixture data file {name} is corrupted (sha256 {digest})")
    return payload


@dataclass(frozen=True)
class Fixture:
    """Catalog entry: identification, inputs, provenance, and reference values.

    `expected` holds display strings of previously computed reference values
    for a 50-term run at default precision; the test suite pins them at
    stated tolerances.  `point_label` is for catalogs where the actual
    coordinates would be unreadable (ex4's x-coordinate has 232 digits).
    """

    fixture_id: str
    title: str
    degree: int
    point_label: str
    provenance: str
    expected: tuple[tuple[str, str], ...]

    def point(self) -> ProjectivePoint:
        return _inputs(self.fixture_id)[2]

    def lift(self) -> MapLift:
        return fixture_lift(self.fixture_id)


def _digits_form(digits: str) -> BinaryForm:
    return BinaryForm(tuple(int(ch) for ch in digits))


@lru_cache(maxsize=None)
def _inputs(fixture_id: str) -> tuple[BinaryForm, BinaryForm, ProjectivePoint]:
    """F, G and the point of a fixture, cached; load_fixture rejects an unknown id."""
    load_fixture(fixture_id)
    if fixture_id == "ex1":
        F = _digits_form(_load_data("ex1_num_digits.txt"))
        G = _digits_form(_load_data("ex1_den_digits.txt"))
        return F, G, normalize_point(-5, 1)
    if fixture_id == "ex2":
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
        F = BinaryForm(tuple(-i if i in primes else 1 for i in range(66)))
        G = BinaryForm(tuple(1 if i <= 33 else -1 for i in range(66)))
        return F, G, normalize_point(0, 1)
    if fixture_id == "ex3":
        a = int(_load_data("pi_digits_201.txt"))
        return BinaryForm((1, 1, 1)), BinaryForm((1, a, 2)), normalize_point(1, 1)
    a = int(_load_data("rsa768.txt"))  # ex4
    return BinaryForm((a, 0, 1)), BinaryForm((0, 1, 0)), normalize_point(a, 1)


@lru_cache(maxsize=None)
def fixture_lift(fixture_id: str) -> MapLift:
    """Build (and cache) the lift of a fixture; cached so repeated runs share it."""
    F, G, _ = _inputs(fixture_id)
    return MapLift.from_forms(F, G)


_CATALOG = (
    Fixture(
        fixture_id="ex1",
        title="dense degree-80 pair from digit strings",
        degree=80,
        point_label="[-5, 1]",
        provenance=(
            "Coefficients of the two forms are the 81 digit characters of decimal "
            "expansions of pi and e: the integer digit plus 80 fractional digits of "
            "an 84-bit binary approximation of pi (numerator form) and of an 85-bit "
            "binary approximation of e (denominator form).  Being expansions of "
            "dyadic approximations, the strings agree with the true constants to 26 "
            "significant digits and are deterministic beyond that.  Point [-5, 1]."
        ),
        expected=(
            ("nonarch value (50 terms)", "0.044907161659276960113044136254"),
            ("arch value (50 terms)", "-0.013757185585214127675440651473"),
            ("canonical height", "1.5782879363600375421631558484"),
            ("gcd sequence", "36, 2, 12, then alternating 2 (odd i) and 4 (even i)"),
            ("working modulus", "32674 bits"),
        ),
    ),
    Fixture(
        fixture_id="ex2",
        title="sparse-rule degree-65 pair with periodic gcd sequence",
        degree=65,
        point_label="[0, 1]",
        provenance=(
            "Degree 65; coefficient i multiplies X^(65-i) Y^i.  Numerator form: "
            "-i when i is prime, else 1.  Denominator form: 1 for i <= 33, else -1.  "
            "Point [0, 1]."
        ),
        expected=(
            ("nonarch value (50 terms)", "0.0014769884100219430907588636039"),
            ("arch value (50 terms)", "-0.0014773310580301870814703316397"),
            ("canonical height", "0.00000034264800824399071146803578990"),
            ("gcd sequence", "values in {1, 19, 27, 513}, periodic with period 20"),
        ),
    ),
    Fixture(
        fixture_id="ex3",
        title="quadratic pair with a 201-digit coefficient",
        degree=2,
        point_label="[1, 1]",
        provenance=(
            "F = X^2 + X*Y + Y^2, G = X^2 + a*X*Y + 2*Y^2 with a the integer formed "
            "by the first 201 decimal digits of pi (exact truncation).  The resultant "
            "is a^2 - 3a + 3 exactly.  Point [1, 1]."
        ),
        expected=(
            ("nonarch value (50 terms)", "0.62900702"),
            ("arch value (50 terms)", "-308.06749879"),
            ("canonical height", "307.43849177"),
            ("resultant", "a^2 - 3a + 3, divisible by 3 * 7 * 61"),
        ),
    ),
    Fixture(
        fixture_id="ex4",
        title="quadratic pair built on the RSA-768 modulus",
        degree=2,
        point_label="[a, 1] with a = RSA-768",
        provenance=(
            "F = a*X^2 + Y^2, G = X*Y with a the RSA-768 factoring-challenge "
            "modulus (232 decimal digits, 768 bits).  The resultant is a up to "
            "sign, so factoring it is out of reach, while the gcd loop needs "
            "no factorization at all.  Point [a, 1]."
        ),
        expected=(
            ("nonarch value (50 terms)", "133.0260806"),
            ("arch value (50 terms)", "-532.1043224"),
            ("canonical height", "931.1825642"),
            ("gcd sequence", "g_1 = a; every other g_i = 1 (note gcd(a^3 + 1, a) = 1, so g_0 = 1)"),
        ),
    ),
)

_BY_ID = {fx.fixture_id: fx for fx in _CATALOG}


def fixture_ids() -> tuple[str, ...]:
    return tuple(fx.fixture_id for fx in _CATALOG)


def load_fixture(fixture_id: str) -> Fixture:
    try:
        return _BY_ID[fixture_id]
    except KeyError:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(fixture_ids())}"
        ) from None
