"""Exact arithmetic on integer binary forms and lifts of self-maps of P^1.

A degree-d self-map of the projective line over Q is represented here by a
pair of homogeneous degree-d integer forms (F, G) with no common projective
root, equivalently with nonzero resultant.  This module supplies the exact
building blocks the height computations rest on:

* parsing of map and point descriptions (homogeneous pair or rational
  function in one variable),
* exact form evaluation, and the one exact-orbit step, which the oracle,
  the identity check and exact_log_gcd take, charged to a work budget,
* point normalization to coprime integer coordinates,
* Sylvester resultants by the fraction-free subresultant PRS,
* the degree-(d-1) cofactor forms a1, b1, a2, b2 with

      a1*F + b1*G = Res(F, G) * X^(2d-1)
      a2*F + b2*G = Res(F, G) * Y^(2d-1)

  as exact polynomial identities.  F and G trade places when F has no X^d
  term, so that f = F(x, 1) keeps degree d; one PRS run on f and
  g = G(x, 1) gives Res, a2 and b2, and b1 = x^(2d-1)*b2 (mod f) and a1
  follow from them by one pseudo-remainder and exact divisions.  These
  witness that every orbit gcd divides the resultant and give the lower
  bound used for the archimedean step estimates.

All coefficients are unbounded Python ints; nothing in this module rounds.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import int_str_digits_limit

__all__ = [
    "BinaryForm",
    "BudgetExceededError",
    "CofactorIdentity",
    "MapLift",
    "NotAMorphismError",
    "ParseError",
    "ProjectivePoint",
    "cofactors",
    "evaluate",
    "normalize_point",
    "parse_map",
    "parse_point",
    "resultant",
]


class ParseError(ValueError):
    """A map or point description does not match the input grammar."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed its resource budget."""


class NotAMorphismError(ValueError):
    """The two forms share a projective root, so they do not define a map of P^1."""


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous integer form in X and Y.

    ``coefficients[i]`` multiplies X^(d-i) * Y^i, so the tuple reads in
    descending powers of X.  The degree is formal: trailing or leading
    zero coefficients are kept, and the all-zero tuple is the zero form
    of its formal degree (legal here because cofactor forms can vanish).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        if not coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be ints, got {type(c).__name__}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def norm(self) -> int:
        """Sup norm: the largest coefficient in absolute value."""
        return max(abs(c) for c in self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __str__(self) -> str:
        d = self.degree
        parts: list[str] = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mono = "*".join(
                ([] if d - i == 0 else [f"X^{d - i}" if d - i > 1 else "X"])
                + ([] if i == 0 else [f"Y^{i}" if i > 1 else "Y"])
            )
            if not mono:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mono
            else:
                term = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        out = " ".join(parts)
        return "-" + out[2:] if out.startswith("- ") else out[2:]


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^1(Q) in lowest terms: gcd(x, y) = 1, and y > 0 or (y = 0, x > 0).

    Construct via :func:`normalize_point` from arbitrary rationals; the
    constructor itself insists on already-normalized coordinates so that
    equal points compare equal.
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        for v in (self.x, self.y):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"coordinates must be ints, got {type(v).__name__}; use normalize_point")
        if self.x == 0 and self.y == 0:
            raise ValueError("(0, 0) does not name a point of P^1")
        if math.gcd(self.x, self.y) != 1:
            raise ValueError("coordinates must be coprime; use normalize_point")
        if self.y < 0 or (self.y == 0 and self.x < 0):
            raise ValueError("sign convention is y > 0, or y = 0 and x > 0; use normalize_point")

    def __str__(self) -> str:
        return f"[{self.x}, {self.y}]"


@dataclass(frozen=True)
class CofactorIdentity:
    """Exact witnesses a1*F + b1*G = resultant * X^(2d-1), a2*F + b2*G = resultant * Y^(2d-1)."""

    a1: BinaryForm
    b1: BinaryForm
    a2: BinaryForm
    b2: BinaryForm
    resultant: int

    @property
    def coeff_norm(self) -> int:
        """Largest cofactor coefficient in absolute value (at least 1)."""
        return max(1, self.a1.norm, self.b1.norm, self.a2.norm, self.b2.norm)


def evaluate(f: BinaryForm, x: int, y: int) -> int:
    """Exact value of f at integer (x, y), by a Horner walk in x.

    Powers of y are accumulated alongside, so the work is 2d multiplications
    and d additions on integers no larger than the final result.
    """
    coeffs = f.coefficients
    acc = coeffs[0]
    yp = 1
    for c in coeffs[1:]:
        yp *= y
        acc = acc * x + c * yp
    return acc


def normalize_point(x, y) -> ProjectivePoint:
    """Normalize rational coordinates to the canonical coprime-integer form.

    Accepts ints, Fractions, or strings such as "3/4" in parse_point's grammar of
    integer literals and ratios.  Clears denominators, divides out the gcd, and
    flips signs so that y > 0, or y = 0 and x > 0.
    """
    fx, fy = _as_fraction(x), _as_fraction(y)
    if fx == 0 and fy == 0:
        raise ValueError("(0, 0) does not name a point of P^1")
    den = math.lcm(fx.denominator, fy.denominator)
    a, b = int(fx * den), int(fy * den)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return ProjectivePoint(a, b)


def _as_fraction(v) -> Fraction:
    """v as a Fraction; any other type than a Rational or str is refused unconverted."""
    if isinstance(v, float):
        raise TypeError("float coordinates are ambiguous; pass int, Fraction, or string")
    if isinstance(v, str):
        return _parse_rational(v)
    if not isinstance(v, numbers.Rational):
        raise ValueError(f"not a rational number: a {type(v).__name__}; pass int, Fraction, or string")
    return Fraction(v)


def _strip(p) -> list[int]:
    """The coefficient list p without its leading zeros (empty for the zero polynomial)."""
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return list(p[i:])


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    """The quotient num / den of coefficient lists, which den must divide over Z.

    Any nonzero remainder, in a coefficient or in the polynomial, raises
    ArithmeticError.
    """
    num = list(num)
    lc, tail = den[0], den[1:]
    n = len(tail)
    q = []
    for k in range(len(num) - n):
        t, rem = divmod(num[k], lc)
        if rem:
            raise ArithmeticError("a cofactor is not integral; the elimination is corrupt")
        q.append(t)
        num[k + 1 : k + 1 + n] = [x - t * y for x, y in zip(num[k + 1 : k + 1 + n], tail)]
    if any(num[len(num) - n :]):
        raise ArithmeticError("a cofactor is not integral; the elimination is corrupt")
    return q


def _mul_sub(s: int, p: list[int], q: list[int], u: list[int]) -> list[int]:
    """s*p - q*u for coefficient lists in descending powers, aligned at the constant term."""
    m = len(u)
    n = max(len(p), len(q) + m - 1 if q and m else 0)
    out = [0] * (n - len(p)) + [s * x for x in p]
    if m:
        for at, qk in enumerate(q, n - m - len(q) + 1):
            out[at : at + m] = [w - qk * x for w, x in zip(out[at : at + m], u)]
    return out


def _prem(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division lc(b)^(e+1) * a = q*b + r, where e = deg a - deg b >= 0.

    Coefficient lists run in descending powers; r has len(b) - 1 entries,
    leading zeros included.
    """
    lc, tail = b[0], b[1:]
    n = len(tail)
    r, ts = a, []
    for _ in range(len(a) - n):
        t, rest = r[0], r[1:]
        ts.append(t)
        r = [lc * x - t * y for x, y in zip(rest, tail)] + [lc * x for x in rest[n:]]
    q, power = [], 1
    for t in reversed(ts):
        q.append(t * power)
        power *= lc
    return q[::-1], r


def _prs(a: list[int], b: list[int]) -> tuple[int, int, list[int]]:
    """Subresultant PRS of a and b (Brown and Traub), carrying the cofactor of a.

    a and b have nonzero leading coefficients and deg a >= deg b.  Step i
    divides prem(r_(i-1), r_i) exactly by beta = -g * c^e, where e is the
    degree gap, g = lc(r_(i-1)) (1 at the first step) and c, starting at -1,
    becomes (-lc(r_i))^e / c^(e-1).  Every remainder is then a subresultant,
    whose coefficients are minors of the Sylvester matrix, and so are the
    coefficients of the cofactor u_i with u_i * a = r_i (mod b), which
    follows the same pseudo-remainder and the same exact division.

    Returns (res(a, b), r, u): r is the last remainder, a nonzero constant,
    and u * a + v * b = r for some v.  When a and b share a factor the
    result is (0, 0, []).
    """
    u0, u1 = [1], []
    g, c = 1, -1
    while len(b) > 1:
        e = len(a) - len(b)
        beta = -g * c**e
        q, r = _prem(a, b)
        u = _mul_sub(b[0] ** (e + 1), u0, q, u1)
        r = _strip(r)
        if not r:
            return 0, 0, []
        g = b[0]
        c = (-g) ** e // c ** (e - 1) if e else c
        a, b = b, [x // beta for x in r]
        u0, u1 = u1, [x // beta for x in u]
    # one more update of c, by the constant remainder, gives -res(a, b)
    e = len(a) - 1
    return -((-b[0]) ** e // c ** (e - 1)), b[0], u1


def _eliminate(
    F: BinaryForm, G: BinaryForm
) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """(Res, a1, b1, a2, b2) for two forms of one degree d >= 1.

    a1, b1, a2 and b2 are the coefficient lists of the unique degree-(d-1)
    solutions of a1*F + b1*G = Res * X^(2d-1) and a2*F + b2*G = Res * Y^(2d-1).
    Setting Y = 1 turns both into identities of f = F(x, 1) and g = G(x, 1).
    F and G trade places when F has no X^d term, at the cost of the sign
    (-1)^d, so that f keeps degree d; when neither form does, Res = 0.  Each
    of the e leading zeros stripped from g costs a factor lc(f).  One
    subresultant PRS on f and g gives Res and, scaled to Res, a2 with
    a2*f + b2*g = Res.  Multiplied by x^(2d-1), that identity gives
    b1 = x^(2d-1)*b2 (mod f): b1 is the pseudo-remainder of x^(2d-1)*b2 by
    f divided by the power of lc(f) the pseudo-division took, and
    a1 = (Res*x^(2d-1) - b1*g)/f.  Every division is exact; a remainder in
    any of them raises ArithmeticError.  a2 and b2 are padded to length d at
    the end.  When Res = 0 all four lists come back empty.
    """
    if F.degree != G.degree or F.degree < 1:
        raise ValueError("F and G must be forms of one degree d >= 1")
    d = F.degree
    swap = F.coefficients[0] == 0
    f, g = (G, F) if swap else (F, G)
    f, g = f.coefficients, _strip(g.coefficients)
    if not (f[0] and g):
        return 0, [], [], [], []
    res, r, u = _prs(f, g)
    res *= (-1) ** (d * swap) * f[0] ** (d + 1 - len(g))
    if res == 0:
        return 0, [], [], [], []
    a2 = _divide_exact([x * res for x in u], [r])
    b2 = _divide_exact(_mul_sub(1, [res], a2, f), g)
    # the pseudo-division of x^(2d-1)*b2 by f takes len(b2) + d - 1 steps
    _, r = _prem(b2 + [0] * (2 * d - 1), f)
    b1 = _divide_exact(r, [f[0] ** (len(b2) + d - 1)])
    a1 = _divide_exact(_mul_sub(1, [res] + [0] * (2 * d - 1), b1, g), f)
    a2, b2 = ([0] * (d - len(c)) + c for c in (a2, b2))
    return (res, b1, a1, b2, a2) if swap else (res, a1, b1, a2, b2)


def _elimination_work(F: BinaryForm, G: BinaryForm) -> tuple[int, int, int, int]:
    """_budget's charge (n, a_bits, b_bits, overhead) for _eliminate(F, G): every Sylvester minor
    has at most h = d*(log2|F|_2 + log2|G|_2) bits (Hadamard), and on every pair counted the PRS
    and the a1/b1 derivation took at most d*(4d + 3) products and exact divisions of h-bit ints.
    Small coefficients took up to 700 ns per d^2 on a 2-core x86_64 host: 18 units per product."""
    d = F.degree
    h = math.ceil(d * sum(math.log2(sum(c * c for c in H.coefficients)) for H in (F, G)) / 2)
    return d * (4 * d + 3), h, h, 18


def resultant(F: BinaryForm, G: BinaryForm) -> int:
    """Exact Sylvester resultant of two degree-d forms, d >= 1.

    The subresultant PRS keeps every intermediate value an integer minor of
    the Sylvester matrix; a zero return means the forms share a projective
    root.  The sign is the Sylvester determinant's (F rows above G rows);
    callers that need a modulus or a bound should take abs().
    """
    return _eliminate(F, G)[0]


def cofactors(F: BinaryForm, G: BinaryForm) -> CofactorIdentity:
    """Integer cofactor forms of degree d-1 for the two resultant identities.

    The four forms come from the resultant's elimination, alongside Res.
    """
    det, *forms = _eliminate(F, G)
    if det == 0:
        raise NotAMorphismError("zero resultant: F and G share a projective root")
    a1, b1, a2, b2 = (BinaryForm(tuple(c)) for c in forms)
    return CofactorIdentity(a1=a1, b1=b1, a2=a2, b2=b2, resultant=det)


@dataclass(frozen=True)
class MapLift:
    """Integer lift Phi = [F, G] of a degree-d self-map of P^1, with cached invariants.

    Build it through :meth:`from_forms` or :func:`parse_map`, which check the
    pair.  ``resultant`` is the exact, nonzero Sylvester resultant,
    ``coeff_norm`` the sup norm over both forms' coefficients, and
    ``cofactor_identity`` the cofactor forms computed with the resultant.
    """

    F: BinaryForm
    G: BinaryForm
    degree: int
    resultant: int
    coeff_norm: int
    cofactor_identity: CofactorIdentity = field(repr=False, compare=False)

    @classmethod
    def from_forms(cls, F: BinaryForm, G: BinaryForm) -> "MapLift":
        """Validate a pair of forms and cache its resultant, cofactors and coefficient norm.

        The one check of a map: unequal degrees and degree below 2 raise
        ValueError, and a zero resultant raises NotAMorphismError.
        """
        if F.degree != G.degree:
            raise ValueError(
                f"F and G must have the same degree (got {F.degree} and {G.degree})"
            )
        if F.degree < 2:
            raise ValueError("a self-map of P^1 needs degree at least 2")
        ident = cofactors(F, G)
        content = math.gcd(*F.coefficients, *G.coefficients)
        if content > 1:
            # content is deliberately not divided out: it is part of the lift
            # and scales the resultant and every orbit gcd
            warnings.warn(
                f"lift has content {content}; the resultant and the gcd terms "
                f"are inflated accordingly",
                stacklevel=2,
            )
        return cls(
            F=F,
            G=G,
            degree=F.degree,
            resultant=ident.resultant,
            coeff_norm=max(F.norm, G.norm),
            cofactor_identity=ident,
        )

    def apply(self, x: int, y: int) -> tuple[int, int]:
        """Exact image pair (F(x, y), G(x, y))."""
        return evaluate(self.F, x, y), evaluate(self.G, x, y)

    def __str__(self) -> str:
        return f"[{self.F}, {self.G}]"


def _exact_step(lift: MapLift, x: int, y: int, charge) -> tuple[int, int, int]:
    """(F/g, G/g, g) at a coprime pair (x, y), g = gcd(F(x, y), G(x, y)), which divides |Res|: one
    exact-orbit step, whose work is charged before lift.apply runs, so a refused step never runs."""
    d = lift.degree
    # Horner step i of lift.apply, for both forms: y-power and accumulator (i-1)*b + h bits by
    # b, coefficient by the i*b-bit y-power; then the images' gcd and two divisions by it (<= |Res|)
    b, h = max(abs(x), abs(y)).bit_length(), lift.coeff_norm.bit_length() + (d + 1).bit_length()
    for i in range(1, d + 1):
        charge(4, (i - 1) * b + h, b)
        charge(2, h, i * b)
    charge(1, d * b + h, d * b + h)
    charge(2, d * b + h, lift.resultant.bit_length())
    fx, gy = lift.apply(x, y)
    g = math.gcd(fx, gy)
    return fx // g, gy // g, g


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()/=;\[\],]")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_\-+*^()/=;\[\],]")  # a character no token takes
# the tokens that end a term after a factor ('' ends the input); any other starts the next one
_TERM_ENDS = frozenset(("", "+", "-", "^", ")", "/", "=", ";", "[", "]", ","))

# the error for any '/' but the phi(z) form's one top-level '/'
_SLASH_INSIDE = (
    "'/' inside a polynomial is not supported; coefficients must be "
    "integers, and only the phi(z) form takes one top-level '/'"
)
_MAX_EXPONENT = 4096
# a monomial of total degree t with Y^j (j = 0 in the phi form) has the key
# t*_KEY_BASE + j, so a product adds keys; every product and power checks its
# own degree before it is formed, so every t, and so every j, stays at most
# _MAX_EXPONENT, and j < _KEY_BASE
_KEY_BASE = _MAX_EXPONENT + 1
# the work budget of a parse_map call or an exact-orbit run, charged before each product, power,
# negation, elimination and exact-orbit step: a product or exact division of an a-bit by a b-bit int
# costs ceil(a/64)*ceil(b/64), an upper bound on CPython's 64-bit limb products, plus a fixed cost
# for the interpreter's overhead, _PRODUCT_COST for dict products; the work took 2 to 10 ns per
# unit on a 2-core x86_64 host, so the budget is at most about 3.5 s
_MAX_COST = 350_000_000
_PRODUCT_COST = 50
# deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs it three stack frames
_MAX_NESTING = 100


def _check_literal(text: str) -> str:
    """An integer literal, unchanged, or ParseError past Python's int<->str digit limit."""
    limit, digits = int_str_digits_limit(), len(text.lstrip("+-"))
    if limit is not None and digits > limit:
        raise ParseError(
            f"an integer literal of {digits} digits is over Python's int<->str "
            f"conversion limit of {limit} digits"
        )
    return text


def _check_degree(degree: int, what: str) -> None:
    """ParseError if `what`, a product or power about to be formed, would have a degree too high
    for the monomial key; terms may cancel later, so only the degree formed here counts."""
    if degree > _MAX_EXPONENT:
        raise ParseError(f"{what} of degree {degree}, over the supported maximum {_MAX_EXPONENT}")


def _tokenize(text: str) -> list[str]:
    """text's integer literals, names and operators, by one regex, '**' read as '^'; ParseError at
    the first character no token takes or literal past Python's int<->str digit limit."""
    expr = text.strip()
    bad = _BAD_CHAR_RE.search(expr)
    tokens = _TOKEN_RE.findall(expr, 0, bad.start() if bad else len(expr))
    limit = int_str_digits_limit()
    if limit is not None and len(expr) > limit:  # else no literal can pass the limit
        for tok in tokens:
            if len(tok) > limit and tok.isdecimal():
                _check_literal(tok)
    if bad:
        at = bad.start()
        lo = max(0, min(at - 20, len(expr) - 40))
        hi = lo + 40
        shown = ("..." if lo else "") + expr[lo:hi] + ("..." if hi < len(expr) else "")
        raise ParseError(f"unexpected character {bad[0]!r} at position {at} of {shown!r}")
    return ["^" if tok == "**" else tok for tok in tokens] if "**" in expr else tokens


class _PolyParser:
    """Recursive-descent parser for polynomial expressions over named variables.

    Produces a dict mapping int monomial keys (see _KEY_BASE) to integer
    coefficients.  '*' between factors is optional; '^' and '**'
    both exponentiate; only '+', '-', '*', '^', parentheses, integers, and
    the allowed variable names may appear, plus the phi(z) form's one '/'.
    Every method reads the tokens from self.pos on, up to a sentinel ''.
    """

    def __init__(self, tokens: list[str], variables: tuple[str, ...], charge=None):
        # A bare run of single-letter variables ("XY", "xxy") splits into
        # separate factors, so XY^2 binds as X*(Y^2).
        single = "".join(v.upper() for v in variables if len(v) == 1)
        runs = {t for t in set(tokens) if len(t) > 1 and not t.upper().strip(single)}
        if runs:
            tokens = [ch for tok in tokens for ch in (tok if tok in runs else (tok,))]
        self.tokens = [*tokens, ""]
        self.pos = 0
        self.variables = variables
        # each variable's key under its name, and a single letter's under either case
        self.keys = {
            name: _KEY_BASE + i
            for i, var in enumerate(variables)
            for name in ({var, var.upper(), var.lower()} if len(var) == 1 else (var,))
        }
        self.depth = 0  # parentheses open around the current position
        self.charge = charge or _budget()  # called before each product, power and negation

    def parse(self, ratio: bool = False):
        """The whole token list as one polynomial, or with `ratio` as the phi(z)
        form's (numerator, denominator): a term, then optionally one '/' and a
        second term (else the denominator is 1).  '/' binds tighter than '+'
        and '-', so a sum beside it needs parentheses."""
        num = self.term()
        split = ratio and self.tokens[self.pos] == "/"
        if split:
            self.pos += 1
            den = self.term()
        else:
            num, den = self.expr(num), {0: 1}
        tok = self.tokens[self.pos]
        if ratio and tok in (("+", "-") if split else ("/",)):
            raise ParseError(
                "the phi(z) form takes one term on each side of its '/'; put a sum "
                "in parentheses, as in (z^2 + 1)/(2z)"
            )
        if tok == "/":
            raise ParseError(_SLASH_INSIDE)
        if tok:
            raise ParseError(f"unexpected {tok!r} after a complete expression")
        return (num, den) if ratio else num

    def expr(self, poly=None):
        # every parse method returns a dict that nothing else holds, so a sum
        # accumulates into its first term
        poly = self.term() if poly is None else poly
        while (tok := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            _padd(poly, self.term(), 1 if tok == "+" else -1)
        return poly

    def term(self):
        """A product of factors: signs, a base and an optional '^' and exponent.  A run of factors
        whose base is an integer or a variable folds into one c*x^k (c = 0 for the zero polynomial),
        checked and charged as times(), _ppow and a negation would do it; a parenthesized base is
        a dict, and from it on the product goes through them."""
        tokens, keys, charge, i = self.tokens, self.keys, self.charge, self.pos
        poly = c = None  # the product so far: a dict from a parenthesized base on, else c*x^k
        while True:
            sign = 1
            while (tok := tokens[i]) in ("+", "-"):
                sign, i = -sign if tok == "-" else sign, i + 1
            i += 1
            q = None  # the factor: a dict for a parenthesized base, else qc*x^qk
            if tok in keys:
                qc, qk = 1, keys[tok]
            elif tok.isdecimal():
                qc, qk = int(tok), 0
            elif tok == "(":
                q, i = self.group(i)
            elif tok == "/":
                raise ParseError("'/' is not allowed here; only integer coefficients are supported")
            elif not tok:
                raise ParseError("expression ended unexpectedly")
            elif tok[0].isalpha() or tok[0] == "_":
                raise ParseError(f"unknown variable {tok!r}; expected one of: {', '.join(self.variables)}")
            else:
                raise ParseError(f"unexpected {tok!r} in expression")
            if tokens[i] == "^":
                tok = tokens[i + 1]
                i += 2
                if not tok.isdecimal():
                    raise ParseError("exponent must be a nonnegative integer literal")
                e = int(tok)
                if e > _MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds the supported maximum {_MAX_EXPONENT}")
                if q is not None:
                    _check_degree(max(q, default=0) // _KEY_BASE * e, "a power")
                    q = _ppow(q, e, charge)
                else:
                    _check_degree(qk // _KEY_BASE * e, "a power")
                    if e and qc:
                        charge(1, e * qc.bit_length(), e * qc.bit_length())
                    qc, qk = qc**e, qk * e
            if sign < 0:  # a negation copies every coefficient
                if q is None:
                    charge(1 if qc else 0, 0, 0)
                    qc = -qc
                else:
                    charge(len(q), 0, 0)
                    q = {k: -v for k, v in q.items()}
            if q is not None or poly is not None:
                if poly is None and c is not None:
                    poly = {k: c} if c else {}
                if q is None:
                    q = {qk: qc} if qc else {}
                poly = q if poly is None else self.times(poly, q)
            elif c is None:
                c, k = qc, qk
            elif c and qc:
                _check_degree(k // _KEY_BASE + qk // _KEY_BASE, "a product")
                charge(1, c.bit_length(), qc.bit_length())
                c, k = c * qc, k + qk
            else:
                c = 0
            if (tok := tokens[i]) == "*":
                i += 1
            elif tok in _TERM_ENDS:
                self.pos = i
                return poly if poly is not None else {k: c} if c else {}

    def times(self, p, q):
        if not (p and q):
            return {}
        # the product's degree and cost, checked before multiplying
        _check_degree(max(p) // _KEY_BASE + max(q) // _KEY_BASE, "a product")
        a, b = max(map(int.bit_length, p.values())), max(map(int.bit_length, q.values()))
        self.charge(len(p) * len(q), a, b)
        return _pmul(p, q)

    def group(self, i: int):
        """(the sum in parentheses from tokens[i] on, the index past its ')')."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than the supported maximum {_MAX_NESTING}")
        self.pos = i
        poly = self.expr()
        self.depth -= 1
        tok = self.tokens[self.pos]
        if tok != ")":
            raise ParseError(_SLASH_INSIDE if tok == "/" else "missing closing parenthesis")
        return poly, self.pos + 1


def _budget(error=ParseError):
    """charge(n, a_bits, b_bits, overhead=_PRODUCT_COST) adds n products or exact divisions of an
    a-bit by a b-bit int to one running cost (see _MAX_COST); `error` once it passes _MAX_COST."""
    cost = 0
    refused = "the map" if error is ParseError else "the next exact-orbit iterate"

    def charge(n, a_bits, b_bits, overhead=_PRODUCT_COST):
        nonlocal cost
        cost += n * (((a_bits + 63) >> 6) * ((b_bits + 63) >> 6) + overhead)
        if cost > _MAX_COST:
            raise error(f"{refused} projects a cost of at least {cost} (64-bit limb products, plus a "
                        f"fixed cost per product), over the supported maximum {_MAX_COST} of the work budget")

    return charge


def _padd(p, q, sign: int):
    """p + sign*q, accumulated into p."""
    for k, v in q.items():
        t = p.get(k, 0) + sign * v
        if t:
            p[k] = t
        else:
            del p[k]


def _pmul(p, q):
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        # a single term shifts every key of q and scales every coefficient
        ((m, c),) = p.items()
        return {k + m: c * v for k, v in q.items()}
    out: dict = {}
    for m, c in p.items():
        for k, v in q.items():
            out[k + m] = out.get(k + m, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _ppow(p, e, charge):
    """p^e: a single term scales its key; any other base expands by Miller's
    recurrence (see _power_coefficients) on one dense list a, by Kronecker
    substitution (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4):
    the key t*_KEY_BASE + j becomes the exponent t*s + j of x, where
    s = e*max(j) + 1 exceeds every j of p^e, and p = x^lo * a(x^g), g maximal.
    The expansion's cost is passed to charge before anything expands."""
    if not e:
        return {0: 1}
    if len(p) < 2:
        for k, c in p.items():  # the one term, if any
            charge(1, e * c.bit_length(), e * c.bit_length())
            return {k * e: c**e}
        return {}
    s = e * max(k % _KEY_BASE for k in p) + 1
    packed = {k // _KEY_BASE * s + k % _KEY_BASE: c for k, c in p.items()}
    lo, hi = min(packed), max(packed)
    g = math.gcd(*(k - lo for k in packed))
    size = e * (hi - lo) // g + 1
    # each coefficient of p^e, at most (len(p)*max|c|)^e, takes len(p) - 1 products and
    # one exact division by a coefficient of p times a factor below 2*size
    bits = max(map(int.bit_length, p.values()))
    charge(size * len(p), e * (bits + len(p).bit_length()), bits + size.bit_length() + 1)
    a = [0] * ((hi - lo) // g + 1)
    for k, c in packed.items():
        a[(k - lo) // g] = c
    q = _power_coefficients(a, e)
    return {v // s * _KEY_BASE + v % s: c for v, c in zip(range(e * lo, e * hi + 1, g), q) if c}


def _power_coefficients(a: list[int], e: int) -> list[int]:
    """The coefficient list of a(x)^e, for a(x) = sum a[k] x^k with a[0] != 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.6.1): from
    a*(a^e)' = e*a'*a^e, n*a[0]*q[n] = sum over k = 1..n of
    ((e+1)*k - n)*a[k]*q[n-k].  q[n] is an integer, so each division is exact;
    the work is O(e*deg a) coefficients times the terms of a.
    """
    a0 = a[0]
    terms = [(k, (e + 1) * k, c) for k, c in enumerate(a) if k and c]
    q = [a0**e]
    for n in range(1, e * (len(a) - 1) + 1):
        q.append(
            sum((ek - n) * c * q[n - k] for k, ek, c in terms if k <= n) // (n * a0)
        )
    return q


def _form_from_xy_poly(poly: dict[int, int], label: str) -> BinaryForm:
    if not poly:
        raise ParseError(f"{label} must not be the zero polynomial")
    degrees = {k // _KEY_BASE for k in poly}
    if len(degrees) != 1:
        lo, hi = min(degrees), max(degrees)
        raise ParseError(
            f"{label} is not homogeneous: it mixes total degrees {lo} and {hi}"
        )
    d = degrees.pop()
    return BinaryForm(tuple(poly.get(d * _KEY_BASE + j, 0) for j in range(d + 1)))


_PHI_RE = re.compile(r"^\s*phi\s*\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*\)\s*=\s*(.+)$", re.DOTALL)


def parse_map(text: str) -> MapLift:
    """Parse a map description into a validated :class:`MapLift`.

    Two input shapes are accepted:

    * a homogeneous pair, ``F = <poly in X, Y>; G = <poly in X, Y>``, where
      both polynomials must be homogeneous of one common degree d >= 2;
    * a rational function, ``phi(z) = (<poly in z>) / (<poly in z>)``, whose
      numerator and denominator are homogenized to the larger of their
      degrees (the denominator ``1`` may be omitted).  The one top-level '/'
      divides a term by a term, as in ``z^3/2`` or ``-z^2/(z + 1)``; a sum on
      either side needs parentheses.

    Integer literals may be as long as Python's int<->str digit limit
    (sys.get_int_max_str_digits(), 4300 by default) allows; ``*`` between a coefficient
    and a monomial is optional; ``^`` and ``**`` both exponentiate.
    """
    charge = _budget()  # one running cost for the statements and the elimination
    if ";" in text:
        pieces = [p for p in text.split(";") if p.strip()]
        if len(pieces) != 2:
            raise ParseError("expected exactly two statements: F = ...; G = ...")
        forms: dict[str, BinaryForm] = {}
        for piece in pieces:
            lhs, eq, rhs = piece.partition("=")
            name = lhs.strip().upper()
            if eq != "=" or name not in ("F", "G"):
                raise ParseError("each statement must assign to F or G, as in F = X^2 + Y^2")
            if name in forms:
                raise ParseError(f"{name} is assigned twice")
            forms[name] = _form_from_xy_poly(_PolyParser(_tokenize(rhs), ("X", "Y"), charge).parse(), name)
        F, G = forms["F"], forms["G"]
    else:
        m = _PHI_RE.match(text)
        if m is None:
            raise ParseError(
                "could not recognize the map; write 'F = ...; G = ...' in X and Y, "
                "or 'phi(z) = (...)/(...)'"
            )
        var, rhs = m.group(1), m.group(2)
        num, den = _PolyParser(_tokenize(rhs), (var,), charge).parse(ratio=True)
        if not num:
            raise ParseError("the numerator must not be the zero polynomial")
        if not den:
            raise ParseError("the denominator must not be the zero polynomial")
        d = max(max(num), max(den)) // _KEY_BASE
        F = BinaryForm(tuple(num.get((d - i) * _KEY_BASE, 0) for i in range(d + 1)))
        G = BinaryForm(tuple(den.get((d - i) * _KEY_BASE, 0) for i in range(d + 1)))
    if F.degree == G.degree:  # else MapLift.from_forms refuses the pair
        charge(*_elimination_work(F, G))
    try:
        return MapLift.from_forms(F, G)
    except NotAMorphismError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*([+-]?\d+))?$")


def _parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational number: {text.strip()!r}")
    num = int(_check_literal(m.group(1)))
    den = int(_check_literal(m.group(2))) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError("zero denominator in a rational number")
    return Fraction(num, den)


def parse_point(text: str) -> ProjectivePoint:
    """Parse a point description and normalize it.

    Accepted shapes, each with an optional ``P =`` prefix: a bracketed
    coordinate pair ``[x, y]`` of rationals, or a single rational ``x``
    meaning the affine point [x, 1].
    """
    s = re.sub(r"^\s*[Pp]\s*=\s*", "", text.strip())
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("missing closing ']' in point")
        inner = s[1:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise ParseError("a point needs exactly two comma-separated coordinates")
        fx, fy = _parse_rational(parts[0]), _parse_rational(parts[1])
    else:
        fx, fy = _parse_rational(s), Fraction(1)
    try:
        return normalize_point(fx, fy)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
