"""Nonarchimedean height series without factoring the resultant.

The sum of the local height contributions over all finite places equals
sum_{i<N} log(g_i)/d^(i+1), where g_i is the gcd of the i-th exact image
pair with R = |Res(F, G)|.  The key point is that the g_i survive reduction:
running the orbit modulo R^(N-i) and dividing each step's gcd out of the
reduced pair recovers exactly the g_i of the exact orbit, while keeping
every working integer below R^N.  R is never factored.  One rule picks
each step's kernel: exact Horner, reduced once, when the run is small and
the pair below its top modulus or the step's exact values fit below its
modulus, else one Paterson-Stockmeyer walk reduced by Barrett's method on
large moduli; this module holds them all.  On large moduli of degree d >= 12 every walk step
first scales the pair by a unit mod R so that one coordinate is 1,
evaluating the reversed forms when that is X: the values scale by that
unit's d-th power, which leaves every g_i as it is and removes most
full-size products.

When some coprime splitting of R is known anyway (say, small prime powers
from trial division), the same loop runs once per part on much smaller
moduli, and the per-part gcds multiply back into the g_i.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import from_int, mpf_div, mpf_mul_int, mpf_sum, round_nearest

from .forms import BinaryForm, MapLift, ProjectivePoint, evaluate
from .numerics import _log_int, resolve_precision_bits

__all__ = [
    "NonArchResult",
    "PartialFactorization",
    "exact_log_gcd",
    "nonarch_height",
    "nonarch_height_factored",
    "trial_division",
]


@dataclass(frozen=True)
class NonArchResult:
    """Truncated nonarchimedean series together with its per-step gcds.

    value: sum_{i<terms} log(gcd_sequence[i]) / d^(i+1).
    gcd_sequence: the extracted gcds; every entry divides |Res(F, G)|.
    tail_bound: log|Res| / ((d-1) d^terms), bounding the discarded tail.
    modulus_bits: bit length of the largest modulus the loop worked with.
    precision_bits: working precision of the logarithms in `value`.
    """

    value: mp.mpf
    gcd_sequence: tuple[int, ...]
    tail_bound: mp.mpf
    terms: int
    modulus_bits: int
    precision_bits: int


_PROVENANCE = ("prime-power", "cofactor", "user")


@dataclass(frozen=True)
class PartialFactorization:
    """Pairwise-coprime parts, each > 1, of some positive modulus.

    provenance[i] records how part i was obtained: "prime-power" (trial
    division), "cofactor" (the unfactored remainder), or "user".  Any other
    tag is refused, as is a part that is not an int; neither is converted.
    """

    coprime_parts: tuple[int, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.coprime_parts)
        for p in parts:
            if not isinstance(p, int):
                raise ValueError(f"parts must be ints, got {type(p).__name__}")
        prov = tuple(self.provenance)
        for t in prov:
            if t not in _PROVENANCE:
                raise ValueError(f"provenance tags must be one of {', '.join(_PROVENANCE)}, got {t!r}")
        if len(parts) != len(prov):
            raise ValueError("need exactly one provenance tag per part")
        if any(p <= 1 for p in parts):
            raise ValueError("every part must exceed 1")
        object.__setattr__(self, "coprime_parts", parts)
        object.__setattr__(self, "provenance", prov)

    def validate_for(self, modulus: int) -> None:
        """Raise ValueError unless the parts are pairwise coprime with product `modulus`."""
        prod = 1
        for i, p in enumerate(self.coprime_parts):
            for q in self.coprime_parts[i + 1 :]:
                if math.gcd(p, q) != 1:
                    raise ValueError(f"parts {p} and {q} are not coprime")
            prod *= p
        if prod != modulus:
            raise ValueError("the product of the parts must equal the modulus")


_SIEVE_CAP = 10_000_000
_BLOCK = 256  # primes per gcd in trial_division


@lru_cache(maxsize=8)
def _primes_upto(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return tuple(itertools.compress(range(bound + 1), sieve))


@lru_cache(maxsize=4096)
def _block_product(bound: int, start: int) -> int:
    """The product of the _BLOCK primes up to `bound` from index `start` on."""
    return math.prod(_primes_upto(bound)[start : start + _BLOCK])


def trial_division(R: int, bound: int = 100_000) -> PartialFactorization:
    """Split R into prime powers p^e for p <= bound plus one unfactored cofactor.

    The parts are pairwise coprime and multiply to R (none at all for R = 1).
    If the remainder after stripping small primes is 1 there is no cofactor
    part.  The primes go in blocks of _BLOCK, and a block is scanned prime by
    prime only when the gcd of the remainder with its product exceeds 1.
    """
    if R < 1:
        raise ValueError("trial division needs an integer >= 1")
    if not 2 <= bound <= _SIEVE_CAP:
        raise ValueError(f"the trial-division bound must be from 2 to {_SIEVE_CAP}, got {bound}")
    parts: list[int] = []
    prov: list[str] = []
    rest = R
    primes = _primes_upto(bound)
    for start in range(0, len(primes), _BLOCK):
        if rest == 1 or primes[start] ** 2 > rest:
            break
        if math.gcd(rest, _block_product(bound, start)) == 1:
            continue
        for p in primes[start : start + _BLOCK]:
            if rest == 1 or p * p > rest:
                break
            if rest % p == 0:
                q = p
                rest //= p
                while rest % p == 0:
                    q *= p
                    rest //= p
                parts.append(q)
                prov.append("prime-power")
    if rest > 1:
        # a remainder <= bound survived division by every prime up to its square root: prime
        parts.append(rest)
        prov.append("prime-power" if rest <= bound else "cofactor")
    return PartialFactorization(tuple(parts), tuple(prov))


def exact_log_gcd(lift: MapLift, Q: ProjectivePoint, precision_bits: int | None = None) -> mp.mpf:
    """log gcd(F(Q), G(Q)) from the two full-size exact evaluations.

    Oracle-grade only: along an orbit the evaluations grow like d^n digits,
    so this is for tests and single steps; use nonarch_height for series.
    """
    g = math.gcd(evaluate(lift.F, Q.x, Q.y), evaluate(lift.G, Q.x, Q.y))
    bits = resolve_precision_bits(precision_bits, lift.degree, 1, lift.coeff_norm)
    return mp.make_mpf(_log_int(g, bits))


def _block_size(d: int) -> int:
    """Paterson-Stockmeyer block size for degree d: the k in 1..d+1 that needs
    the fewest full-size products to evaluate a pair of forms (ties go to the
    larger k, which has fewer blocks to reduce).

    The count mirrors _form_evaluator: the powers x^2..x^k and y^2..y^k, the
    k-2 inner baby monomials, the s-2 inner ones of a shorter leading block
    of s coefficients, the B-2 shared powers Y^(b_j) and two products per
    form per giant step.  A single block (k = d+1) needs the powers up to d
    and the d-1 inner monomials only.
    """

    def products(k: int) -> int:
        blocks = -(-(d + 1) // k)
        if blocks == 1:
            return 3 * (d - 1)
        lead = d + 1 - (blocks - 1) * k
        short = max(lead - 2, 0) if lead < k else 0
        return 2 * (k - 1) + max(k - 2, 0) + short + (blocks - 2) + 4 * (blocks - 1)

    return min(range(d + 1, 0, -1), key=products)


def _form_evaluator(forms: tuple[BinaryForm, ...]):
    """ev(x, y, m, red) -> the values of all `forms` at (x, y), each reduced into [0, m), for m >= 1.

    One homogeneous Paterson-Stockmeyer walk serves every form.  The d+1
    coefficients split into a leading block of s <= k and blocks of k; with
    the baby monomials x^(k-1-r)*y^r each block is a scalar dot product,
    reduced once, and the giant steps run Horner in X^k,

        acc = red(acc*X^k + (block_j % m)*Y^(b_j)),   b_j = s + (j-1)*k,

    with the powers Y^(b_j) shared by every form.  A single block (k = d+1)
    leaves its top powers and monomials unreduced, each below m^2, and
    reduces each form's sum once.

    red(v) must return v % m.  It gets every full-size value: products of
    two residues, sums of two such products, and the single block's sums,
    which stay below (d+1) * max|c| * m^2 in absolute value and may be
    negative.  Small-quotient reductions use `%` directly.

    The forms must share one degree d, and k = _block_size(d).  The plan (k
    and the coefficient slices) is built here, once, so callers that
    evaluate at many points build the evaluator once too.
    """
    d = forms[0].degree
    if any(f.degree != d for f in forms):
        raise ValueError("forms evaluated together must share one degree")
    k = _block_size(d)
    nblocks = -(-(d + 1) // k)
    s = d + 1 - (nblocks - 1) * k
    leads = [f.coefficients[:s] for f in forms]
    blocks = [
        [f.coefficients[i : i + k] for i in range(s, d + 1, k)] for f in forms
    ]
    lazy = nblocks == 1
    top = k - lazy  # highest power of x and y the walk needs
    mul = operator.mul

    def ev(x: int, y: int, m: int, red) -> list[int]:
        x %= m
        y %= m
        xp, yp = [1, x], [1, y]
        for _ in range(top - 1 - lazy):
            xp.append(red(xp[-1] * x))
            yp.append(red(yp[-1] * y))
        if lazy:
            if d > 1:
                xp.append(xp[-1] * x)
                yp.append(yp[-1] * y)
            mono = [xp[d - r] * yp[r] for r in range(d + 1)]
            return [red(sum(map(mul, cs, mono))) for cs in leads]
        baby = [red(xp[k - 1 - r] * yp[r]) for r in range(k)]
        short = baby if s == k else [red(xp[s - 1 - r] * yp[r]) for r in range(s)]
        accs = [sum(map(mul, cs, short)) % m for cs in leads]
        for j in range(nblocks - 1):
            yb = red(yb * yp[k]) if j else yp[s]
            for i, fb in enumerate(blocks):
                block = sum(map(mul, fb[j], baby))
                accs[i] = red(accs[i] * xp[k] + block % m * yb)
        return accs

    return ev


# Moduli of at least this many bits reduce by Barrett's method (one product
# by a carried reciprocal and one by the modulus) instead of `%`, whose
# schoolbook division is quadratic where Karatsuba multiplication is not.
# Timed on products of two residues (Python 3.11, 2 cores), `%` against
# Barrett: 39 against 58 us at 4000 bits, 223 against 246 us at 10000,
# 326 against 310 us at 12000, 2.36 against 1.56 ms at 32674.
_BARRETT_MIN_BITS = 12_000

# largest d * bits(top modulus) stepped by exact Horner (crossover table in CHANGES.md)
_HORNER_MAX_BITS = 2048

# smallest degree and d * bits(top modulus) whose walk steps scale the pair to
# a coordinate 1 first (crossover table in CHANGES.md)
_SCALE_MIN_DEGREE = 12
_SCALE_MIN_BITS = 40_000


def _headroom(forms) -> int:
    """E with every value _form_evaluator(forms) reduces mod M below 2^(2n+E)
    in absolute value, n = M.bit_length(): they stay below (d+1)*max|c|*M^2."""
    return max(f.norm for f in forms).bit_length() + (forms[0].degree + 1).bit_length() + 2


def _reciprocals(top: int, modulus: int, count: int, extra: int):
    """(M, mu) for the first `count` >= 1 links of the chain M = top,
    top/modulus, top/modulus^2, ...

    mu approximates floor(2^(2n+extra)/M), n = M.bit_length(), from below by
    at most a few units; it is None when M is below _BARRETT_MIN_BITS.  Only
    the first Barrett step divides.  After it, since M' = M/modulus exactly,
    mu' = (mu*modulus) >> 2s with s = n - n' >= bits(modulus) - 1, so the
    factor modulus/4^s is below 1: an error e becomes at most
    e*modulus/4^s + 1 and stays bounded down the chain.  The links from the
    first below _BARRETT_MIN_BITS on come from C iterators, as cheap as an
    inline `//=`.
    """
    links = itertools.accumulate(itertools.repeat(modulus, count - 1), operator.floordiv, initial=top)

    def barrett():
        mu, n = None, top.bit_length()
        for M in links:
            n_prev, n = n, M.bit_length()
            if n < _BARRETT_MIN_BITS:
                yield M, None
                return
            mu = (1 << (2 * n + extra)) // M if mu is None else (mu * modulus) >> (2 * (n_prev - n))
            yield M, mu

    return itertools.chain(barrett(), zip(links, itertools.repeat(None)))


def _reducer(M: int, mu: int | None, extra: int):
    """red(v) -> v % M, exactly, for |v| < 2^(2n+extra), n = M.bit_length().

    Without a reciprocal this is M.__rmod__, a builtin with no Python frame.
    With one, the quotient estimate is off by a few units whatever mu's
    error, and the two loops correct it in either direction.
    """
    if mu is None:
        return M.__rmod__
    shift = M.bit_length() - 1
    back = M.bit_length() + extra + 1

    def red(v: int) -> int:
        r = v - (((v >> shift) * mu) >> back) * M
        while r >= M:
            r -= M
        while r < 0:
            r += M
        return r

    return red


def _unit_chart(x: int, y: int, modulus: int, e: int, live: int, red) -> tuple[int, int, bool]:
    """A unit multiple of the pair (x, y) mod live = modulus^e in the chart Y = 1,
    as (w, 1, flip): the values of F and G there are those of the reversed forms
    at (w, 1) when flip is set, else of F and G themselves.

    That is (x/y, 1, False) when y is a unit mod modulus, else (y/x, 1, True)
    when x is: F(1, y/x) = F^rev(y/x, 1), with F^rev(X, Y) = F(Y, X).  When
    neither is a unit it is the pair itself, (x, y, False).  The inverse
    starts as u^-1 mod modulus and is lifted by Newton steps z <- z(2 - u z)
    mod modulus^k at k = ..., ceil(e/2), e; only the O(log e) powers and
    residues of u on that chain are held.  red(v) = v % live for every
    |v| < live^2, as _reducer's is.
    """
    for u, v, flip in ((y, x, False), (x, y, True)):
        try:
            z = pow(u % modulus, -1, modulus)
        except ValueError:  # u shares a factor with modulus
            continue
        levels = []
        k, M, reduce = e, live, red
        while k > 1:
            u %= M
            levels.append((u, reduce))
            k = (k + 1) // 2
            M = modulus**k
            reduce = M.__rmod__
        for u, reduce in reversed(levels):
            z = reduce(z * (2 - reduce(u * z)))
        return red(v % live * z), 1, flip
    return x, y, False


def _gcd_loop(forms, P: ProjectivePoint, modulus: int, top_power: int, terms: int) -> list[int]:
    """Reduced-orbit gcd extraction of the pair forms = (F, G) against one modulus.

    Step i works modulo live = modulus^(terms-i), the links of one
    _reciprocals chain, so only one big power is ever held.  gcd(m, 0, 0) = m
    is correct: the true orbit gcd divides the modulus, so a doubly-vanishing
    residue pair means the gcd is the whole current part.  The loop starts
    from P, signs kept, and one rule picks each step's kernel: when the run
    is small (d * bits(top_power) <= _HORNER_MAX_BITS, where interpreter
    overhead dominates) and |x|, y < top_power, which after the first step
    always holds, or when this step's values fit below the modulus
    (d * bits(max(|x|, y)) <= bits(live)), it is exact Horner on F and G,
    then one `%` each; otherwise the Paterson-Stockmeyer walk, whose plans
    are built at its first step.  From degree _SCALE_MIN_DEGREE and
    d * bits(top_power) >= _SCALE_MIN_BITS every walk step first scales the
    pair by a unit mod the modulus to a Y coordinate of 1 (_unit_chart), so
    the products by the powers of Y cost linear time; a pair whose X
    coordinate is the unit becomes (1, w), which the reversed forms' plan
    evaluates at (w, 1) at the same cost.  A unit c scales both values by
    c^d, so gcd(modulus, c^d F, c^d G) = gcd(modulus, F, G) and the next pair
    is a unit multiple of the exact quotient pair reduced: every kernel gives
    the same g-sequence.
    """
    (f0, g0), *pairs = zip(*(f.coefficients for f in forms))
    d = len(pairs)
    top_bits = d * top_power.bit_length()
    # a small run steps exactly on any pair below top_power: only a huge P walks
    small = top_power if top_bits <= _HORNER_MAX_BITS else 0
    scale = d >= _SCALE_MIN_DEGREE and top_bits >= _SCALE_MIN_BITS
    # only Barrett links use the headroom, and a top below them has none
    extra = _headroom(forms) if top_power.bit_length() >= _BARRETT_MIN_BITS else 0
    plans = []  # plans[flip]: the forms, and when charts are on the reversed forms too
    x, y = P.x, P.y
    out: list[int] = []
    for live, mu in _reciprocals(top_power, modulus, terms, extra):
        if abs(x) < small and y < small or d * max(abs(x), y).bit_length() <= live.bit_length():
            fx, gy, yp = f0, g0, 1
            for a, b in pairs:
                yp *= y
                fx, gy = fx * x + a * yp, gy * x + b * yp
            fx, gy = fx % live, gy % live
        else:
            if not plans:
                plans.append(_form_evaluator(forms))
                if scale:
                    plans.append(_form_evaluator(tuple(BinaryForm(f.coefficients[::-1]) for f in forms)))
            red = _reducer(live, mu, extra)
            flip = False
            if scale:  # live = modulus^(terms - len(out))
                x, y, flip = _unit_chart(x, y, modulus, terms - len(out), live, red)
            fx, gy = plans[flip](x, y, live, red)
        # modulus first: math.gcd folds left to right, and reducing each
        # full-size residue against the modulus is the cheap first step
        g = math.gcd(modulus, fx, gy)
        out.append(g)
        x, y = fx // g, gy // g
    return out


def nonarch_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    precision_bits: int | None = None,
    *,
    parts: PartialFactorization | None = None,
) -> NonArchResult:
    """Truncated nonarchimedean series at P via the reduced-orbit gcd loop.

    The loop runs once per coprime part of |Res| (the single part |Res|
    when `parts` is None).  Coprimality makes gcds multiplicative, so the
    per-part gcds multiply back into exactly the g-sequence of the
    single-modulus run; modulus_bits reports the largest per-part working
    modulus.  A unit resultant needs no special case: every gcd is
    gcd(1, 0, 0) = 1, and the value and the tail are 0.  tail_bound bounds
    the discarded tail only: the roundings to nearest at bits of each
    logarithm (g rounded, then its log), its product by W_g, the sum and the
    division are not charged to it or to error_bound yet (ROADMAP item 3).
    """
    d = lift.degree
    bits = resolve_precision_bits(precision_bits, d, terms, lift.coeff_norm)
    R = abs(lift.resultant)
    if parts is not None:
        if not isinstance(parts, PartialFactorization):
            raise TypeError(f"parts must be a PartialFactorization or None, got {type(parts).__name__}")
        parts.validate_for(R)
    gs = [1] * terms
    max_bits = 1
    for part in parts.coprime_parts if parts is not None else (R,):
        top = part**terms
        max_bits = max(max_bits, top.bit_length())
        for i, g in enumerate(_gcd_loop((lift.F, lift.G), P, part, top, terms)):
            gs[i] *= g
    # one logarithm per distinct g, with the exact weight
    # W_g = sum over the steps i with g_i = g of d^(terms-1-i)
    dn = d**terms
    weights: dict[int, int] = {}
    w = dn
    for g in gs:
        w //= d
        if g > 1:
            weights[g] = weights.get(g, 0) + w
    rnd = round_nearest
    total = mpf_sum([mpf_mul_int(_log_int(g, bits), w, bits, rnd) for g, w in weights.items()], bits, rnd)
    value = mp.make_mpf(mpf_div(total, from_int(dn), bits, rnd))
    tail = mp.make_mpf(mpf_div(_log_int(R, bits), from_int((d - 1) * dn), bits, rnd))
    return NonArchResult(value, tuple(gs), tail, terms, max_bits, bits)


def nonarch_height_factored(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    parts: PartialFactorization,
    precision_bits: int | None = None,
) -> NonArchResult:
    """Alias of nonarch_height that takes the coprime parts positionally."""
    return nonarch_height(lift, P, terms, precision_bits, parts=parts)
