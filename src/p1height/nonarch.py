"""Nonarchimedean height series without factoring the resultant.

The sum of the local height contributions over all finite places equals
sum_{i<N} log(g_i)/d^(i+1), where g_i is the gcd of the i-th exact image
pair with R = |Res(F, G)|.  The key point is that the g_i survive reduction:
running the orbit modulo R^(N-i) and dividing each step's gcd out of the
reduced pair recovers exactly the g_i of the exact orbit, while keeping
every working integer below R^N.  R is never factored.  One rule picks
each step's kernel from that step's sizes alone: forms.evaluate, reduced
once, when the step's exact values fit below its modulus or a small bound,
else one Paterson-Stockmeyer walk, reduced by its chain link's reducer
(Barrett's method on large moduli).  This module holds the walk, the
modulus chain and the loop.  From degree 12 on every walk step first
scales the pair by a unit mod R so that one coordinate is 1, evaluating
the reversed forms when that is X: the values scale by that unit's d-th
power, which leaves every g_i as it is and removes most full-size
products.  The loop stops once its pairs mod R repeat within a run of
g = 1 steps (Brent's cycle test): every later g_i is then 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import mpmath as mp
from mpmath.libmp import from_int, mpf_div, mpf_mul_int, mpf_sum, round_nearest

from .forms import BinaryForm, BudgetExceededError, MapLift, ProjectivePoint, _budget, _exact_step, evaluate
from .numerics import _log_int, resolve_precision_bits

__all__ = ["NonArchResult", "exact_log_gcd", "nonarch_height"]


@dataclass(frozen=True)
class NonArchResult:
    """Truncated nonarchimedean series together with its per-step gcds.

    value: sum_{i<terms} log(gcd_sequence[i]) / d^(i+1).
    gcd_sequence: the extracted gcds; every entry divides |Res(F, G)|.
    tail_bound: log|Res| / ((d-1) d^terms), bounding the discarded tail.
    modulus_bits: bit length of the top modulus |Res|^terms, the largest the loop holds.
    precision_bits: working precision of the logarithms in `value`.
    """

    value: mp.mpf
    gcd_sequence: tuple[int, ...]
    tail_bound: mp.mpf
    terms: int
    modulus_bits: int
    precision_bits: int


def exact_log_gcd(lift: MapLift, Q: ProjectivePoint, precision_bits: int | None = None) -> mp.mpf:
    """log gcd(F(Q), G(Q)) from one exact step, forms._exact_step, charged to the work budget first.

    Oracle-grade only: along an orbit the evaluations grow like d^n digits,
    so this is for tests and single steps; use nonarch_height for series.
    """
    bits = resolve_precision_bits(precision_bits, lift.degree, 1, lift.coeff_norm)
    return mp.make_mpf(_log_int(_exact_step(lift, Q.x, Q.y, _budget(BudgetExceededError))[2], bits))


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
# Timed on products of two random residues (Python 3.11.7, 2-core x86_64,
# best of 5), `%` against Barrett: 27 against 22 us at 4000 bits, 102
# against 70 us at 8000, 229 against 132 us at 12000, 1.62 against 0.71 ms
# at 32674, so Barrett already wins below this bound (ROADMAP item 8).
_BARRETT_MIN_BITS = 12_000

# a step is exact Horner when d * bits(pair) <= max(bits(live), this); below this
# bound a step costs interpreter overhead, not arithmetic (crossover table in CHANGES.md)
_HORNER_MAX_BITS = 2048

# smallest degree whose walk steps scale the pair to a coordinate 1 first
# (crossover table in CHANGES.md)
_SCALE_MIN_DEGREE = 12


def _headroom(forms) -> int:
    """E with every value _form_evaluator(forms) reduces mod M below 2^(2n+E)
    in absolute value, n = M.bit_length(): they stay below (d+1)*max|c|*M^2."""
    return max(f.norm for f in forms).bit_length() + (forms[0].degree + 1).bit_length() + 2


def _barrett(M: int, mu: int, shift: int, back: int, v: int) -> int:
    """v % M, exactly, by Barrett's method, for |v| < 2^(2n+E), n = M.bit_length(),
    with mu a _chain reciprocal, shift = n - 1 and back = n + E + 1.  The
    quotient estimate is off by a few units whatever mu's error, and the two
    loops correct it in either direction."""
    r = v - (((v >> shift) * mu) >> back) * M
    while r >= M:
        r -= M
    while r < 0:
        r += M
    return r


def _chain(top: int, modulus: int, count: int, forms):
    """(M, red) for the first `count` >= 1 links of the chain M = top,
    top/modulus, top/modulus^2, ..., with red(v) = v % M for every value
    _form_evaluator(forms) reduces mod M.

    Below _BARRETT_MIN_BITS red is M.__rmod__, a builtin with no Python
    frame; from there on it is _barrett with a reciprocal mu that
    approximates floor(2^(2n+E)/M), E = _headroom(forms), from below by at
    most a few units.  Only the first Barrett link divides.  After it, since
    M' = M/modulus exactly, mu' = (mu*modulus) >> 2s with s = n - n' >=
    bits(modulus) - 1, so the factor modulus/4^s is below 1: an error e
    becomes at most e*modulus/4^s + 1 and stays bounded down the chain.
    """
    E = _headroom(forms)
    mu, n = None, top.bit_length()
    for i in range(count):
        M = M // modulus if i else top
        n_prev, n = n, M.bit_length()
        if n < _BARRETT_MIN_BITS:  # and so is every later link
            yield M, M.__rmod__
        else:
            mu = (1 << (2 * n + E)) // M if mu is None else (mu * modulus) >> (2 * (n_prev - n))
            yield M, partial(_barrett, M, mu, n - 1, n + E + 1)


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
    |v| < live^2, as the reducer of live's _chain link is.
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

    Step i works modulo live = modulus^(terms-i), a link of one _chain
    that comes with its reducer, so only one big power is ever held.
    gcd(m, 0, 0) = m is correct: the true orbit gcd divides the modulus, so
    a doubly-vanishing residue pair means the gcd is the whole modulus.
    The loop starts from P, signs kept, and one rule picks each step's
    kernel from that step's sizes: when its exact values are small,
    d * bits(max(|x|, y)) <= max(bits(live), _HORNER_MAX_BITS), it is
    forms.evaluate on F and G, then one `%` each; otherwise the
    Paterson-Stockmeyer walk on the reduced pair, whose plans are built at
    its first step.  From degree
    _SCALE_MIN_DEGREE on every walk step first scales the pair by a unit mod
    the modulus to a Y coordinate of 1 (_unit_chart), so the products by the
    powers of Y cost linear time; a pair whose X coordinate is the unit
    becomes (1, w), which the reversed forms' plan evaluates at (w, 1) at
    the same cost.  A unit c scales both values by c^d, so gcd(modulus,
    c^d F, c^d G) = gcd(modulus, F, G) and the next pair is a unit multiple
    of the exact quotient pair reduced: every kernel gives the same
    g-sequence.

    The loop stops early once the rest of the g-sequence is decided.  Let
    key_i = (fx % modulus, gy % modulus) be step i's values mod the modulus
    and c_i their class under multiplication by units.  g_i =
    gcd(modulus, key_i) depends only on c_i, as a unit multiple has the same
    gcd with the modulus.  When g_i = 1 the next pair is (fx, gy) itself, so
    mod the modulus (which divides every live modulus) it is key_i times the
    next step's chart unit c, or 1, and the next values are F and G at key_i
    times c^d: c_(i+1) depends only on c_i.  So if key_j = key_i for some
    j < i with g_j = ... = g_i = 1, then c_(i+k) = c_(j+k) and g_(i+k) = 1
    for every k > 0, whichever kernel, chart or flip ran.  Brent's test (one
    saved key and a doubling window of steps compared with it, cleared by
    any g > 1) finds such a repeat in O(1) memory, and the loop fills the
    remaining g_i with 1.
    """
    F, G = forms
    d = F.degree
    scale = d >= _SCALE_MIN_DEGREE
    plans = []  # plans[flip]: the forms, and when charts are on the reversed forms too
    x, y = P.x, P.y
    out: list[int] = []
    # Brent: the key saved in this run of g = 1 steps, the window of steps
    # compared with it, and the steps compared so far
    saved, window, run = None, 1, 0
    for live, red in _chain(top_power, modulus, terms, forms):
        if d * max(abs(x), y).bit_length() <= max(live.bit_length(), _HORNER_MAX_BITS):
            fx, gy = evaluate(F, x, y) % live, evaluate(G, x, y) % live
        else:
            if not plans:
                plans.append(_form_evaluator(forms))
                if scale:
                    plans.append(_form_evaluator(tuple(BinaryForm(f.coefficients[::-1]) for f in forms)))
            flip = False
            if scale:  # live = modulus^(terms - len(out))
                x, y, flip = _unit_chart(x, y, modulus, terms - len(out), live, red)
            fx, gy = plans[flip](x, y, live, red)
        # fx % modulus is the division math.gcd(modulus, fx) would make first,
        # and keys the cycle test; math.gcd folds left to right and stops at a
        # running gcd of 1, so gy is reduced only when that is not 1, and a
        # key saves gy unreduced, compared mod the modulus only once fr matches
        fr = fx % modulus
        g = math.gcd(modulus, fr, gy)
        out.append(g)
        if g > 1:
            saved = None
        elif saved is None:
            saved, window, run = (fr, gy), 1, 0
        elif fr == saved[0] and (gy - saved[1]) % modulus == 0:
            out += [1] * (terms - len(out))
            break
        else:
            run += 1
            if run == window:
                saved, window, run = (fr, gy), 2 * window, 0
        x, y = fx // g, gy // g
    return out


def nonarch_height(
    lift: MapLift,
    P: ProjectivePoint,
    terms: int,
    precision_bits: int | None = None,
) -> NonArchResult:
    """Truncated nonarchimedean series at P via the reduced-orbit gcd loop.

    The loop runs once against R = |Res|, from the top modulus R^terms;
    modulus_bits reports that modulus.  A unit resultant needs no special
    case: every gcd is gcd(1, 0, 0) = 1, and the value and the tail are 0.
    tail_bound bounds the discarded tail only: the roundings to nearest at
    bits of each logarithm (g rounded, then its log), its product by W_g,
    the sum and the division are not charged to it or to error_bound yet
    (ROADMAP item 3).
    """
    d = lift.degree
    bits = resolve_precision_bits(precision_bits, d, terms, lift.coeff_norm)
    R = abs(lift.resultant)
    top = R**terms
    gs = _gcd_loop((lift.F, lift.G), P, R, top, terms)
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
    return NonArchResult(value, tuple(gs), tail, terms, top.bit_length(), bits)
