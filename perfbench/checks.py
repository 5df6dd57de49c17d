"""Output checks for benchmark jobs, independent of the code they check.

Every job's JSON report is checked outside the timed phase:

* the reported point, degree and naive height match the job's input;
* the resultant the program split (the product of its factoring parts) has
  the reported bit length and equals |Res(F, G)| modulo a 61-bit prime,
  computed here by a polynomial Euclid over GF(p);
* every g_i divides |Res|, and g_0 and g_1 equal the gcds of the exact
  orbit, computed here from exact integer evaluations;
* the nonarchimedean value is sum log(g_i)/d^(i+1) recomputed from the
  reported g-sequence, canonical = naive - arch - nonarch,
  error_bound = the sum of both tail bounds, canonical >= -error_bound and
  |arch| <= step_bound/(d - 1);
* on the paper fixtures, the values match the catalog references to the
  digits shown and the g-sequences follow their known patterns.

A sample of jobs also gets the archimedean series recomputed here.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

P61 = (1 << 61) - 1

# Catalog reference values (fixtures.py) for 50-term runs.  The catalog
# string for the ex2 canonical height has 35 decimals, but a 70-term,
# 1000-bit run (error bound 6e-127) agrees with the 50-term value to 45
# digits and differs from the catalog in its 34th and 35th decimals
# (...789898 against ...78925), so the reference keeps the 33 that hold.
REFERENCE = {
    "ex1": {
        "nonarch": "0.044907161659276960113044136254",
        "arch": "-0.013757185585214127675440651473",
        "canonical": "1.5782879363600375421631558484",
    },
    "ex2": {
        "nonarch": "0.0014769884100219430907588636039",
        "arch": "-0.0014773310580301870814703316397",
        "canonical": "0.000000342648008243990711468035789",
    },
    "ex3": {
        "nonarch": "0.62900702",
        "arch": "-308.06749879",
        "canonical": "307.43849177",
    },
    "ex4": {
        "nonarch": "133.0260806",
        "arch": "-532.1043224",
        "canonical": "931.1825642",
    },
}


def _strip(poly: list[int]) -> list[int]:
    i = 0
    while i < len(poly) and poly[i] == 0:
        i += 1
    return poly[i:]


def _polymod(f: list[int], g: list[int], p: int) -> list[int]:
    f = list(f)
    n = len(g) - 1
    inv = pow(g[0], -1, p)
    for i in range(len(f) - n):
        c = f[i] * inv % p
        if c:
            for j in range(1, n + 1):
                f[i + j] = (f[i + j] - c * g[j]) % p
    return _strip(f[len(f) - n :])


def _poly_resultant(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) mod p for nonzero polynomials with nonzero leading coefficients."""
    r = 1
    while True:
        m, n = len(f) - 1, len(g) - 1
        if m == 0:
            return r * pow(f[0], n, p) % p
        if n == 0:
            return r * pow(g[0], m, p) % p
        # Res(f, g) = (-1)^(mn) Res(g, f) = (-1)^(mn) lc(g)^(m-k) Res(g, f mod g)
        h = _polymod(f, g, p)
        if not h:
            return 0
        if m * n % 2:
            r = -r
        r = r * pow(g[0], m - (len(h) - 1), p) % p
        f, g = g, h


def resultant_mod(F, G, p: int) -> int:
    """Res(F, G) mod p, up to sign, of two binary forms of one formal degree d.

    Coefficient i multiplies X^(d-i) Y^i.  Setting Y = 1 drops the formal
    degree of a form whose X^d coefficient vanishes mod p; the Sylvester
    resultant then carries the other leading coefficient to the power of
    the drop, and is 0 when both forms vanish at [1, 0].
    """
    d = len(F) - 1
    f = _strip([c % p for c in F])
    g = _strip([c % p for c in G])
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m < d and n < d:
        return 0
    lead = pow(f[0], d - n, p) if m == d else pow(g[0], d - m, p)
    return lead * _poly_resultant(f, g, p) % p


def _evaluate(coeffs, x: int, y: int) -> int:
    acc, yp = 0, 1
    for c in coeffs:
        acc = acc * x + c * yp
        yp *= y
    return acc


def _normalized(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y


def exact_gcds(job) -> list[int]:
    """g_0 and g_1 of the orbit, from exact, unreduced evaluations."""
    x, y = _normalized(job.x, job.y)
    out = []
    for _ in range(2):
        fx, gy = _evaluate(job.F, x, y), _evaluate(job.G, x, y)
        g = math.gcd(fx, gy)
        out.append(g)
        x, y = fx // g, gy // g
    return out


def arch_series(job, bits: int) -> mp.mpf:
    """Truncated archimedean series by renormalized iteration, summed term by term."""
    d = len(job.F) - 1
    x, y = _normalized(job.x, job.y)
    with mp.workprec(bits):
        scale = mp.mpf(max(abs(x), abs(y)))
        u, v = mp.mpf(x) / scale, mp.mpf(y) / scale
        total = mp.mpf(0)
        for n in range(job.spec.terms):
            fa = mp.fsum(c * u ** (d - i) * v**i for i, c in enumerate(job.F) if c)
            ga = mp.fsum(c * u ** (d - i) * v**i for i, c in enumerate(job.G) if c)
            m = max(abs(fa), abs(ga))
            total -= mp.log(m) / mp.mpf(d) ** (n + 1)
            u, v = fa / m, ga / m
        return total


def _decimals(text: str) -> int:
    return len(text.partition(".")[2])


def _gcd_pattern(fid: str, gs: list[int], job) -> str | None:
    if fid == "ex1":
        want = [36, 2, 12] + [2 if i % 2 else 4 for i in range(3, len(gs))]
        if gs != want[: len(gs)]:
            return "ex1 g-sequence is not 36, 2, 12, then alternating 2 and 4"
    elif fid == "ex2":
        if not set(gs) <= {1, 19, 27, 513}:
            return f"ex2 g values {sorted(set(gs))} outside {{1, 19, 27, 513}}"
        if any(gs[i] != gs[i + 20] for i in range(len(gs) - 20)):
            return "ex2 g-sequence is not 20-periodic"
    elif fid == "ex4":
        a = job.F[0]
        if gs[1] != a or any(g != 1 for i, g in enumerate(gs) if i != 1):
            return "ex4 g-sequence is not g_1 = a and every other g_i = 1"
    return None


def fingerprint(doc: dict) -> tuple:
    """The result fields of a report; a repeated job must reproduce them exactly."""
    na, ar = doc["nonarch"], doc["arch"]
    return (
        doc["point"],
        doc["precision_bits"],
        doc["naive_height"],
        na["value"],
        na["tail_bound"],
        tuple(na["gcd_sequence"]),
        ar["value"],
        ar["tail_bound"],
        doc["canonical_height"],
        doc["error_bound"],
    )


def resultant_parts(doc: dict) -> tuple[int, ...]:
    fac = doc["factoring"]
    return tuple(int(p["decimal"]) for p in fac["parts"]) if fac else ()


def check_doc(job, doc: dict) -> list[str]:
    """Failures of one parsed report against its job; empty when it is correct."""
    fails: list[str] = []
    d = len(job.F) - 1
    x, y = _normalized(job.x, job.y)
    if doc["point"] != f"[{x}, {y}]":
        fails.append(f"point {doc['point']} is not [{x}, {y}]")
    if doc["map"]["degree"] != d:
        fails.append(f"degree {doc['map']['degree']} is not {d}")

    R = math.prod(resultant_parts(doc))
    if R.bit_length() != doc["map"]["resultant_bits"]:
        fails.append("factoring parts do not multiply to a resultant of the reported size")
    if resultant_mod(job.F, job.G, P61) not in (R % P61, -R % P61):
        fails.append("factoring parts do not multiply to |Res(F, G)|")

    na, ar = doc["nonarch"], doc["arch"]
    gs = [int(g) for g in na["gcd_sequence"]]
    terms = job.spec.terms
    if len(gs) != terms or na["terms"] != terms or ar["terms"] != terms:
        fails.append("term counts differ from the job")
        return fails
    if any(g < 1 or R % g for g in gs):
        fails.append("some g_i does not divide |Res|")
    exact = exact_gcds(job)
    if gs[:2] != exact:
        fails.append(f"g_0, g_1 = {gs[:2]} differ from the exact orbit {exact}")

    fid = job.label.partition("@")[0]
    ref = REFERENCE.get(fid)
    bits = doc["precision_bits"]
    with mp.workprec(bits):
        naive = mp.mpf(doc["naive_height"])
        nonarch, arch = mp.mpf(na["value"]), mp.mpf(ar["value"])
        canonical, err = mp.mpf(doc["canonical_height"]), mp.mpf(doc["error_bound"])
        tol = mp.mpf(2) ** (16 - bits) * (1 + abs(naive) + abs(arch) + abs(nonarch))
        if abs(naive - mp.log(max(abs(x), abs(y)))) > tol:
            fails.append("naive height is not log max(|x|, |y|)")
        series = mp.fsum(mp.log(g) / mp.mpf(d) ** (i + 1) for i, g in enumerate(gs) if g > 1)
        if abs(series - nonarch) > tol:
            fails.append("nonarch value is not the sum of log(g_i)/d^(i+1)")
        if abs(canonical - (naive - arch - nonarch)) > tol:
            fails.append("canonical height is not naive - arch - nonarch")
        if abs(err - mp.mpf(na["tail_bound"]) - mp.mpf(ar["tail_bound"])) > tol:
            fails.append("error bound is not the sum of the tail bounds")
        if canonical < -err:
            fails.append("canonical height is below -error_bound")
        if abs(arch) > mp.mpf(ar["step_bound"]) / (d - 1) + mp.mpf(ar["tail_bound"]):
            fails.append("arch value exceeds step_bound/(d - 1)")
        if ref is not None and terms == 50:
            for key, value in (("nonarch", nonarch), ("arch", arch), ("canonical", canonical)):
                shown = ref[key]
                if abs(value - mp.mpf(shown)) > mp.mpf(10) ** -_decimals(shown):
                    fails.append(f"{fid} {key} does not match {shown}")
    if ref is not None:
        pattern = _gcd_pattern(fid, gs, job)
        if pattern:
            fails.append(pattern)
    return fails


def check_report(job, code: int, report: str) -> tuple[dict | None, list[str]]:
    """The parsed report and its failures; the failures are empty when it is correct."""
    if code != 0:
        return None, [f"exit code {code}: {report[:200]}"]
    try:
        doc = json.loads(report)
        return doc, check_doc(job, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return None, [f"report is malformed: {exc!r}"]


def check_arch(job, doc: dict) -> list[str]:
    """Recompute the archimedean series; it must agree within the reported tail bound."""
    bits = doc["precision_bits"]
    with mp.workprec(bits):
        gap = abs(arch_series(job, bits) - mp.mpf(doc["arch"]["value"]))
        if gap > mp.mpf(doc["arch"]["tail_bound"]):
            return [f"arch value off by {mp.nstr(gap, 5)} from an independent recomputation"]
    return []


def check_terms_sweep(docs: dict[str, dict]) -> list[str]:
    """Heights of one fixture at 50 and 100 terms differ by at most the sum of their bounds."""
    fails = []
    for fid in ("ex3", "ex4"):
        a, b = docs.get(f"{fid}@50"), docs.get(f"{fid}@100")
        if a is None or b is None:
            continue
        bits = max(a["precision_bits"], b["precision_bits"])
        with mp.workprec(bits):
            gap = abs(mp.mpf(a["canonical_height"]) - mp.mpf(b["canonical_height"]))
            if gap > mp.mpf(a["error_bound"]) + mp.mpf(b["error_bound"]):
                fails.append(f"{fid} heights at 50 and 100 terms differ beyond their bounds")
    return fails


def self_test(job, report: str) -> list[str]:
    """Corrupt a correct report two ways; return the corruptions the checker missed."""
    missed = []
    doc = json.loads(report)
    gs = doc["nonarch"]["gcd_sequence"]
    gs[1] = str(int(gs[1]) * 2)
    if not check_report(job, 0, json.dumps(doc))[1]:
        missed.append("perturbed g-sequence")
    doc = json.loads(report)
    bits = doc["precision_bits"]
    with mp.workprec(bits):
        shifted = mp.mpf(doc["canonical_height"]) + mp.mpf("1e-6")
        doc["canonical_height"] = mp.nstr(shifted, int(bits * 0.30103))
    if not check_report(job, 0, json.dumps(doc))[1]:
        missed.append("shifted height")
    return missed
