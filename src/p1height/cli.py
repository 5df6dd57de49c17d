"""Command-line front end.

One invocation runs one job: a map (inline text, file, or built-in fixture)
plus a point, through the canonical height machinery, reporting the naive
height, both series values with their tail bounds, the assembled canonical
height with its error bound, and timing.  The text report prints values to
as many significant digits as the precision supports, up to 32, and bounds
rounded up to 3 digits.  Structured output is a single JSON document whose
numeric fields are decimal strings with every digit, because the values
routinely carry more digits than any fixed-width float holds.

Exit codes: 0 success, 2 input could not be parsed or validated (a too-low
--precision included), 3 the two forms share a projective root (not a
morphism), 4 a resource budget was exceeded, Python's int<->str digit limit
included, 5 stdout was closed before the report was written.  Error paths
print nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
import time
from dataclasses import dataclass
from functools import partial

from .fixtures import fixture_ids, load_fixture
from .forms import BudgetExceededError, NotAMorphismError, ParseError, parse_map, parse_point
from .height import canonical_height, canonical_height_oracle
from .nonarch import nonarch_height
from .numerics import (
    _ceil_decimal_string, _check_positive_int, check_run_parameters, decimal_digits,
    int_str_digits_limit, to_decimal_string,
)

__all__ = ["JobSpec", "main", "run"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_MORPHISM = 3
EXIT_BUDGET = 4
EXIT_CLOSED_STDOUT = 5

_TEXT_DIGITS = 32

# perfbench/spans.py wraps this name; nothing calls it, and ROADMAP item 11's
# benchmark half deletes it
trial_division = nonarch_height


@dataclass
class JobSpec:
    """One CLI job: exactly one map source, a point, and the run options.

    The fields are the argparse dests of the CLI options.
    """

    map_text: str | None = None
    map_file: str | None = None
    fixture: str | None = None
    point_text: str | None = None
    terms: int = 50
    precision_bits: int | None = None
    emit_g_sequence: bool = False
    oracle_n: int | None = None
    output_format: str = "text"


def run(spec: JobSpec) -> tuple[int, str]:
    """Execute one job and return (exit_code, report or error message).

    Nothing is printed from here and the report is built only after the
    whole computation succeeded, so failures produce no partial output.
    """
    try:
        return EXIT_OK, _execute(spec)
    except NotAMorphismError as exc:
        return EXIT_NOT_MORPHISM, f"error: {exc}"
    except BudgetExceededError as exc:
        return EXIT_BUDGET, f"error: {exc}"
    except (ParseError, ValueError, OSError) as exc:
        return EXIT_PARSE, f"error: {exc}"


def _execute(spec: JobSpec) -> str:
    sources = [s for s in (spec.map_text, spec.map_file, spec.fixture) if s]
    if len(sources) != 1:
        raise ValueError("exactly one of --map, --map-file, or --fixture is required")
    check_run_parameters(spec.terms, spec.precision_bits)
    if spec.oracle_n is not None:
        _check_positive_int(spec.oracle_n, "--oracle")
    if spec.output_format not in ("text", "json"):
        raise ValueError("--format must be text or json")

    started = time.perf_counter()
    if spec.fixture:
        try:
            fixture = load_fixture(spec.fixture)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        lift = fixture.lift()
        point = parse_point(spec.point_text) if spec.point_text else fixture.point()
    else:
        if spec.map_file:
            with open(spec.map_file, encoding="utf-8") as fh:
                map_text = fh.read()
        else:
            map_text = spec.map_text or ""
        lift = parse_map(map_text)
        if not spec.point_text:
            raise ValueError("--point is required when the map is given directly")
        point = parse_point(spec.point_text)
    _check_int_str_digits(lift, point)

    breakdown = canonical_height(lift, point, terms=spec.terms, precision_bits=spec.precision_bits)
    oracle_seq = None
    if spec.oracle_n is not None:
        oracle_seq = canonical_height_oracle(
            lift, point, spec.oracle_n, precision_bits=breakdown.precision_bits
        )
    elapsed = time.perf_counter() - started

    job = (spec, lift, point, breakdown, oracle_seq, elapsed)
    if spec.output_format == "json":
        return json.dumps(_document(*job), indent=2)
    return _render_text(*job)


def _check_int_str_digits(lift, point) -> None:
    """Raise BudgetExceededError when an integer the report prints in decimal
    (|Res|, coeff_norm, a coordinate) may pass Python's int<->str limit."""
    limit = int_str_digits_limit()
    digits = max(decimal_digits(n) for n in (lift.resultant, lift.coeff_norm, point.x, point.y))
    if limit is not None and digits > limit:
        raise BudgetExceededError(
            f"the report would print an integer of up to {digits} decimal digits, over "
            f"Python's int<->str conversion limit of {limit} digits"
        )


def _short_int(n: int) -> str:
    """n >= 0 in full up to 12 digits, else its first four as d.ddde+N."""
    s = str(n)
    return s if len(s) <= 12 else f"{s[0]}.{s[1:4]}e+{len(s) - 1}"


def _document(spec, lift, point, breakdown, oracle_seq, elapsed) -> dict:
    bits, na, ar = breakdown.precision_bits, breakdown.nonarch, breakdown.arch
    R = abs(lift.resultant)
    dec = partial(to_decimal_string, precision_bits=bits)
    doc: dict = {
        "map": {
            "degree": lift.degree,
            "coeff_norm": str(lift.coeff_norm),
            "resultant_bits": abs(lift.resultant).bit_length(),
        },
        "point": str(point),
        "precision_bits": bits,
        "naive_height": dec(breakdown.naive),
        "nonarch": {
            "terms": na.terms,
            "value": dec(na.value),
            "tail_bound": dec(na.tail_bound),
            "modulus_bits": na.modulus_bits,
        },
        "arch": {
            "terms": ar.terms,
            "value": dec(ar.value),
            "tail_bound": dec(ar.tail_bound),
            "step_bound": dec(ar.step_bound),
        },
        "canonical_height": dec(breakdown.canonical),
        "error_bound": dec(breakdown.error_bound),
        # the one part the gcd loop ran against, |Res| unsplit; readers that
        # multiply the parts back into |Res| keep working
        "factoring": None if R == 1 else {
            "parts": [{"decimal": str(R), "bits": R.bit_length(), "provenance": "cofactor"}],
        },
        "elapsed_seconds": f"{elapsed:.3f}",
    }
    if spec.emit_g_sequence:
        doc["nonarch"]["gcd_sequence"] = [str(g) for g in na.gcd_sequence]
    if oracle_seq is not None:
        doc["oracle"] = [dec(v) for v in oracle_seq]
    return doc


def _render_text(spec, lift, point, breakdown, oracle_seq, elapsed) -> str:
    """The text report, from the job's values: as many significant digits as the
    precision supports, up to _TEXT_DIGITS, and bounds rounded up to 3 digits, so
    none prints below the bound computed; the JSON report carries every digit."""
    bits, na, ar = breakdown.precision_bits, breakdown.nonarch, breakdown.arch
    short = partial(to_decimal_string, precision_bits=bits, max_digits=_TEXT_DIGITS)
    bound = partial(_ceil_decimal_string, digits=3)
    pt = str(point)
    lines = [
        f"map: degree {lift.degree}, coefficient norm {_short_int(lift.coeff_norm)}, "
        f"resultant {abs(lift.resultant).bit_length()} bits",
        f"point: {pt if len(pt) <= 64 else pt[:60] + '...]'}",
        f"run: {na.terms} nonarch terms, {ar.terms} arch terms, precision {bits} bits",
    ]
    lines += [
        "",
        f"naive height     = {short(breakdown.naive)}",
        f"nonarch series   = {short(na.value)}   [tail <= {bound(na.tail_bound)}]",
        f"arch series      = {short(ar.value)}   [tail <= {bound(ar.tail_bound)}]",
        f"canonical height = {short(breakdown.canonical)}   [error <= {bound(breakdown.error_bound)}]",
        "",
        f"working modulus: {na.modulus_bits} bits",
    ]
    if spec.emit_g_sequence:
        lines.append("gcd sequence: " + ", ".join(map(str, na.gcd_sequence)))
    if oracle_seq is not None:
        lines.append("exact-orbit heights (value at step n, divided by d^n):")
        lines += [f"  n={n}: {short(v)}" for n, v in enumerate(oracle_seq)]
    lines.append(f"elapsed: {elapsed:.3f} s")
    return "\n".join(lines)


def _render_catalog(output_format: str) -> str:
    fixtures = [load_fixture(fid) for fid in fixture_ids()]
    if output_format == "json":
        return json.dumps(
            [
                {
                    "id": fx.fixture_id,
                    "title": fx.title,
                    "degree": fx.degree,
                    "point": fx.point_label,
                    "provenance": fx.provenance,
                    "expected": dict(fx.expected),
                }
                for fx in fixtures
            ],
            indent=2,
        )
    blocks = []
    for fx in fixtures:
        lines = [
            f"{fx.fixture_id}  degree {fx.degree}  point {fx.point_label}",
            f"    {fx.title}",
        ]
        lines += textwrap.wrap(fx.provenance, width=76, initial_indent="    ", subsequent_indent="    ")
        lines.append("    expected:")
        for label, value in fx.expected:
            lines.append(f"      {label}: {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p1height",
        description=(
            "Canonical heights of rational points of the projective line under "
            "degree-d self-maps, without factoring resultants."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--map",
        dest="map_text",
        metavar="TEXT",
        help="map as 'F = ...; G = ...' in X, Y or as 'phi(z) = (...)/(...)'",
    )
    source.add_argument("--map-file", metavar="PATH", help="read the map text from a file")
    source.add_argument("--fixture", metavar="ID", help="run a built-in example (see --list-fixtures)")
    parser.add_argument(
        "--point",
        dest="point_text",
        metavar="TEXT",
        help="point as '[x, y]' or a single rational; fixtures provide a default",
    )
    parser.add_argument("--terms", type=int, metavar="N", help="series terms (default %(default)s)")
    parser.add_argument(
        "--precision",
        dest="precision_bits",
        type=int,
        metavar="BITS",
        help="working precision; the default grows with terms, degree, and coefficient size",
    )
    parser.add_argument(
        "--emit-g-sequence", action="store_true", help="include the per-step gcd values in the report"
    )
    parser.add_argument(
        "--oracle",
        dest="oracle_n",
        type=int,
        metavar="N",
        help="also compute N steps of the exact-orbit definition (slow; guarded by the work budget)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        help="report format (default %(default)s; json uses decimal strings throughout)",
    )
    parser.add_argument("--list-fixtures", action="store_true", help="print the fixture catalog and exit")
    # every job option's default is JobSpec's
    parser.set_defaults(**vars(JobSpec()))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse has already printed usage or help
        return int(exc.code) if exc.code else EXIT_OK
    if args.pop("list_fixtures"):
        code, report = EXIT_OK, _render_catalog(args["output_format"])
    else:
        code, report = run(JobSpec(**args))
    try:
        print(report, file=sys.stdout if code == EXIT_OK else sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
