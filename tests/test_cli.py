"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, to_str
from hypothesis import given, settings
from hypothesis import strategies as st

import p1height
import p1height.cli as cli
from p1height import forms
from p1height.cli import JobSpec, main
from p1height.fixtures import load_fixture
from p1height.forms import BinaryForm, MapLift
from p1height.height import canonical_height, canonical_height_oracle, height_identity_check
from p1height.numerics import _ceil_decimal_string

from helpers import grammar_texts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_power_map_text_report(capsys):
    code, out, err = run_cli(capsys, "--map", "phi(z) = z^2", "--point", "2", "--terms", "10")
    assert code == 0
    assert err == ""
    assert "canonical height = 0.693147180559945" in out
    assert "working modulus: 1 bits" in out
    assert "elapsed:" in out


def test_json_report_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "--map", "F = 2X^2 + 3Y^2; G = 5XY", "--point", "2", "--terms", "6",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) == out.rstrip("\n")
    assert doc["map"]["degree"] == 2
    assert doc["point"] == "[2, 1]"
    # every numeric value rides as a decimal string, never a float
    assert isinstance(doc["canonical_height"], str)
    assert isinstance(doc["naive_height"], str)
    assert isinstance(doc["nonarch"]["value"], str)
    assert isinstance(doc["arch"]["value"], str)
    assert isinstance(doc["error_bound"], str)
    assert isinstance(doc["elapsed_seconds"], str)
    assert isinstance(doc["precision_bits"], int)


def test_composite_resultant_parts_render(capsys):
    code, out, _ = run_cli(
        capsys, "--map", "F = 2X^2 + 3Y^2; G = 5XY", "--point", "2", "--terms", "6",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    parts = doc["factoring"]["parts"]
    assert [(p["decimal"], p["provenance"]) for p in parts] == [
        ("2", "prime-power"),
        ("3", "prime-power"),
        ("25", "prime-power"),
    ]
    assert doc["factoring"]["trial_bound"] == 100000


def test_no_factor_matches_default(capsys):
    args = ["--map", "F = 2X^2 + 3Y^2; G = 5XY", "--point", "2", "--terms", "8",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--no-factor")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["canonical_height"] == d2["canonical_height"]
    assert d1["nonarch"]["value"] == d2["nonarch"]["value"]
    assert d1["factoring"] is not None
    assert d2["factoring"] is None
    assert d2["nonarch"]["modulus_bits"] >= d1["nonarch"]["modulus_bits"]


def test_point_at_infinity_through_the_split_loop(capsys):
    # [1, 0] is fixed, and every g_i is 3, a proper part of Res = 12
    code, out, _ = run_cli(
        capsys, "--map", "phi(z) = (3*z^2 + 1)/(2*z)", "--point", "[-4, 0]", "--terms", "12",
        "--emit-g-sequence", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == "[1, 0]"
    assert [p["decimal"] for p in doc["factoring"]["parts"]] == ["4", "3"]
    assert doc["nonarch"]["gcd_sequence"] == ["3"] * 12
    with mp.workprec(doc["precision_bits"]):
        assert abs(mp.mpf(doc["canonical_height"])) <= mp.mpf(doc["error_bound"])


def test_unit_resultant_job_reports_no_split_and_unit_gcds(capsys):
    code, out, _ = run_cli(
        capsys, "--map", "phi(z) = z^2", "--point", "[3, 2]", "--format", "json",
        "--emit-g-sequence",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["map"]["resultant_bits"] == 1
    assert doc["factoring"] is None
    assert doc["nonarch"]["modulus_bits"] == 1
    assert doc["nonarch"]["gcd_sequence"] == ["1"] * 50


def test_map_file_input(capsys, tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("F = X^2 + X*Y + Y^2; G = X^2 + 7*X*Y + 2*Y^2\n")
    code, out, _ = run_cli(capsys, "--map-file", str(path), "--point", "[1, 1]", "--terms", "8")
    assert code == 0
    assert "canonical height" in out


def test_fixture_point_override(capsys):
    code, out, _ = run_cli(capsys, "--fixture", "ex3", "--point", "2", "--terms", "4")
    assert code == 0
    assert "point: [2, 1]" in out


def test_emit_g_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "--map", "F = 2X^2 + 3Y^2; G = 5XY", "--point", "2", "--terms", "5",
        "--emit-g-sequence",
    )
    assert code == 0
    assert "gcd sequence:" in out


def test_oracle_report(capsys):
    code, out, _ = run_cli(
        capsys, "--map", "phi(z) = (3z^2 + 1)/(2z)", "--point", "5", "--terms", "6",
        "--oracle", "5",
    )
    assert code == 0
    assert "n=5" in out
    code, out, _ = run_cli(
        capsys, "--map", "phi(z) = (3z^2 + 1)/(2z)", "--point", "5", "--terms", "6",
        "--oracle", "5", "--format", "json",
    )
    doc = json.loads(out)
    assert len(doc["oracle"]) == 6


def test_oracle_values_carry_the_run_precision(capsys):
    # ex3 runs at 781 bits; every printed oracle digit must be computed
    code, out, _ = run_cli(capsys, "--fixture", "ex3", "--oracle", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["precision_bits"] > 700
    fx = load_fixture("ex3")
    want = canonical_height_oracle(fx.lift(), fx.point(), 2, precision_bits=3000)
    with mp.workprec(3000):
        for got, ref in zip(doc["oracle"], want, strict=True):
            assert abs(mp.mpf(got) - ref) <= abs(ref) * mp.mpf("1e-200")


# ---------------------------------------------------------------------------
# fixtures through the CLI


def test_rsa_fixture_g_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "--fixture", "ex4", "--terms", "50", "--emit-g-sequence", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nonarch"]["value"].startswith("133.0260806")
    seq = doc["nonarch"]["gcd_sequence"]
    assert seq[0] == "1"
    assert len(seq[1]) == 232  # the unfactorable modulus itself appears as g_1
    assert all(g == "1" for g in seq[2:])


def test_periodic_fixture_reference_values(capsys):
    code, out, _ = run_cli(capsys, "--fixture", "ex2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    with mp.workprec(256):
        canonical = mp.mpf(doc["canonical_height"])
        assert abs(canonical - mp.mpf("0.00000034264800824399071146803578925")) < mp.mpf("1e-15")
        nonarch = mp.mpf(doc["nonarch"]["value"])
        assert abs(nonarch - mp.mpf("0.0014769884100219430907588636039")) < mp.mpf("1e-15")


def test_list_fixtures_text(capsys):
    code, out, _ = run_cli(capsys, "--list-fixtures")
    assert code == 0
    for fid in ("ex1", "ex2", "ex3", "ex4"):
        assert fid in out


def test_list_fixtures_json(capsys):
    code, out, _ = run_cli(capsys, "--list-fixtures", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [e["id"] for e in doc] == ["ex1", "ex2", "ex3", "ex4"]
    assert set(doc[0]) == {"id", "title", "degree", "point", "provenance", "expected"}


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize(
    "argv",
    [
        ("--map", "junk", "--point", "1"),
        ("--map", "phi(z) = z^2", "--point", "[1, 2"),
        ("--map", "phi(z) = z^2"),  # missing point
        ("--fixture", "nope"),
        ("--map", "phi(z) = z^2", "--point", "1", "--terms", "0"),
        ("--map", "phi(z) = z^2", "--point", "1", "--precision", "32"),
        ("--map", "phi(z) = z^2", "--point", "1", "--trial-bound", "5", "--no-factor"),
        ("--map", "F = (X+Y+1)^4096; G = Y^4096", "--point", "1"),  # a power over the budget
    ],
)
def test_parse_failures_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err != ""


def test_unknown_fixture_exits_2_with_the_catalog(capsys):
    code, out, err = run_cli(capsys, "--fixture", "nope")
    assert (code, out) == (2, "")
    assert err == "error: unknown fixture 'nope'; known: ex1, ex2, ex3, ex4\n"


def test_a_key_error_inside_a_job_propagates(monkeypatch):
    # only load_fixture's unknown id is an input error; any other KeyError is a bug
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "canonical_height", broken)
    for spec in (JobSpec(fixture="ex4", terms=4), JobSpec(map_text="phi(z) = z^2", point_text="2", terms=4)):
        with pytest.raises(KeyError, match="internal"):
            cli.run(spec)


# F = (X - cY)^2 + Y^2, G = Y(X - cY) with c = 2^40; at [c, 1] scaled to
# (1, 2^-40), F is 2^-80 and G is 0, and the orbit's guard bits hold F to
# 2^-64 of itself at 64 bits
_NEAR_ROOT = (
    "--map", "F = X^2 - 2199023255552*X*Y + 1208925819614629174706177*Y^2; "
    "G = X*Y - 1099511627776*Y^2", "--point", "[1099511627776, 1]", "--terms", "5",
)


def test_too_low_precision_exits_2(capsys):
    # the only precision too low for the orbit is one below the 64-bit floor,
    # which is refused before any series work
    code, out, err = run_cli(capsys, *_NEAR_ROOT, "--precision", "63")
    assert code == 2
    assert out == ""
    assert "at least 64" in err and "precision" in err
    code, out, err = run_cli(capsys, *_NEAR_ROOT)
    assert code == 0
    assert err == ""


def test_near_root_map_at_64_bits_agrees_with_the_default_precision(capsys):
    docs = []
    for extra in (("--precision", "64"), ()):
        code, out, err = run_cli(capsys, *_NEAR_ROOT, *extra, "--format", "json")
        assert code == 0
        assert err == ""
        docs.append(json.loads(out))
    low, default = docs
    assert low["precision_bits"] == 64
    with mp.workprec(default["precision_bits"]):
        gap = abs(mp.mpf(low["canonical_height"]) - mp.mpf(default["canonical_height"]))
        assert gap <= mp.mpf(low["error_bound"]) + mp.mpf(default["error_bound"])


@pytest.mark.parametrize("n", ["0", "-2"])
def test_invalid_oracle_exits_2_before_any_series(capsys, monkeypatch, n):
    def fail(*args, **kwargs):
        raise AssertionError("canonical_height ran before --oracle was checked")

    monkeypatch.setattr(cli, "canonical_height", fail)
    code, out, err = run_cli(capsys, "--fixture", "ex3", "--oracle", n)
    assert code == 2
    assert out == ""
    assert "--oracle" in err


def test_a_count_is_an_int_and_not_a_bool(monkeypatch):
    # True is an int in Python, but not one term or one oracle iterate; a
    # str --oracle must exit 2 too, not escape cli.run as a TypeError
    def fail(*args, **kwargs):
        raise AssertionError("canonical_height ran before the counts were checked")

    monkeypatch.setattr(cli, "canonical_height", fail)
    job = dict(map_text="phi(z) = z^2 - 3", point_text="5/3", output_format="json")
    for field, name, value in (("terms", "terms", True), ("oracle_n", "--oracle", True), ("oracle_n", "--oracle", "3")):
        code, report = cli.run(JobSpec(**job, **{field: value}))
        assert code == 2 and f"{name} must be a positive integer" in report
    monkeypatch.undo()
    fx = load_fixture("ex4")
    with pytest.raises(ValueError, match="terms"):
        canonical_height(fx.lift(), fx.point(), terms=True)
    with pytest.raises(ValueError, match="n_max"):
        canonical_height_oracle(fx.lift(), fx.point(), n_max=True)


@pytest.mark.parametrize("bound", ["1", "-3", "100000000"])
@pytest.mark.parametrize("map_text", ["phi(z) = z^2", "phi(z) = (3*z^2 + 1)/(2*z)"])
def test_invalid_trial_bound_exits_2_before_parsing(capsys, monkeypatch, map_text, bound):
    # |Res| is 1 for z^2, which trial division never sees, and 12 for the other
    def fail(*args, **kwargs):
        raise AssertionError("parse_map ran before --trial-bound was checked")

    monkeypatch.setattr(cli, "parse_map", fail)
    code, out, err = run_cli(capsys, "--map", map_text, "--point", "2", "--trial-bound", bound)
    assert code == 2
    assert out == ""
    assert "trial-division bound" in err


def test_hostile_sum_exits_2(capsys):
    # each (3^4096)^180 alone fits the parser's budget, the second term's does not
    code, out, err = run_cli(
        capsys, "--map", "F = (3^4096)^180*X^2 + (3^4096)^180*Y^2; G = X*Y", "--point", "1",
    )
    assert code == 2
    assert out == ""
    assert "over the supported maximum" in err


@pytest.fixture
def int_str_limit_4300():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_resultant_past_the_int_str_limit_exits_4_before_the_series(
    capsys, monkeypatch, int_str_limit_4300
):
    def fail(*args, **kwargs):
        raise AssertionError("canonical_height ran before the digit limit was checked")

    monkeypatch.setattr(cli, "canonical_height", fail)
    # |Res| has about 5000 digits
    code, out, err = run_cli(
        capsys, "--map", "F = X^2 + 10^2500*X*Y + Y^2; G = X^2 + 2*Y^2", "--point", "[1, 1]",
    )
    assert code == 4
    assert out == ""
    assert "4300" in err


def test_literal_past_the_int_str_limit_exits_2(capsys, int_str_limit_4300):
    digits = "7" * 4400
    for argv in (
        ("--map", f"F = X^2 + {digits}*Y^2; G = X*Y", "--point", "[1, 1]"),
        ("--map", "F = X^2 + Y^2; G = X*Y", "--point", f"[-{digits}, 1]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "literal" in err and "4300" in err


def test_deep_nesting_exits_2_and_shallower_nesting_parses(capsys):
    def nested(depth):
        return "F = " + "(" * depth + "X" + ")" * depth + "^2; G = Y^2"

    code, out, err = run_cli(capsys, "--map", nested(400), "--point", "[1,1]")
    assert code == 2
    assert out == ""
    assert "100" in err
    code, out, err = run_cli(capsys, "--map", nested(50), "--point", "[1,1]", "--terms", "5")
    assert code == 0
    # the limit is on depth, not on the number of groups
    siblings = "F = " + " + ".join(["(X^2)"] * 150) + "; G = Y^2"
    code, out, err = run_cli(capsys, "--map", siblings, "--point", "[1,1]", "--terms", "5")
    assert code == 0


def test_conflicting_sources_exit_2(capsys):
    code, out, err = run_cli(capsys, "--map", "phi(z) = z^2", "--fixture", "ex3")
    assert code == 2
    assert out == ""


def test_no_source_exit_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert out == ""


def test_degenerate_map_exit_3(capsys):
    code, out, err = run_cli(capsys, "--map", "F = X^2; G = X^2", "--point", "1")
    assert code == 3
    assert out == ""
    assert "resultant" in err


def test_oracle_budget_exit_4(capsys):
    # degree 80 passes the work budget at iterate 3, which is refused before it runs
    code, out, err = run_cli(capsys, "--fixture", "ex1", "--terms", "8", "--oracle", "6")
    assert code == 4
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("fixture, n, kept", [("ex1", "6", 2), ("ex2", "8", 6)])
def test_oracle_refuses_an_iterate_before_evaluating_it(capsys, monkeypatch, fixture, n, kept):
    applied, original = [], MapLift.apply
    monkeypatch.setattr(MapLift, "apply", lambda lift, x, y: applied.append(1) or original(lift, x, y))
    code, out, err = run_cli(capsys, "--fixture", fixture, "--terms", "8", "--oracle", n)
    assert (code, out) == (4, "")
    assert "the next exact-orbit iterate" in err
    # iterate kept + 1 passed the budget and was never evaluated
    assert len(applied) == kept


_FUZZ_MAPS = (
    "phi(z) = z^2",
    "phi(z) = (3*z^2 + 1)/(2*z)",
    "F = X^3 - 2*Y^3; G = X*Y^2",
    "F = X^2 - Y^2; G = X*Y - Y^2",  # a common root, exit 3
    "F = 2*X^2 + 2*Y^2; G = 4*X*Y",  # content 2
)
_FUZZ_POINTS = (
    "1", "-2/3", "[5, 0]", "[12, 7]", "1000001", "[3/4, -5]", "P = 2", "[0, 0]", "[1, 2", "2/0", "",
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    map_text=st.one_of(grammar_texts().map(lambda case: case[1]), st.sampled_from(_FUZZ_MAPS)),
    point_text=st.sampled_from(_FUZZ_POINTS),
    # small terms keep each job fast: a huge --terms is still unbounded
    terms=st.integers(0, 8),
    precision_bits=st.one_of(st.sampled_from((None, 10)), st.integers(64, 300)),
    oracle_n=st.one_of(st.none(), st.integers(0, 8)),
    trial_bound=st.sampled_from((None, 1, 2, 50, 10**5)),
    output_format=st.sampled_from(("text", "json", "json", "xml")),
)
def test_run_returns_a_known_exit_code_for_any_job(**options):
    # the parser fuzz's low exponent cap keeps every accepted power cheap to expand
    with mock.patch.object(forms, "_MAX_EXPONENT", 64), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, report = cli.run(JobSpec(**options))
    assert code in (0, 2, 3, 4)
    if code == 0 and options["output_format"] == "json":
        doc = json.loads(report)
        with mp.workprec(doc["precision_bits"]):
            assert mp.mpf(doc["canonical_height"]) >= -mp.mpf(doc["error_bound"])


# ---------------------------------------------------------------------------
# the installed entry point


def _run_module(*argv, **kwargs):
    # the child imports the package under test, installed or not
    src = str(Path(p1height.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "p1height", *argv],
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_module_invocation():
    proc = _run_module("--list-fixtures", capture_output=True)
    assert proc.returncode == 0
    assert "ex4" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("--fixture", "ex4", "--format", "json", "--emit-g-sequence"),  # past the stdout buffer
        ("--map", "phi(z) = z^2", "--point", "2", "--terms", "5"),  # inside it, flushed at exit
    ],
)
def test_closed_stdout_exits_5_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 5
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# golden reports and the raw-libmp epilogue

_DATA = Path(__file__).resolve().parent / "data"
_ELAPSED = re.compile(r"^.*elapsed.*\n", re.MULTILINE)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("ex3_50_g.json", ["--fixture", "ex3", "--terms", "50", "--emit-g-sequence", "--format", "json"]),
        ("ex4_50_g.json", ["--fixture", "ex4", "--terms", "50", "--emit-g-sequence", "--format", "json"]),
        ("ex4_20_oracle4.txt", ["--fixture", "ex4", "--terms", "20", "--emit-g-sequence", "--oracle", "4"]),
    ],
)
def test_report_is_byte_identical_to_its_golden_file(capsys, name, argv):
    # the golden files were written by the mpmath-context epilogue, which
    # rounded each operation inside workprec scopes; the text file's bounds
    # have been rounded up since
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    golden = (_DATA / name).read_text(encoding="utf-8")
    assert _ELAPSED.sub("", out) == _ELAPSED.sub("", golden)


@pytest.fixture
def refuse_workprec(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a workprec scope was opened")

    monkeypatch.setattr(mp, "workprec", refuse)
    monkeypatch.setattr(mp.mp, "workprec", refuse)
    prec = mp.mp.prec
    yield
    assert mp.mp.prec == prec
    # the patch is live
    with pytest.raises(AssertionError, match="workprec"):
        mp.workprec(64)


def test_a_job_without_the_oracle_opens_no_workprec_scope(refuse_workprec):
    specs = [
        JobSpec(map_text="phi(z) = (3*z^2 + 1)/(2*z)", point_text="[-7, 5]", output_format="json"),
        JobSpec(map_text="phi(z) = (3*z^2 + 1)/(2*z)", point_text="[-7, 5]", trial_bound=None),
        JobSpec(fixture="ex4", terms=8, precision_bits=1000, emit_g_sequence=True),
        JobSpec(fixture="ex2", terms=4, precision_bits=64, output_format="json"),
    ]
    for spec in specs:
        code, report = cli.run(spec)
        assert code == 0, report


def test_the_oracle_and_the_identity_check_open_no_workprec_scope(refuse_workprec):
    for spec in (
        JobSpec(fixture="ex4", terms=8, oracle_n=2),
        JobSpec(fixture="ex3", terms=8, precision_bits=64, oracle_n=3, output_format="json"),
    ):
        code, report = cli.run(spec)
        assert code == 0, report
    fx = load_fixture("ex2")
    assert len(canonical_height_oracle(fx.lift(), fx.point(), 3, precision_bits=100)) == 4
    assert height_identity_check(fx.lift(), fx.point()) < mp.mpf("1e-25")


def test_results_do_not_depend_on_the_context_precision():
    # every real is rounded at the job's own precision, so a caller's
    # workprec scope changes no report byte and no mpf bit
    fx = load_fixture("ex3")
    specs = [
        JobSpec(fixture=fid, terms=20, oracle_n=3, emit_g_sequence=True, output_format=fmt)
        for fid in ("ex2", "ex4")
        for fmt in ("text", "json")
    ]
    runs = []
    for prec in (20, 53, 3000):
        reports = []
        with mp.workprec(prec):
            for spec in specs:
                code, report = cli.run(spec)
                assert code == 0, report
                reports.append(re.sub(r"elapsed.*", "", report))
            bd = canonical_height(fx.lift(), fx.point(), terms=20)
        values = (bd.naive, bd.canonical, bd.error_bound, bd.nonarch.value, bd.nonarch.tail_bound)
        values += (bd.arch.value, bd.arch.tail_bound, bd.arch.step_bound)
        runs.append((reports, [v._mpf_ for v in values]))
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# the text report's digits and bounds

_TEXT_BOUND = re.compile(r"\[(?:tail|error) <= ([^\]]+)\]")


def _exact(x: mp.mpf) -> Fraction:
    return x.man * Fraction(2) ** x.exp


def _seeded_map_specs(seed: int, count: int) -> list[JobSpec]:
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        d = rng.randint(2, 4)
        F, G = (BinaryForm(tuple(rng.randint(-9, 9) for _ in range(d + 1))) for _ in "FG")
        spec = JobSpec(
            map_text=f"F = {F}; G = {G}",
            point_text=f"[{rng.randint(-1000, 1000)}, {rng.randint(1, 1000)}]",
            terms=rng.choice((10, 20)),
            precision_bits=rng.choice((None, 64, 100)),
        )
        if F.degree == G.degree == d and cli.run(spec)[0] == 0:
            specs.append(spec)
    return specs


@pytest.mark.parametrize(
    "spec",
    [JobSpec(fixture=f"ex{i}", terms=n) for i in range(1, 5) for n in (20, 50)]
    + _seeded_map_specs(23, 6),
    ids=lambda spec: f"{spec.fixture or spec.map_text}-{spec.terms}-{spec.precision_bits}",
)
def test_text_bounds_round_up_by_less_than_one_unit_in_their_last_digit(monkeypatch, spec):
    computed = []

    def spy(*args, **kwargs):
        computed.append(canonical_height(*args, **kwargs))
        return computed[-1]

    monkeypatch.setattr(cli, "canonical_height", spy)
    code, report = cli.run(spec)
    assert code == 0, report
    (breakdown,) = computed
    bounds = (breakdown.nonarch.tail_bound, breakdown.arch.tail_bound, breakdown.error_bound)
    printed = _TEXT_BOUND.findall(report)
    assert len(printed) == 3
    for text, bound in zip(printed, bounds):
        unit = Fraction(10) ** (Decimal(text).adjusted() - 2)
        assert _exact(bound) <= Fraction(text) < _exact(bound) + unit, (text, bound)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    man=st.one_of(st.integers(0, 2**300), st.integers(1, 10**6).map(lambda q: q * 10 ** 20)),
    exp=st.one_of(st.integers(-40, 40), st.integers(-4000, 4000)),
    digits=st.integers(1, 8),
)
def test_ceil_decimal_string_is_the_least_upper_value_in_to_str_format(man, exp, digits):
    x = mp.make_mpf(from_man_exp(man, exp))
    text = _ceil_decimal_string(x, digits)
    unit = Fraction(10) ** (Decimal(text).adjusted() - digits + 1)
    assert _exact(x) <= Fraction(text) < _exact(x) + unit
    # where rounding to nearest already gave an upper value, the two agree
    nearest = to_str(x._mpf_, digits)
    if Fraction(nearest) >= _exact(x):
        assert text == nearest


@pytest.mark.parametrize("bits", ["64", "100", "107"])
def test_text_values_carry_the_json_digits_up_to_32(capsys, bits):
    argv = ("--map", "phi(z) = z^2 - 3", "--point", "7/3", "--precision", bits)
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for label, value in (
        ("naive height", doc["naive_height"]),
        ("nonarch series", doc["nonarch"]["value"]),
        ("arch series", doc["arch"]["value"]),
        ("canonical height", doc["canonical_height"]),
    ):
        assert re.search(rf"^{label} += (\S+)", text, re.MULTILINE).group(1) == value


# ---------------------------------------------------------------------------
# the benchmark's trace targets


def test_every_trace_target_resolves():
    # perfbench/run.py --trace 1 wraps each (module, attribute) of
    # perfbench/spans.py TARGETS; a moved or renamed target would break it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
