#!/usr/bin/env python3
"""Benchmark for p1height: time to a certified canonical height.

Run from the repository root:

    python3 perfbench/run.py --workload points --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One client drives a closed loop in this process: each job is one
in-process ``p1height.cli.run`` call with JSON output and the g-sequence,
so parsing, validation, trial division, both series and rendering are all
timed, and the next job starts when the previous one returns.  A run
repeats whole rounds (the workload's job list, see workloads.py) until at
least --seconds have been measured.  Outputs are checked between rounds,
outside the timed phase (see checks.py).  Job times are reported at a fixed
reference host speed (see hostspeed.py); the raw wall-clock figures are
printed too.

End-to-end metrics: setup_s is the median set-up time of fresh
interpreters (import, fixture loading, input generation, one warm-up job),
at the reference speed;
heights_per_s is correct jobs per second of job time; job_p50_s and
job_p99_s rank the jobs of a round by each job's median time over the
rounds; certified_digits_min is the least -log10(error_bound) of a round;
ok_ratio is correct jobs over jobs attempted (1 - failed_ratio); and
peak_rss_mib is this process's peak resident set.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics of the traced rounds (see
spans.py) and writes their spans to .bench_out/.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in a fresh interpreter of its own
and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import mpmath as mp

import checks
from hostspeed import SETUP_REFERENCE, HostSpeed, reference_start, spawn_until_ready
from spans import SPAN_NAMES, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# metric names and units, as the benchmark definition lists them
SPEC = ROOT / "BENCHMARK.json"

# fresh interpreters whose set-up times give setup_s as their median
SETUP_SAMPLES = 7
# jobs of the first round whose archimedean series is recomputed by the checker
ARCH_SAMPLE = 16
# how many failure messages a run prints
SHOWN_FAILURES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int):
    """Import, fixture loading, input generation and one untimed warm-up job."""
    # p1height, and workloads with it, import only once main put src/ on the path
    import p1height.cli as cli
    from workloads import WARMUP, WORKLOADS

    jobs = WORKLOADS[workload](seed)
    code, report = cli.run(WARMUP)
    if code != 0:
        raise RuntimeError(f"warm-up job failed: {report}")
    return cli, jobs


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, from spawn to the first job they could time.

    Returns them at the reference speed and raw; each probe sits between two
    reference starts (hostspeed.reference_start).
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    refs = [reference_start()]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(spawn_until_ready(cmd, ROOT))
        refs.append(reference_start())
    scaled = [t * SETUP_REFERENCE * 2 / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw


def run_round(cli, jobs, tracer=None, first_id: int = 0):
    """Run every job once; return the round's wall time and (code, report, start, end) per job."""
    results = []
    started = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        start = perf_counter()
        code, report = cli.run(job.spec)
        results.append((code, report, start, perf_counter()))
    return perf_counter() - started, results


class Checker:
    """Checks every round's outputs; the first round fully, later ones against it."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.docs: list[dict | None] = [None] * len(jobs)
        self.prints: list[tuple | None] = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.run_failures: list[str] = []
        self.messages: list[str] = []
        self.self_test_caught = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_failures

    def _fail(self, job, reasons) -> None:
        self.failed += 1
        if len(self.messages) < SHOWN_FAILURES:
            self.messages.append(f"{job.label} {job.spec.point_text}: {'; '.join(reasons)}")

    def add(self, results) -> None:
        first = self.attempted == 0
        for i, (job, (code, report, *_)) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            if first:
                doc, reasons = checks.check_report(job, code, report)
                if not reasons and i < ARCH_SAMPLE:
                    reasons = checks.check_arch(job, doc)
                if reasons:
                    self._fail(job, reasons)
                else:
                    self.docs[i], self.prints[i] = doc, checks.fingerprint(doc)
            elif code != 0:
                self._fail(job, [f"exit code {code}: {report[:200]}"])
            elif self.prints[i] is None or checks.fingerprint(json.loads(report)) != self.prints[i]:
                self._fail(job, ["output differs from the first round"])
        if first:
            self._first_round(results)

    def _first_round(self, results) -> None:
        by_label = {job.label: doc for job, doc in zip(self.jobs, self.docs) if doc}
        self.run_failures += checks.check_terms_sweep(by_label)
        for i, doc in enumerate(self.docs):
            if doc is not None:
                missed = checks.self_test(self.jobs[i], results[i][1])
                self.self_test_caught = 2 - len(missed)
                self.run_failures += [f"checker self-test missed a {m}" for m in missed]
                break
        else:
            self.run_failures.append("no correct output to run the checker self-test on")


def end_to_end_metrics(checker, rounds, setup_times) -> dict[str, float]:
    """rounds holds one list of job times per round, in job order."""
    ok = checker.attempted - checker.failed
    # each job's median over the rounds, so the percentiles rank inputs and
    # a host hiccup shorter than a job does not decide them
    per_job = sorted(statistics.median(col) for col in zip(*rounds))
    digits = [
        -float(mp.log10(mp.mpf(doc["error_bound"])))
        for doc in checker.docs
        if doc is not None
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "heights_per_s": ok / sum(map(sum, rounds)),
        "job_p50_s": statistics.median(per_job),
        # nearest rank: at least 1% of the jobs took this long or longer
        "job_p99_s": per_job[math.ceil(0.99 * len(per_job)) - 1],
        "certified_digits_min": min(digits, default=0.0),
        "ok_ratio": ok / checker.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def output_metrics(docs) -> dict[str, float]:
    """Per-layer figures read from the reports of one round."""
    steps, efficiency, unsplit, rounding, arch_steps, precision = [], [], [], [], [], []
    modulus_max = 0
    for doc in docs:
        if doc is None:
            continue
        na, ar, bits = doc["nonarch"], doc["arch"], doc["precision_bits"]
        parts = checks.resultant_parts(doc)
        gs = [int(g) for g in na["gcd_sequence"]]
        steps.append(na["terms"] * max(1, len(parts)))
        modulus_max = max(modulus_max, na["modulus_bits"])
        # bits of R * prod(g_i, i < N-1): the start modulus that would suffice
        needed = math.prod(parts) * math.prod(gs[:-1])
        efficiency.append(needed.bit_length() / na["modulus_bits"])
        largest = max((p.bit_length() for p in parts), default=1)
        unsplit.append(largest / doc["map"]["resultant_bits"])
        arch_steps.append(ar["terms"])
        precision.append(bits)
        with mp.workprec(bits):
            budget = ar["terms"] * mp.mpf(2) ** (8 - bits)
            rounding.append(float(budget / mp.mpf(ar["tail_bound"])))
    return {
        "nonarch.steps": statistics.fmean(steps),
        "nonarch.modulus_bits_max": float(modulus_max),
        "nonarch.modulus_efficiency": statistics.fmean(efficiency),
        "nonarch.trial_division.unsplit_share": statistics.fmean(unsplit),
        "arch.steps": statistics.fmean(arch_steps),
        "arch.precision_bits": statistics.fmean(precision),
        "arch.rounding_share": statistics.fmean(rounding),
    }


def label_table(spans, jobs, pauses) -> list[str]:
    """Mean per-job self time of each span name, per job label (ex1@50, points, ...)."""
    own = self_times(spans, pauses)
    rows: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for (name, _, _, parent, job_id), t in zip(spans, own):
        label = jobs[job_id % len(jobs)].label
        row = rows.setdefault(label, dict.fromkeys(("job",) + SPAN_NAMES, 0.0))
        row[name] += t
        row["job"] += t
        if parent is None:
            counts[label] = counts.get(label, 0) + 1
    lines = ["per-job seconds by label: " + " ".join(("job",) + SPAN_NAMES)]
    for label, row in rows.items():
        n = counts[label]
        lines.append(f"  {label} ({n} jobs): " + " ".join(f"{v / n:.4g}" for v in row.values()))
    return lines


def machine_facts(args) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mp.__version__,
        "mpmath_backend": mp.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_spans(args, facts, spans, pauses, jobs) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    t0 = spans[0][1] if spans else 0.0
    payload = {
        "machine": facts,
        "labels": [job.label for job in jobs],
        "fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": [[n, s - t0, e - t0, p, j] for n, s, e, p, j in spans],
        "pauses": [[s - t0, d] for s, d in pauses],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def timed_rounds(args, cli, jobs, checker):
    """Untraced rounds until --seconds have passed, with host-speed sampling.

    Returns the sampler, and per round the job times at the reference speed
    and the raw ones.
    """
    from workloads import SPEED_KERNEL

    speed = HostSpeed(SPEED_KERNEL[args.workload])
    walls, times, raw_times = [], [], []
    while sum(walls) < args.seconds:
        with speed.sampling():
            wall, results = run_round(cli, jobs)
        walls.append(wall)
        times.append([speed.normalize(start, end) for _, _, start, end in results])
        raw_times.append([end - start for _, _, start, end in results])
        checker.add(results)
    print("round walls: " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return speed, times, raw_times


def traced_rounds(args, cli, jobs, checker):
    """Pairs of an untraced and a traced round until --seconds have passed.

    Returns the tracer, the host-speed sampler, the number of traced rounds
    and the tracing overhead: traced over untraced job time, both at the
    reference speed, minus 1.
    """
    from workloads import SPEED_KERNEL

    tracer = Tracer()
    speed = HostSpeed(SPEED_KERNEL[args.workload])
    walls, job_time, pairs = [], {False: 0.0, True: 0.0}, 0
    while sum(walls) < args.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                with speed.sampling():
                    wall, results = run_round(cli, jobs, tracer if traced else None,
                                              pairs * len(jobs))
            finally:
                tracer.uninstall()
            walls.append(wall)
            job_time[traced] += sum(speed.normalize(start, end) for _, _, start, end in results)
            checker.add(results)
        pairs += 1
    print("round walls, untraced and traced alternately: "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return tracer, speed, pairs, job_time[True] / job_time[False] - 1


def run_workload(args) -> int:
    facts = machine_facts(args)
    print("machine: " + json.dumps(facts))
    t0 = perf_counter()
    cli, jobs = setup(args.workload, args.seed)
    print(f"set-up in this process: {perf_counter() - t0:.3f} s, {len(jobs)} jobs per round")

    checker = Checker(jobs)
    if args.trace == 0:
        setup_times, raw_setup = setup_samples(args)
        speed, times, raw_times = timed_rounds(args, cli, jobs, checker)
    else:
        tracer, speed, pairs, overhead = traced_rounds(args, cli, jobs, checker)
    print(f"{checker.attempted} jobs checked, {checker.failed} failed, "
          f"failed_ratio = {checker.failed / checker.attempted} ratio")
    print(f"checker self-test: {checker.self_test_caught} of 2 corruptions caught")
    for message in checker.messages + checker.run_failures:
        print("FAIL " + message)
    print(f"host speed: {len(speed.durations)} samples of {speed.kernel.__name__}, median "
          f"{statistics.median(speed.durations) * 1000:.2f} ms "
          f"(reference {speed.reference * 1000} ms)")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace == 0:
        metrics = end_to_end_metrics(checker, times, setup_times)
        raw = end_to_end_metrics(checker, raw_times, raw_setup)
        print("raw wall-clock figures: " + ", ".join(
            f"{name} = {raw[name]:.6g}"
            for name in ("setup_s", "heights_per_s", "job_p50_s", "job_p99_s")))
        print("raw set-up samples: " + ", ".join(f"{t:.3f}" for t in raw_setup) + " s")
    else:
        pauses = list(zip(speed.starts, speed.durations))
        metrics = layer_metrics(tracer.spans, pairs * len(jobs), pauses)
        metrics.update(output_metrics(checker.docs))
        metrics["trace.overhead_ratio"] = overhead
        for line in label_table(tracer.spans, jobs, pauses):
            print(line)
        print(f"spans: {write_spans(args, facts, tracer.spans, pauses, jobs).relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; a table, then a JSON summary line."""
    from workloads import WORKLOADS

    summary = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "p1height" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no p1height package under {SRC} or no {SPEC.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
