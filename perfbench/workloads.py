"""Seeded job lists for the benchmark workloads.

Every job is one ``p1height.cli.run`` call with the map passed as text,
never as a ``--fixture`` id: ``fixture_lift`` and
``MapLift.cofactor_identity`` cache their work, so a fixture id would let a
repeated job skip the resultant and the cofactors that a command-line user
pays for on every run.  Map texts are built once, at set-up, from the
fixture forms (``F = {lift.F}; G = {lift.G}`` round-trips exactly).

A round is the whole job list of a workload.  The generated workloads keep
the input properties that set the cost (degree spread, coordinate size)
identical across seeds and draw only coefficients and coordinates from the
seed, so two seeds give different inputs of the same cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from p1height.cli import JobSpec
from p1height.fixtures import fixture_lift, load_fixture
from p1height.forms import BinaryForm

from checks import P61, resultant_mod
from hostspeed import bigint_kernel, mpmath_kernel

POINTS_MAP = "phi(z) = (3*z^2 + 1)/(2*z)"
POINTS_F = (3, 0, 1)
POINTS_G = (0, 2, 0)
POINTS_COUNT = 1000
POINTS_COORD = 10**6

MAPS_COUNT = 60
MAPS_DEGREES = (8, 48)
MAPS_COEFF = 9
MAPS_COORD = 20
MAPS_TERMS = 10

# a small job run once at set-up so that lazy caches (the prime sieve,
# mpmath constants) are filled before timing starts
WARMUP = JobSpec(
    map_text=POINTS_MAP,
    point_text="[2, 3]",
    terms=50,
    output_format="json",
    emit_g_sequence=True,
)


@dataclass(frozen=True)
class Job:
    """One CLI job plus the exact inputs the output checker needs."""

    label: str
    spec: JobSpec
    F: tuple[int, ...]
    G: tuple[int, ...]
    x: int
    y: int


def _job(label: str, map_text: str, F, G, x: int, y: int, terms: int) -> Job:
    spec = JobSpec(
        map_text=map_text,
        point_text=f"[{x}, {y}]",
        terms=terms,
        output_format="json",
        emit_g_sequence=True,
    )
    return Job(label, spec, tuple(F), tuple(G), x, y)


def _fixture_jobs(plan: tuple[tuple[str, int], ...]) -> list[Job]:
    jobs = []
    for fid, terms in plan:
        lift = fixture_lift(fid)
        point = load_fixture(fid).point()
        text = f"F = {lift.F}; G = {lift.G}"
        jobs.append(
            _job(f"{fid}@{terms}", text, lift.F.coefficients, lift.G.coefficients,
                 point.x, point.y, terms)
        )
    return jobs


def paper_dense(seed: int) -> list[Job]:
    return _fixture_jobs((("ex1", 50), ("ex2", 50)))


def paper_bigres(seed: int) -> list[Job]:
    return _fixture_jobs((("ex3", 50), ("ex3", 100), ("ex4", 50), ("ex4", 100)))


def points(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [
        _job("points", POINTS_MAP, POINTS_F, POINTS_G,
             rng.randint(-POINTS_COORD, POINTS_COORD), rng.randint(1, POINTS_COORD), 50)
        for _ in range(POINTS_COUNT)
    ]


def _random_form(rng: random.Random, d: int) -> tuple[int, ...]:
    while True:
        coeffs = tuple(rng.randint(-MAPS_COEFF, MAPS_COEFF) for _ in range(d + 1))
        if coeffs[0] != 0:
            return coeffs


def maps(seed: int) -> list[Job]:
    rng = random.Random(seed)
    lo, hi = MAPS_DEGREES
    span = hi - lo + 1
    # every degree in [lo, hi] equally often, in seeded order, so the cost
    # of a round does not depend on the seed
    degrees = [lo + (span * k) // MAPS_COUNT for k in range(MAPS_COUNT)]
    rng.shuffle(degrees)
    jobs = []
    for d in degrees:
        while True:
            F, G = _random_form(rng, d), _random_form(rng, d)
            # content 1 keeps the parser quiet; a nonzero resultant mod a
            # prime proves the pair is a morphism, so no job exits with 3
            if math.gcd(*F, *G) == 1 and resultant_mod(F, G, P61) != 0:
                break
        text = f"F = {BinaryForm(F)}; G = {BinaryForm(G)}"
        x, y = rng.randint(-MAPS_COORD, MAPS_COORD), rng.randint(1, MAPS_COORD)
        jobs.append(_job("maps", text, F, G, x, y, MAPS_TERMS))
    return jobs


WORKLOADS = {
    "paper-dense": paper_dense,
    "paper-bigres": paper_bigres,
    "points": points,
    "maps": maps,
}

# the host-speed kernel (hostspeed.py) closest to each workload's dominant
# layer: host drift slows big-integer arithmetic about half as much as
# interpreter-bound code, so one kernel cannot normalize both
SPEED_KERNEL = {
    "paper-dense": bigint_kernel,
    "paper-bigres": bigint_kernel,
    "points": mpmath_kernel,
    "maps": mpmath_kernel,
}
