"""Shared test plumbing.

Provides builders for the three packaged worked examples, session-scoped
analysis reports for them, a seeded random corpus of plane monomial
filtrations with a verified monomial reduction, and the terminal summary
hook that prints one pass/fail line per acceptance criterion.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from importlib import resources

import pytest

import fibrekit.ideals
from fibrekit import FiltrationSpec, PowerSeriesRing, SemigroupRing, analyze

EXPONENT_CAP = 8
CORPUS_SEED = 901
CORPUS_SIZE = 110
CORPUS_ATTEMPT_CAP = 600


# ---------------------------------------------------------------------------
# the three packaged examples


def plane_ring() -> PowerSeriesRing:
    return PowerSeriesRing("x", "y")


def make_x3_spec(k=None) -> FiltrationSpec:
    ring = plane_ring()
    i = ring.ideal([(3, 0), (2, 1), (0, 3)])
    j = ring.ideal([(3, 0), (0, 3)])
    return FiltrationSpec(i, K=k, J=j, n_max=8)


def make_x4_spec(k=None) -> FiltrationSpec:
    ring = plane_ring()
    i = ring.ideal([(4, 0), (3, 1), (1, 3), (0, 4)])
    j = ring.ideal([(4, 0), (0, 4)])
    return FiltrationSpec(i, K=k, J=j, n_max=8)


def make_sg_spec(k=None) -> FiltrationSpec:
    ring = SemigroupRing(4, 5, 6, 7)
    return FiltrationSpec(ring.ideal([4, 5, 6]), K=k, J=ring.ideal([4]))


def fixture_text(name: str) -> str:
    return (
        resources.files("fibrekit").joinpath("fixtures").joinpath(name).read_text()
    )


def write_fixture(tmp_path, name: str):
    """Copy a packaged input file into tmp_path and return its path."""
    path = tmp_path / name
    path.write_text(fixture_text(name))
    return path


@pytest.fixture(scope="session")
def x3_report():
    return analyze(make_x3_spec())


@pytest.fixture(scope="session")
def x4_report():
    return analyze(make_x4_spec())


@pytest.fixture(scope="session")
def sg_report():
    return analyze(make_sg_spec())


# ---------------------------------------------------------------------------
# colength route cross-checking


@contextlib.contextmanager
def colength_cross_check():
    """Force every colength call and every plane containment test inside
    the block to run all routes and compare them."""
    old = fibrekit.ideals.CROSS_CHECK
    fibrekit.ideals.CROSS_CHECK = True
    try:
        yield
    finally:
        fibrekit.ideals.CROSS_CHECK = old


# ---------------------------------------------------------------------------
# random plane corpus with a guaranteed candidate reduction J = (x^a, y^b)


@dataclass(frozen=True)
class CorpusInstance:
    a: int
    b: int
    gens: tuple
    spec_m: FiltrationSpec
    spec_r: FiltrationSpec
    report_m: object
    report_r: object


@dataclass
class Corpus:
    instances: list
    skipped: int
    elapsed: float


def newton_admits_reduction(a: int, b: int, gens) -> bool:
    """J = (x^a, y^b) reduces the ideal iff no generator falls below the
    segment from (a, 0) to (0, b)."""
    return all(b * u + a * v >= a * b for (u, v) in gens)


def draw_corpus_candidate(rng: random.Random):
    """One random generating set containing the pure powers x^a, y^b.

    Interior generators are biased to sit on or above the Newton segment so
    that most candidates admit the reduction, with a small deliberately
    unconstrained share that exercises the skip clause.
    """
    a = rng.randint(2, EXPONENT_CAP)
    b = rng.randint(2, EXPONENT_CAP)
    gens = {(a, 0), (0, b)}
    for _ in range(rng.randint(1, 4)):
        u = rng.randint(1, a - 1)
        vmin = -((b * u - a * b) // a)
        if rng.random() < 0.15:
            v = rng.randint(1, b - 1)
        elif vmin <= b - 1:
            v = rng.randint(max(1, vmin), b - 1)
        else:
            continue
        gens.add((u, v))
    return a, b, tuple(sorted(gens))


def corpus_candidates():
    """Every candidate the corpus draws, in order, with its screen verdict,
    until CORPUS_SIZE candidates have passed the screen."""
    rng = random.Random(CORPUS_SEED)
    admitted = drawn = 0
    while admitted < CORPUS_SIZE:
        assert drawn < CORPUS_ATTEMPT_CAP, (
            "corpus generator is starving, loosen the screen or the cap"
        )
        a, b, gens = draw_corpus_candidate(rng)
        ok = newton_admits_reduction(a, b, gens)
        admitted += ok
        drawn += 1
        yield a, b, gens, ok


def forbid_search(monkeypatch, spec) -> None:
    """Make any reduction-search step on spec fail the test."""

    def no_step(n):
        raise AssertionError("the reduction search ran")

    monkeypatch.setattr(spec, "jterm", no_step)


@pytest.fixture(scope="session")
def corpus():
    ring = plane_ring()
    unit = ring.unit_ideal()
    instances = []
    skipped = 0
    start = time.monotonic()
    for a, b, gens, admitted in corpus_candidates():
        if not admitted:
            skipped += 1
            continue
        i = ring.ideal(gens)
        j = ring.ideal([(a, 0), (0, b)])
        spec_m = FiltrationSpec(i, J=j)
        spec_r = FiltrationSpec(i, K=unit, J=j)
        instances.append(
            CorpusInstance(
                a=a,
                b=b,
                gens=gens,
                spec_m=spec_m,
                spec_r=spec_r,
                report_m=analyze(spec_m),
                report_r=analyze(spec_r),
            )
        )
    elapsed = time.monotonic() - start
    return Corpus(instances=instances, skipped=skipped, elapsed=elapsed)


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion

ACCEPTANCE_CRITERIA = {
    1: (
        "worked example I = (x^3, x^2 y, y^3) in k[[x, y]], exact values",
        (
            "test_worked_example_x3_x2y_y3_values",
            "test_worked_example_x3_x2y_y3_stated_reduction_number",
        ),
    ),
    2: (
        "worked example I = (x^4, x^3 y, x y^3, y^4) in k[[x, y]], exact values",
        ("test_worked_example_x4_x3y_xy3_y4_full",),
    ),
    3: (
        "worked example I = (t^4, t^5, t^6) in k[[t^4, t^5, t^6, t^7]], exact values",
        (
            "test_worked_example_semigroup_4567_values",
            "test_worked_example_semigroup_4567_stated_depth_claims",
        ),
    ),
    4: (
        "second-difference length identity on the random plane corpus, K = m and K = R",
        ("test_fundamental_lemma_identity_corpus",),
    ),
    5: (
        "coefficient identities and inequality bounds on the random plane corpus",
        ("test_coefficient_identities_corpus",),
    ),
    6: (
        "colength agrees with brute-force enumeration (plane, space, semigroup)",
        ("test_colength_oracle_equivalence",),
    ),
    7: (
        "theorem-violation exit code 2 never occurs",
        ("test_theorem_violation_exit_code_never_occurs",),
    ),
}

_acceptance_outcomes: dict = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # fixture error or skip: there will be no call phase
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_CRITERIA):
        label, test_names = ACCEPTANCE_CRITERIA[number]
        outcomes = [_acceptance_outcomes.get(name) for name in test_names]
        if any(outcome is None for outcome in outcomes):
            verdict = "NOT RUN"
        elif all(outcome == "passed" for outcome in outcomes):
            verdict = "PASS"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict:7s} {label}")
