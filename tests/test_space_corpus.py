"""End to end in k[[x, y, z]], and once in k[[x, y, z, w]], with a positive
reduction number.

Each input has K = m and J = the pure powers of I, a reduction of I by the
Newton rule. The expected e_0, len(R/I) and r come from oracles that use
nothing of the ideal kernel: e_0 = a^d is the colength of the pure powers,
len(R/I) is a lattice-point count in the pure-power box, and r is the least
n with I^(n+1) inside J I^n, decided on exponent-vector sets by
divisibility.
"""

import itertools
import time
from types import SimpleNamespace

import pytest

import fibrekit.ideals
from fibrekit import (
    CriterionStatus,
    FiltrationSpec,
    PowerSeriesRing,
    analyze,
    reduction_number,
)
from test_acceptance import exponent_sums, generated_member
from test_ideals_monomial import oracle_colength

SPACE_CORPUS = [
    ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)),
    ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0)),
]


def space_corpus_spec(i_gens) -> FiltrationSpec:
    """K = m and J = (x^a, y^a, z^a) for one SPACE_CORPUS input."""
    a = i_gens[0][0]
    ring = PowerSeriesRing("x", "y", "z")
    j = ring.ideal([(a, 0, 0), (0, a, 0), (0, 0, a)])
    return FiltrationSpec(ring.ideal(i_gens), J=j)


def brute_reduction_number(i_gens, j_gens, limit=8):
    """Least n with every exponent sum of I^(n+1) a multiple of one of J I^n."""
    power = {(0,) * len(i_gens[0])}  # I^0
    for n in range(limit):
        ji = exponent_sums(j_gens, power)
        power = exponent_sums(power, i_gens)
        if all(generated_member(ji, p) for p in power):
            return n
    raise AssertionError(f"no reduction number below {limit}")


@pytest.mark.parametrize("i_gens", SPACE_CORPUS, ids=lambda g: f"{len(g)}gens-a{g[0][0]}")
def test_space_corpus(i_gens):
    a = i_gens[0][0]
    j_gens = ((a, 0, 0), (0, a, 0), (0, 0, a))
    started = time.perf_counter()
    report = analyze(space_corpus_spec(i_gens))
    elapsed = time.perf_counter() - started
    # well under a second each; the bound only catches a return to the
    # per-point kernels, which took minutes on the last input
    assert elapsed < 30.0, f"took {elapsed:.2f} s"

    r = brute_reduction_number(i_gens, j_gens)
    assert r > 0
    assert report.reduction.r == r
    assert report.e0 == a**3
    assert report.table.h[1] == oracle_colength(SimpleNamespace(gens=i_gens))

    e = report.coefficients.e.coefficients
    g = report.coefficients.g.coefficients
    f = report.coefficients.f.coefficients
    assert e[0] == g[0] == a**3
    for i in range(1, 4):
        assert g[i] == e[i] - f[i - 1], i
    lower = report.criterion("g1-lower-bound")
    upper = report.criterion("g1-upper-bound")
    assert lower.status is CriterionStatus.PASS and lower.lhs >= lower.rhs
    assert upper.status is CriterionStatus.PASS and upper.lhs <= upper.rhs
    assert lower.lhs == upper.lhs == g[1]


def test_the_tail_starts_at_r_on_the_frontier_input():
    """(x^3, y^3, z^3, xyz, x^2 y): every class of I_4 and K I_4 is
    polynomial from k = 0, so N = r = 4 and the table stops at N + d = 7."""
    report = analyze(space_corpus_spec(SPACE_CORPUS[2]))
    assert report.reduction.r == 4
    assert report.coefficients.certified_from == 4
    assert report.table.n_max == 7


@pytest.mark.parametrize("i_gens", SPACE_CORPUS, ids=lambda g: f"{len(g)}gens-a{g[0][0]}")
def test_reduction_rule_against_search(i_gens):
    """Every J between the pure powers and I is certified a reduction and
    gets the search's r; raising one pure power gives a certified
    non-reduction, for which the search finds no r either."""
    a = i_gens[0][0]
    pure = ((a, 0, 0), (0, a, 0), (0, 0, a))
    ring = PowerSeriesRing("x", "y", "z")
    i = ring.ideal(i_gens)
    rest = i_gens[3:]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            j_gens = pure + extra
            j = ring.ideal(j_gens)
            assert j.is_reduction_of(i) is True, j_gens
            spec = FiltrationSpec(i, J=j)
            assert reduction_number(spec).r == brute_reduction_number(i_gens, j_gens)
    raised = ((2 * a, 0, 0),) + pure[1:]
    assert ring.ideal(raised).is_reduction_of(i) is False
    with pytest.raises(AssertionError, match="no reduction number"):
        brute_reduction_number(i_gens, raised)


def test_d4_frontier_input():
    """I = (x^3, y^3, z^3, w^3, xyzw), J = the pure powers, K = m: d = 4 runs
    the slice kernels one level above the d = 3 sweep. The tail starts at
    N = r = 2, so the table stops at N + d = 6. CROSS_CHECK stays off,
    since its box scan over this analysis takes minutes."""
    i_gens = (
        (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 1, 1)
    )
    j_gens = i_gens[:4]
    ring = PowerSeriesRing("x", "y", "z", "w")
    assert fibrekit.ideals.CROSS_CHECK is False
    report = analyze(FiltrationSpec(ring.ideal(i_gens), J=ring.ideal(j_gens)))

    assert brute_reduction_number(i_gens, j_gens) == 2
    assert report.reduction.r == 2
    assert report.coefficients.certified_from == 2
    assert report.table.n_max == 6
    assert report.e0 == 81
    assert oracle_colength(SimpleNamespace(gens=i_gens)) == 65
    assert report.table.h[1] == 65
    e = report.coefficients.e.coefficients
    g = report.coefficients.g.coefficients
    f = report.coefficients.f.coefficients
    assert e[0] == g[0] == 81
    for i in range(1, 5):
        assert g[i] == e[i] - f[i - 1], i


def test_d4_input_with_three_mixed_generators():
    """I = (x^4, y^4, z^4, w^4, x^2 yz, yzw^2, xyzw), J = the pure powers,
    K = m: r = 5 and N = r, so the table stops at N + d = 9."""
    i_gens = (
        (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
        (2, 1, 1, 0), (0, 1, 1, 2), (1, 1, 1, 1),
    )
    j_gens = i_gens[:4]
    ring = PowerSeriesRing("x", "y", "z", "w")
    report = analyze(FiltrationSpec(ring.ideal(i_gens), J=ring.ideal(j_gens)))

    assert brute_reduction_number(i_gens, j_gens) == 5
    assert report.reduction.r == 5
    assert report.coefficients.certified_from == 5
    assert report.table.n_max == 9
    assert report.e0 == 256
    assert report.table.h[1] == oracle_colength(SimpleNamespace(gens=i_gens))
    e = report.coefficients.e.coefficients
    g = report.coefficients.g.coefficients
    f = report.coefficients.f.coefficients
    assert e[0] == g[0] == 256
    for i in range(1, 5):
        assert g[i] == e[i] - f[i - 1], i
