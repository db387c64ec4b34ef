"""The certified start N of the Hilbert polynomial (criteria.fit_tables).

For n >= r, I_n = J^(n-r) I_r with J = (x_1^a_1, ..., x_d^a_d), and
len(R/J^k T) splits into one lattice count per residue class b of the
exponents modulo a. The oracles here count lattice points directly and
share no code with the package: membership in J^k T is read off the
exponents, and the class counts use the class ideal M_b = {w : x^(b + a w)
in T} and a minimum-degree table over the box.
"""

import itertools
import math
import random

import pytest

from fibrekit import (
    FiltrationSpec,
    PowerSeriesRing,
    SemigroupRing,
    analyze,
    build_table,
    coefficient_report,
)
from fibrekit.criteria import class_threshold
from fibrekit.ideals import adic_start
from conftest import colength_cross_check
from test_ideals_semigroup import random_semigroup
from test_space_corpus import SPACE_CORPUS, space_corpus_spec


def pure_power(gens, i):
    """Least exponent of a pure power of x_i among gens."""
    return min(u[i] for u in gens if not any(c for j, c in enumerate(u) if j != i))


def oracle_length(gens, box, k):
    """len(R / J^k T): lattice points v outside it. v is inside iff some
    generator u of T has u <= v and sum_i floor((v_i - u_i) / a_i) >= k."""
    d = len(box)
    ranges = [range(pure_power(gens, i) + k * box[i]) for i in range(d)]
    outside = 0
    for v in itertools.product(*ranges):
        if not any(
            all(x >= y for x, y in zip(v, u))
            and sum((x - y) // a for x, y, a in zip(v, u, box)) >= k
            for u in gens
        ):
            outside += 1
    return outside


def oracle_class_count(gens, box, b, k):
    """#{w : w not in m^k M_b}, M_b = {w : x^(b + a w) in T}. With f(w) the
    least |w'| over w' <= w in M_b, w lies in m^k M_b iff f(w) <= |w| - k."""
    d = len(box)
    tops = [-(-pure_power(gens, i) // box[i]) + k + 1 for i in range(d)]
    least = {}
    outside = 0
    for w in itertools.product(*(range(t) for t in tops)):
        point = [bi + ai * wi for bi, ai, wi in zip(b, box, w)]
        best = sum(w) if any(all(x >= y for x, y in zip(point, u)) for u in gens) else math.inf
        for i in range(d):
            if w[i]:
                best = min(best, least[w[:i] + (w[i] - 1,) + w[i + 1:]])
        least[w] = best
        if best > sum(w) - k:
            outside += 1
    return outside


def random_cofinite_gens(rng, dim, cap):
    """Pure powers x_i^p_i with 2 <= p_i <= cap and up to three monomials
    strictly inside their box."""
    tops = [rng.randint(2, cap) for _ in range(dim)]
    gens = {tuple(p if j == i else 0 for j in range(dim)) for i, p in enumerate(tops)}
    for _ in range(rng.randint(0, 3)):
        gens.add(tuple(rng.randint(1, p - 1) for p in tops))
    return gens


@pytest.mark.parametrize(
    "dim,cases,a_cap,cap", [(2, 24, 3, 9), (3, 6, 2, 3)], ids=["plane", "space"]
)
def test_class_counts_add_up_and_are_polynomial_from_the_threshold(dim, cases, a_cap, cap):
    rng = random.Random(1100 + dim)
    ring = PowerSeriesRing(*"xyz"[:dim])
    for _ in range(cases):
        gens = ring.ideal(random_cofinite_gens(rng, dim, cap)).gens
        box = [rng.randint(1, a_cap) for _ in range(dim)]
        k0 = class_threshold(gens, box)
        values = []
        for k in range(max(k0, 0), max(k0, 0) + dim + 3):
            brute = oracle_length(gens, box, k)
            classes = sum(
                oracle_class_count(gens, box, b, k)
                for b in itertools.product(*(range(a) for a in box))
            )
            assert classes == brute, (gens, box, k)
            values.append(brute)
        # polynomial of degree <= d in k from the threshold on: every
        # (d + 1)-th difference over the d + 3 values vanishes
        for _ in range(dim + 1):
            values = [y - x for x, y in zip(values, values[1:])]
        assert values == [0, 0], (gens, box, k0)


def observed_postulation(spec, start):
    """Largest postulation index of e, g and f, read off a window-validated
    fit on a table well past the certified start."""
    table = build_table(spec, start + 2 * spec.dim + 4)
    c = coefficient_report(table, spec.dim)
    return max(c.e.postulation, c.g.postulation, c.f.postulation)


def test_threshold_bounds_the_postulation_on_the_plane_corpus(corpus):
    exceeds_r = 0
    for inst in corpus.instances:
        for report in (inst.report_m, inst.report_r):
            start = report.coefficients.certified_from
            observed = observed_postulation(report.spec, start)
            assert observed <= start, inst.gens
            exceeds_r += observed > report.reduction.r
    # no corpus input leaves the polynomial past its reduction number
    assert exceeds_r == 0


def test_threshold_bounds_the_postulation_on_the_space_corpus():
    for gens in SPACE_CORPUS:
        report = analyze(space_corpus_spec(gens))
        start = report.coefficients.certified_from
        assert report.reduction.r <= start
        assert observed_postulation(report.spec, start) <= min(start, report.reduction.r)


def semigroup_corpus_specs():
    """I = m, J = (t^a) for a seeded draw of 25 small semigroup rings."""
    rng = random.Random(1103)
    for _ in range(25):
        ring = SemigroupRing(*random_semigroup(rng))
        m = ring.maximal_ideal()
        yield FiltrationSpec(m, J=ring.ideal(m.minimal_generators()[:1]))


def test_threshold_bounds_the_postulation_on_a_semigroup_corpus():
    for spec in semigroup_corpus_specs():
        report = analyze(spec)
        # d = 1: N = r, and H(n) = H(r) + (n - r) a exactly from r on
        start = report.coefficients.certified_from
        assert start == report.reduction.r
        assert observed_postulation(report.spec, start) <= start


def staircase_colength(gens):
    gens = sorted(gens)
    return sum((b[0] - a[0]) * a[1] for a, b in zip(gens, gens[1:]))


def minimal_plane(points):
    out = []
    for p in sorted(set(points)):
        if not out or p[1] < out[-1][1]:
            out.append(p)
    return out


def test_postulation_past_the_reduction_number_is_certified():
    """I = (x^9, x^8 y^2, x^2 y^8, y^9), J = (x^9, y^9): r = 3, but H
    leaves its polynomial at n = 3 and agrees from n = 4 on. A start of r
    would read the polynomial off the wrong points."""
    gens = [(0, 9), (2, 8), (8, 2), (9, 0)]
    power = [(0, 0)]
    h = []
    for _ in range(12):
        h.append(staircase_colength(power))
        power = minimal_plane((a + c, b + d) for a, b in power for c, d in gens)
    ring = PowerSeriesRing("x", "y")
    report = analyze(FiltrationSpec(ring.ideal(gens), J=ring.ideal([(9, 0), (0, 9)])))
    e = report.coefficients.e
    assert report.reduction.r == 3
    assert e.postulation == 4 and report.coefficients.certified_from >= 4
    assert [e.value(n) for n in range(4, 12)] == h[4:]
    assert e.value(3) != h[3]


def class_ceilings(gens, box, b):
    """Generators of M_b, not minimal: ceil((u - b)^+ / a) for each u."""
    return [tuple(-(-max(u - c, 0) // a) for u, c, a in zip(g, b, box)) for g in gens]


def random_class_draws(dim, cases, a_cap, cap):
    """Seeded (generators of T, box, class b), T = I or I^2 for a random
    m-primary I."""
    rng = random.Random(1300 + dim)
    ring = PowerSeriesRing(*"xyzw"[:dim])
    for _ in range(cases):
        ideal = ring.ideal(random_cofinite_gens(rng, dim, cap))
        gens = (ideal * ideal if rng.random() < 0.5 else ideal).gens
        box = [rng.randint(1, a_cap) for _ in range(dim)]
        yield gens, box, tuple(rng.randrange(a) for a in box)


def maximal_ideal_class(dim):
    """m_S itself: the class b = 0 of T = m over the box (1, ..., 1)."""
    yield [tuple(int(i == j) for j in range(dim)) for i in range(dim)], [1] * dim, (0,) * dim


@pytest.mark.parametrize(
    "draws,late",
    [
        (lambda: random_class_draws(3, 30, 3, 4), True),
        (lambda: random_class_draws(4, 4, 2, 3), True),
        *((lambda dim=dim: maximal_ideal_class(dim), False) for dim in (3, 4, 5)),
    ],
    ids=["d3", "d4", "mS-d3", "mS-d4", "mS-d5"],
)
def test_class_counts_are_polynomial_exactly_from_the_class_start(draws, late):
    """k_0 of one class is exact: the oracle's count is a polynomial in k
    from k_0 on, and at k_0 - 1 it misses the polynomial through k_0 ..
    k_0 + d (a nonzero (d + 1)-th difference there). CROSS_CHECK compares
    each class's series with the colengths of the products m^k M_b. The
    random draws reach some k_0 > 0; m_S, which adic_start skips, counts
    C(k + d, d), a polynomial from k_0 = 0."""
    seen_late = 0
    for gens, box, b in draws():
        dim = len(box)
        with colength_cross_check():
            k0 = adic_start([class_ceilings(gens, box, b)])
        first = max(k0 - 1, 0)
        values = [oracle_class_count(gens, box, b, k) for k in range(first, k0 + dim + 3)]
        for _ in range(dim + 1):
            values = [y - x for x, y in zip(values, values[1:])]
        if k0:
            assert values.pop(0) != 0, (gens, box, b, k0)
            seen_late += 1
        assert values == [0, 0], (gens, box, b, k0)
    assert bool(seen_late) == late


def every_class_threshold(gens, box):
    """The k_0 of adic_start taken class by class over all prod a_i residue
    classes b, without the distinct columns of class_threshold."""
    return max(
        adic_start([class_ceilings(gens, box, b)])
        for b in itertools.product(*(range(a) for a in box))
    )


@pytest.mark.parametrize("dim,cases,a_cap", [(3, 120, 9), (4, 40, 5)], ids=["d3", "d4"])
def test_distinct_class_columns_give_the_same_threshold(dim, cases, a_cap):
    rng = random.Random(1200 + dim)
    ring = PowerSeriesRing(*"xyzw"[:dim])
    for _ in range(cases):
        ideal = ring.ideal(random_cofinite_gens(rng, dim, 12))
        gens = (ideal * ideal if rng.random() < 0.5 else ideal).gens
        box = [rng.randint(1, a_cap) for _ in range(dim)]
        assert class_threshold(gens, box) == every_class_threshold(gens, box), (gens, box)


def test_a_huge_pure_power_costs_no_class_per_residue():
    # J = (x^100000, y^2, z^2) has 400000 residue classes, but x's column
    # of ceilings takes only the residues 0 and 1 of the generators' x
    ring = PowerSeriesRing("x", "y", "z")
    i = ring.ideal([(100000, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    j = ring.ideal([(100000, 0, 0), (0, 2, 0), (0, 0, 2)])
    report = analyze(FiltrationSpec(i, J=j))
    assert report.reduction.r == 1
    assert report.coefficients.certified_from == 1
    assert report.coefficients.e0 == 400000
