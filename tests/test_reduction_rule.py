"""The Newton-polyhedron reduction rule checked against an independent oracle.

A monomial J inside I is a reduction exactly when every generator of I lies
in NP(J) = conv(exponents of J) + R^d_>=0. The oracle decides membership by
Caratheodory's theorem in homogeneous coordinates: u is in NP(J) iff (u, 1)
is a nonnegative combination of d + 1 linearly independent vectors among
the (v, 1) for the exponents v of J and the unit rays (e_i, 0). It solves
each such system over fractions.Fraction and shares no code with the
package.
"""

import itertools
import random
from fractions import Fraction

import pytest

import fibrekit.ideals
from fibrekit import PowerSeriesRing, SemigroupRing

NAMES = "xyzw"


def solve(columns, target):
    """The x with sum_j x_j columns[j] = target, or None when the columns
    are linearly dependent; Gauss-Jordan elimination over fractions."""
    n = len(target)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def in_newton_polyhedron(u, exponents):
    d = len(u)
    vectors = [tuple(v) + (1,) for v in exponents]
    vectors += [tuple(int(i == k) for i in range(d)) + (0,) for k in range(d)]
    target = tuple(u) + (1,)
    for basis in itertools.combinations(vectors, d + 1):
        x = solve(basis, target)
        if x is not None and all(c >= 0 for c in x):
            return True
    return False


def oracle_is_reduction(j_exponents, i_exponents):
    return all(in_newton_polyhedron(u, j_exponents) for u in i_exponents)


def random_monomial(rng, d, cap):
    return tuple(rng.randint(0, cap) for _ in range(d))


def random_pair(rng, d):
    """Exponents of a nonzero J and of I = J + a few more monomials. Half of
    the J's carry pure powers on every axis, so both answers occur."""
    cap = 6 if d <= 2 else 4
    j = {random_monomial(rng, d, cap) for _ in range(rng.randint(1, 4 if d < 4 else 3))}
    j.discard((0,) * d)
    if rng.random() < 0.5:
        j |= {tuple(rng.randint(1, cap) if i == k else 0 for i in range(d)) for k in range(d)}
    if not j:
        j = {(1,) * d}
    extra = {random_monomial(rng, d, cap) for _ in range(rng.randint(1, 3))}
    return sorted(j), sorted(j | extra)


@pytest.mark.parametrize("d, draws", [(1, 40), (2, 120), (3, 80), (4, 30)])
def test_rule_matches_the_caratheodory_oracle(d, draws):
    ring = PowerSeriesRing(*NAMES[:d])
    rng = random.Random(1500 + d)
    answers = set()
    for _ in range(draws):
        j_exp, i_exp = random_pair(rng, d)
        want = oracle_is_reduction(j_exp, i_exp)
        assert ring.ideal(j_exp).is_reduction_of(ring.ideal(i_exp)) is want, (j_exp, i_exp)
        answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize(
    "names, i_gens, j_gens, want",
    [
        # xy lies below NP(J): x + y >= 4
        ("xy", [(4, 0), (1, 1), (0, 4)], [(4, 0), (2, 2), (0, 4)], False),
        # x^3 y lies on x + y = 4, above the simplex of x^4, y^4 alone
        ("xy", [(4, 0), (3, 1), (2, 2), (0, 4)], [(4, 0), (2, 2), (0, 4)], True),
        # J with no pure power: x^2 y^2 is the midpoint of x^3 y and x y^3
        ("xy", [(3, 1), (2, 2), (1, 3)], [(3, 1), (1, 3)], True),
        ("xy", [(3, 1), (2, 2), (1, 3), (4, 0)], [(3, 1), (1, 3)], False),
        # the simplex of the pure powers: 1/2 + 1/2 + 1/2 >= 1 for xyz,
        # 1/3 + 1/2 < 1 for xy
        ("xyz", [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
         [(2, 0, 0), (0, 2, 0), (0, 0, 2)], True),
        ("xyz", [(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)],
         [(3, 0, 0), (0, 2, 0), (0, 0, 2)], False),
        # J has x^2 y^2 besides its pure powers: xyz lies below the facet
        # x + y + z >= 4, and x^3 y is the midpoint of x^4 and x^2 y^2
        ("xyz", [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (2, 2, 0)],
         [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0)], False),
        ("xyz", [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 1, 0), (2, 2, 0)],
         [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0)], True),
    ],
)
def test_named_cases(names, i_gens, j_gens, want):
    ring = PowerSeriesRing(*names)
    i, j = ring.ideal(i_gens), ring.ideal(j_gens)
    assert oracle_is_reduction(j.gens, i.gens) is want
    assert j.is_reduction_of(i) is want


@pytest.mark.parametrize(
    "names, gens",
    [
        ("x", [(3,)]),
        ("xy", [(4, 0), (1, 1), (0, 4)]),
        ("xyz", [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0)]),
        ("xyzw", [(1, 1, 0, 0), (0, 0, 2, 1)]),
    ],
)
def test_every_ideal_reduces_itself(names, gens):
    i = PowerSeriesRing(*names).ideal(gens)
    assert i.is_reduction_of(i) is True


@pytest.mark.parametrize("powers", [(5,), (3, 7), (2, 3, 4), (2, 2, 3, 5)])
def test_pure_powers_form_one_normal(monkeypatch, powers):
    # every smaller axis set is skipped, so the rule is the simplex test
    d = len(powers)
    ring = PowerSeriesRing(*NAMES[:d])
    j = ring.ideal([tuple(a if i == k else 0 for i in range(d)) for k, a in enumerate(powers)])
    normals = []
    real = fibrekit.ideals._cofactor_normal

    def counted(face):
        normals.append(face)
        return real(face)

    monkeypatch.setattr(fibrekit.ideals, "_cofactor_normal", counted)
    assert j.is_reduction_of(ring.maximal_ideal() ** max(powers)) is True
    assert len(normals) == 1


class TestZeroAndUnit:
    """Both ideal classes answer a bool; the zero ideal reduces only itself."""

    @pytest.fixture(params=["monomial", "semigroup"])
    def ring(self, request):
        if request.param == "monomial":
            return PowerSeriesRing("x", "y")
        return SemigroupRing(3, 5)

    def test_zero_reduces_only_zero(self, ring):
        zero = ring.zero_ideal()
        assert zero.is_reduction_of(zero) is True
        assert zero.is_reduction_of(ring.maximal_ideal()) is False
        assert zero.is_reduction_of(ring.unit_ideal()) is False

    def test_unit_ideal(self, ring):
        unit = ring.unit_ideal()
        assert unit.is_reduction_of(unit) is True
        assert ring.maximal_ideal().is_reduction_of(unit) is False
