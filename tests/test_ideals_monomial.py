"""Monomial ideal arithmetic checked against independent brute-force oracles.

The oracles here use nothing from the production colength or containment
routes: membership is re-derived from the divisibility definition, and
lengths are counted by scanning an explicit bounding box.
"""

import contextlib
import itertools
import math
import random

import pytest

import fibrekit.ideals
from fibrekit import (
    ComputationError,
    ContainmentError,
    InputError,
    InternalInconsistencyError,
    PowerSeriesRing,
    RingMismatchError,
    quotient_length,
)
from conftest import colength_cross_check

INFINITE = fibrekit.ideals.INFINITE


def divides(gen, point):
    return all(g <= p for g, p in zip(gen, point))


def oracle_member(ideal, point):
    return any(divides(g, point) for g in ideal.gens)


def oracle_box(ideal):
    """A box certainly containing every standard monomial outside the ideal."""
    dim = len(ideal.gens[0])
    return tuple(max(g[i] for g in ideal.gens) for i in range(dim))


def oracle_colength(ideal):
    # every monomial outside the ideal has, on each axis, an exponent below
    # that axis' pure-power generator, hence lies inside the box
    box = oracle_box(ideal)
    count = 0
    ranges = [range(b) for b in box]
    points = [()]
    for r in ranges:
        points = [p + (v,) for p in points for v in r]
    for p in points:
        if not oracle_member(ideal, p):
            count += 1
    return count


def random_cofinite_ideal(rng, ring, cap=8):
    dim = ring.dim
    gens = set()
    for axis in range(dim):
        e = rng.randint(1, cap)
        gens.add(tuple(e if i == axis else 0 for i in range(dim)))
    for _ in range(rng.randint(0, 4)):
        gens.add(tuple(rng.randint(0, cap) for _ in range(dim)))
    gens.discard(tuple(0 for _ in range(dim)))
    return ring.ideal(gens)


class TestCanonicalization:
    def test_redundant_generators_are_dropped(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(2, 0), (2, 1), (0, 3), (1, 4)])
        b = ring.ideal([(2, 0), (0, 3)])
        assert a == b
        assert a.gens == b.gens

    def test_plane_generators_form_a_staircase(self):
        ring = PowerSeriesRing("x", "y")
        ideal = ring.ideal([(0, 3), (3, 0), (2, 1)])
        gens = ideal.gens
        assert gens == tuple(sorted(gens))
        seconds = [v for (_, v) in gens]
        assert seconds == sorted(seconds, reverse=True)

    def test_duplicate_generators_collapse(self):
        ring = PowerSeriesRing("x", "y")
        assert ring.ideal([(1, 1), (1, 1)]).gens == ((1, 1),)

    def test_equality_and_hash(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(2, 0), (0, 2)])
        b = ring.ideal([(0, 2), (2, 0), (2, 2)])
        assert a == b
        assert hash(a) == hash(b)


class TestOperations:
    def sample_points(self, dim, bound=9):
        pts = [()]
        for _ in range(dim):
            pts = [p + (v,) for p in pts for v in range(bound)]
        return pts

    def test_product_against_membership_oracle(self):
        rng = random.Random(11)
        ring = PowerSeriesRing("x", "y")
        for _ in range(25):
            a = random_cofinite_ideal(rng, ring, cap=4)
            b = random_cofinite_ideal(rng, ring, cap=4)
            prod = a * b
            for p in self.sample_points(2):
                expected = any(
                    divides((ga[0] + gb[0], ga[1] + gb[1]), p)
                    for ga in a.gens
                    for gb in b.gens
                )
                assert prod.contains_element(p) == expected, (a, b, p)

    def test_sum_against_membership_oracle(self):
        rng = random.Random(12)
        ring = PowerSeriesRing("x", "y")
        for _ in range(25):
            a = random_cofinite_ideal(rng, ring, cap=5)
            b = random_cofinite_ideal(rng, ring, cap=5)
            s = a + b
            for p in self.sample_points(2):
                assert s.contains_element(p) == (
                    oracle_member(a, p) or oracle_member(b, p)
                )

    def test_intersection_against_membership_oracle(self):
        rng = random.Random(13)
        ring = PowerSeriesRing("x", "y")
        for _ in range(25):
            a = random_cofinite_ideal(rng, ring, cap=5)
            b = random_cofinite_ideal(rng, ring, cap=5)
            meet = a.intersect(b)
            for p in self.sample_points(2):
                assert meet.contains_element(p) == (
                    oracle_member(a, p) and oracle_member(b, p)
                )

    def test_space_intersection_against_membership_oracle(self):
        rng = random.Random(16)
        ring = PowerSeriesRing("x", "y", "z")
        for _ in range(25):
            a = random_cofinite_ideal(rng, ring, cap=5)
            b = random_cofinite_ideal(rng, ring, cap=5)
            meet = a.intersect(b)
            for p in self.sample_points(3, bound=7):
                assert meet.contains_element(p) == (
                    oracle_member(a, p) and oracle_member(b, p)
                ), (a, b, p)

    def test_colon_against_membership_oracle(self):
        # p is in (A : B) iff p + g lies in A for every generator g of B
        rng = random.Random(14)
        ring = PowerSeriesRing("x", "y")
        for _ in range(25):
            a = random_cofinite_ideal(rng, ring, cap=5)
            b = random_cofinite_ideal(rng, ring, cap=5)
            quot = a.colon(b)
            for p in self.sample_points(2):
                expected = all(
                    oracle_member(a, (p[0] + g[0], p[1] + g[1]))
                    for g in b.gens
                )
                assert quot.contains_element(p) == expected

    def test_three_variable_operations(self):
        ring = PowerSeriesRing("x", "y", "z")
        a = ring.ideal([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
        b = ring.ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        prod = a * b
        meet = a.intersect(b)
        assert meet.contains(prod)
        assert a.contains(meet) and b.contains(meet)
        # colon by a principal monomial ideal undoes multiplication by it
        p = ring.ideal([(1, 1, 0)])
        assert (a * p).colon(p) == a

    def test_containment(self):
        ring = PowerSeriesRing("x", "y")
        small = ring.ideal([(3, 0), (0, 3)])
        big = ring.ideal([(2, 0), (0, 2)])
        assert big.contains(small)
        assert not small.contains(big)


def random_plane_ideal(rng, ring, cap=6):
    """Random plane ideal, cofinite or not: each pure power is drawn only
    half of the time, and the zero ideal comes up when nothing is drawn."""
    gens = set()
    if rng.random() < 0.5:
        gens.add((rng.randint(1, cap), 0))
    if rng.random() < 0.5:
        gens.add((0, rng.randint(1, cap)))
    for _ in range(rng.randint(0, 4)):
        gens.add((rng.randint(0, cap), rng.randint(0, cap)))
    gens.discard((0, 0))
    return ring.ideal(gens)


def oracle_contains(big, small, bound=14):
    """big >= small by membership of every lattice point of a box that holds
    every generator of small."""
    pts = [(i, j) for i in range(bound) for j in range(bound)]
    return all(oracle_member(big, p) for p in pts if oracle_member(small, p))


class TestPlaneContainment:
    def test_walk_against_membership_oracle(self):
        rng = random.Random(17)
        ring = PowerSeriesRing("x", "y")
        ideals = [random_plane_ideal(rng, ring) for _ in range(40)]
        ideals += [ring.unit_ideal(), ring.zero_ideal(), ring.maximal_ideal()]
        # every ordered pair, so equal ideals (a, a) are covered as well
        for a in ideals:
            for b in ideals:
                expected = oracle_contains(a, b)
                outside = [g for g in b.gens if not oracle_member(a, g)]
                assert fibrekit.ideals._outside(a.gens, b.gens) == outside
                assert (not outside) == expected
                with colength_cross_check():
                    assert a.contains(b) == expected, (a, b)

    def test_generators_sharing_an_x_coordinate(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(0, 4), (2, 2), (5, 0)])
        # x-coordinates 2 and 5 meet a's corners: the height there is a's own
        assert a.contains(ring.ideal([(2, 2), (5, 0)]))
        assert a.contains(ring.ideal([(2, 3), (5, 1)]))
        assert not a.contains(ring.ideal([(2, 1), (5, 0)]))
        assert not a.contains(ring.ideal([(0, 5), (4, 1)]))
        assert a.contains(ring.ideal([(0, 5), (4, 2)]))

    def test_cross_check_catches_a_wrong_walk(self, monkeypatch):
        ring = PowerSeriesRing("x", "y")
        big = ring.ideal([(2, 0), (0, 2)])
        small = ring.ideal([(3, 0), (0, 3)])
        monkeypatch.setattr(fibrekit.ideals, "_outside", lambda gens, pts: list(pts))
        assert big.contains(small) is False
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                big.contains(small)


class TestPlaneWalks:
    """The d = 2 product (sorted sums, one staircase scan), the colon by one
    generator (one clipping walk) and the intersection (merged heights),
    each against the membership oracle and in canonical form."""

    BOUND = 16

    def points(self):
        return [(i, j) for i in range(self.BOUND) for j in range(self.BOUND)]

    def check(self, a, b):
        ring = a.ring
        prod, meet, quot = a * b, a.intersect(b), a.colon(b)
        sums = {(g[0] + h[0], g[1] + h[1]) for g in a.gens for h in b.gens}
        meets = {tuple(map(max, g, h)) for g in a.gens for h in b.gens}
        assert prod.gens == brute_minimal(sums), (a, b)
        assert meet.gens == brute_minimal(meets), (a, b)
        assert quot.gens == ring.ideal(quot.gens).gens, (a, b)
        for p in self.points():
            assert prod.contains_element(p) == any(divides(s, p) for s in sums)
            assert meet.contains_element(p) == (
                oracle_member(a, p) and oracle_member(b, p)
            )
            assert quot.contains_element(p) == all(
                oracle_member(a, (p[0] + g[0], p[1] + g[1])) for g in b.gens
            ), (a, b, p)

    def test_staircases_that_miss_an_axis(self):
        rng = random.Random(31)
        ring = PowerSeriesRing("x", "y")
        cases = [
            ([(2, 1)], [(1, 3)]),
            ([(3, 0), (1, 2)], [(2, 1), (0, 4)]),
            ([(4, 1), (2, 3)], [(5, 0), (0, 5)]),
            ([(0, 3), (2, 1)], [(1, 1)]),
        ]
        pairs = [(ring.ideal(a), ring.ideal(b)) for a, b in cases]
        while len(pairs) < 60:
            a, b = random_plane_ideal(rng, ring), random_plane_ideal(rng, ring)
            if a.is_zero or b.is_zero:
                continue
            if a.pure_powers() is None or b.pure_powers() is None:
                pairs.append((a, b))
        for a, b in pairs:
            self.check(a, b)
            self.check(b, a)

    def test_generators_sharing_a_coordinate(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(0, 5), (2, 3), (4, 1), (6, 0)])
        for b in (
            [(2, 4), (4, 2), (7, 0)],  # shares x-coordinates with a
            [(1, 5), (3, 3), (5, 1)],  # shares y-coordinates with a
            [(2, 3), (4, 1)],  # shares whole generators with a
            [(0, 2), (2, 0)],  # sums land on each other
            [(0, 5), (2, 3), (4, 1), (6, 0)],  # a itself
        ):
            self.check(a, ring.ideal(b))
            self.check(ring.ideal(b), a)

    def test_colon_by_a_monomial_that_clips_to_the_axes(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(0, 6), (2, 5), (3, 2), (5, 1), (7, 0)])
        for b in [(x, y) for x in range(9) for y in range(8)]:
            mono = ring.ideal([b])
            self.check(a, mono)
            clipped = {(max(g[0] - b[0], 0), max(g[1] - b[1], 0)) for g in a.gens}
            assert fibrekit.ideals._colon_plane(a.gens, b) == brute_minimal(clipped), b
        # a generator below the monomial in both coordinates: the unit ideal
        assert a.colon(ring.ideal([(4, 3)])) == ring.unit_ideal()
        assert a.colon(ring.ideal([(3, 2)])) == ring.unit_ideal()
        assert a.colon(ring.ideal([(2, 2)])) == ring.ideal([(1, 0), (0, 3)])

    def test_colon_by_pure_powers(self):
        rng = random.Random(32)
        ring = PowerSeriesRing("x", "y")
        for _ in range(40):
            a = random_cofinite_ideal(rng, ring, cap=7)
            j = ring.ideal([(rng.randint(1, 6), 0), (0, rng.randint(1, 6))])
            self.check(a, j)
            self.check(a * j, j)
            assert (a * j).colon(j).contains(a)


class TestUnitAndZeroFactors:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_unit_factors(self, dim):
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        zero, unit, m = ring.zero_ideal(), ring.unit_ideal(), ring.maximal_ideal()
        powers = [tuple(2 if k == axis else 0 for k in range(dim)) for axis in range(dim)]
        i = ring.ideal(powers + [(1,) * dim])
        for x in (zero, unit, m, i):
            assert zero * x == zero and x * zero == zero
        for x in (unit, m, i):
            assert unit * x == x and x * unit == x
            # a unit factor hands back the other factor unchanged
            assert unit * x is x and x * unit is x
        assert unit.gens == ((0,) * dim,)
        # zero and unit on either side of a colon
        assert zero.colon(i) == zero and zero.colon(unit) == zero
        assert unit.colon(i) == unit and unit.colon(unit) == unit
        assert i.colon(unit) == i and i.colon(i) == unit
        for x in (zero, unit, i):
            with pytest.raises(InputError):
                x.colon(zero)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_products_commute(self, dim):
        rng = random.Random(40 + dim)
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        pool = [ring.unit_ideal(), ring.zero_ideal(), ring.maximal_ideal()]
        for _ in range(40):
            if dim == 2:
                pool.append(random_plane_ideal(rng, ring))
            else:
                pool.append(random_space_ideal(rng, dim, cap=3))
        for a, b in zip(pool, pool[1:] + pool[:1]):
            ab, ba = a * b, b * a
            assert ab == ba and ab.gens == ba.gens, (a, b)


class TestColength:
    def test_against_box_oracle_plane(self):
        rng = random.Random(15)
        ring = PowerSeriesRing("x", "y")
        for _ in range(60):
            ideal = random_cofinite_ideal(rng, ring)
            assert ideal.colength() == oracle_colength(ideal)

    def test_against_box_oracle_space(self):
        rng = random.Random(16)
        ring = PowerSeriesRing("x", "y", "z")
        for _ in range(40):
            ideal = random_cofinite_ideal(rng, ring, cap=5)
            assert ideal.colength() == oracle_colength(ideal)

    def test_cross_check_flag_runs_all_routes(self):
        ring = PowerSeriesRing("x", "y")
        ideal = ring.ideal([(4, 0), (3, 1), (1, 3), (0, 4)])
        with colength_cross_check():
            assert ideal.colength() == 11
        assert fibrekit.ideals.CROSS_CHECK is False

    def test_non_cofinite_ideal_has_infinite_colength(self):
        # no pure power at all, none of y, none of x: the d = 2 staircase
        # route must notice on its own, without the pure-power box
        ring = PowerSeriesRing("x", "y")
        assert fibrekit.ideals.CROSS_CHECK is False
        for gens in ([(2, 1)], [(3, 0), (1, 2)], [(2, 1), (0, 4)]):
            ideal = ring.ideal(gens)
            assert ideal.colength() == INFINITE
            assert math.isinf(ideal.colength())
            with colength_cross_check():
                assert ideal.colength() == INFINITE

    def test_unit_ideal_colength_zero(self):
        ring = PowerSeriesRing("x", "y")
        assert ring.unit_ideal().colength() == 0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_colength_is_computed_once_per_ideal(self, dim, monkeypatch):
        # CROSS_CHECK still runs every route on every call; in d = 4 the
        # slices also call _colength_slice one dimension down, uncounted
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        calls = []
        slice_ = fibrekit.ideals._colength_slice

        def counted(gens):
            if len(gens[0]) == dim:
                calls.append(gens)
            return slice_(gens)

        monkeypatch.setattr(fibrekit.ideals, "_colength_slice", counted)
        ideal = ring.maximal_ideal() ** 2
        expected = math.comb(dim + 1, dim)
        assert ideal.colength() == ideal.colength() == expected
        assert len(calls) == 1
        with colength_cross_check():
            assert ideal.colength() == ideal.colength() == expected
        assert len(calls) == 3
        assert ring.ideal(ideal.gens).colength() == expected and len(calls) == 4


SPACE_VARIABLES = ("x", "y", "z", "w", "v")


def random_space_ideal(rng, dim, cap=4, missing=None):
    """Random ideal of k[[x_1..x_dim]]: each pure power is drawn with
    probability 0.8 (never the one of axis `missing`), plus up to five
    mixed generators, none of which is a pure power of axis `missing`."""
    gens = set()
    for axis in range(dim):
        if axis != missing and rng.random() < 0.8:
            gens.add(tuple(rng.randint(1, cap) if i == axis else 0 for i in range(dim)))
    for _ in range(rng.randint(0, 5)):
        g = tuple(rng.randint(0, cap) for _ in range(dim))
        if missing is not None and not any(g[i] for i in range(dim) if i != missing):
            continue
        gens.add(g)
    gens.discard((0,) * dim)
    return PowerSeriesRing(*SPACE_VARIABLES[:dim]).ideal(gens)


def brute_minimal(cands):
    cands = set(cands)
    return tuple(
        sorted(g for g in cands if not any(h != g and divides(h, g) for h in cands))
    )


class TestSliceKernels:
    """The d = 3 sweep and the d >= 4 slab walks that end in it: colength,
    antichain and containment against the box-scan and divisibility
    oracles."""

    @pytest.mark.parametrize("dim, cap", [(3, 5), (4, 3), (5, 2)])
    def test_colength_against_box_oracle(self, dim, cap):
        rng = random.Random(40 + dim)
        for _ in range(80):
            ideal = random_space_ideal(rng, dim, cap)
            if ideal.is_zero:
                continue
            # axes that carry a pure power: the box oracle needs all of them
            axes = {i for g in ideal.gens for i in range(dim) if g[i] == sum(g)}
            expected = oracle_colength(ideal) if len(axes) == dim else INFINITE
            assert ideal.colength() == expected, ideal.gens
            with colength_cross_check():
                assert ideal.colength() == expected, ideal.gens

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_missing_pure_power_is_infinite(self, dim):
        rng = random.Random(50 + dim)
        for _ in range(60):
            missing = rng.randrange(dim)
            ideal = random_space_ideal(rng, dim, missing=missing)
            if ideal.is_zero:
                continue
            assert ideal.colength() == INFINITE, ideal.gens
            with colength_cross_check():
                assert ideal.colength() == INFINITE, ideal.gens

    @pytest.mark.parametrize(
        "gens",
        [
            [(1, 0, 1), (0, 1, 1), (0, 0, 2)],  # no generator on level z = 0
            [(2, 0, 0), (0, 0, 1)],  # the slab below z = 1 is (x^2): no y-power
            [(1, 0, 0), (0, 1, 0)],  # the top slab has no power of z
        ],
    )
    def test_each_infinite_exit(self, gens):
        # the INFINITE object itself, which quotient_length tests by identity
        ideal = PowerSeriesRing("x", "y", "z").ideal(gens)
        assert ideal.colength() is INFINITE
        with colength_cross_check():
            assert ideal.colength() is INFINITE

    @pytest.mark.parametrize("dim", [3, 4])
    def test_unit_and_zero_ideal(self, dim):
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        unit, zero, m = ring.unit_ideal(), ring.zero_ideal(), ring.maximal_ideal()
        for check in (contextlib.nullcontext, colength_cross_check):
            with check():
                assert unit.colength() == 0
                assert zero.colength() == INFINITE
                assert m.colength() == 1
                assert unit.contains(m) and unit.contains(zero) and unit.contains(unit)
                assert m.contains(zero) and zero.contains(zero)
                assert not zero.contains(unit) and not zero.contains(m)
                assert not m.contains(unit)
        assert fibrekit.ideals._antichain([]) == ()
        assert (unit * m) == m and (zero * m) == zero
        assert unit.intersect(m) == m and m.colon(m) == unit

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_antichain_against_brute_force(self, dim):
        rng = random.Random(60 + dim)
        for _ in range(200):
            cands = [
                tuple(rng.randint(0, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 14))
            ]
            cands += rng.sample(cands, rng.randint(0, len(cands)))  # duplicates
            assert fibrekit.ideals._antichain(cands) == brute_minimal(cands), cands
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        for _ in range(30):
            a = random_space_ideal(rng, dim, cap=3)
            b = random_space_ideal(rng, dim, cap=3)
            sums = {tuple(u + v for u, v in zip(g, h)) for g in a.gens for h in b.gens}
            meets = {tuple(map(max, g, h)) for g in a.gens for h in b.gens}
            assert (a * b).gens == brute_minimal(sums)
            assert a.intersect(b).gens == brute_minimal(meets)
            assert (a + b).gens == brute_minimal(a.gens + b.gens)
            assert ring.ideal(a.gens + b.gens) == a + b

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_contains_every_ordered_pair(self, dim):
        rng = random.Random(70 + dim)
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        ideals = [random_space_ideal(rng, dim, cap=3) for _ in range(30)]
        ideals += [ring.unit_ideal(), ring.zero_ideal(), ring.maximal_ideal()]
        ideals += [a * b for a, b in zip(ideals[:6], ideals[6:12])]
        for a in ideals:
            for b in ideals:
                outside = [g for g in b.gens if not oracle_member(a, g)]
                assert sorted(fibrekit.ideals._outside(a.gens, b.gens)) == outside
                expected = not outside
                assert a.contains(b) == expected, (a, b)
                with colength_cross_check():
                    assert a.contains(b) == expected, (a, b)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_antichain_with_shared_coordinates(self, dim):
        # each coordinate takes one or two values per draw, so points share
        # an x or a z often, every point may sit on one level, and repeats
        # are common
        rng = random.Random(80 + dim)
        for _ in range(300):
            values = [rng.sample(range(5), rng.randint(1, 2)) for _ in range(dim)]
            cands = [tuple(map(rng.choice, values)) for _ in range(rng.randint(1, 10))]
            cands += cands[: rng.randint(0, len(cands))]
            assert fibrekit.ideals._antichain(cands) == brute_minimal(cands), cands
        tail = (0,) * (dim - 3)
        cases = [
            [(1, 1, 1)],
            [(2, 0, 3), (2, 0, 3)],
            [(2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 1, 1), (2, 2, 1), (1, 3, 1)],  # one level
            [(1, 2, 0), (1, 1, 3), (1, 3, 1), (1, 0, 5), (1, 2, 2)],  # one x
            [(0, 3, 2), (3, 0, 2), (1, 1, 0), (2, 2, 4), (0, 0, 9)],
        ]
        for cands in cases:
            cands = [p + tail for p in cands]
            assert fibrekit.ideals._antichain(cands) == brute_minimal(cands), cands
        # the levels in the last coordinate: the projection (1, 1) of level
        # 0 recurs on levels 1 and 3, where it enters no slab antichain
        head = (1,) * (dim - 3)
        cands = [(1, 1, 0), (2, 0, 1), (1, 1, 1), (0, 3, 2), (1, 1, 3), (0, 2, 3)]
        cands = [head + p for p in cands]
        kept = fibrekit.ideals._antichain(cands)
        assert kept == brute_minimal(cands), cands
        assert kept == tuple(sorted(head + p for p in [(1, 1, 0), (2, 0, 1), (0, 3, 2), (0, 2, 3)]))
        if dim >= 4:
            slabs = fibrekit.ideals._slabs(cands)
            assert [z for z, _ in slabs] == [0, 1, 2, 3]
            assert slabs[1][1] == slabs[0][1] + (head + (2, 0),)
            assert slabs[3][1] == (head + (0, 2), head + (1, 1), head + (2, 0))

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_outside_against_divisibility(self, dim):
        rng = random.Random(85 + dim)
        for _ in range(300):
            values = [rng.sample(range(5), rng.randint(1, 3)) for _ in range(dim)]
            draw = [tuple(map(rng.choice, values)) for _ in range(rng.randint(0, 8))]
            gens = brute_minimal(draw)
            pts = [tuple(map(rng.choice, values)) for _ in range(rng.randint(1, 10))]
            pts += pts[: rng.randint(0, len(pts))]
            outside = [p for p in pts if not any(divides(g, p) for g in gens)]
            assert sorted(fibrekit.ideals._outside(gens, pts)) == sorted(outside), (gens, pts)
        pts = [(0,) * dim, (1,) * dim, (3, 0, 2, 1, 4)[:dim]]
        assert sorted(fibrekit.ideals._outside((), pts)) == sorted(pts)
        assert fibrekit.ideals._outside(((1,) * dim,), []) == []

    @pytest.mark.parametrize("dim", [3, 4])
    def test_exact_colength_with_a_huge_exponent(self, dim):
        """Exponent 10^6 on one axis, each in turn. Oracle: over each point of
        the box of the other axes, the line along the big axis holds as many
        points outside the ideal as the least big-axis exponent of a
        generator dividing it there."""
        big = 10**6
        rng = random.Random(90 + dim)
        ring = PowerSeriesRing(*SPACE_VARIABLES[:dim])
        for axis in range(dim):
            others = [i for i in range(dim) if i != axis]
            for _ in range(8):
                gens = [tuple(big if i == axis else 0 for i in range(dim))]
                gens += [tuple(rng.randint(1, 3) if i == j else 0 for i in range(dim)) for j in others]
                for _ in range(rng.randint(0, 4)):
                    g = [rng.randint(0, 3) for _ in range(dim)]
                    g[axis] = rng.choice([g[axis], rng.randint(1, big)])
                    gens.append(tuple(g))
                ideal = ring.ideal(gens)
                box = [range(max(g[i] for g in ideal.gens)) for i in others]
                expected = 0
                for q in itertools.product(*box):
                    expected += min(
                        g[axis]
                        for g in ideal.gens
                        if all(g[i] <= v for i, v in zip(others, q))
                    )
                assert ideal.colength() == expected, ideal.gens

    def test_cross_check_catches_a_wrong_slice(self, monkeypatch):
        ring = PowerSeriesRing("x", "y", "z")
        ideal = ring.ideal([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
        small = ring.ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert ideal.colength() == 6
        monkeypatch.setattr(fibrekit.ideals, "_colength_slice", lambda gens: 7)
        ideal = ring.ideal(ideal.gens)  # a fresh, equal ideal: the first cached 6
        assert ideal.colength() == 7
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                ideal.colength()
        monkeypatch.setattr(fibrekit.ideals, "_outside", lambda gens, pts: list(pts))
        assert ideal.contains(small) is False
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                ideal.contains(small)


def monomials_of_degree(dim, n):
    """Exponent vectors of degree n in dim variables (stars and bars)."""
    for bars in itertools.combinations(range(n + dim - 1), dim - 1):
        cuts = (-1,) + bars + (n + dim - 1,)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def expand_series(q, dim, top):
    """Coefficients of t^0 .. t^top of q / (1 - t)^dim."""
    series = (q + [0] * (top + 1))[: max(len(q), top + 1)]
    for _ in range(dim):
        series = list(itertools.accumulate(series))
    return series[: top + 1]


class TestHilbertNumerator:
    """The pivot recursion's numerator Q against a brute count, degree by
    degree, of the monomials outside the ideal; adic_start's cross-check
    against the colengths of the products m^k M."""

    def check(self, gens, dim, top):
        q = fibrekit.ideals._hilbert_numerator(fibrekit.ideals._antichain(gens))
        counts = [
            sum(not any(divides(g, w) for g in gens) for w in monomials_of_degree(dim, n))
            for n in range(top + 1)
        ]
        assert expand_series(q, dim, top) == counts, (gens, q)

    def test_random_ideals_against_degree_counts(self):
        rng = random.Random(77)
        for _ in range(300):
            dim = rng.randint(2, 5)
            gens = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.5:
                # a multiple of a generator: the list is not minimal
                gens.append(tuple(e + rng.randint(0, 2) for e in rng.choice(gens)))
            self.check(gens, dim, 8 if dim < 5 else 6)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_unit_zero_and_pure_power_ideals(self, dim):
        assert fibrekit.ideals._hilbert_numerator(()) == [1]
        self.check([], dim, 6)
        self.check([(0,) * dim], dim, 6)
        self.check([(0,) * dim, (1,) * dim], dim, 6)
        pure = [tuple(i + 2 if j == i else 0 for j in range(dim)) for i in range(dim)]
        self.check(pure, dim, 8)
        # pure powers only, one axis missing, one repeated at a higher power
        self.check(pure[1:] + [tuple(9 if j == 1 else 0 for j in range(dim))], dim, 8)

    def test_cross_check_catches_a_wrong_numerator(self, monkeypatch):
        m2 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        with colength_cross_check():
            assert fibrekit.ideals.adic_start([m2]) == 0
        monkeypatch.setattr(fibrekit.ideals, "_box_numerator", lambda exponents: [1])
        fibrekit.ideals.adic_start([m2])
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                fibrekit.ideals.adic_start([m2])


class TestOneVariable:
    """k[[x]]: every ideal is (x^a) or zero, so each kernel is a comparison
    of exponents."""

    def test_colength_and_canonical_form(self):
        ring = PowerSeriesRing("x")
        ideal = ring.ideal([(5,), (3,), (3,)])
        assert ideal.gens == ((3,),)
        for check in (contextlib.nullcontext, colength_cross_check):
            with check():
                assert ideal.colength() == 3
                assert ring.maximal_ideal().gens == ((1,),)
                assert ring.maximal_ideal().colength() == 1
                assert ring.unit_ideal().colength() == 0
                assert ring.zero_ideal().colength() == INFINITE

    def test_contains_every_ordered_pair(self):
        ring = PowerSeriesRing("x")
        ideals = [ring.ideal([(a,)]) for a in range(5)] + [ring.zero_ideal()]
        for a in ideals:
            for b in ideals:
                expected = all(oracle_member(a, g) for g in b.gens)
                for check in (contextlib.nullcontext, colength_cross_check):
                    with check():
                        assert a.contains(b) == expected, (a, b)
        assert ring.ideal([(2,)]).contains_element((4,))
        assert not ring.ideal([(2,)]).contains_element((1,))

    def test_operations(self):
        ring = PowerSeriesRing("x")
        x2, x3 = ring.ideal([(2,)]), ring.ideal([(3,)])
        assert x2 * x3 == ring.ideal([(5,)])
        assert x2 + x3 == x2 and x2.intersect(x3) == x3
        assert (x3 * x2).colon(x2) == x3 and x2.colon(x3) == ring.unit_ideal()
        assert x2**3 == ring.ideal([(6,)])
        assert quotient_length(x2, ring.ideal([(5,)])) == 3


class TestQuotientLength:
    def test_basic_quotient(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        j = ring.ideal([(3, 0), (0, 3)])
        assert quotient_length(i, j) == 2

    def test_raises_on_non_containment(self):
        ring = PowerSeriesRing("x", "y")
        a = ring.ideal([(2, 0), (0, 2)])
        b = ring.ideal([(1, 1)])
        with pytest.raises(ContainmentError) as err:
            quotient_length(a, b)
        assert "not contained" in str(err.value)

    def test_raises_on_infinite_quotient(self):
        ring = PowerSeriesRing("x", "y")
        big = ring.ideal([(1, 0)])
        small = ring.ideal([(2, 0)])
        with pytest.raises(ComputationError):
            quotient_length(big, small)

    def test_equal_ideals(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        assert quotient_length(i, ring.ideal([(0, 3), (2, 1), (3, 0)])) == 0
        with pytest.raises(ComputationError):
            quotient_length(ring.ideal([(1, 0)]), ring.ideal([(1, 0)]))

    def test_raises_on_ring_mismatch(self):
        r1 = PowerSeriesRing("x", "y")
        r2 = PowerSeriesRing("u", "v")
        with pytest.raises(RingMismatchError):
            quotient_length(r1.ideal([(1, 0), (0, 1)]), r2.ideal([(2, 0), (0, 2)]))

    def test_equal_rings_built_twice_interoperate(self):
        r1 = PowerSeriesRing("x", "y")
        r2 = PowerSeriesRing("x", "y")
        assert r1 is not r2
        m, i = r1.maximal_ideal(), r2.ideal([(2, 0), (0, 2)])
        assert quotient_length(m, i) == 3
        assert m.contains(i) and m * i == r1.ideal([(3, 0), (1, 2), (2, 1), (0, 3)])
        assert m + i == m and m.intersect(i) == i
        assert i.colon(m) == r1.ideal([(2, 0), (1, 1), (0, 2)])

    def test_every_binary_operation_checks_the_ring(self):
        i = PowerSeriesRing("x", "y").ideal([(2, 0), (0, 2)])
        other = PowerSeriesRing("u", "v")
        j = other.ideal([(2, 0), (0, 2)])
        for op in (i.__mul__, i.__add__, i.intersect, i.colon, i.contains, i.is_reduction_of):
            with pytest.raises(RingMismatchError):
                op(j)
        # a unit factor is checked before it hands back the other factor
        for a, b in ((i, other.unit_ideal()), (other.unit_ideal(), i)):
            with pytest.raises(RingMismatchError):
                a * b


class TestPowers:
    def test_power_zero_is_unit_ideal(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (0, 2)])
        assert (i**0) == ring.unit_ideal()

    def test_negative_power_rejected(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (0, 2)])
        with pytest.raises(ValueError):
            i ** (-1)

    def test_powers_are_consistent_with_repeated_products(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        assert i**3 == i * i * i
        assert i**4 == (i**2) * (i**2)
