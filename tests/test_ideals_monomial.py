"""Monomial ideal arithmetic checked against independent brute-force oracles.

The oracles here use nothing from the production colength or containment
routes: membership is re-derived from the divisibility definition, and
lengths are counted by scanning an explicit bounding box.
"""

import math
import random

import pytest

import fibrekit.ideals
from fibrekit import (
    ComputationError,
    ContainmentError,
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
                assert fibrekit.ideals._contains_plane(a.gens, b.gens) == expected
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
        monkeypatch.setattr(
            fibrekit.ideals, "_contains_plane", lambda ga, gb: False
        )
        assert big.contains(small) is False
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                big.contains(small)


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

    def test_power_cache_returns_identical_objects(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (0, 3)])
        assert (i**5) is (i**5)
