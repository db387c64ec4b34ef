"""Semigroup ideal arithmetic checked against an independent enumeration.

The oracle rebuilds semigroup membership with its own dynamic-programming
table and models an ideal as the literal set of its elements below a bound
past which the ideal provably contains every integer.
"""

import random
import tracemalloc
from math import gcd

import pytest

from fibrekit import (
    ComputationError,
    ContainmentError,
    FiltrationSpec,
    InputError,
    InternalInconsistencyError,
    PowerSeriesRing,
    RingMismatchError,
    SemigroupIdeal,
    SemigroupRing,
    analyze,
    quotient_length,
)
from fibrekit.ideals import _bits


def membership_table(gens, bound):
    table = [False] * bound
    table[0] = True
    for s in range(1, bound):
        table[s] = any(s >= a and table[s - a] for a in gens)
    return table


def oracle_elements(gens, ideal_gens, bound):
    """All elements below bound of the ideal the given valuations generate."""
    table = membership_table(gens, bound)
    out = set()
    for g in ideal_gens:
        for s in range(g, bound):
            if table[s - g]:
                out.add(s)
    return out


def safe_bound(gens, ideal_gens):
    """A bound with [bound, oo) entirely inside the ideal.

    Any n with n - min(ideal_gens) past the Frobenius number lies in the
    ideal, so min + frobenius + 2 works.
    """
    table = membership_table(gens, 4 * max(gens) * max(gens) + 4)
    frobenius = max((s for s, ok in enumerate(table) if not ok), default=-1)
    return min(ideal_gens) + frobenius + 2


def random_semigroup(rng):
    while True:
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 15), k))
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g == 1:
            return tuple(gens)


class TestCanonicalization:
    def test_redundant_generators_collapse(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert ring.ideal([4, 5, 6, 9, 10]) == ring.ideal([4, 5, 6])

    def test_canonical_parts_4567(self):
        ring = SemigroupRing(4, 5, 6, 7)
        i = ring.ideal([4, 5, 6])
        # elements 4, 5, 6 then everything from 8 on; 7 is missing
        assert i.fpart == (4, 5, 6)
        assert i.conductor == 8

    def test_zero_ideal(self):
        ring = SemigroupRing(4, 5, 6, 7)
        z = ring.zero_ideal()
        assert z.is_zero
        assert not z.contains_element(4)

    def test_unit_ideal(self):
        ring = SemigroupRing(4, 5, 6, 7)
        u = ring.unit_ideal()
        assert u.is_unit
        assert u.colength() == 0
        assert u.contains_element(0)

    def test_generators_past_the_conductor_are_skipped(self):
        # 10 + S holds every integer from 10 + conductor on, so a generator
        # there adds no element and is not shifted over
        ring = SemigroupRing(*range(10, 20), 21)
        tracemalloc.start()
        try:
            ideal = ring.ideal([10, 10**8 + 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ideal == ring.ideal([10])
        assert peak < 1 << 20
        assert ring.ideal([10, 10 + ring.conductor]) == ring.ideal([10])
        assert ring.ideal([10, 9 + ring.conductor]) != ring.ideal([10])

    def test_empty_generator_list_is_zero_ideal(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert ring.ideal([]).is_zero

    def test_minimal_generators_round_trip(self):
        rng = random.Random(20)
        for _ in range(20):
            gens = random_semigroup(rng)
            ring = SemigroupRing(*gens)
            pool = ring.members_below(40)[1:]
            ideal = ring.ideal(rng.sample(pool, rng.randint(1, 4)))
            assert ring.ideal(ideal.minimal_generators()) == ideal


class TestOperationsAgainstOracle:
    def run_case(self, rng):
        gens = random_semigroup(rng)
        ring = SemigroupRing(*gens)
        pool = ring.members_below(40)[1:]  # nonzero members
        a_gens = rng.sample(pool, rng.randint(1, 3))
        b_gens = rng.sample(pool, rng.randint(1, 3))
        a = ring.ideal(a_gens)
        b = ring.ideal(b_gens)
        sa = safe_bound(gens, a_gens)
        sb = safe_bound(gens, b_gens)
        bound = max(sa, sb) + max(a_gens) + max(b_gens)
        ea = oracle_elements(gens, a_gens, bound)
        eb = oracle_elements(gens, b_gens, bound)
        return ring, gens, a_gens, b_gens, a, b, ea, eb, bound, sa

    def test_sum_matches_union(self):
        rng = random.Random(21)
        for _ in range(20):
            ring, gens, *_rest = self.run_case(rng)
            _a_gens, _b_gens, a, b, ea, eb, bound, _sa = _rest
            s = a + b
            for v in ring.members_below(bound):
                assert s.contains_element(v) == (v in ea or v in eb)

    def test_intersection_matches_set_intersection(self):
        rng = random.Random(22)
        for _ in range(20):
            ring, gens, *_rest = self.run_case(rng)
            _a_gens, _b_gens, a, b, ea, eb, bound, _sa = _rest
            meet = a.intersect(b)
            for v in ring.members_below(bound):
                assert meet.contains_element(v) == (v in ea and v in eb)

    def test_product_matches_sumset(self):
        # every product element below the bound is a sum of oracle elements,
        # because both addends are nonnegative and hence below the bound too
        rng = random.Random(23)
        for _ in range(20):
            ring, gens, *_rest = self.run_case(rng)
            _a_gens, _b_gens, a, b, ea, eb, bound, _sa = _rest
            prod = a * b
            sums = {x + y for x in ea for y in eb}
            for v in ring.members_below(bound):
                assert prod.contains_element(v) == (v in sums), (a, b, v)

    def test_colon_matches_elementwise_definition(self):
        # v is in (A : B) iff v + x lands in A for every element x of B;
        # sums at or past the oracle bound are automatically inside A
        rng = random.Random(24)
        for _ in range(20):
            ring, gens, *_rest = self.run_case(rng)
            _a_gens, _b_gens, a, b, ea, eb, bound, sa = _rest
            quot = a.colon(b)
            for v in ring.members_below(sa + max(gens) + 1):
                expected = all((v + x) in ea for x in eb if v + x < bound)
                assert quot.contains_element(v) == expected, (a, b, v)

    def test_contains_matches_subset(self):
        # past both safe bounds every integer is in both ideals, so the
        # subset test below the bound decides containment
        rng = random.Random(26)
        for _ in range(40):
            ring, gens, *_rest = self.run_case(rng)
            _a_gens, _b_gens, a, b, ea, eb, bound, _sa = _rest
            assert a.contains(b) == (eb <= ea), (a, b)
            assert b.contains(a) == (ea <= eb), (a, b)
            assert a.contains(a) and a.contains(a * b)

    def test_minimal_generators_match_oracle(self):
        # an element is a minimal generator iff it is no ideal element plus
        # a nonzero semigroup member; all of them lie below the safe bound
        # plus the multiplicity
        rng = random.Random(27)
        for _ in range(40):
            gens = random_semigroup(rng)
            ring = SemigroupRing(*gens)
            pool = ring.members_below(40)[1:]
            i_gens = rng.sample(pool, rng.randint(1, 4))
            bound = safe_bound(gens, i_gens) + min(gens)
            table = membership_table(gens, bound)
            elems = oracle_elements(gens, i_gens, bound)
            expected = sorted(
                e
                for e in elems
                if not any(x in elems and table[e - x] for x in range(e))
            )
            assert ring.ideal(i_gens).minimal_generators() == tuple(expected)

    def test_bits_match_the_lowest_bit_loop(self):
        def lowest_bit_loop(mask):
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return tuple(out)

        rng = random.Random(29)
        masks = [0, 1, 1 << 4000, (1 << 4000) - 1]
        masks += [rng.getrandbits(rng.randint(1, 3000)) for _ in range(200)]
        # sparse masks, as minimal generators are
        masks += [sum(1 << rng.randrange(5000) for _ in range(5)) for _ in range(50)]
        for mask in masks:
            assert _bits(mask) == lowest_bit_loop(mask)

    def test_products_commute(self):
        rng = random.Random(28)
        for _ in range(20):
            ring, _gens, _a_gens, _b_gens, a, b, *_ = self.run_case(rng)
            pool = (a, b, a * b, ring.maximal_ideal(), ring.unit_ideal(), ring.zero_ideal())
            for x in pool:
                for y in pool:
                    assert x * y == y * x, (x, y)


class TestRings:
    def test_equal_rings_built_twice_interoperate(self):
        r1 = SemigroupRing(4, 5, 6, 7)
        r2 = SemigroupRing(4, 5, 6, 7)
        assert r1 is not r2
        m, i = r1.maximal_ideal(), r2.ideal([4, 5, 6])
        assert quotient_length(m, i) == 1
        assert m.contains(i) and m * i == r1.ideal([8, 9, 10, 11])
        assert m + i == m and m.intersect(i) == i
        assert i.colon(m) == m
        assert i.is_reduction_of(m)

    def test_ring_gate_names_each_model(self):
        i = SemigroupRing(4, 5, 6, 7).ideal([4, 5, 6])
        m = PowerSeriesRing("x", "y").maximal_ideal()
        with pytest.raises(TypeError, match="expected a semigroup ideal, got MonomialIdeal"):
            i * m
        with pytest.raises(TypeError, match="expected a monomial ideal, got SemigroupIdeal"):
            m.contains(i)
        with pytest.raises(RingMismatchError, match="semigroup ideals from different rings"):
            i + SemigroupRing(3, 5).maximal_ideal()
        with pytest.raises(RingMismatchError, match="monomial ideals from different rings"):
            m.intersect(PowerSeriesRing("x", "z").maximal_ideal())
        assert i ** 2 == i * i and m ** 2 == m * m

    def test_different_rings_raise(self):
        i = SemigroupRing(4, 5, 6, 7).ideal([4, 5, 6])
        j = SemigroupRing(3, 5).ideal([3, 5])
        for op in (i.__mul__, i.__add__, i.intersect, i.colon, i.contains, i.is_reduction_of):
            with pytest.raises(RingMismatchError):
                op(j)
        with pytest.raises(RingMismatchError):
            quotient_length(i, j)
        # a unit factor is checked before it hands back the other factor
        other = SemigroupRing(3, 5).unit_ideal()
        for a, b in ((i, other), (other, i)):
            with pytest.raises(RingMismatchError):
                a * b


class TestEdgeCases:
    def test_whole_numbers_ring(self):
        # k[[t]]: conductor 0, every ideal is (t^a) with conductor a
        ring = SemigroupRing(1)
        a, b = ring.ideal([3, 7]), ring.ideal([5])
        assert (a.fpart, a.conductor) == ((), 3)
        assert a * b == ring.ideal([8])
        assert a + b == a
        assert a.intersect(b) == b
        assert a.colon(b) == ring.unit_ideal()
        assert b.colon(a) == ring.ideal([2])
        assert a.contains(b) and not b.contains(a)
        assert a.colength() == 3
        assert a.minimal_generators() == (3,)
        assert ring.maximal_ideal() ** 4 == ring.ideal([4])

    @pytest.mark.parametrize("gens", [(1,), (4, 5, 6, 7), (3, 5)])
    def test_zero_and_unit_factors(self, gens):
        ring = SemigroupRing(*gens)
        zero, unit = ring.zero_ideal(), ring.unit_ideal()
        i = ring.ideal([gens[-1], 2 * gens[0]])
        for x in (zero, unit, i):
            assert zero * x == zero and x * zero == zero
        for x in (unit, i):
            assert unit * x == x and x * unit == x
        assert unit * i is i and i * unit is i
        assert unit.minimal_generators() == (0,)
        # zero and unit on either side of a colon
        assert zero.colon(i) == zero and zero.colon(unit) == zero
        assert unit.colon(i) == unit and unit.colon(unit) == unit
        assert i.colon(unit) == i
        assert i.colon(i) == unit
        for x in (zero, unit, i):
            with pytest.raises(InputError):
                x.colon(zero)

    def test_conductor_below_ring_conductor(self):
        # in <3, 5> (gaps 1, 2, 4, 7; ring conductor 8), (t^5, t^6) misses
        # only the members 0 and 3, so its conductor is 4
        gens = (3, 5)
        ring = SemigroupRing(*gens)
        i_gens = [5, 6]
        i = ring.ideal(i_gens)
        assert (i.fpart, i.conductor) == ((), 4)
        assert i.conductor < ring.conductor
        assert i.colength() == 2
        bound = safe_bound(gens, i_gens) + 20
        elems = oracle_elements(gens, i_gens, bound + 5)
        m = ring.maximal_ideal()
        square = {x + y for x in elems for y in elems}
        quot = i.colon(m)
        for v in ring.members_below(bound):
            assert i.contains_element(v) == (v in elems)
            assert (i * i).contains_element(v) == (v in square)
            # (I : m) = {v : v + 3 and v + 5 in I}
            assert quot.contains_element(v) == (v + 3 in elems and v + 5 in elems)
        assert m.contains(i) and not i.contains(m)
        assert i + ring.ideal([3]) == m


class TestHandBuiltParts:
    def test_canonical_parts_are_accepted(self):
        ring = SemigroupRing(3, 5)
        # (t^3) = 3 + S holds 3, 6, 8, 9 and every member from 11 on; the
        # members 0, 5 and 10 lie outside it
        i = SemigroupIdeal(ring, (), _missing=1 << 0 | 1 << 5 | 1 << 10)
        assert i == ring.ideal([3])
        assert i.fpart == (3, 6, 8, 9)
        assert i.conductor == 11

    @pytest.mark.parametrize(
        "parts, message",
        [
            # the missing members: 3 is inside and 3 + 3 = 6 is missing
            ((0, 6), r"not closed under t\^3"),
            # 4 is a gap of <3, 5>
            ((0, 4), "bad finite part"),
            # 7, the Frobenius number of <3, 5>, is its largest gap
            ((0, 7), "bad finite part"),
        ],
    )
    def test_bad_parts_raise(self, parts, message):
        ring = SemigroupRing(3, 5)
        with pytest.raises(InternalInconsistencyError, match=message):
            SemigroupIdeal(ring, (), _missing=sum(1 << s for s in parts))


class TestColength:
    def test_colength_counts_ring_members_outside_ideal(self):
        rng = random.Random(25)
        for _ in range(30):
            gens = random_semigroup(rng)
            ring = SemigroupRing(*gens)
            pool = ring.members_below(40)[1:]
            i_gens = rng.sample(pool, rng.randint(1, 3))
            ideal = ring.ideal(i_gens)
            bound = safe_bound(gens, i_gens)
            table = membership_table(gens, bound)
            elems = oracle_elements(gens, i_gens, bound)
            expected = sum(1 for s in range(bound) if table[s] and s not in elems)
            assert ideal.colength() == expected

    def test_colength_is_counted_once(self):
        ideal = SemigroupRing(4, 5, 6, 7).ideal([4])
        assert ideal._colength is None
        assert ideal.colength() == 4
        assert ideal._colength == 4 and ideal.colength() == 4

    def test_known_colengths_4567(self):
        ring = SemigroupRing(4, 5, 6, 7)
        # ring members outside (t^4, t^5, t^6) are exactly 1 and t^7
        assert ring.ideal([4, 5, 6]).colength() == 2
        # outside (t^4): 1, t^5, t^6, t^7
        assert ring.ideal([4]).colength() == 4

    def test_quotient_length_of_nested_ideals(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert quotient_length(ring.ideal([4, 5, 6]), ring.ideal([4])) == 2

    def test_quotient_length_of_equal_ideals(self):
        ring = SemigroupRing(4, 5, 6, 7)
        i = ring.ideal([4, 5, 6])
        assert quotient_length(i, ring.ideal([6, 5, 4])) == 0
        with pytest.raises(ComputationError):
            quotient_length(ring.zero_ideal(), ring.zero_ideal())

    def test_quotient_length_rejects_non_containment(self):
        ring = SemigroupRing(4, 5, 6, 7)
        i = ring.ideal([4, 5, 6])
        j = ring.ideal([5])
        assert i.contains(j)
        assert not j.contains(i)
        with pytest.raises(ContainmentError):
            quotient_length(j, i)


class TestValidation:
    def test_generators_must_be_members(self):
        ring = SemigroupRing(4, 5, 6, 7)
        with pytest.raises(InputError):
            ring.ideal([3])

    def test_membership_query_rejects_gaps(self):
        ring = SemigroupRing(4, 5, 6, 7)
        i = ring.ideal([4])
        with pytest.raises(InputError):
            i.contains_element(3)


class TestLargeSemigroup:
    def test_analyze_maximal_ideal_31_37(self):
        # I = m, J = (t^31) in k[[t^31, t^37]]: e_0 is the multiplicity 31
        # and r = 30 (I^n = t^31 I^(n-1) exactly from n = 31 on)
        ring = SemigroupRing(31, 37)
        m = ring.maximal_ideal()
        report = analyze(FiltrationSpec(m, K=m, J=ring.ideal([31])))
        assert report.coefficients.e.coefficients[0] == 31
        assert report.reduction.r == 30
