"""Ring model behaviour: validation, formatting, semigroup arithmetic."""

import math
import random

import pytest

from fibrekit import (
    ComputationError,
    FiltrationSpec,
    InputError,
    PowerSeriesRing,
    SemigroupRing,
    analyze,
)
from fibrekit.reporting import as_dict, describe_ring
from fibrekit.rings import MAX_CONDUCTOR_BOUND


class TestPowerSeriesRing:
    def test_variables_and_dim(self):
        ring = PowerSeriesRing("x", "y")
        assert ring.dim == 2
        assert ring.variables == ("x", "y")

    def test_three_variables(self):
        ring = PowerSeriesRing("x", "y", "z")
        assert ring.dim == 3

    def test_needs_at_least_one_variable(self):
        with pytest.raises(InputError):
            PowerSeriesRing()

    def test_rejects_duplicate_variables(self):
        with pytest.raises(InputError):
            PowerSeriesRing("x", "x")

    def test_monomial_validation_rejects_negative_exponent(self):
        ring = PowerSeriesRing("x", "y")
        with pytest.raises(InputError):
            ring.validate_monomial((-1, 0))

    def test_monomial_validation_rejects_wrong_arity(self):
        ring = PowerSeriesRing("x", "y")
        with pytest.raises(InputError):
            ring.validate_monomial((1, 2, 3))

    def test_monomial_validation_rejects_bool(self):
        ring = PowerSeriesRing("x", "y")
        with pytest.raises(InputError):
            ring.validate_monomial((True, 0))

    def test_monomial_formatting(self):
        ring = PowerSeriesRing("x", "y")
        assert ring.format_monomial((0, 0)) == "1"
        assert ring.format_monomial((1, 0)) == "x"
        assert ring.format_monomial((2, 3)) == "x^2*y^3"

    def test_maximal_ideal(self):
        ring = PowerSeriesRing("x", "y")
        m = ring.maximal_ideal()
        assert m.gens == ((0, 1), (1, 0))
        assert m.colength() == 1

    def test_unit_ideal_and_zero_ideal(self):
        ring = PowerSeriesRing("x", "y")
        assert ring.unit_ideal().colength() == 0
        assert ring.unit_ideal().is_unit
        assert ring.zero_ideal().is_zero


class TestSemigroupRing:
    def test_conductor_and_frobenius_4567(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert ring.conductor == 4
        assert ring.frobenius == 3
        assert ring.dim == 1

    def test_conductor_and_frobenius_3_5(self):
        ring = SemigroupRing(3, 5)
        assert ring.conductor == 8
        assert ring.frobenius == 7

    def test_membership_4567(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert ring.member(0)
        assert not ring.member(1)
        assert not ring.member(2)
        assert not ring.member(3)
        assert all(ring.member(s) for s in range(4, 40))

    def test_members_below_is_sorted_and_complete(self):
        ring = SemigroupRing(3, 5)
        members = ring.members_below(20)
        assert members == sorted(members)
        assert members == [s for s in range(20) if ring.member(s)]
        assert 7 not in members
        assert 8 in members

    def test_members_below_extends_past_internal_table(self):
        ring = SemigroupRing(3, 5)
        members = ring.members_below(500)
        assert members[-1] == 499
        assert len(members) == 500 - 4  # gaps are exactly 1, 2, 4, 7

    @pytest.mark.parametrize("gens", [(1,), (3, 5), (4, 5, 6, 7)])
    def test_member_mask_matches_members_below(self, gens):
        ring = SemigroupRing(*gens)
        for bound in range(0, 3 * ring.conductor + 5):
            mask = ring.member_mask(bound)
            assert mask < 1 << bound
            assert [s for s in range(bound) if mask >> s & 1] == ring.members_below(bound)

    @staticmethod
    def oracle_members(gens):
        """Conductor and member mask below it, one integer at a time: s is
        a member when some s - a is, and a1 members in a row end the gaps."""
        table, run = [True], 1
        while run < min(gens):
            s = len(table)
            table.append(any(s >= a and table[s - a] for a in gens))
            run = run + 1 if table[-1] else 0
        c = len(table) - run
        return c, sum(1 << s for s in range(c) if table[s])

    def semigroups(self):
        rng = random.Random(41)
        yield (1,)
        yield (6, 10, 15)  # no generator coprime to 6: Schur's bound, b = 15
        for a in (2, 3, 5, 8, 13, 21, 40):
            # Schur's bound (a-1)a is one past the Frobenius number a^2 - a - 1
            yield (a, a + 1)
        for _ in range(40):
            gens = rng.sample(range(2, 30), rng.randint(1, 4))
            if math.gcd(*gens) == 1:
                yield tuple(gens)

    def test_shift_closure_matches_a_per_integer_oracle(self):
        for gens in self.semigroups():
            ring = SemigroupRing(*gens)
            c, mask = self.oracle_members(gens)
            assert ring.conductor == c, gens
            assert ring.member_mask(c) == mask, gens
            assert ring.member_mask(c + max(gens)) == mask | ((1 << c + max(gens)) - (1 << c))

    def test_huge_ring_fails_fast(self):
        # (4097 - 1)(4099 - 1) = 16785408 is just over the supported bound
        assert 4096 * 4098 > MAX_CONDUCTOR_BOUND >= 4096 * 4096
        with pytest.raises(ComputationError, match=r"\(a1-1\)\(b-1\) = 16785408"):
            SemigroupRing(4097, 4099)

    def test_redundant_large_generator_keeps_the_bound_small(self):
        # 10^7 + 1 lies in <10, ..., 19>, which holds every integer from 10 on;
        # Schur's bound (10 - 1)(10^7) would exceed the supported size
        ring = SemigroupRing(*range(10, 20), 10**7 + 1)
        assert ring.conductor == 10
        assert ring.member_mask(10) == 1

    def test_minimal_generators_match_an_oracle(self):
        # a generator is redundant when it is a sum of two nonzero members
        for gens in self.semigroups():
            ring = SemigroupRing(*gens)
            members = ring.members_below(max(gens) + 1)
            want = tuple(
                a
                for a in sorted(set(gens))
                if not any(s and a - s in members for s in members if 0 < s < a)
            )
            assert ring.minimal_generators == want, gens
            assert ring.generators == tuple(sorted(set(gens)))

    def test_a_redundant_huge_generator_is_never_shifted_by(self):
        # 10^8 + 1 and 21 both lie in <10, ..., 19>: the two rings differ
        # only in the generators the report echoes
        huge = SemigroupRing(*range(10, 20), 10**8 + 1)
        small = SemigroupRing(*range(10, 20), 21)
        assert huge.minimal_generators == small.minimal_generators == tuple(range(10, 20))
        assert huge.generators[-1] == 10**8 + 1
        trees = []
        for ring in (huge, small):
            spec = FiltrationSpec(ring.maximal_ideal(), J=ring.ideal([10]))
            tree = as_dict(analyze(spec))
            assert tree["input"].pop("ring") == describe_ring(ring)
            trees.append(tree)
        assert trees[0] == trees[1]
        assert trees[0]["reduction"]["r"] == 1

    def test_whole_numbers_semigroup(self):
        ring = SemigroupRing(1)
        assert ring.conductor == 0
        assert ring.frobenius == -1
        assert ring.member(0) and ring.member(1)

    def test_gcd_must_be_one(self):
        with pytest.raises(InputError) as err:
            SemigroupRing(4, 6)
        assert "gcd" in str(err.value)

    def test_rejects_nonpositive_generators(self):
        with pytest.raises(InputError):
            SemigroupRing(0, 3)
        with pytest.raises(InputError):
            SemigroupRing(-2, 3)

    def test_element_validation(self):
        ring = SemigroupRing(4, 5, 6, 7)
        with pytest.raises(InputError):
            ring.validate_monomial(3)  # a gap
        with pytest.raises(InputError):
            ring.validate_monomial(-4)
        with pytest.raises(InputError):
            ring.validate_monomial(True)

    def test_element_formatting(self):
        ring = SemigroupRing(4, 5, 6, 7)
        assert ring.format_monomial(0) == "1"
        assert ring.format_monomial(4) == "t^4"
        ring1 = SemigroupRing(1)
        assert ring1.format_monomial(1) == "t"

    def test_maximal_ideal(self):
        ring = SemigroupRing(4, 5, 6, 7)
        m = ring.maximal_ideal()
        assert m.colength() == 1
