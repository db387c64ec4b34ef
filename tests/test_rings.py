"""Ring model behaviour: validation, formatting, semigroup arithmetic."""

import pytest

from fibrekit import InputError, PowerSeriesRing, SemigroupRing


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
