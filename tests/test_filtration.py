"""FiltrationSpec validation, term caches, and Hilbert function tables."""

import pytest

from fibrekit import (
    FiltrationSpec,
    InputError,
    MissingReductionError,
    PowerSeriesRing,
    SemigroupRing,
    build_table,
)
from conftest import make_sg_spec, make_x3_spec


def plane():
    return PowerSeriesRing("x", "y")


class TestSpecValidation:
    def test_defaults(self):
        ring = plane()
        spec = FiltrationSpec(ring.ideal([(2, 0), (0, 2)]))
        assert spec.K == ring.maximal_ideal()
        assert spec.J is None
        assert spec.mode == "adic"
        assert spec.explicit == (spec.I,)
        assert spec.dim == 2

    def test_rejects_zero_and_unit_ideal(self):
        ring = plane()
        with pytest.raises(InputError):
            FiltrationSpec(ring.zero_ideal())
        with pytest.raises(InputError):
            FiltrationSpec(ring.unit_ideal())

    def test_rejects_infinite_colength(self):
        ring = plane()
        with pytest.raises(InputError) as err:
            FiltrationSpec(ring.ideal([(2, 1)]))
        assert "finite colength" in str(err.value)

    def test_k_must_contain_i(self):
        ring = plane()
        i = ring.ideal([(2, 0), (0, 2)])
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, K=ring.ideal([(3, 0), (0, 3)]))
        assert "K must contain" in str(err.value)

    def test_k_may_be_the_whole_ring(self):
        ring = plane()
        spec = FiltrationSpec(ring.ideal([(2, 0), (0, 2)]), K=ring.unit_ideal())
        assert spec.K.is_unit

    def test_k_ring_mismatch(self):
        other = PowerSeriesRing("u", "v")
        i = plane().ideal([(2, 0), (0, 2)])
        with pytest.raises(InputError):
            FiltrationSpec(i, K=other.maximal_ideal())

    def test_j_must_be_nonzero_and_inside_i(self):
        ring = plane()
        i = ring.ideal([(2, 0), (0, 2)])
        with pytest.raises(InputError):
            FiltrationSpec(i, J=ring.zero_ideal())
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, J=ring.maximal_ideal())
        assert "J must be contained" in str(err.value)

    def test_j_ring_mismatch(self):
        ring = plane()
        other = PowerSeriesRing("u", "v")
        i = ring.ideal([(2, 0), (0, 2)])
        with pytest.raises(InputError):
            FiltrationSpec(i, J=other.ideal([(2, 0), (0, 2)]))


class TestTruncatedMode:
    def make_parts(self):
        ring = plane()
        i = ring.ideal([(2, 0), (0, 2)])
        m4 = ring.maximal_ideal() ** 4
        return ring, i, m4

    def test_valid_truncated_spec(self):
        ring, i, m4 = self.make_parts()
        spec = FiltrationSpec(i, truncated_terms=(i, m4))
        assert spec.mode == "truncated"
        assert spec.term(2) == m4
        # past the explicit range the filtration continues I-adically
        assert spec.term(3) == i * m4
        assert spec.term(4) == i * i * m4

    def test_truncated_differs_from_adic(self):
        ring, i, m4 = self.make_parts()
        truncated = FiltrationSpec(i, truncated_terms=(i, m4))
        adic = FiltrationSpec(i)
        assert truncated.term(2).colength() == 10
        assert adic.term(2).colength() == 12

    def test_terms_must_start_with_i(self):
        ring, i, m4 = self.make_parts()
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, truncated_terms=(m4, m4))
        assert "start with I_1" in str(err.value)

    def test_terms_must_be_nested(self):
        ring, i, m4 = self.make_parts()
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, truncated_terms=(i, ring.maximal_ideal()))
        assert "I_2 is not contained in I_1" in str(err.value)

    def test_terms_must_descend_through_k(self):
        ring, i, m4 = self.make_parts()
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, truncated_terms=(i, i))
        assert "Hilbert filtration pair" in str(err.value)

    def test_terms_must_multiply_into_later_terms(self):
        ring, i, m4 = self.make_parts()
        deep = ring.ideal([(5, 0), (0, 5)])
        with pytest.raises(InputError) as err:
            FiltrationSpec(i, truncated_terms=(i, deep))
        assert "not a filtration" in str(err.value)


class TestTerms:
    def test_adic_terms(self):
        spec = make_x3_spec()
        assert spec.term(0).is_unit
        assert spec.term(1) == spec.I
        assert spec.term(3) == spec.I * spec.I * spec.I

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            make_x3_spec().term(-1)

    def test_companion_terms_match_direct_products(self):
        spec = make_x3_spec()
        for n in range(0, 4):
            assert spec.kterm(n) == spec.K * spec.term(n)
            assert spec.jterm(n) == spec.J * spec.term(n)
            assert spec.kjterm(n) == spec.K * spec.J * spec.term(n)

    def test_kcolon_is_cached_colon(self):
        spec = make_x3_spec()
        for n in range(0, 4):
            got = spec.kcolon(n)
            assert got == spec.kterm(n).colon(spec.J)
            assert spec.kcolon(n) is got

    def test_kcolon_needs_j(self):
        spec = FiltrationSpec(plane().ideal([(2, 0), (0, 2)]))
        with pytest.raises(MissingReductionError):
            spec.kcolon(1)

    def test_semigroup_terms(self):
        spec = make_sg_spec()
        assert spec.term(2) == spec.I * spec.I
        assert spec.kterm(1) == spec.K * spec.I

    def test_require_j(self):
        ring = plane()
        spec = FiltrationSpec(ring.ideal([(2, 0), (0, 2)]))
        with pytest.raises(MissingReductionError) as err:
            spec.require_j()
        assert "candidate reduction" in str(err.value)
        with pytest.raises(MissingReductionError):
            spec.jterm(1)


class TestBuildTable:
    def test_x3_table_values(self):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        assert table.n_max == 8
        assert table.h == (0, 7, 22, 46, 79, 121, 172, 232, 301)
        assert table.hk == (1, 10, 28, 55, 91, 136, 190, 253, 325)
        assert table.hf == (1, 3, 6, 9, 12, 15, 18, 21, 24)

    def test_second_differences_stabilize_at_multiplicity(self):
        table = build_table(make_x3_spec(), 8)
        assert [table.delta2_hk(n) for n in range(2, 9)] == [9] * 7

    def test_whole_ring_companion_gives_zero_fiber_function(self):
        ring = plane()
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        spec = FiltrationSpec(i, K=ring.unit_ideal())
        table = build_table(spec, 5)
        assert table.hf == (0,) * 6
        assert table.hk == table.h

    def test_semigroup_table_values(self):
        spec = make_sg_spec()
        table = build_table(spec, 5)
        assert table.h == (0, 2, 5, 9, 13, 17)
        assert table.hk == (1, 5, 9, 13, 17, 21)

    def test_negative_n_max_rejected(self):
        with pytest.raises(InputError):
            build_table(make_x3_spec(), -1)
