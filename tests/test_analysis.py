"""Coefficient fitting, length identities, and the fiber Hilbert series."""

import math
import random

import pytest

import fibrekit.analysis
from fibrekit import (
    Basis,
    CoefficientSet,
    CriterionStatus,
    FiltrationSpec,
    HilbertSeries,
    HilbertTable,
    InternalInconsistencyError,
    NotYetPolynomialError,
    PowerSeriesRing,
    TheoremViolationError,
    UndeterminedSumError,
    analyze,
    binomial,
    build_table,
    coefficient_report,
    fiber_hilbert_series,
    fit_coefficients,
    fundamental_lemma_rows,
    load_spec,
    quotient_length,
    v_sequence,
)
from fibrekit.analysis import basis_row
from conftest import fixture_text, make_sg_spec, make_x3_spec
from test_certified_tail import semigroup_corpus_specs


def oracle_value(coeffs, dim, basis, n):
    """The polynomial with these coefficients at n, straight from basis_row."""
    return sum(c * r for c, r in zip(coeffs, basis_row(dim, basis, n)))


def oracle_postulation(coeffs, dim, basis, values):
    """Least n0 with oracle_value(n) == values[n] for n0 <= n <= n_max."""
    n0 = len(values)
    while n0 > 0 and oracle_value(coeffs, dim, basis, n0 - 1) == values[n0 - 1]:
        n0 -= 1
    return n0


class TestBinomial:
    def test_ordinary_values(self):
        assert binomial(5, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(7, 3) == 35

    def test_polynomial_extension_to_negative_arguments(self):
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
        assert binomial(0, 1) == 0

    def test_vanishing_band(self):
        # C(m, k) = 0 for 0 <= m < k, exactly as the polynomial does
        assert binomial(2, 3) == 0
        assert binomial(0, 2) == 0


class TestFitCoefficients:
    def poly_values(self, coeffs, dim, basis, n_top):
        return [oracle_value(coeffs, dim, basis, n) for n in range(n_top + 1)]

    def test_recovers_standard_basis_dim2(self):
        values = self.poly_values((9, 3, 1), 2, Basis.STANDARD, 9)
        fit = fit_coefficients(values, 2, Basis.STANDARD, label="E")
        assert fit.coefficients == (9, 3, 1)
        assert fit.postulation == 0

    def test_recovers_fiber_basis_dim2(self):
        values = self.poly_values((3, 0), 2, Basis.FIBER, 9)
        fit = fit_coefficients(values, 2, Basis.FIBER, label="F")
        assert fit.coefficients == (3, 0)

    def test_recovers_dim1(self):
        values = self.poly_values((4, 3), 1, Basis.STANDARD, 7)
        fit = fit_coefficients(values, 1, Basis.STANDARD)
        assert fit.coefficients == (4, 3)

    def test_postulation_is_first_agreeing_index(self):
        values = self.poly_values((9, 3, 1), 2, Basis.STANDARD, 9)
        values[0] += 1
        fit = fit_coefficients(values, 2, Basis.STANDARD)
        assert fit.postulation == 1
        assert fit.value(0) != values[0]
        assert all(fit.value(n) == values[n] for n in range(1, 10))

    def test_str_form(self):
        values = self.poly_values((9, 3, 1), 2, Basis.STANDARD, 9)
        fit = fit_coefficients(values, 2, Basis.STANDARD, label="E")
        assert str(fit) == "E = (9, 3, 1) (exact from n = 0)"

    def test_too_few_values(self):
        with pytest.raises(NotYetPolynomialError) as err:
            fit_coefficients([0, 1, 2, 3, 4], 2, Basis.STANDARD)
        assert "raise n_max" in str(err.value)

    def test_too_short_stable_run(self):
        values = self.poly_values((9, 3, 1), 2, Basis.STANDARD, 9)
        values[7] += 1
        with pytest.raises(NotYetPolynomialError) as err:
            fit_coefficients(values, 2, Basis.STANDARD)
        assert "raise n_max" in str(err.value)

    def test_random_polynomials_against_basis_row_oracle(self):
        rng = random.Random(901)
        fitted = too_short = 0
        for trial in range(600):
            dim = rng.randint(1, 4)
            basis = rng.choice((Basis.STANDARD, Basis.FIBER))
            deg = dim if basis is Basis.STANDARD else dim - 1
            coeffs = tuple(rng.randint(-60, 60) for _ in range(deg + 1))
            n_max = rng.randint(2 * dim + 3, 40)
            # the true polynomial holds at least on the last deg+1 points, so
            # it is the one read off; the prefix before p is perturbed
            p = rng.randint(0, n_max - deg)
            values = [
                oracle_value(coeffs, dim, basis, n) + (rng.randint(-3, 3) if n < p else 0)
                for n in range(n_max + 1)
            ]
            if trial % 2:
                values = tuple(values)
            n0 = oracle_postulation(coeffs, dim, basis, values)
            assert n0 <= p
            if n_max - n0 + 1 < deg + 1 + dim + 2:
                too_short += 1
                with pytest.raises(NotYetPolynomialError, match="stabilizes only at"):
                    fit_coefficients(values, dim, basis)
                continue
            fitted += 1
            fit = fit_coefficients(values, dim, basis, label="E")
            assert fit.coefficients == coeffs, (dim, basis, values)
            assert fit.postulation == n0, (dim, basis, values)
            assert (fit.n_max, fit.window, fit.dim, fit.basis) == (n_max, dim + 2, dim, basis)
        assert fitted > 300 and too_short > 30

    def test_random_certified_fits_against_basis_row_oracle(self):
        rng = random.Random(902)
        for trial in range(600):
            dim = rng.randint(1, 4)
            basis = rng.choice((Basis.STANDARD, Basis.FIBER))
            deg = dim if basis is Basis.STANDARD else dim - 1
            coeffs = tuple(rng.randint(-60, 60) for _ in range(deg + 1))
            # polynomial from p on, perturbed before; the fit is certified
            # from N = p and needs the table through p + deg
            p = rng.randint(0, 12)
            n_max = rng.randint(p + deg, p + deg + 10)
            values = [
                oracle_value(coeffs, dim, basis, n) + (rng.randint(-3, 3) if n < p else 0)
                for n in range(n_max + 1)
            ]
            if trial % 2:
                values = tuple(values)
            fit = fit_coefficients(values, dim, basis, certified_from=p, label="F")
            assert fit.coefficients == coeffs, (dim, basis, values)
            assert fit.postulation == oracle_postulation(coeffs, dim, basis, values)
            assert (fit.window, fit.certified_from, fit.n_max) == (None, p, n_max)
            with pytest.raises(NotYetPolynomialError, match=f"certified from n = {p},"):
                fit_coefficients(values[:p + deg], dim, basis, certified_from=p)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("basis", [Basis.STANDARD, Basis.FIBER])
    def test_wrong_read_off_is_an_internal_error(self, monkeypatch, dim, basis):
        deg = dim if basis is Basis.STANDARD else dim - 1
        coeffs = tuple(range(3, 3 + deg + 1))
        values = self.poly_values(coeffs, dim, basis, 3 * dim + 6)
        true_read_off = fibrekit.analysis._newton_coefficients
        assert fit_coefficients(values, dim, basis).coefficients == coeffs
        for j in range(deg + 1):

            def wrong(tail, n_max, j=j):
                c = list(true_read_off(tail, n_max))
                c[j] += 1
                return tuple(c)

            monkeypatch.setattr(fibrekit.analysis, "_newton_coefficients", wrong)
            with pytest.raises(InternalInconsistencyError, match="read-off"):
                fit_coefficients(values, dim, basis)


class TestCoefficientReport:
    def test_linking_identities_on_example_table(self):
        table = build_table(make_x3_spec(), 8)
        report = coefficient_report(table, 2)
        assert report.e.coefficients == (9, 3, 1)
        assert report.g.coefficients == (9, 0, 1)
        assert report.f.coefficients == (3, 0)
        assert report.e0 == 9 and report.e1 == 3
        assert report.g1 == 0 and report.f0 == 3

    def test_g0_mismatch_is_an_internal_error(self):
        # a hand-built table whose fitted g_0 differs from e_0
        h = tuple(4 * n - 3 for n in range(9))
        hk = tuple(5 * n - 1 for n in range(9))
        hf = (4,) * 9
        with pytest.raises(InternalInconsistencyError) as err:
            coefficient_report(HilbertTable(n_max=8, h=h, hk=hk, hf=hf), 1)
        assert "g_0" in str(err.value)

    def test_linking_mismatch_is_an_internal_error(self):
        h = tuple(4 * n - 3 for n in range(9))
        hk = tuple(4 * n + 2 for n in range(9))
        hf = (4,) * 9
        with pytest.raises(InternalInconsistencyError) as err:
            coefficient_report(HilbertTable(n_max=8, h=h, hk=hk, hf=hf), 1)
        assert "g_1" in str(err.value)


class TestBoundedSum:
    """FiltrationSpec.length_sum adds an entry up over n = 1..r and certifies
    the tail past r."""

    def test_sums_through_the_reduction_number(self):
        spec = make_x3_spec()
        k, j = spec.K, spec.J
        want = sum(
            quotient_length(k * spec.term(n), k * j * spec.term(n - 1)) for n in (1, 2)
        )
        assert spec.length_sum("K upper", 2) == want

    def test_zero_tail_past_r_is_accepted(self):
        i = PowerSeriesRing("x", "y").ideal([(2, 0), (0, 2)])
        spec = FiltrationSpec(i, J=i)
        assert spec.length_sum("G depth", 0) == 0
        assert spec.length_sum("K upper", 0) == 0

    def test_nonzero_tail_raises(self):
        with pytest.raises(UndeterminedSumError) as err:
            make_sg_spec().length_sum("K upper", 1)
        assert "n = 2" in str(err.value)


class TestVSequence:
    def test_example_values(self, x3_report):
        v = x3_report.v
        assert v.values[0] == 9
        assert v.values[1] == 0
        assert all(x == 0 for x in v.values[2:])
        assert v.g1 == 0
        assert v.g2 == 1

    def test_direct_computation_matches_report(self, x3_report):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        report = coefficient_report(table, 2)
        rows = fundamental_lemma_rows(spec, table, report.e0)
        v = v_sequence(rows, table, report)
        assert v == x3_report.v
        assert v.values[2:] == tuple(row.rhs for row in rows)


class TestFundamentalLemmaRows:
    def test_rows_on_example(self):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        report = coefficient_report(table, 2)
        rows = fundamental_lemma_rows(spec, table, report.e0)
        assert [row.n for row in rows] == list(range(2, 9))
        assert all(row.lhs == row.rhs for row in rows)
        # this filtration has every second difference equal to e_0
        assert all(row.lhs == 0 for row in rows)

    def test_partial_range(self):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        report = coefficient_report(table, 2)
        rows = fundamental_lemma_rows(spec, table, report.e0, n_stop=5)
        assert rows == fundamental_lemma_rows(spec, table, report.e0)[:4]
        assert [row.n for row in rows[1:]] == [3, 4, 5]

    def test_rows_past_the_table_read_the_certified_polynomial(self):
        spec = make_x3_spec()
        table = build_table(spec, 6)
        with pytest.raises(InternalInconsistencyError):
            fundamental_lemma_rows(spec, table, 9, n_stop=10)
        report = coefficient_report(table, 2, certified_from=4)
        rows = fundamental_lemma_rows(spec, table, 9, n_stop=10, g=report.g)
        longer = build_table(spec, 10)
        assert rows == fundamental_lemma_rows(spec, longer, 9)
        assert [row.n for row in rows] == list(range(2, 11))

    def test_dimension_guard(self):
        spec = make_sg_spec()
        table = build_table(spec, 8)
        with pytest.raises(InternalInconsistencyError):
            fundamental_lemma_rows(spec, table, 4)


class TestHilbertSeries:
    def test_str_forms(self):
        s = HilbertSeries(numerator=(1, 2, 2, -1), pole_order=2, has_negative=True)
        assert str(s) == "(1 + 2*t + 2*t^2 - t^3) / (1-t)^2"
        assert str(HilbertSeries(numerator=(), pole_order=2, has_negative=False)) == "0"
        assert (
            str(HilbertSeries(numerator=(0, 1), pole_order=1, has_negative=False))
            == "(t) / (1-t)^1"
        )

    def test_series_from_example_table(self):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        report = coefficient_report(table, 2)
        series = fiber_hilbert_series(table, 2, report.f)
        assert series.numerator == (1, 1, 1)
        assert series.pole_order == 2
        assert not series.has_negative

    def test_series_from_semigroup_table(self):
        spec = make_sg_spec()
        table = build_table(spec, 8)
        report = coefficient_report(table, 1)
        series = fiber_hilbert_series(table, 1, report.f)
        assert series.numerator == (1, 2, 1)
        assert series.pole_order == 1
        assert not series.has_negative

    @staticmethod
    def random_h_vectors(seed, count):
        """(d, h, H_F): h an integer h-vector with h[-1] != 0 and some
        negative entries, H_F(n) = sum_j h_j C(n - j + d - 1, d - 1) over
        j <= n, as a function of n."""
        rng = random.Random(seed)
        for _ in range(count):
            d = rng.randint(1, 4)
            h = [rng.randint(-4, 9) for _ in range(rng.randint(1, 7))]
            h[-1] = h[-1] or rng.choice((-1, 1))

            def hf(n, d=d, h=h):
                return sum(h[j] * math.comb(n - j + d - 1, d - 1) for j in range(min(n + 1, len(h))))

            yield d, h, hf

    @staticmethod
    def fiber_table(hf, n_max):
        return HilbertTable(n_max=n_max, h=(), hk=(), hf=tuple(hf(n) for n in range(n_max + 1)))

    def test_random_h_vectors_against_the_binomial_sum(self):
        extended = 0
        for d, h, hf in self.random_h_vectors(903, 300):
            # H_F is polynomial from N = max(0, deg h - d + 1) on, and h[-1] != 0
            # makes N the postulation, so the series reads h_j up to top = N + d
            start = max(0, len(h) - d)
            top = start + d
            for n_max in (top - 1, top + 2, top + d + 2, top + d + 5):
                table = self.fiber_table(hf, n_max)
                fit = fit_coefficients(table.hf, d, Basis.FIBER, certified_from=start, label="F")
                assert fit.postulation == start
                series = fiber_hilbert_series(table, d, fit)
                assert series.numerator == tuple(h), (d, h, n_max)
                assert series.pole_order == d
                assert series.has_negative == any(c < 0 for c in h)
                extended += n_max < top + d + 2
        assert extended == 600

    def test_wrong_fiber_fit_is_an_internal_error(self):
        # a fit extends H_F past a table through top .. top + 2, and every
        # difference that its error leaves is one the termination check reads
        for d, h, hf in self.random_h_vectors(904, 100):
            start = max(0, len(h) - d)
            top = start + d
            for n_max in (top, top + 2):
                table = self.fiber_table(hf, n_max)
                fit = fit_coefficients(table.hf, d, Basis.FIBER, certified_from=start, label="F")
                for i in range(d):
                    for delta in (-1, 1):
                        c = list(fit.coefficients)
                        c[i] += delta
                        wrong = fit._replace(coefficients=tuple(c))
                        with pytest.raises(InternalInconsistencyError, match="does not terminate"):
                            fiber_hilbert_series(table, d, wrong)

    def test_fit_is_checked_against_the_table(self):
        # d = 1, table through n = 1 = top - 1: h_top comes off the fit's
        # value at n = 2 alone, so a fit off by one at n = 1 must be caught
        table = HilbertTable(n_max=1, h=(0, 1), hk=(1, 4), hf=(1, 3))
        fit = CoefficientSet(
            label="F", dim=1, basis=Basis.FIBER, coefficients=(4,),
            postulation=1, n_max=1, window=None, certified_from=1,
        )
        with pytest.raises(InternalInconsistencyError, match="misses the table at n = 1"):
            fiber_hilbert_series(table, 1, fit)
        right = fit._replace(coefficients=(3,))
        assert fiber_hilbert_series(table, 1, right).numerator == (1, 2)
        # d = 2, H_F = 3n from n = 1: a fit claimed from n = n_max is
        # checked on one point, too few to pin a line down
        table = HilbertTable(n_max=3, h=(), hk=(), hf=(1, 3, 6, 9))
        fit = CoefficientSet(
            label="F", dim=2, basis=Basis.FIBER, coefficients=(3, 0),
            postulation=3, n_max=3, window=None, certified_from=3,
        )
        with pytest.raises(InternalInconsistencyError, match="fewer than dim = 2"):
            fiber_hilbert_series(table, 2, fit)
        assert fiber_hilbert_series(table, 2, fit._replace(postulation=1)).numerator == (1, 1, 1)

    def test_whole_ring_companion_gives_zero_series(self):
        spec = make_x3_spec(k=make_x3_spec().ring.unit_ideal())
        table = build_table(spec, 8)
        fit = fit_coefficients(table.hf, 2, Basis.FIBER, label="F")
        series = fiber_hilbert_series(table, 2, fit)
        assert series.numerator == ()
        assert str(series) == "0"


def dimension_one_specs():
    """The packaged semigroup fixture, then the seeded semigroup corpus."""
    yield load_spec(fixture_text("semigroup_4567.fk"))[1]
    yield from semigroup_corpus_specs()


class TestG1LengthFormulaDim1:
    def test_row_is_the_fiber_depth_row_reversed(self):
        for spec in dimension_one_specs():
            report = analyze(spec)
            depth = report.criterion("fiber-depth")
            row = report.criterion("g1-length-formula")
            assert row.status is CriterionStatus.PASS
            assert (row.lhs, row.rhs, row.bound) == (depth.rhs, depth.lhs, depth.bound)
            assert report.g1_onedim_value == depth.rhs

    def test_disagreeing_upper_sum_raises(self, monkeypatch):
        length_sum = FiltrationSpec.length_sum

        def one_more_upper(self, name, reduction_number):
            return length_sum(self, name, reduction_number) + (name == "K upper")

        monkeypatch.setattr(FiltrationSpec, "length_sum", one_more_upper)
        with pytest.raises(TheoremViolationError, match="dimension-1 length formula"):
            analyze(make_sg_spec())
