"""Criterion evaluation: pinned values on the packaged examples, then
mathematical soundness properties over the random corpus."""

import logging
from collections import Counter

import pytest

from fibrekit import (
    CriterionStatus,
    DepthClass,
    FiltrationSpec,
    InputError,
    MissingReductionError,
    NotYetPolynomialError,
    PowerSeriesRing,
    SemigroupRing,
    TheoremViolationError,
    analyze,
    check_g1_criteria,
    check_minimal_multiplicity,
    fit_tables,
    load_spec,
    quotient_length,
    reduction_number,
)
from fibrekit.cli import _SELFTEST_FIXTURES
from fibrekit.criteria import _pure_power_reduction
from conftest import fixture_text, forbid_search, make_x3_spec, make_x4_spec
from test_certified_tail import semigroup_corpus_specs
from test_space_corpus import SPACE_CORPUS, space_corpus_spec


PASS, FAIL = CriterionStatus.PASS, CriterionStatus.FAIL


def statuses(report):
    return {c.name: c.status for c in report.criteria}


def with_g1(report, g1):
    """The report's coefficients with g_1 replaced by g1."""
    g = report.coefficients.g
    moved = g.coefficients[:1] + (g1,) + g.coefficients[2:]
    return report.coefficients._replace(g=g._replace(coefficients=moved))


class TestAnalyzeValidation:
    def test_missing_j_is_rejected(self):
        ring = PowerSeriesRing("x", "y")
        with pytest.raises(MissingReductionError):
            analyze(FiltrationSpec(ring.ideal([(2, 0), (0, 2)])))

    def test_non_minimal_reduction_is_rejected(self):
        spec = make_x3_spec()
        with pytest.raises(InputError) as err:
            analyze(FiltrationSpec(spec.I, J=spec.I))
        assert "minimal reduction" in str(err.value)

    def test_generator_count_is_checked_before_the_search(self, monkeypatch):
        # a J with three generators: analyze rejects it for its size, never
        # reaching the rule
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(4, 0), (1, 1), (0, 4)])
        spec = FiltrationSpec(i, J=ring.ideal([(4, 0), (2, 2), (0, 4)]))
        forbid_search(monkeypatch, spec)
        with pytest.raises(InputError) as err:
            analyze(spec)
        assert "minimal reduction" in str(err.value)

    def test_criterion_lookup(self, x3_report):
        assert x3_report.criterion("fiber-depth").name == "fiber-depth"
        with pytest.raises(KeyError):
            x3_report.criterion("no-such-criterion")


class TestFitTables:
    """With a certified minimal reduction the table runs to N + d, N the
    certified start of the Hilbert polynomial; a pinned n_max binds."""

    def test_start_follows_the_reduction_number(self):
        ring = SemigroupRing(23, 24)
        i = ring.ideal([23, 24])
        spec = FiltrationSpec(i, J=ring.ideal([23]))
        assert reduction_number(spec).r == 22
        table, report = fit_tables(spec, None)
        # d = 1: N = r = 22 and the table stops at N + d
        assert table.n_max == 22 + 1
        assert report.certified_from == 22
        assert report.e.coefficients == (23, 253)
        assert fit_tables(spec, None, reduction=reduction_number(spec))[0] == table
        # without a J the least valuation of I stands in: (t^23) is its own
        # reduction with r = 0
        table, report = fit_tables(FiltrationSpec(ring.ideal([23])), None)
        assert table.n_max == 0 + 1
        assert report.certified_from == 0

    def test_no_reduction_falls_back_to_zero(self):
        spec = make_x3_spec()
        no_reduction = FiltrationSpec(spec.I, J=spec.ring.ideal([(3, 0), (2, 1)]))
        table, report = fit_tables(no_reduction, None)
        # the pure powers (x^3, y^3) of I stand in for the J that is not a reduction
        assert report.certified_from == 4
        assert table.n_max == 4 + 2
        assert report.e.coefficients == (9, 3, 1)
        # (x^4, y^4) does not reduce (x^4, xy, y^4): the fit is window-validated
        # on a table through r + 2d + 5 with r = 0
        ring = PowerSeriesRing("x", "y")
        table, report = fit_tables(
            FiltrationSpec(ring.ideal([(4, 0), (1, 1), (0, 4)])), None
        )
        assert table.n_max == 0 + 2 * 2 + 5
        assert report.certified_from is None
        assert report.e.window == 2 + 2
        assert report.e.coefficients == (8, 1, 0)

    def test_pinned_n_max_binds(self):
        ring = SemigroupRing(23, 24)
        spec = FiltrationSpec(ring.ideal([23, 24]), J=ring.ideal([23]))
        with pytest.raises(NotYetPolynomialError, match="n_max = 22"):
            fit_tables(spec, 22)

    def test_short_pinned_table_names_the_certified_start(self):
        spec = make_x3_spec()
        with pytest.raises(NotYetPolynomialError) as err:
            fit_tables(spec, 5)
        assert "certified from n = 4" in str(err.value)
        assert "through n = 6, got n_max = 5" in str(err.value)
        # a longer pinned table is certified as given
        table, report = fit_tables(spec, 11)
        assert (table.n_max, report.certified_from) == (11, 4)
        assert report.g.coefficients == (9, 0, 1)

    def test_missing_j_is_certified_from_the_least_valuation(self):
        ring = SemigroupRing(23, 24)
        table, report = fit_tables(FiltrationSpec(ring.ideal([23, 24])), None)
        assert (table.n_max, report.certified_from) == (23, 22)
        assert report.e.coefficients == (23, 253)

    def test_missing_j_is_certified_from_the_pure_powers(self):
        spec = make_x4_spec()
        table, report = fit_tables(FiltrationSpec(spec.I), None)
        with_j = fit_tables(spec, None)
        assert report.certified_from == with_j[1].certified_from
        assert table == with_j[0]
        assert report.e.coefficients == (16, 6, 0)

    def test_certified_minimal_j_is_the_pure_powers(self, corpus):
        # tail_start reads I_1's pure powers as the box of any certified
        # minimal J; on every test corpus the two are one ideal
        specs = [
            *(inst.spec_m for inst in corpus.instances),
            *map(space_corpus_spec, SPACE_CORPUS),
            *semigroup_corpus_specs(),
        ]
        for spec in specs:
            assert reduction_number(spec).is_minimal, spec
            assert _pure_power_reduction(spec) == spec.J, spec

    def test_fit_tables_logs_one_debug_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fibrekit.criteria")
        spec = make_x3_spec()
        fit_tables(spec, None)
        fit_tables(spec, 11)
        fit_tables(FiltrationSpec(spec.I), None)
        ring = PowerSeriesRing("x", "y")
        fit_tables(FiltrationSpec(ring.ideal([(4, 0), (1, 1), (0, 4)])), None)
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("fibrekit.criteria", logging.DEBUG)
        ] * 4
        assert [r.getMessage() for r in caplog.records] == [
            "fits certified by J: r = 2, N = 4, table through n = 6, n_max = N + d",
            "fits certified by J: r = 2, N = 4, table through n = 11, n_max pinned",
            "fits certified by the pure powers of I_1 standing in for J: "
            "r = 2, N = 4, table through n = 6, n_max = N + d",
            "fits window-validated, no certified minimal reduction: "
            "r = None, N = None, table through n = 9, n_max = r + 2d + 5",
        ]


class TestMinimalMultiplicity:
    def test_truncated_terms_skip_the_relative_implications(self):
        # K I_1 = K J gives K I_(n+1) = K J I_n only for the powers of I_1:
        # here I_2 = m^4 and g_1 = 1, not -len(R/K) = 0
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (0, 2)])
        spec = FiltrationSpec(
            i, K=ring.unit_ideal(), J=i, truncated_terms=(i, ring.maximal_ideal() ** 4)
        )
        report = analyze(spec)
        flags = report.minimal_multiplicity
        assert (flags.relative, flags.g1_relative) == (True, False)
        assert report.g1 == 1

    @staticmethod
    def check(report, g1):
        return check_minimal_multiplicity(report.spec, with_g1(report, g1), report.table)

    def test_adic_relative_implications_raise(self, sg_report, x3_report):
        # K I = K J, so g_1 must be -len(R/K) = -1
        assert sg_report.minimal_multiplicity.relative
        with pytest.raises(TheoremViolationError, match="K I = K J but g_1 = 0"):
            self.check(sg_report, 0)
        # m I cap J = m J but m I != m J, so g_1 = -1 must not hold
        spec = x3_report.spec
        assert spec.kterm(1).intersect(spec.J) == spec.kjterm(0) != spec.kterm(1)
        with pytest.raises(TheoremViolationError, match="yet K I differs from K J"):
            self.check(x3_report, -1)
        assert self.check(x3_report, 0)[1] == x3_report.minimal_multiplicity


class TestX3Criteria:
    def test_criterion_set(self, x3_report):
        assert [c.name for c in x3_report.criteria] == [
            "g1-lower-bound",
            "g1-upper-bound",
            "fiber-cohen-macaulay",
            "fiber-depth",
            "minimal-multiplicity",
            "fiber-multiplicity-bound",
        ]

    def test_values(self, x3_report):
        c = x3_report.criterion
        assert (c("g1-lower-bound").lhs, c("g1-lower-bound").rhs) == (0, 0)
        assert (c("g1-upper-bound").lhs, c("g1-upper-bound").rhs) == (0, 0)
        fiber_cm = c("fiber-cohen-macaulay")
        assert fiber_cm.status is CriterionStatus.PASS
        assert (fiber_cm.lhs, fiber_cm.rhs) == (0, 0)
        assert c("fiber-depth").status is CriterionStatus.PASS
        mm = c("minimal-multiplicity")
        assert mm.status is CriterionStatus.FAIL
        assert (mm.lhs, mm.rhs) == (0, -1)
        bound = c("fiber-multiplicity-bound")
        assert bound.status is CriterionStatus.PASS
        assert (bound.lhs, bound.rhs) == (3, 3)

    def test_flags_and_depth(self, x3_report):
        flags = x3_report.minimal_multiplicity
        assert not (flags.relative or flags.g1_relative)
        assert not (flags.classic or flags.g1_classic)
        assert x3_report.graded_depth.classification is DepthClass.DEPTH_GE_DIM_MINUS_1
        assert x3_report.equivalences is None

    def test_report_numbers(self, x3_report):
        assert (x3_report.e0, x3_report.e1) == (9, 3)
        assert x3_report.coefficients.e.coefficients == (9, 3, 1)
        assert x3_report.coefficients.g.coefficients == (9, 0, 1)
        assert x3_report.coefficients.f.coefficients == (3, 0)
        assert (x3_report.g1, x3_report.g2, x3_report.f0) == (0, 1, 3)
        assert x3_report.series.numerator == (1, 1, 1)
        assert not x3_report.series.has_negative
        assert x3_report.reduction.r == 2


class TestX4Criteria:
    def test_gated_fiber_checks(self, x4_report):
        fiber_cm = x4_report.criterion("fiber-cohen-macaulay")
        assert fiber_cm.status is CriterionStatus.PRECONDITION_NOT_ESTABLISHED
        assert (fiber_cm.lhs, fiber_cm.rhs) == (2, 2)
        assert "carries no verdict" in fiber_cm.note
        depth = x4_report.criterion("fiber-depth")
        assert depth.status is CriterionStatus.PRECONDITION_NOT_ESTABLISHED
        assert (depth.lhs, depth.rhs) == (2, 2)

    def test_values(self, x4_report):
        assert x4_report.coefficients.e.coefficients == (16, 6, 0)
        assert (x4_report.g1, x4_report.f0) == (2, 4)
        assert x4_report.graded_depth.classification is DepthClass.LOW
        assert (x4_report.graded_depth.cm_sum, x4_report.graded_depth.depth_sum) == (5, 7)
        assert x4_report.series.numerator == (1, 2, 2, -1)
        assert x4_report.series.has_negative
        assert str(x4_report.series) == "(1 + 2*t + 2*t^2 - t^3) / (1-t)^2"
        c = x4_report.criterion("fiber-multiplicity-bound")
        assert (c.lhs, c.rhs) == (4, 4)
        assert x4_report.equivalences is None

    def test_key_lengths(self, x4_report):
        spec = x4_report.spec
        assert quotient_length(spec.I, spec.J) == 5
        assert quotient_length(spec.term(2), spec.jterm(1)) == 2


class TestG1Criteria:
    """check_g1_criteria on real specs, with g_1 moved off its true value."""

    @staticmethod
    def run(report, shift=0):
        coefficients = with_g1(report, report.g1 + shift)
        results = check_g1_criteria(
            report.spec, coefficients, report.reduction, report.graded_depth
        )
        return {c.name: (c.status, c.lhs, c.rhs, c.note) for c in results}

    def test_results_come_in_report_order_with_the_search_bound(self, x3_report, x4_report):
        for report in (x3_report, x4_report):
            results = check_g1_criteria(
                report.spec, report.coefficients, report.reduction, report.graded_depth
            )
            assert results == report.criteria[:4]
            assert [c.name for c in results] == [
                "g1-lower-bound", "g1-upper-bound", "fiber-cohen-macaulay", "fiber-depth"
            ]
            assert {c.bound for c in results} == {report.reduction.checked_through + 1}

    def test_pass(self, x3_report):
        assert self.run(x3_report) == {
            "g1-lower-bound": (PASS, 0, 0, "g_1 >= lower length sum"),
            "g1-upper-bound": (PASS, 0, 0, "g_1 <= upper length sum"),
            "fiber-cohen-macaulay": (PASS, 0, 0, "fiber cone is Cohen-Macaulay"),
            "fiber-depth": (PASS, 0, 0, "fiber depth >= dim - 1"),
        }

    def test_fail(self, x3_report):
        assert self.run(x3_report, +1) == {
            "g1-lower-bound": (PASS, 1, 0, "g_1 >= lower length sum"),
            "g1-upper-bound": (FAIL, 1, 0, "upper length sum exceeded"),
            "fiber-cohen-macaulay": (FAIL, 1, 0, "fiber cone is not Cohen-Macaulay"),
            "fiber-depth": (FAIL, 1, 0, "fiber depth < dim - 1"),
        }

    def test_gated_equality_holding_and_failing(self, x4_report):
        gated = CriterionStatus.PRECONDITION_NOT_ESTABLISHED
        for shift, word in ((0, "holds"), (+1, "fails")):
            note = f"graded depth below dim - 1: equality {word} but carries no verdict"
            got = self.run(x4_report, shift)
            g1 = 2 + shift
            assert got["fiber-cohen-macaulay"] == (gated, g1, 2, note)
            assert got["fiber-depth"] == (gated, g1, 2, note)
        assert got["g1-upper-bound"] == (FAIL, 3, 2, "upper length sum exceeded")

    def test_lower_bound_is_a_theorem(self, x3_report):
        with pytest.raises(TheoremViolationError) as err:
            self.run(x3_report, -1)
        assert str(err.value) == "g_1 = -1 undercuts its certified lower bound 0"


class TestSemigroupCriteria:
    def test_frontier_multiplicity_211(self):
        """I = m in k[[t^211, t^223]], J = (t^211): m^n = t^211 m^(n-1)
        exactly when n t^223 lies in t^211 m^(n-1), which by coprimality
        needs n >= 211, so r = 210; e_0 = 211 and R/m is the field."""
        ring = SemigroupRing(211, 223)
        report = analyze(FiltrationSpec(ring.maximal_ideal(), J=ring.ideal([211])))
        assert report.reduction.r == 210
        assert report.e0 == 211
        assert report.table.h[1] == 1

    def test_criterion_set(self, sg_report):
        assert [c.name for c in sg_report.criteria] == [
            "g1-lower-bound",
            "g1-upper-bound",
            "fiber-cohen-macaulay",
            "fiber-depth",
            "minimal-multiplicity",
            "g1-length-formula",
            "fiber-multiplicity-bound",
            "minimal-multiplicity-equivalences",
        ]

    def test_values(self, sg_report):
        c = sg_report.criterion
        assert c("fiber-cohen-macaulay").status is CriterionStatus.PASS
        assert (c("fiber-cohen-macaulay").lhs, c("fiber-cohen-macaulay").rhs) == (-1, -1)
        assert c("fiber-depth").status is CriterionStatus.PASS
        mm = c("minimal-multiplicity")
        assert mm.status is CriterionStatus.PASS
        assert (mm.lhs, mm.rhs) == (-1, -1)
        formula = c("g1-length-formula")
        assert formula.status is CriterionStatus.PASS
        assert (formula.lhs, formula.rhs) == (-1, -1)
        assert (c("fiber-multiplicity-bound").lhs, c("fiber-multiplicity-bound").rhs) == (4, 4)

    def test_all_multiplicity_flags_hold(self, sg_report):
        flags = sg_report.minimal_multiplicity
        assert flags.relative and flags.g1_relative
        assert flags.classic and flags.g1_classic

    def test_equivalences_all_false_and_consistent(self, sg_report):
        eq = sg_report.equivalences
        assert eq is not None
        assert (eq.graded_cm, eq.fiber_cm_and_r_le_1, eq.r_le_1) == (False, False, False)
        assert eq.all_equal()
        c = sg_report.criterion("minimal-multiplicity-equivalences")
        assert c.status is CriterionStatus.PASS
        assert (c.lhs, c.rhs) == (0, 0)
        assert "all three conditions fail (r = 2)" in c.note

    def test_report_numbers(self, sg_report):
        assert sg_report.coefficients.e.coefficients == (4, 3)
        assert sg_report.coefficients.g.coefficients == (4, -1)
        assert sg_report.coefficients.f.coefficients == (4,)
        assert sg_report.g1_onedim_value == -1
        assert sg_report.series.numerator == (1, 2, 1)
        assert sg_report.graded_depth.classification is DepthClass.DEPTH_GE_DIM_MINUS_1


class TestAllTrueEquivalenceInstance:
    def test_345_maximal_ideal(self):
        ring = SemigroupRing(3, 4, 5)
        report = analyze(FiltrationSpec(ring.maximal_ideal(), J=ring.ideal([3])))
        eq = report.equivalences
        assert (eq.graded_cm, eq.fiber_cm_and_r_le_1, eq.r_le_1) == (True, True, True)
        assert report.reduction.r == 1
        assert report.coefficients.e.coefficients == (3, 2)
        assert report.g1 == -1
        assert report.criterion("minimal-multiplicity-equivalences").note == (
            "all three conditions hold (r = 1)"
        )

    def test_plane_maximal_adic(self):
        ring = PowerSeriesRing("x", "y")
        m = ring.maximal_ideal()
        report = analyze(FiltrationSpec(m, J=ring.ideal([(1, 0), (0, 1)])))
        eq = report.equivalences
        assert (eq.graded_cm, eq.fiber_cm_and_r_le_1, eq.r_le_1) == (True, True, True)
        assert report.reduction.r == 0
        assert report.coefficients.e.coefficients == (1, 0, 0)
        assert report.coefficients.g.coefficients == (1, -1, 1)
        assert report.coefficients.f.coefficients == (1, -1)
        assert report.series.numerator == (1,)


class TestDimensionThree:
    """End to end in k[[x, y, z]] with K = m and I = J, so r = 0."""

    @pytest.mark.parametrize(
        "gens, e0",
        [
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 2)], 2),
        ],
    )
    def test_parameter_ideal(self, gens, e0):
        ring = PowerSeriesRing("x", "y", "z")
        i = ring.ideal(gens)
        report = analyze(FiltrationSpec(i, J=i))
        assert report.coefficients.e.coefficients == (e0, 0, 0, 0)
        assert report.coefficients.g.coefficients == (e0, -1, 1, -1)
        assert report.coefficients.f.coefficients == (1, -1, 1)
        assert report.reduction.r == 0
        assert report.graded_depth.classification is DepthClass.CM
        for name in (
            "g1-lower-bound",
            "g1-upper-bound",
            "fiber-cohen-macaulay",
            "fiber-depth",
        ):
            c = report.criterion(name)
            assert (c.status, c.lhs, c.rhs) == (CriterionStatus.PASS, -1, -1), name
        for name in ("fiber-multiplicity-bound", "minimal-multiplicity-equivalences"):
            c = report.criterion(name)
            assert (c.status, c.lhs, c.rhs) == (CriterionStatus.PASS, 1, 1), name


class TestWholeRingCompanion:
    def test_x3_with_k_equal_r(self):
        spec = make_x3_spec()
        report = analyze(FiltrationSpec(spec.I, K=spec.ring.unit_ideal(), J=spec.J))
        assert [c.name for c in report.criteria] == [
            "g1-lower-bound",
            "g1-upper-bound",
            "fiber-cohen-macaulay",
            "fiber-depth",
            "minimal-multiplicity",
        ]
        # with K = R the K-companion functions collapse onto H itself
        assert report.coefficients.g.coefficients == report.coefficients.e.coefficients
        assert report.table.hk == report.table.h
        assert report.v.g1 == report.e1 == 3
        assert str(report.series) == "0"
        fiber_cm = report.criterion("fiber-cohen-macaulay")
        assert fiber_cm.status is CriterionStatus.PASS
        assert (fiber_cm.lhs, fiber_cm.rhs) == (3, 3)
        lower = report.criterion("g1-lower-bound")
        assert (lower.lhs, lower.rhs) == (3, 2)


# ---------------------------------------------------------------------------
# corpus-wide soundness properties


def fiber_regular_in_degrees(spec, x, n_check=8) -> bool:
    """The degree-one fiber image of the monomial x is a nonzerodivisor in
    degrees 1..n_check: (K I_n : x) meets I_(n-1) exactly in K I_(n-1)."""
    xi = spec.ring.ideal([x])
    return all(
        spec.kterm(n).colon(xi).intersect(spec.term(n - 1)) == spec.kterm(n - 1)
        for n in range(1, n_check + 1)
    )


def fiber_colengths(spec, r) -> list:
    """len(F_n / J F_(n-1)) for n = 0..r, F the fiber cone: len(R/K), then
    len(I_n / (J I_(n-1) + K I_n)) = "G depth" - "K cm". Past the reduction
    number r both entries are 0, so the sum is len(F/JF)."""
    return [spec.K.colength()] + [
        spec.length("G depth", n) - spec.length("K cm", n) for n in range(1, r + 1)
    ]


class TestCorpusSoundness:
    def test_fiber_cm_verdict_is_sound(self, corpus):
        """A Cohen-Macaulay verdict must cohere with three other windows into
        the fiber cone: the series numerator stays nonnegative, every
        degree-one parameter element acts as a nonzerodivisor degree by
        degree (in a Cohen-Macaulay graded ring a parameter element avoids
        every associated prime), and Serre's inequality f_0 = e(J; F) <=
        len(F/JF) is an equality exactly when F is Cohen-Macaulay
        (Bruns-Herzog 4.7), J's images being a degree-one system of
        parameters of F."""
        verdicts = Counter()
        for inst in corpus.instances:
            report = inst.report_m
            colength = sum(fiber_colengths(inst.spec_m, report.reduction.r))
            assert colength >= report.f0, inst.gens
            status = report.criterion("fiber-cohen-macaulay").status
            verdicts[status] += 1
            if status is CriterionStatus.FAIL:
                assert colength > report.f0, inst.gens
            elif status is CriterionStatus.PASS:
                assert colength == report.f0, inst.gens
                assert not report.series.has_negative, inst.gens
                for element in ((inst.a, 0), (0, inst.b)):
                    assert fiber_regular_in_degrees(inst.spec_m, element), (
                        inst.gens,
                        element,
                    )
        # the property must actually bite, on both verdicts
        assert verdicts[CriterionStatus.PASS] >= 20
        assert verdicts[CriterionStatus.FAIL] >= 5

    def test_serre_inequality_reads_the_series_numerator(self):
        """On the packaged fixtures (d = 1, 2), the space corpus (d = 3) and
        the semigroup corpus (d = 1): len(F/JF) >= f_0, and where equality
        makes F Cohen-Macaulay its h-vector is the Hilbert function of
        F/JF, so the series numerator equals the per-degree lengths. x4 is
        the strict case: len(F/JF) = 5 > f_0 = 4, h = (1, 2, 2, -1)."""
        specs = (
            [load_spec(fixture_text(name))[1] for name in _SELFTEST_FIXTURES]
            + [space_corpus_spec(gens) for gens in SPACE_CORPUS]
            + list(semigroup_corpus_specs())
        )
        equal = 0
        for spec in specs:
            report = analyze(spec)
            lengths = fiber_colengths(spec, report.reduction.r)
            assert sum(lengths) >= report.f0, spec
            while lengths and lengths[-1] == 0:
                lengths.pop()
            if sum(lengths) == report.f0:
                equal += 1
                assert report.series.numerator == tuple(lengths), spec
            else:
                assert report.series.numerator != tuple(lengths), spec
        assert 0 < equal < len(specs)

    def test_stability_hypothesis_forces_the_verdict(self, corpus):
        """When some t certifies K I^n cap J = K J I^(n-1) up to t together
        with K I^(t+1) = K J I^t, fiber Cohen-Macaulayness is equivalent to
        graded depth >= dim - 1, so a non-LOW classification must PASS."""
        witnessed = 0
        for inst in corpus.instances:
            spec = inst.spec_m
            report = inst.report_m
            r = report.reduction.r
            t_found = None
            for t in range(0, r + 3):
                prefix_ok = all(
                    spec.kterm(n).intersect(spec.J) == spec.kjterm(n - 1)
                    for n in range(1, t + 1)
                )
                if prefix_ok and spec.kterm(t + 1) == spec.kjterm(t):
                    t_found = t
                    break
            if t_found is None:
                continue
            witnessed += 1
            if report.graded_depth.classification is not DepthClass.LOW:
                verdict = report.criterion("fiber-cohen-macaulay")
                assert verdict.status is CriterionStatus.PASS, (inst.gens, t_found)
        assert witnessed >= 20

    def test_relative_multiplicity_implications(self, corpus):
        """relative => g1_relative, and the intersection form of the
        converse: K I cap J = K J together with g_1 = -len(R/K) => relative."""
        for inst in corpus.instances:
            for spec, report in (
                (inst.spec_m, inst.report_m),
                (inst.spec_r, inst.report_r),
            ):
                flags = report.minimal_multiplicity
                if flags.relative:
                    assert flags.g1_relative, inst.gens
                if (
                    spec.kterm(1).intersect(spec.J) == spec.kjterm(0)
                    and flags.g1_relative
                ):
                    assert flags.relative, inst.gens

    def test_second_differences_stabilize_at_e0(self, corpus):
        for inst in corpus.instances:
            report = inst.report_m
            table = report.table
            start = max(2, report.coefficients.g.postulation + 2)
            hk = table.hk
            for n in range(start, table.n_max + 1):
                assert hk[n] - 2 * hk[n - 1] + hk[n - 2] == report.e0, (inst.gens, n)

    def test_whole_ring_reports_track_the_plain_function(self, corpus):
        for inst in corpus.instances:
            report = inst.report_r
            assert (
                report.coefficients.g.coefficients
                == report.coefficients.e.coefficients
            ), inst.gens
            assert report.v.g1 == report.e1, inst.gens
            assert report.table.hk == report.table.h, inst.gens
