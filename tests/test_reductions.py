"""Reduction numbers, the Valabrega-Valla check, depth classes."""

import random

import pytest

from fibrekit import (
    DepthClass,
    FiltrationSpec,
    InternalInconsistencyError,
    NotAReductionError,
    PowerSeriesRing,
    SemigroupRing,
    TheoremViolationError,
    SemigroupIdeal,
    analyze,
    classify_graded_depth,
    fit_tables,
    load_spec,
    reduction_number,
    valabrega_valla,
)
from conftest import (
    colength_cross_check,
    corpus_candidates,
    fixture_text,
    forbid_search,
    make_sg_spec,
    make_x3_spec,
    make_x4_spec,
)
from test_criteria import fiber_regular_in_degrees
from test_ideals_semigroup import random_semigroup
from test_space_corpus import SPACE_CORPUS, space_corpus_spec


def spec_345():
    ring = SemigroupRing(3, 4, 5)
    return FiltrationSpec(ring.maximal_ideal(), J=ring.ideal([3]))


def spec_m_adic():
    ring = PowerSeriesRing("x", "y")
    m = ring.maximal_ideal()
    return FiltrationSpec(m, J=m)


class TestReductionNumber:
    def test_x3_example(self):
        data = reduction_number(make_x3_spec())
        assert data.r == 2
        assert data.mu == 2
        assert data.is_minimal
        assert data.checked_through >= data.r
        assert str(data) == "minimal reduction with r = 2 (mu = 2)"

    def test_x4_example(self):
        data = reduction_number(make_x4_spec())
        assert (data.r, data.mu, data.is_minimal) == (2, 2, True)

    def test_semigroup_example(self):
        data = reduction_number(make_sg_spec())
        assert (data.r, data.mu, data.is_minimal) == (2, 1, True)

    def test_j_equal_i_gives_r_zero(self):
        spec = make_x3_spec()
        data = reduction_number(FiltrationSpec(spec.I, J=spec.I))
        assert data.r == 0
        assert data.mu == 3
        assert not data.is_minimal
        assert str(data) == "reduction with r = 0 (mu = 3)"

    def test_non_reduction_is_rejected(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        j = ring.ideal([(3, 0), (2, 1)])
        with pytest.raises(NotAReductionError) as err:
            reduction_number(FiltrationSpec(i, J=j))
        assert "not a reduction" in str(err.value)

    def test_reduction_steps_hold_from_r_on(self):
        spec = make_x3_spec()
        data = reduction_number(spec)
        for n in range(data.r, data.checked_through + 1):
            assert spec.jterm(n) == spec.term(n + 1)
        # and the step genuinely fails just below r
        assert spec.jterm(data.r - 1) != spec.term(data.r)


class TestReductionRule:
    """Whether J is a reduction is decided from the ideals before any step."""

    @pytest.mark.parametrize(
        "ring, i_gens, j_gens, r",
        [
            (SemigroupRing(53, 59), [53, 59], [53], 52),
            (SemigroupRing(101, 103), [101, 103], [101], 100),
            (
                PowerSeriesRing("x", "y"),
                [(60, 0), (1, 59), (0, 60)],
                [(60, 0), (0, 60)],
                59,
            ),
        ],
        ids=["53-59", "101-103", "x60-xy59-y60"],
    )
    def test_analyze_past_fifty(self, ring, i_gens, j_gens, r):
        # reduction numbers past the search cap the rule replaced
        report = analyze(FiltrationSpec(ring.ideal(i_gens), J=ring.ideal(j_gens)))
        assert report.reduction.r == r
        assert report.reduction.is_minimal

    def test_rule_matches_newton_screen_on_plane_corpus_candidates(self):
        # every candidate the corpus draws, the screened-out ones included
        ring = PowerSeriesRing("x", "y")
        screened = 0
        for a, b, gens, admitted in corpus_candidates():
            got = ring.ideal([(a, 0), (0, b)]).is_reduction_of(ring.ideal(gens))
            assert got is admitted, (a, b, gens)
            screened += not admitted
        assert screened > 0

    def test_certified_non_reduction_raises_before_any_step(self, monkeypatch):
        ring = PowerSeriesRing("x", "y", "z")
        i = ring.ideal([(6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 1, 1)])
        spec = FiltrationSpec(i, J=ring.ideal([(6, 0, 0), (0, 6, 0), (0, 0, 6)]))
        forbid_search(monkeypatch, spec)
        with pytest.raises(NotAReductionError) as err:
            reduction_number(spec)
        assert "not a reduction" in str(err.value)

    def test_j_without_a_pure_power_is_not_a_reduction(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (1, 1), (0, 2)])
        assert ring.ideal([(2, 0), (1, 1)]).is_reduction_of(i) is False

    def test_j_beside_its_pure_powers_is_decided_by_its_hull(self, monkeypatch):
        # J has x^2 y^2 besides its pure powers, and xy lies below NP(J):
        # x + y >= 4, so J is certified not a reduction before any step
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(4, 0), (1, 1), (0, 4)])
        j = ring.ideal([(4, 0), (2, 2), (0, 4)])
        assert j.is_reduction_of(i) is False
        spec = FiltrationSpec(i, J=j)
        forbid_search(monkeypatch, spec)
        with pytest.raises(NotAReductionError) as err:
            reduction_number(spec)
        assert err.value.exit_code == 1
        assert "not a reduction" in str(err.value)

    def test_extra_generators_in_j_still_certify(self):
        # (x^3, x^2 y, y^3) over its pure powers: every J between them reduces
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        assert ring.ideal([(3, 0), (0, 3)]).is_reduction_of(i) is True
        assert i.is_reduction_of(i) is True

    def test_truncated_filtration_reads_i1(self):
        # I_1 = (x^2, y^2), I_2 = m^4: J = I_1 reduces I_1, but the steps
        # hold only from the recursion on (J I_1 = I_1^2 misses x y^3)
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (0, 2)])
        terms = (i, ring.maximal_ideal() ** 4)
        assert reduction_number(FiltrationSpec(i, J=i, truncated_terms=terms)).r == 2
        bad = FiltrationSpec(i, J=ring.ideal([(4, 0), (0, 2)]), truncated_terms=terms)
        with pytest.raises(NotAReductionError):
            reduction_number(bad)

    def test_principal_semigroup_j_against_a_search(self):
        # (t^s) reduces I iff s = min I; with s = min I = e_0 the step holds
        # from some n < e_0, and with s larger the valuations never meet
        rng = random.Random(31)
        for _ in range(25):
            ring = SemigroupRing(*random_semigroup(rng))
            pool = ring.members_below(30)[1:]
            i = ring.ideal(rng.sample(pool, rng.randint(1, 3)))
            least = i.minimal_generators()[0]
            for s in ring.members_below(least + 12):
                if not i.contains_element(s):
                    continue
                j = ring.ideal([s])
                power, search = ring.unit_ideal(), None
                for n in range(least):
                    if j * power == power * i:
                        search = n
                        break
                    power = power * i
                assert j.is_reduction_of(i) is (s == least)
                assert (search is not None) is (s == least)
                spec = FiltrationSpec(i, J=j)
                if s == least:
                    assert reduction_number(spec).r == search
                else:
                    with pytest.raises(NotAReductionError):
                        reduction_number(spec)


class TestSequenceChecks:
    def test_valabrega_valla_fails_on_all_three_examples(self):
        for spec in (make_x3_spec(), make_x4_spec(), make_sg_spec()):
            check = valabrega_valla(spec)
            assert check.name == "valabrega-valla"
            assert not check.ok
            assert check.failed_at == 2
            # the certificate is complete at the reduction number r = 2
            assert check.n_checked == reduction_number(spec).r == 2

    def test_valabrega_valla_passes_for_maximal_adic(self):
        assert valabrega_valla(spec_m_adic()).ok

    def test_valabrega_valla_passes_for_345(self):
        assert valabrega_valla(spec_345()).ok

    def test_valabrega_valla_at_reduction_number_zero(self):
        ring = PowerSeriesRing("x", "y")
        i = ring.ideal([(2, 0), (0, 2)])
        check = valabrega_valla(FiltrationSpec(i, J=i))
        assert check.ok and check.failed_at is None
        assert check.n_checked == 0

    @pytest.mark.parametrize(
        "spec, run",
        [(make_sg_spec(), analyze)]
        + [(space_corpus_spec(gens), valabrega_valla) for gens in SPACE_CORPUS],
        ids=["semigroup-analyze"] + [f"space-{i}" for i in range(len(SPACE_CORPUS))],
    )
    def test_cross_check_compares_the_implied_degrees(self, monkeypatch, spec, run):
        # analyze never reaches the certificate on the space corpus (no input
        # there has classic minimal multiplicity), so it is called directly
        r = reduction_number(spec).r
        compared = list(range(1, (valabrega_valla(spec).failed_at or r) + 1))
        implied = list(range(r + 1, r + spec.dim + 3))
        degrees = _j_intersection_degrees(monkeypatch, spec, implied[-1])
        with colength_cross_check():
            run(spec)
        assert degrees == compared + implied
        degrees.clear()
        valabrega_valla(spec)
        assert degrees == compared

    def test_analyze_decides_j_once(self, monkeypatch):
        # analyze hands its ReductionData to the certificate, which would
        # otherwise certify the reduction a second time
        calls = []
        original = SemigroupIdeal.is_reduction_of

        def counted(self, big):
            calls.append(big)
            return original(self, big)

        monkeypatch.setattr(SemigroupIdeal, "is_reduction_of", counted)
        report = analyze(load_spec(fixture_text("semigroup_4567.fk"))[1])
        assert report.criterion("minimal-multiplicity-equivalences")
        assert len(calls) == 1

    def test_cross_check_raises_on_a_wrong_implied_degree(self, monkeypatch):
        spec = make_sg_spec()
        r = reduction_number(spec).r
        cls = type(spec.J)
        original = cls.intersect

        def wrong_at_r_plus_1(self, other):
            if self is spec.J and other is spec.term(r + 1):
                other = spec.term(r + 2)
            return original(self, other)

        monkeypatch.setattr(cls, "intersect", wrong_at_r_plus_1)
        assert valabrega_valla(spec).failed_at == 2
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError) as err:
                valabrega_valla(spec)
        assert f"n > r = {r}" in str(err.value)


def _j_intersection_degrees(monkeypatch, spec, last: int) -> list:
    """The degrees n <= last at which J cap I_n is built, in call order,
    filled in as the spec's J intersects its own terms."""
    degrees = []
    cls = type(spec.J)
    original = cls.intersect

    def spy(self, other):
        if self is spec.J:
            degrees.append(next(n for n in range(1, last + 1) if spec.term(n) is other))
        return original(self, other)

    monkeypatch.setattr(cls, "intersect", spy)
    return degrees


class TestGradedDepthClassification:
    def test_x3_has_almost_maximal_depth(self):
        depth = classify_graded_depth(make_x3_spec(), 3, 2)
        assert depth.classification is DepthClass.DEPTH_GE_DIM_MINUS_1
        assert (depth.e1, depth.cm_sum, depth.depth_sum) == (3, 2, 3)

    def test_x4_has_low_depth(self):
        depth = classify_graded_depth(make_x4_spec(), 6, 2)
        assert depth.classification is DepthClass.LOW
        assert (depth.cm_sum, depth.depth_sum) == (5, 7)

    def test_semigroup_example_is_almost_maximal(self):
        depth = classify_graded_depth(make_sg_spec(), 3, 2)
        assert depth.classification is DepthClass.DEPTH_GE_DIM_MINUS_1
        assert (depth.cm_sum, depth.depth_sum) == (2, 3)

    def test_maximal_adic_is_cohen_macaulay(self):
        depth = classify_graded_depth(spec_m_adic(), 0, 0)
        assert depth.classification is DepthClass.CM
        assert (depth.e1, depth.cm_sum, depth.depth_sum) == (0, 0, 0)

    def test_345_is_cohen_macaulay(self):
        spec = spec_345()
        data = reduction_number(spec)
        table, report = fit_tables(spec, None)
        depth = classify_graded_depth(spec, report.e1, data.r)
        assert depth.classification is DepthClass.CM
        assert (depth.e1, depth.cm_sum, depth.depth_sum) == (2, 2, 2)

    def test_e1_outside_certified_range_is_a_violation(self):
        with pytest.raises(TheoremViolationError) as err:
            classify_graded_depth(make_x3_spec(), 99, 2)
        assert "escapes the certified range" in str(err.value)

    def test_lower_equality_without_upper_is_a_violation(self):
        # e_1 = cm_sum = 2 but depth_sum = 3: equality at the bottom forces
        # equality at the top, so feeding 2 must be flagged as inconsistent
        with pytest.raises(TheoremViolationError):
            classify_graded_depth(make_x3_spec(), 2, 2)


class TestRegularityEquivalenceBothWays:
    """For a principal reduction, the Valabrega-Valla equality and the
    degree-by-degree regularity of J's generator on the fiber cone certify
    the same thing where the graded hypotheses hold; on these small
    Cohen-Macaulay instances both sides agree."""

    def test_345_both_sides_positive(self):
        spec = spec_345()
        assert valabrega_valla(spec).ok  # graded hypotheses certified
        assert fiber_regular_in_degrees(spec, 3)

    def test_maximal_adic_both_sides_positive(self):
        spec = spec_m_adic()
        assert valabrega_valla(spec).ok
        assert fiber_regular_in_degrees(spec, (1, 0))

    def test_semigroup_4567_fiber_generator(self):
        assert fiber_regular_in_degrees(make_sg_spec(), 4)
