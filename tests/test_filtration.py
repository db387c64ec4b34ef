"""FiltrationSpec validation, term caches, the length ledger, and Hilbert
function tables."""

import logging
import sys

import pytest

import fibrekit.filtration
from fibrekit import (
    FiltrationSpec,
    InputError,
    InternalInconsistencyError,
    MissingReductionError,
    PowerSeriesRing,
    SemigroupRing,
    UndeterminedSumError,
    analyze,
    build_table,
    fit_tables,
    load_spec,
    quotient_length,
    reduction_number,
    render_tree,
)
from conftest import (
    colength_cross_check,
    corpus_candidates,
    fixture_text,
    make_sg_spec,
    make_x3_spec,
    make_x4_spec,
)
from test_certified_tail import semigroup_corpus_specs
from test_space_corpus import SPACE_CORPUS, space_corpus_spec


def plane():
    return PowerSeriesRing("x", "y")


def plane_m():
    return plane().maximal_ideal()


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


def zero_below_r_spec():
    """I_1 = J = (x^2, y^2), I_2 = I_1^2 and I_3 = I_1^3 + (x^3 y^3):
    I_2 = J I_1 holds but I_3 = J I_2 fails, so the reduction number is 3
    and "G depth" is 0 at n = 2, below it."""
    ring = plane()
    i = ring.ideal([(2, 0), (0, 2)])
    terms = (i, i * i, i * i * i + ring.ideal([(3, 3)]))
    return FiltrationSpec(i, J=i, truncated_terms=terms)


def direct_entry(spec, name, n):
    """The ledger entry `name` at degree n, written out from its definition."""
    k, j = spec.K, spec.J
    i = spec.term
    quotients = {
        "K lower": lambda: (k * i(n) + j, j),
        "K upper": lambda: (k * i(n), k * j * i(n - 1)),
        "K cm": lambda: (k * i(n) + j * i(n - 1), j * i(n - 1)),
        "G cm": lambda: (i(n) + j, j),
        "G depth": lambda: (i(n), j * i(n - 1)),
        "colon": lambda: ((k * i(n - 1)).colon(j), k * i(n - 2)),
    }
    return quotient_length(*quotients[name]())


def count_ledger(monkeypatch):
    """Record every ledger computation and every quotient_length call."""
    computed, calls = [], []
    for name, pair in list(fibrekit.filtration._LEDGER.items()):

        def recorded(s, n, name=name, pair=pair):
            computed.append((name, n))
            return pair(s, n)

        monkeypatch.setitem(fibrekit.filtration._LEDGER, name, recorded)
    original = fibrekit.ideals.quotient_length

    def counted(big, small):
        calls.append((big, small))
        return original(big, small)

    # every fibrekit module that imported the function holds its own binding
    for module in [m for n, m in sys.modules.items() if n.startswith("fibrekit")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return computed, calls


class TestLengthLedger:
    ENTRIES = ("K lower", "K upper", "K cm", "G cm", "G depth", "colon")

    @pytest.mark.parametrize("make", [make_x3_spec, make_x4_spec, make_sg_spec])
    def test_entries_match_their_definitions(self, make):
        spec = make()
        for name in self.ENTRIES:
            for n in range(2, 5):
                assert spec.length(name, n) == direct_entry(spec, name, n), (name, n)

    def test_k_colength_at_zero_is_len_r_mod_k(self):
        spec = make_sg_spec()
        assert spec.K.colength() == quotient_length(spec.ring.unit_ideal(), spec.K)

    def test_each_entry_is_computed_once(self, monkeypatch):
        spec = make_x3_spec()
        computed, calls = count_ledger(monkeypatch)
        first = [spec.length("colon", n) for n in range(2, 6)]
        assert [spec.length("colon", n) for n in range(2, 6)] == first
        assert computed == [("colon", n) for n in range(2, 6)]
        assert len(calls) == 4

    def test_length_sum_is_memoized_and_stops_at_r(self, monkeypatch):
        spec = make_x4_spec()
        want = sum(direct_entry(spec, "K upper", n) for n in (1, 2))
        computed, _ = count_ledger(monkeypatch)
        assert spec.length_sum("K upper", 2) == want
        assert spec.length_sum("K upper", 2) == want
        # the entry at each n <= r, then "G depth" at r + 1 alone: the
        # degree past the one explicit term where reduction_number stops
        assert computed == [("K upper", 1), ("K upper", 2), ("G depth", 3)]
        assert spec.g1_sum("K upper", 2) == want - spec.K.colength()

    def test_length_sum_keeps_the_tail_check(self):
        # r = 2 is the true reduction number; claiming r = 1 leaves a
        # nonzero summand at n = 2 inside the window
        spec = make_x3_spec()
        assert spec.length("G depth", 2) != 0
        with pytest.raises(UndeterminedSumError):
            spec.length_sum("G depth", 1)

    def test_length_sum_checks_every_explicit_degree(self):
        # a claimed r = 1 must be refused at n = 3, not only at r + 1
        spec = zero_below_r_spec()
        assert reduction_number(spec).r == 3
        assert spec.length("G depth", 2) == 0
        assert spec.length("G depth", 3) != 0
        with pytest.raises(UndeterminedSumError) as err:
            spec.length_sum("G cm", 1)
        assert "n = 3" in str(err.value)
        assert spec.length_sum("G depth", 3) == spec.length("G depth", 3)

    def test_length_sum_refuses_an_entry_without_a_certified_tail(self):
        with pytest.raises(InputError):
            make_x3_spec().length_sum("colon", 2)

    def test_entries_need_j(self):
        spec = FiltrationSpec(plane().ideal([(2, 0), (0, 2)]))
        for name in ("K lower", "K upper", "K cm", "G cm", "G depth", "colon"):
            with pytest.raises(MissingReductionError):
                spec.length(name, 2)

    @pytest.mark.parametrize(
        "make, parent_calls",
        [(make_x3_spec, 69), (make_x4_spec, 69), (make_sg_spec, 40)],
    )
    def test_analyze_computes_no_entry_twice(self, monkeypatch, make, parent_calls):
        # parent_calls: quotient_length calls of one analysis before the
        # ledger, when each criterion and identity summed its own lengths
        computed, calls = count_ledger(monkeypatch)
        analyze(make())
        assert len(computed) == len(set(computed))
        assert len(calls) == len(computed) < parent_calls

    @pytest.mark.parametrize(
        "spec",
        [space_corpus_spec(gens) for gens in SPACE_CORPUS]
        + [load_spec(fixture_text("semigroup_4567.fk"))[1]],
        ids=[f"space-{i}" for i in range(len(SPACE_CORPUS))] + ["semigroup"],
    )
    def test_analyze_builds_no_term_past_the_certificate(self, spec):
        report = analyze(spec)
        reduction = report.reduction
        bound = max(report.table.n_max, reduction.r + 1)
        assert max(spec._terms) <= bound
        # past r each term is the J-term before it, one object in both caches
        assert max(spec._jterms) <= bound - 1
        built = [n for n in spec._terms if n > max(reduction.r + 1, len(spec.explicit))]
        # in d = 1 the table stops at r + 1
        assert built or spec.dim == 1
        assert all(spec.term(n) is spec.jterm(n - 1) for n in built)


IMPLIED = ("K lower", "K upper", "K cm", "G cm")


def corpus_specs(kind, corpus):
    """(spec, r) for every input of one test corpus, each spec analyzed
    (the truncated one through its reduction search only)."""
    if kind == "truncated":
        spec = zero_below_r_spec()
        yield spec, reduction_number(spec).r
        return
    if kind == "plane":
        for inst in corpus.instances:
            yield inst.spec_m, inst.report_m.reduction.r
            yield inst.spec_r, inst.report_r.reduction.r
        return
    specs = (
        [space_corpus_spec(gens) for gens in SPACE_CORPUS]
        if kind == "space"
        else semigroup_corpus_specs()
    )
    for spec in specs:
        yield spec, analyze(spec).reduction.r


class TestImpliedEntries:
    """The four entries that vanish wherever "G depth" does (the proof in
    FiltrationSpec.length_sum) are their own quotients there, and the
    cross-check catches one that is not 0 past r."""

    @pytest.mark.parametrize("kind", ["plane", "space", "semigroup", "truncated"])
    def test_implied_entries_match_their_definitions(self, request, kind):
        corpus = request.getfixturevalue("corpus") if kind == "plane" else None
        implied = 0
        for spec, r in corpus_specs(kind, corpus):
            for n in range(1, r + spec.dim + 3):
                implied += spec.length("G depth", n) == 0
                for name in ("G depth",) + IMPLIED:
                    want = direct_entry(spec, name, n)
                    assert spec.length(name, n) == want, (spec, name, n)
        # every corpus reaches a zero "G depth": each range runs past r, and
        # the truncated spec has one at n = 2 < r = 3
        assert implied > 0

    def test_cross_check_builds_every_implied_pair(self, monkeypatch):
        spec = make_x3_spec()
        computed, _ = count_ledger(monkeypatch)
        with colength_cross_check():
            assert spec.length_sum("K upper", 2) == sum(
                direct_entry(spec, "K upper", n) for n in (1, 2)
            )
        # summed at 1..r, checked at r < n <= r + d + 2
        assert [n for name, n in computed if name == "K upper"] == list(range(1, 7))

    @pytest.mark.parametrize("name", IMPLIED)
    def test_cross_check_catches_a_nonzero_implied_entry(self, monkeypatch, name):
        # a wrong pair whose quotient is len(R/K I_n) > 0; r = 2, and the
        # sum's cross-check reads the entry at n = 3..6
        monkeypatch.setitem(
            fibrekit.filtration._LEDGER, name, lambda s, n: (s.term(0), s.kterm(n))
        )
        spec = make_x3_spec()
        assert spec.length("G depth", 3) == 0
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError, match="n = 3 is nonzero although n > r = 2"):
                spec.length_sum(name, 2)


def semigroup_m_spec(a, b):
    """I = K = m in k[[t^a, t^b]], J = (t^a)."""
    ring = SemigroupRing(a, b)
    m = ring.maximal_ideal()
    return FiltrationSpec(m, K=m, J=ring.ideal([a]))


class TestDimensionOneTable:
    """In d = 1 with J = (f), "G depth" and "K upper" come off the table."""

    @pytest.mark.parametrize(
        "make",
        [make_sg_spec] + [lambda a=a, b=b: semigroup_m_spec(a, b) for a, b in ((5, 7), (11, 13))],
        ids=["K=m", "I=K=m-5-7", "I=K=m-11-13"],
    )
    def test_analysis_builds_no_kj_term_past_zero(self, make):
        spec = make()
        analyze(spec)
        assert set(spec._kjterms) <= {0}

    @pytest.mark.parametrize(
        "make",
        [make_sg_spec, lambda: semigroup_m_spec(5, 7), lambda: semigroup_m_spec(4, 9)],
    )
    def test_table_entries_match_their_definitions(self, make):
        spec = make()
        h = build_table(spec, 12)
        lj = spec.J.colength()
        for n in range(1, 12):
            assert spec.length("G depth", n) == lj + h.h[n - 1] - h.h[n]
            assert spec.length("K upper", n) == lj + h.hk[n - 1] - h.hk[n]
            for name in ("G depth", "K upper"):
                assert spec.length(name, n) == direct_entry(spec, name, n)

    def test_monomial_line_reads_the_table_too(self):
        ring = PowerSeriesRing("x")
        i = ring.ideal([(3,)])
        spec = FiltrationSpec(i, K=ring.ideal([(2,)]), J=i)
        for n in range(1, 6):
            assert spec.length("G depth", n) == 0
            assert spec.length("K upper", n) == direct_entry(spec, "K upper", n) == 0

    def test_a_j_with_two_generators_keeps_the_ideal_route(self, monkeypatch):
        ring = SemigroupRing(4, 5, 6, 7)
        spec = FiltrationSpec(ring.ideal([4, 5, 6]), J=ring.ideal([4, 5]))
        computed, _ = count_ledger(monkeypatch)
        assert spec.length("G depth", 2) == direct_entry(spec, "G depth", 2)
        assert computed == [("G depth", 2)]

    @pytest.mark.parametrize("name", ["G depth", "K upper"])
    def test_cross_check_catches_a_wrong_table_value(self, monkeypatch, name):
        # a wrong pair: E_(n-1) = E_n reads len(R/J) = 4
        monkeypatch.setitem(
            fibrekit.filtration._TABLE, name, lambda s, n: (s.term(n), s.term(n))
        )
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                make_sg_spec().length(name, 1)
        assert make_sg_spec().length(name, 1) == 4

    def test_a_negative_table_value_raises(self, monkeypatch):
        monkeypatch.setitem(
            fibrekit.filtration._TABLE, "G depth", lambda s, n: (s.term(0), s.term(3))
        )
        with pytest.raises(InternalInconsistencyError):
            make_sg_spec().length("G depth", 1)


def _truncated(spec):
    """spec in truncated mode, with I_2 = I_1^2 given explicitly."""
    i = spec.I
    return FiltrationSpec(i, K=spec.K, J=spec.J, truncated_terms=(i, i * i))


# K = R in both modes and both ring models: K I_n = I_n, K J I_n = J I_n
UNIT_K_SPECS = {
    "plane-adic": lambda: make_x3_spec(k=plane().unit_ideal()),
    "plane-truncated": lambda: _truncated(make_x3_spec(k=plane().unit_ideal())),
    "semigroup-adic": lambda: make_sg_spec(k=SemigroupRing(4, 5, 6, 7).unit_ideal()),
    "semigroup-truncated": lambda: _truncated(
        make_sg_spec(k=SemigroupRing(4, 5, 6, 7).unit_ideal())
    ),
}


class TestSharedTerms:
    """An adic spec with K = I_1 reads K I_n as I_(n+1) and K J I_n as J I_(n+1);
    a spec with K = R reads them as I_n and J I_n."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: semigroup_m_spec(5, 7),
            lambda: FiltrationSpec(plane_m(), K=plane_m(), J=plane_m()),
        ],
    )
    def test_k_terms_are_the_next_terms(self, make):
        k_first = make()
        kterms = [k_first.kterm(n) for n in range(4)]
        kjterms = [k_first.kjterm(n) for n in range(4)]
        # each kterm(n) is term(n + 1), and the K-caches stay empty
        assert max(k_first._terms) == 4
        assert not k_first._kterms and not k_first._kjterms
        assert [k_first.term(n + 1) for n in range(4)] == kterms
        assert all(k_first.term(n + 1) is k for n, k in enumerate(kterms))
        assert all(k_first.jterm(n + 1) is k for n, k in enumerate(kjterms))

        term_first = make()
        terms = [term_first.term(n + 1) for n in range(4)]
        jterms = [term_first.jterm(n + 1) for n in range(4)]
        assert all(term_first.kterm(n) is t for n, t in enumerate(terms))
        assert all(term_first.kjterm(n) is t for n, t in enumerate(jterms))
        assert not term_first._kterms and not term_first._kjterms

        with colength_cross_check():
            checked = make()
            k, j = checked.K, checked.J
            for n in range(4):
                assert checked.kterm(n) == checked.term(n) * k
                assert checked.term(n + 1) is checked.kterm(n)
                assert checked.kjterm(n) == checked.term(n) * (k * j)
                assert checked.jterm(n + 1) is checked.kjterm(n)

    def test_cross_check_catches_a_wrong_shared_term(self):
        spec = semigroup_m_spec(5, 7)
        spec.term(3)
        spec._terms[3] = spec.term(2)
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                spec.kterm(2)

    def test_cross_check_catches_a_wrong_unit_k_term(self):
        spec = make_sg_spec(k=SemigroupRing(4, 5, 6, 7).unit_ideal())
        spec.jterm(3)
        spec._jterms[2] = spec.jterm(3)
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                spec.kjterm(2)
        # a K = m spec that wrongly reads K I_n as I_n
        spec = make_x3_spec()
        spec._k_shift = 0
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                spec.kterm(2)

    @pytest.mark.parametrize("make", UNIT_K_SPECS.values(), ids=UNIT_K_SPECS.keys())
    def test_unit_k_reads_the_terms_themselves(self, make):
        spec = make()
        analyze(spec)
        assert not spec._kterms and not spec._kjterms
        for n in range(5):
            assert spec.kterm(n) is spec.term(n)
            assert spec.kjterm(n) is spec.jterm(n)
        assert not spec._kterms and not spec._kjterms
        with colength_cross_check():
            checked = make()
            for n in range(5):
                assert checked.kterm(n) is checked.term(n)
                assert checked.kjterm(n) is checked.jterm(n)

    @pytest.mark.parametrize(
        "make",
        [lambda: semigroup_m_spec(5, 7), *UNIT_K_SPECS.values()],
        ids=["semigroup-k-is-i", *UNIT_K_SPECS.keys()],
    )
    def test_delegating_specs_never_build_k_times_j(self, make):
        spec = make()
        analyze(spec)
        assert spec._kj is None
        with pytest.raises(MissingReductionError):
            FiltrationSpec(spec.I, K=spec.K).kjterm(0)

    @pytest.mark.parametrize(
        "make", [make_x3_spec, make_sg_spec, lambda: semigroup_m_spec(5, 7)]
    )
    def test_analysis_adds_no_attribute_to_the_spec(self, make):
        spec = make()
        names = list(vars(spec))
        render_tree(analyze(spec))
        assert list(vars(spec)) == names

    def test_truncated_or_unequal_k_shares_nothing(self):
        ring = plane()
        i = ring.ideal([(2, 0), (0, 2)])
        truncated = FiltrationSpec(i, K=i, J=i, truncated_terms=(i,))
        truncated.term(2)
        assert truncated.kterm(1) is not truncated.term(2)
        spec = make_x3_spec()
        spec.term(2)
        assert spec.kterm(1) is not spec.term(2)
        # a spec that does not delegate builds K J once and keeps it
        spec.kjterm(0)
        assert spec._kj == spec.K * spec.J


def fresh_corpus_specs(kind):
    """Unanalyzed specs of one test corpus: plane (K = m and K = R), space
    or semigroup. Under ideals.CROSS_CHECK every colength runs every route,
    which takes 2-4 s per plane corpus input with r >= 2 (all have
    J = (x^a, y^b) with a b >= 9) and 20 s on the x^3 space input, so those
    are left out; the plane inputs kept have r = 1, and the x^3 plane
    example with K = R adds r = 2."""
    if kind == "plane":
        ring = plane()
        for a, b, gens, admitted in corpus_candidates():
            if admitted and a * b <= 8:
                j = ring.ideal([(a, 0), (0, b)])
                yield FiltrationSpec(ring.ideal(gens), J=j)
                yield FiltrationSpec(ring.ideal(gens), K=ring.unit_ideal(), J=j)
        yield make_x3_spec(k=ring.unit_ideal())
    elif kind == "space":
        yield from (space_corpus_spec(gens) for gens in SPACE_CORPUS if gens[0][0] < 3)
    else:
        yield from semigroup_corpus_specs()


def x3_truncated(k=None, n_terms=4):
    """The x3 filtration with its first n_terms powers given explicitly."""
    spec = make_x3_spec(k=k)
    terms = [spec.I]
    while len(terms) < n_terms:
        terms.append(terms[-1] * spec.I)
    return FiltrationSpec(spec.I, K=spec.K, J=spec.J, truncated_terms=terms)


class TestJStep:
    """Past the reduction number r, reduction_number has proved
    I_(n+1) = J I_n: the spec builds I_(n+1) as the J-term and K J I_n as
    K I_(n+1), and when K = I_1^s the K entries read their G twins."""

    @pytest.mark.parametrize("kind", ["plane", "space", "semigroup"])
    def test_cross_check_passes_on_the_corpora(self, kind):
        shifts = set()
        with colength_cross_check():
            for spec in fresh_corpus_specs(kind):
                report = analyze(spec)
                assert spec._r == report.reduction.r
                shifts.add(spec._k_shift)
        # plane: K = m and K = R; space: K = m; semigroup: I = K = m
        assert shifts == {"plane": {None, 0}, "space": {None}, "semigroup": {1}}[kind]

    @pytest.mark.parametrize(
        "make",
        [
            # four explicit terms, r = 2: the J-step starts inside them
            lambda: x3_truncated(),
            # K = I_1 in truncated mode: no shift, so no twins
            lambda: x3_truncated(k=make_x3_spec().I, n_terms=2),
        ],
        ids=["explicit-past-r", "truncated-k-is-i"],
    )
    def test_cross_check_passes_on_truncated_specs(self, make):
        spec = make()
        assert spec._k_shift is None
        with colength_cross_check():
            report = analyze(spec)
        assert spec._r == report.reduction.r == 2
        plain = make()
        assert render_tree(analyze(plain)) == render_tree(report)
        # validation built I_n up to 2 N; the next term is the J-term
        n = max(plain._terms) + 1
        assert plain.term(n) is plain.jterm(n - 1)

    def test_a_j_that_is_not_minimal_records_nothing(self):
        # J = I_1 has three generators in d = 2, so fit_tables takes the
        # pure powers (x^3, y^3), which are never recorded either
        minimal = make_x3_spec()
        spec = FiltrationSpec(minimal.I, J=minimal.I)
        with colength_cross_check():
            table, coefficients = fit_tables(spec, None)
        assert spec._r is None
        assert (table, coefficients) == fit_tables(minimal, None)
        assert minimal._r == 2
        with pytest.raises(InputError):
            analyze(spec)

    def test_terms_past_r_are_the_j_terms(self):
        spec = make_x3_spec()
        assert reduction_number(spec).r == 2
        terms = [spec.term(n) for n in range(4, 8)]
        assert all(spec.jterm(n - 1) is t for n, t in zip(range(4, 8), terms))
        fresh = make_x3_spec()
        assert terms == [fresh.term(n) for n in range(4, 8)]

    def test_k_j_terms_past_r_are_the_next_k_terms(self):
        spec = make_x3_spec()
        reduction_number(spec)
        kjterms = [spec.kjterm(n) for n in range(2, 6)]
        assert all(spec.kterm(n + 1) is k for n, k in enumerate(kjterms, 2))
        assert spec._kj is None and not spec._kjterms
        fresh = make_x3_spec()
        assert kjterms == [fresh.kjterm(n) for n in range(2, 6)]
        # below r K J I_n is its own product
        assert spec.kjterm(1) is not spec.kterm(2)
        assert spec._kj == spec.K * spec.J

    def test_r_zero_with_k_maximal_never_builds_k_times_j(self):
        ring = plane()
        i = ring.ideal([(2, 0), (0, 2)])
        spec = FiltrationSpec(i, J=i)
        assert analyze(spec).reduction.r == 0
        assert spec._kj is None and not spec._kjterms

    @pytest.mark.parametrize("make", [make_x3_spec, make_sg_spec])
    def test_a_recorded_step_below_r_is_caught(self, make):
        spec = make()
        true_r = reduction_number(make()).r
        spec.record_reduction_number(true_r - 1)
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                spec.term(true_r)
        spec = make()
        spec.record_reduction_number(true_r - 1)
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                analyze(spec)

    def test_a_recorded_step_below_r_is_caught_in_k_j_terms(self):
        # r = 2, and K J differs from K I_1
        spec = make_x3_spec()
        spec.record_reduction_number(0)
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                spec.kjterm(0)

    def test_other_candidates_are_never_recorded(self):
        spec = make_x3_spec()
        pure = spec.ring.ideal([(3, 0), (0, 3)])
        assert reduction_number(spec, pure).r == 2
        assert spec._r is None

    @pytest.mark.parametrize(
        "make, twins",
        [
            (
                lambda: make_x3_spec(k=plane().unit_ideal()),
                {"K upper": ("G depth", 0), "K cm": ("G depth", 0), "K lower": ("G cm", 0)},
            ),
            (
                lambda: semigroup_m_spec(5, 7),
                {"K upper": ("G depth", 1), "K lower": ("G cm", 1)},
            ),
            (
                lambda: FiltrationSpec(plane_m(), K=plane_m(), J=plane().ideal([(1, 0), (0, 1)])),
                {"K upper": ("G depth", 1), "K lower": ("G cm", 1)},
            ),
        ],
        ids=["unit-k", "semigroup-k-is-i", "plane-k-is-i"],
    )
    def test_k_entries_read_their_g_twins(self, monkeypatch, make, twins):
        spec = make()
        computed, _ = count_ledger(monkeypatch)
        for n in range(1, 6):
            for name, (twin, s) in twins.items():
                assert spec.length(name, n) == spec.length(twin, n + s)
                assert spec.length(name, n) == direct_entry(spec, name, n)
        assert not [c for c in computed if c[0] in twins]
        with colength_cross_check():
            checked = make()
            for n in range(1, 6):
                for name in ("K lower", "K upper", "K cm"):
                    assert checked.length(name, n) == direct_entry(checked, name, n)

    def test_k_cm_with_k_is_i_keeps_its_own_quotient(self, monkeypatch):
        spec = semigroup_m_spec(5, 7)
        computed, _ = count_ledger(monkeypatch)
        assert spec.length("K cm", 1) == direct_entry(spec, "K cm", 1)
        assert ("K cm", 1) in computed

    def test_cross_check_catches_a_wrong_twin(self, monkeypatch):
        # K lower with K = R is "G cm", 0 at n = 2, not "G depth", 1 there
        monkeypatch.setitem(fibrekit.filtration._K_TWINS, (0, "K lower"), "G depth")
        make = lambda: make_x3_spec(k=plane().unit_ideal())
        assert make().length("K lower", 2) == 1
        assert make().length("G cm", 2) == 0
        with colength_cross_check():
            with pytest.raises(InternalInconsistencyError):
                make().length("K lower", 2)


class TestLedgerLogging:
    def test_length_sum_logs_one_debug_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fibrekit.filtration")
        spec = make_x4_spec()
        assert spec.length_sum("K upper", 2) == 3
        assert spec.length_sum("K upper", 2) == 3
        assert spec.length_sum("G depth", 2) == 7
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("fibrekit.filtration", logging.DEBUG)
        ] * 2
        assert [r.getMessage() for r in caplog.records] == [
            "length sum 'K upper' over n = 1..2 is 3; G depth is 0 at n = 3..3",
            "length sum 'G depth' over n = 1..2 is 7; G depth is 0 at n = 3..3",
        ]

    def test_search_j_step_and_twins_log_debug_lines(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fibrekit")
        spec = make_x3_spec(k=plane().unit_ideal())
        reduction_number(spec)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("fibrekit.filtration", "K = I_1^0: the K entries of the ledger read their G twins"),
            ("fibrekit.reductions", "reduction search: J I_n = I_(n+1) for n = 0..1?"),
            ("fibrekit.reductions", "reduction search: J I_n = I_(n+1) for n = 1..1?"),
            ("fibrekit.reductions", "reduction search: J I_n = I_(n+1) for n = 2..2?"),
            ("fibrekit.reductions", "reduction number r = 2 certified, checked through n = 2"),
            ("fibrekit.filtration", "J-step from n = 3: I_n is built as J I_(n-1)"),
        ]
        assert {r.levelno for r in caplog.records} == {logging.DEBUG}

    def test_logging_leaves_the_report_as_it_is(self, caplog):
        quiet = render_tree(analyze(make_x3_spec()))
        assert caplog.records == []
        caplog.set_level(logging.DEBUG, logger="fibrekit")
        assert render_tree(analyze(make_x3_spec())) == quiet
        assert {r.name for r in caplog.records} == {
            "fibrekit.criteria", "fibrekit.filtration", "fibrekit.reductions"
        }
        assert caplog.records


class TestBuildTable:
    def test_x3_table_values(self):
        spec = make_x3_spec()
        table = build_table(spec, 8)
        assert table.n_max == 8
        assert table.h == (0, 7, 22, 46, 79, 121, 172, 232, 301)
        assert table.hk == (1, 10, 28, 55, 91, 136, 190, 253, 325)
        assert table.hf == (1, 3, 6, 9, 12, 15, 18, 21, 24)

    def test_second_differences_stabilize_at_multiplicity(self):
        hk = build_table(make_x3_spec(), 8).hk
        assert [hk[n] - 2 * hk[n - 1] + hk[n - 2] for n in range(2, 9)] == [9] * 7

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
