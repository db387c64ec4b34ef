"""Theorem-level checks on a filtration and the full analysis orchestrator.

Every check returns a CriterionResult carrying both compared integers,
never a bare boolean, so reports can be audited line by line. Checks whose
statement is an unconditional theorem raise TheoremViolationError on
failure (exit code 2: a bug signal, not a computed answer); checks that
decide a property of the input return PASS or FAIL as data.

The paper's four g_1 statements are one comparison, g_1 against a certified
ledger sum minus len(R/K), made row by row in check_g1_criteria: a lower
bound (a theorem), an upper bound, and two equalities that decide whether
the fiber cone is Cohen-Macaulay and whether its depth is >= dim - 1. The
one gate: those equalities carry a verdict only when the associated graded
ring has certified depth >= dim - 1; otherwise each is reported without one
(PRECONDITION_NOT_ESTABLISHED), as it can hold for a non-Cohen-Macaulay
fiber cone when the depth hypothesis fails.

In dimension 1 depth F >= 0 = dim - 1 always holds, so the fiber-depth
equality is the theorem g_1 = sum_n len(K I_n / K J I_{n-1}) - len(R/K):
analyze reads it off that row as g1-length-formula, and a failure raises.
"""

from __future__ import annotations

import itertools
import logging
import operator
from contextlib import suppress
from enum import Enum
from typing import NamedTuple

from .analysis import (
    CoefficientReport,
    HilbertSeries,
    VSequence,
    coefficient_report,
    fiber_hilbert_series,
    fundamental_lemma_rows,
    v_sequence,
)
from .errors import InputError, NotAReductionError, TheoremViolationError
from .filtration import FiltrationSpec, HilbertTable, build_table
from .ideals import adic_start
from .reductions import (
    DepthClass,
    GradedDepth,
    ReductionData,
    classify_graded_depth,
    reduction_number,
    valabrega_valla,
)
from .rings import PowerSeriesRing

_log = logging.getLogger(__name__)


class CriterionStatus(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    PRECONDITION_NOT_ESTABLISHED = "PRECONDITION_NOT_ESTABLISHED"
    UNDETERMINED = "UNDETERMINED"


class CriterionResult(NamedTuple):
    """One named check with the two integers it compared."""

    name: str
    status: CriterionStatus
    lhs: int | None
    rhs: int | None
    note: str = ""
    bound: int | None = None

    def __str__(self):
        w = f"{self.lhs} vs {self.rhs}" if self.lhs is not None else ""
        tail = f" ({self.note})" if self.note else ""
        return f"{self.name}: {self.status.value} {w}{tail}"


class MinimalMultiplicityFlags(NamedTuple):
    """The four equivalent-or-implied forms of minimal multiplicity.

    relative:    K I_1 = K J                      (relative to K)
    g1_relative: g_1 = -len(R/K)
    classic:     mu(I_1) = e_0 + dim - len(R/I_1) (the K = m form)
    g1_classic:  g_1 = -1
    """

    relative: bool
    g1_relative: bool
    classic: bool
    g1_classic: bool


class EquivalenceConditions(NamedTuple):
    """Truth values of the three equivalent statements tested for ideals of
    minimal multiplicity: graded ring CM / fiber CM with r <= 1 / r <= 1."""

    graded_cm: bool
    fiber_cm_and_r_le_1: bool
    r_le_1: bool

    def all_equal(self) -> bool:
        return self.graded_cm == self.fiber_cm_and_r_le_1 == self.r_le_1


class AnalysisReport(NamedTuple):
    """Everything the orchestrator computed, immutable."""

    spec: FiltrationSpec
    reduction: ReductionData
    table: HilbertTable
    coefficients: CoefficientReport
    graded_depth: GradedDepth
    series: HilbertSeries
    minimal_multiplicity: MinimalMultiplicityFlags
    criteria: tuple = ()
    v: VSequence | None = None
    lemma_rows: tuple = ()
    equivalences: EquivalenceConditions | None = None
    g1_onedim_value: int | None = None

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def e0(self) -> int:
        return self.coefficients.e0

    @property
    def e1(self) -> int:
        return self.coefficients.e1

    @property
    def g1(self) -> int:
        return self.coefficients.g1

    @property
    def g2(self) -> int:
        if self.dim < 2:
            raise InputError("g_2 needs dimension >= 2")
        return self.coefficients.g.coefficients[2]

    @property
    def f0(self) -> int:
        return self.coefficients.f0

    def criterion(self, name: str) -> CriterionResult:
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)


# The paper's four g_1 statements. Each compares g_1 with one certified sum
# over n >= 1 of a ledger entry, minus len(R/K):
#   lower bound    g_1 >= sum_n len((K I_n + J) / J) - len(R/K), a theorem;
#   upper bound    g_1 <= sum_n len(K I_n / K J I_{n-1}) - len(R/K);
#   fiber CM       g_1 = sum_n len((K I_n + J I_{n-1}) / J I_{n-1}) - len(R/K)
#                  iff F is Cohen-Macaulay, gated on depth G >= dim - 1;
#   fiber depth    g_1 = sum_n len(K I_n / J K I_{n-1}) - len(R/K)
#                  iff depth F >= dim - 1, under the same gate.
# A row is (name, ledger entry, relation of g_1 to the sum, gated, PASS note,
# FAIL note); a row without a FAIL note is a theorem.
_G1_CRITERIA = (
    ("g1-lower-bound", "K lower", operator.ge, False,
     "g_1 >= lower length sum", None),
    ("g1-upper-bound", "K upper", operator.le, False,
     "g_1 <= upper length sum", "upper length sum exceeded"),
    ("fiber-cohen-macaulay", "K cm", operator.eq, True,
     "fiber cone is Cohen-Macaulay", "fiber cone is not Cohen-Macaulay"),
    ("fiber-depth", "K upper", operator.eq, True,
     "fiber depth >= dim - 1", "fiber depth < dim - 1"),
)


def check_g1_criteria(
    spec: FiltrationSpec, coefficients: CoefficientReport,
    reduction: ReductionData, graded_depth: GradedDepth,
) -> tuple:
    """The four g_1 criteria of _G1_CRITERIA, as CriterionResults in report
    order. A gated row whose graded ring has depth below dim - 1 reports
    its equality without a verdict; a theorem row that fails raises."""
    g1 = coefficients.g1
    bound = reduction.checked_through + 1
    results = []
    for name, entry, relation, gated, pass_note, fail_note in _G1_CRITERIA:
        rhs = spec.g1_sum(entry, reduction.r)
        holds = relation(g1, rhs)
        if gated and graded_depth.classification is DepthClass.LOW:
            status = CriterionStatus.PRECONDITION_NOT_ESTABLISHED
            word = "holds" if holds else "fails"
            note = f"graded depth below dim - 1: equality {word} but carries no verdict"
        elif holds:
            status, note = CriterionStatus.PASS, pass_note
        elif fail_note is None:  # g1-lower-bound, the one theorem row
            raise TheoremViolationError(
                f"g_1 = {g1} undercuts its certified lower bound {rhs}"
            )
        else:
            status, note = CriterionStatus.FAIL, fail_note
        results.append(CriterionResult(name, status, g1, rhs, note, bound))
    return tuple(results)


def check_minimal_multiplicity(
    spec: FiltrationSpec, coefficients: CoefficientReport, table: HilbertTable
) -> tuple:
    """Evaluate the four minimal-multiplicity forms and their implications.

    Returns (CriterionResult, MinimalMultiplicityFlags). The implications
    asserted (violations are bugs, never data):
      relative => g1_relative;
      K I_1 cap J = K J together with g1_relative => relative;
      classic <=> g1_classic when K is the maximal ideal.
    The first two only in an adic spec: K I_1 = K J gives K I_(n+1) =
    K J I_n for the powers of I_1, not for explicit truncated terms.
    """
    ki = spec.kterm(1)
    kj = spec.kjterm(0)
    lrk = spec.K.colength()
    g1 = coefficients.g1
    mu_i = len(spec.I.minimal_generators())
    flags = MinimalMultiplicityFlags(
        relative=(ki == kj),
        g1_relative=(g1 == -lrk),
        classic=(mu_i == coefficients.e0 + spec.dim - table.h[1]),
        g1_classic=(g1 == -1),
    )
    if spec.mode == "adic":
        if flags.relative and not flags.g1_relative:
            raise TheoremViolationError(
                f"K I = K J but g_1 = {g1} differs from -len(R/K) = {-lrk}"
            )
        if flags.g1_relative and not flags.relative and ki.intersect(spec.J) == kj:
            raise TheoremViolationError(
                "K I cap J = K J and g_1 = -len(R/K), yet K I differs from K J"
            )
    if spec.k_is_maximal and flags.classic != flags.g1_classic:
        raise TheoremViolationError(
            f"minimal-multiplicity forms disagree for K = m: "
            f"mu(I) = {mu_i} vs e_0 + d - len(R/I) = "
            f"{coefficients.e0 + spec.dim - table.h[1]}, g_1 = {g1}"
        )
    note_bits = [
        f"K I = K J: {flags.relative}",
        f"g_1 = -len(R/K): {flags.g1_relative}",
        f"mu(I) = e_0 + d - len(R/I): {flags.classic}",
        f"g_1 = -1: {flags.g1_classic}",
    ]
    result = CriterionResult(
        name="minimal-multiplicity",
        status=CriterionStatus.PASS if flags.relative else CriterionStatus.FAIL,
        lhs=g1,
        rhs=-lrk,
        note="; ".join(note_bits),
    )
    return result, flags


def check_fiber_multiplicity_bound(
    spec: FiltrationSpec, coefficients: CoefficientReport, table: HilbertTable
) -> CriterionResult:
    """For K = m only: f_0 <= e_1 - e_0 + len(R/I) + mu(I) - dim + 1.

    The inequality is a theorem, so exceeding it is a bug signal.
    """
    if not spec.k_is_maximal:
        raise InputError("the fiber multiplicity bound is a K = m statement")
    mu_i = len(spec.I.minimal_generators())
    rhs = (
        coefficients.e1
        - coefficients.e0
        + table.h[1]
        + mu_i
        - spec.dim
        + 1
    )
    f0 = coefficients.f0
    if f0 > rhs:
        raise TheoremViolationError(
            f"fiber multiplicity f_0 = {f0} exceeds its certified bound {rhs}"
        )
    return CriterionResult(
        name="fiber-multiplicity-bound",
        status=CriterionStatus.PASS,
        lhs=f0,
        rhs=rhs,
        note="f_0 <= e_1 - e_0 + len(R/I) + mu(I) - dim + 1",
    )


def check_minimal_multiplicity_equivalences(
    spec: FiltrationSpec,
    reduction: ReductionData,
    graded_depth: GradedDepth,
    fiber_cm: CriterionResult,
) -> tuple:
    """For K = m and an ideal of (classic) minimal multiplicity, the three
    statements

        1. the associated graded ring is Cohen-Macaulay,
        2. the fiber cone is Cohen-Macaulay and r <= 1,
        3. r <= 1,

    are equivalent. Each is evaluated independently; disagreement is a bug.
    Returns (CriterionResult, EquivalenceConditions or None).
    """
    vv = valabrega_valla(spec, reduction)
    graded_cm = graded_depth.classification is DepthClass.CM
    if vv.ok != graded_cm:
        raise TheoremViolationError(
            "the intersection certificate and the length-sum classification "
            f"disagree on graded Cohen-Macaulayness: {vv.ok} vs {graded_cm}"
        )
    if fiber_cm.status is CriterionStatus.PRECONDITION_NOT_ESTABLISHED:
        return (
            CriterionResult(
                name="minimal-multiplicity-equivalences",
                status=CriterionStatus.UNDETERMINED,
                lhs=None,
                rhs=None,
                note="no fiber Cohen-Macaulay verdict available",
            ),
            None,
        )
    fiber_is_cm = fiber_cm.status is CriterionStatus.PASS
    conds = EquivalenceConditions(
        graded_cm=graded_cm,
        fiber_cm_and_r_le_1=(fiber_is_cm and reduction.r <= 1),
        r_le_1=(reduction.r <= 1),
    )
    if not conds.all_equal():
        raise TheoremViolationError(
            "equivalent minimal-multiplicity conditions disagree: "
            f"graded CM = {conds.graded_cm}, "
            f"fiber CM and r <= 1 = {conds.fiber_cm_and_r_le_1}, "
            f"r <= 1 = {conds.r_le_1}"
        )
    result = CriterionResult(
        name="minimal-multiplicity-equivalences",
        status=CriterionStatus.PASS,
        lhs=int(conds.graded_cm),
        rhs=int(conds.r_le_1),
        note=(
            f"all three conditions {'hold' if conds.r_le_1 else 'fail'} "
            f"(r = {reduction.r})"
        ),
    )
    return result, conds


def class_threshold(gens: tuple, box: list) -> int:
    """The largest k_0(M_b) over the residue classes b of the m-primary
    monomial ideal T = (gens) modulo the box a = (a_1, ..., a_d), d >= 2:
    len(S / m^k M_b) is a polynomial in k for k >= k_0(M_b).

    M_b is generated by the ceilings v_i = ceil((u_i - b_i)^+ / a_i) of the
    generators u of T; they need not be minimal. In the plane k_0 is at most
    min(p_1, p_2) - 1, p_i the least pure power of M_b on axis i, and p_i
    only falls as b grows, so the class b = 0 bounds every class: it is read
    off T's pure powers (a bound, not always attained). In d >= 3 each k_0
    is exact, read off the numerator of M_b's series (ideals.adic_start). The
    column of ceilings on axis i depends on b_i = c alone and changes only
    where c reaches some u_i mod a_i, so c in {0} and those residues give
    every distinct column, at most mu + 1 per axis, and the maximum runs
    over their products only.
    """
    if len(box) == 2:
        # canonical plane generators run from (0, y) to (x, 0)
        x, y = gens[-1][0], gens[0][1]
        return min(-(-x // box[0]), -(-y // box[1])) - 1
    axes = [
        {
            tuple(-(-max(u[i] - c, 0) // a) for u in gens)
            for c in {0}.union(u[i] % a for u in gens)
        }
        for i, a in enumerate(box)
    ]
    return adic_start(zip(*cols) for cols in itertools.product(*axes))


def tail_start(spec: FiltrationSpec, r: int) -> int:
    """N from which H and H_K are polynomial, for a certified minimal
    reduction of the filtration with reduction number r; that reduction is
    the pure powers of I_1 (see fit_tables)."""
    if spec.dim == 1:
        return r
    box = spec.I.pure_powers()
    k0 = max(
        class_threshold(spec.term(r).gens, box),
        class_threshold(spec.kterm(r).gens, box),
    )
    return r + max(0, k0)


def _pure_power_reduction(spec: FiltrationSpec):
    """The pure powers of I_1 (in a semigroup ring, its least valuation)
    when the reduction rule certifies them a reduction, else None."""
    ring, i = spec.ring, spec.I
    if isinstance(ring, PowerSeriesRing):
        d = ring.dim
        box = i.pure_powers()
        j = ring.ideal([tuple(a if k == n else 0 for k in range(d)) for n, a in enumerate(box)])
    else:
        j = ring.ideal(i.minimal_generators()[:1])
    return j if j.is_reduction_of(i) else None


def fit_tables(
    spec: FiltrationSpec, n_max: int | None, *, reduction: ReductionData | None = None
):
    """Build the length table and fit all three coefficient sets, certified
    from a threshold N whenever the filtration has a certified minimal
    reduction.

    The argument. Let J be a minimal reduction with reduction number r
    (`reduction`, else computed for the spec's J). For n >= r,
    I_n = J^(n-r) I_r and K I_n = J^(n-r) K I_r. A monomial J with d
    generators reducing an m-primary ideal is (x_1^a_1, ..., x_d^a_d); a
    semigroup J is (t^a). R is a free module over S = k[[J's generators]]
    with basis the monomials x^b, 0 <= b_i < a_i (the Apery set of a in a
    semigroup ring), so a monomial ideal T splits as T = (+)_b x^b M_b with
    M_b a monomial ideal of S in y_i = x_i^a_i, and J^k T = (+)_b x^b m_S^k M_b.
    Hence len(R/J^k T) = sum_b #{v in N^d : v not in m^k M_b}, and this
    count is a polynomial in k for k >= k_0(M_b) (`class_threshold`). In
    d >= 3, k_0 is exact: with HS(S / M_<=s) = Q_s / (1 - t)^d the
    standard-graded Hilbert series of the ideal generated by M_b's
    generators of degree <= s (Bigatti's pivot numerators; Bruns-Herzog
    4.1), sum_k len(S / m^k M_b) t^k = P / (1 - t)^(d + 1) with P =
    len(S/M_b) (1 - t)^d + t sum_s t^(-s) (Q_s- - Q_s) over M_b's generator
    degrees, s- the one below s, so the count is a polynomial exactly from
    k_0 = max(0, deg P - d) on (`ideals.adic_start`). In the plane k_0 is
    bounded in closed form by inclusion-exclusion over the generator sets G
    of M_b (Huneke-Swanson 1.4): each term C(max(k + max|u| - |lcm G|, 0)
    + 1, 2) is the binomial polynomial once its argument is >= -1, the
    extreme pair of generators attains the largest |lcm G| - max |u|, and
    the class b = 0 bounds every class. So H and H_K are polynomial for
    n >= N = r + max(0, k_0 over all b, for T = I_r and T = K I_r), and a
    fit read off a table through N + d is a proof. In d = 1 every k_0 is 0
    and N = r: H(n) = H(r) + (n - r) a.

    Start rule. Without n_max the table runs to N + d. A pinned n_max of at
    least N + d is certified as given, so a report's own n_max reproduces
    it; a shorter one is NOT_YET_POLYNOMIAL, naming N. Without a J, or when
    J is not a certified minimal reduction, the pure powers of I_1 (its
    least valuation) stand in for it if they are certified a reduction.
    Otherwise the fit is window-validated on a table through r + 2d + 5
    (r of J when J is certified a reduction, else 0), and its
    `certified_from` is None. One DEBUG line on `fibrekit.criteria` names
    which of the three held, with r, N, the table's n_max and whether
    n_max was pinned.

    Either way the reduction is I_1's pure powers, so N reads them: a
    certified minimal monomial J is m-primary with d generators, (x_i^c_i);
    J <= I_1 gives c_i >= b_i for I_1's pure powers x_i^b_i, and I_1 inside
    J's integral closure gives b_i / c_i >= 1 (Newton polyhedron), so c = b.
    In a semigroup ring a J = (t^c) reduces I_1 iff c is its least valuation.
    """
    dim = spec.dim
    pinned = n_max is not None
    if reduction is None and spec.J is not None:
        with suppress(NotAReductionError):
            reduction = reduction_number(spec)
    certifier = "J"
    if reduction is None or not reduction.is_minimal:
        pure = _pure_power_reduction(spec)
        if pure is None:
            r = None if reduction is None else reduction.r
            table = build_table(spec, n_max if pinned else (r or 0) + 2 * dim + 5)
            _log.debug(
                "fits window-validated, no certified minimal reduction: "
                "r = %s, N = None, table through n = %d, n_max %s",
                r, table.n_max, "pinned" if pinned else "= r + 2d + 5",
            )
            return table, coefficient_report(table, dim)
        reduction = reduction_number(spec, pure)
        certifier = "the pure powers of I_1 standing in for J"
    start = tail_start(spec, reduction.r)
    table = build_table(spec, n_max if pinned else start + dim)
    _log.debug(
        "fits certified by %s: r = %d, N = %d, table through n = %d, n_max %s",
        certifier, reduction.r, start, table.n_max, "pinned" if pinned else "= N + d",
    )
    return table, coefficient_report(table, dim, certified_from=start)


def analyze(spec: FiltrationSpec, *, n_max: int | None = None) -> AnalysisReport:
    """Run the complete pipeline and return an immutable report.

    Order: check mu(J) = dim, certify the reduction, build the length table,
    fit coefficients, verify the identities, compute the fiber series,
    classify graded depth, evaluate the criteria.
    """
    spec.require_minimal_j()
    reduction = reduction_number(spec)
    if n_max is None:
        n_max = spec.n_max
    table, coefficients = fit_tables(spec, n_max, reduction=reduction)

    v = None
    lemma = ()
    if spec.dim == 2:
        lemma = fundamental_lemma_rows(
            spec, table, coefficients.e0,
            n_stop=max(table.n_max, reduction.r + 4), g=coefficients.g,
        )
        v = v_sequence(lemma, table, coefficients)
    series = fiber_hilbert_series(table, spec.dim, coefficients.f)
    graded_depth = classify_graded_depth(spec, coefficients.e1, reduction.r)

    g1_criteria = check_g1_criteria(spec, coefficients, reduction, graded_depth)
    _, _, fiber_cm, fiber_depth = g1_criteria
    mm_result, mm_flags = check_minimal_multiplicity(spec, coefficients, table)
    criteria = [*g1_criteria, mm_result]

    g1_onedim_value = None
    if spec.dim == 1:
        # depth F >= 0 = dim - 1, so the fiber-depth equality is a theorem here,
        # whatever its gate says. The row stays out of _G1_CRITERIA because
        # tests/golden/ and bench/reference/ fix its place after minimal-multiplicity.
        g1_onedim_value = fiber_depth.rhs
        if g1_onedim_value != fiber_depth.lhs:
            raise TheoremViolationError(
                f"dimension-1 length formula gives g_1 = {g1_onedim_value}, "
                f"the fit gives {fiber_depth.lhs}"
            )
        criteria.append(
            CriterionResult(
                "g1-length-formula", CriterionStatus.PASS, g1_onedim_value, fiber_depth.lhs,
                "dimension-1 length formula agrees with the fit", fiber_depth.bound,
            )
        )

    equivalences = None
    if spec.k_is_maximal:
        criteria.append(check_fiber_multiplicity_bound(spec, coefficients, table))
        if mm_flags.classic and spec.mode == "adic":
            eq_result, equivalences = check_minimal_multiplicity_equivalences(
                spec, reduction, graded_depth, fiber_cm
            )
            criteria.append(eq_result)

    return AnalysisReport(
        spec=spec,
        reduction=reduction,
        table=table,
        coefficients=coefficients,
        graded_depth=graded_depth,
        series=series,
        minimal_multiplicity=mm_flags,
        criteria=tuple(criteria),
        v=v,
        lemma_rows=lemma,
        equivalences=equivalences,
        g1_onedim_value=g1_onedim_value,
    )
