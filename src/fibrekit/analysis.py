"""Hilbert coefficient extraction and the length identities built on it.

Conventions, fixed once for the whole package (d = ring dimension):

* e-coefficients: for n >> 0, H(n) = len(R/I_n) equals
  sum_i (-1)^i e_i C(n + d - 1 - i, d - i);
* g-coefficients: same alternating degree-d binomial basis for
  H_K(n) = len(R/K I_n);
* f-coefficients: for n >> 0, H_F(n) = len(I_n/K I_n) equals
  sum_i (-1)^i f_i C(n + d - 2 - i, d - 1 - i), a degree d-1 basis.

Linking identities, asserted whenever all three fits are computed:
g_0 = e_0 and g_i = e_i - f_{i-1} for 1 <= i <= d.

All arithmetic is exact and in integers, and no fit computes a binomial.
A fit of degree deg (d, or d-1 for F) builds the difference columns of its
table in one pass, deg+1 deep, and finds the postulation on the last one.
It reads the polynomial P through the last deg+1 points off their backward
differences at n_max, the diagonal nabla^k P(n_max), by Newton's backward
formula (Bruns-Herzog, Cohen-Macaulay Rings, 4.1). The basis entry
C(n + deg - 1 - i, deg - i) is Newton's C(n + k - 1, k) with k = deg - i,
so c_i = (-1)^i nabla^(deg-i) P(0): the coefficients are that diagonal
walked back from n_max to n = 0, by additions.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import (
    InternalInconsistencyError,
    NotYetPolynomialError,
    TheoremViolationError,
)
from .filtration import FiltrationSpec, HilbertTable


def binomial(m: int, k: int) -> int:
    """C(m, k) as a polynomial in m, valid for negative m as well."""
    if m >= 0:
        return math.comb(m, k)
    return (-1) ** k * math.comb(k - m - 1, k)


class Basis(Enum):
    """Which alternating binomial basis a coefficient set lives in."""

    STANDARD = "degree-d"        # C(n+d-1-i, d-i), i = 0..d
    FIBER = "degree-d-minus-1"   # C(n+d-2-i, d-1-i), i = 0..d-1


def basis_row(dim: int, basis: Basis, n: int) -> list:
    if basis is Basis.STANDARD:
        return [
            (-1) ** i * binomial(n + dim - 1 - i, dim - i) for i in range(dim + 1)
        ]
    return [
        (-1) ** i * binomial(n + dim - 2 - i, dim - 1 - i) for i in range(dim)
    ]


class CoefficientSet(NamedTuple):
    """One fitted coefficient vector with how far it is known to hold.

    coefficients[i] is the i-th coefficient in `basis`; the fitted
    polynomial agrees with the source sequence exactly for
    postulation <= n <= n_max. With `certified_from` = N, the sequence is
    proved polynomial for every n >= N (criteria.fit_tables gives the
    argument) and the table reaches N + fit-size - 1, so the fit holds for
    all n >= postulation and `window` is None. Without it (None) the fit is
    window-validated: the run postulation..n_max has at least fit-size +
    `window` points (window = d + 2), and nothing proves it past n_max.
    """

    label: str                      # "E", "G" or "F"
    dim: int
    basis: Basis
    coefficients: tuple
    postulation: int
    n_max: int
    window: int | None
    certified_from: int | None = None

    def value(self, n: int) -> int:
        # sum_i (-1)^i c_i C(n + deg - 1 - i, deg - i), summed from i = deg
        # down: with k = deg - i the basis entry is C(n + k - 1, k), the
        # previous one times (n + k - 1) / k, and S <- c_i C - S puts the
        # sign (-1)^i on every term
        total = 0
        entry = 1
        for k, c in enumerate(reversed(self.coefficients)):
            if k:
                entry = entry * (n + k - 1) // k
            total = c * entry - total
        return total

    def __str__(self):
        return f"{self.label} = {self.coefficients} (exact from n = {self.postulation})"


def _newton_coefficients(tail: Sequence[int], n_max: int) -> tuple:
    """Coefficients of the polynomial P through tail = values[n_max-deg..n_max].

    Differencing the tail in place leaves its diagonal, nabla^k P(n_max)
    for k = 0..deg. In the basis C(n + deg - 1 - i, deg - i) is Newton's
    C(n + k - 1, k) with k = deg - i, so c_i = (-1)^i nabla^(deg-i) P(0)
    and no binomial is needed: with u_i = (-1)^i nabla^(deg-i) P, the step
    nabla^k P(n - 1) = nabla^k P(n) - nabla^(k+1) P(n) reads
    u_i(n - 1) = u_i(n) + u_(i-1)(n), so walking the diagonal back from
    n_max to 0 takes n_max * deg additions (u_0 is constant).
    """
    u = list(tail)
    deg = len(u) - 1
    for k in range(deg, 0, -1):
        for i in range(k):
            u[i] = u[i + 1] - u[i]
    # u[i] = nabla^(deg-i) P(n_max); sign it, then walk back to n = 0
    for i in range(1, deg + 1, 2):
        u[i] = -u[i]
    for _ in range(n_max):
        for i in range(deg, 0, -1):
            u[i] += u[i - 1]
    return tuple(u)


def fit_coefficients(
    values: Sequence[int],
    dim: int,
    basis: Basis = Basis.STANDARD,
    *,
    certified_from: int | None = None,
    label: str = "",
) -> CoefficientSet:
    """Read the alternating binomial polynomial off values[0..n_max] exactly.

    The polynomial of degree deg = d (STANDARD) or d-1 (FIBER) through the
    last deg+1 points is read off in integers (`_newton_coefficients`: the
    diagonal of backward differences at n_max, walked back to n = 0) and
    checked against the table at n_max-deg and n_max. The postulation index
    n0 = least n from which it reproduces the sequence through n_max is
    found walking down the (deg+1)-th difference column of the table, built
    in one pass of deg+1 differencings: n0-1 matches too iff the (deg+1)-th
    difference of the sequence over n0-1..n0+deg is 0.

    With certified_from = N (the sequence is known to be polynomial from N
    on), the fit is a proof once n_max >= N + deg; a shorter table is
    NOT_YET_POLYNOMIAL and the message names N. Otherwise the matching run
    must be at least fit-size + window points, window = d + 2; anything
    shorter is NOT_YET_POLYNOMIAL. Either message gives the remedy
    (raise n_max).
    """
    deg = dim if basis is Basis.STANDARD else dim - 1
    ncoef = deg + 1
    n_max = len(values) - 1
    kind = "E/G" if basis is Basis.STANDARD else "F"
    if certified_from is not None:
        window = None
        if n_max - deg < certified_from:
            raise NotYetPolynomialError(
                f"the Hilbert polynomial is certified from n = {certified_from}, "
                f"so the {kind} fit needs the table through n = "
                f"{certified_from + deg}, got n_max = {n_max}; raise n_max"
            )
    else:
        window = dim + 2
        if n_max + 1 < ncoef + window:
            raise NotYetPolynomialError(
                f"need at least {ncoef + window} table values for a validated "
                f"{kind} fit, got {n_max + 1}; raise n_max"
            )
    # column[j] = (deg+1)-th difference of values over j..j+deg+1
    column = values
    for _ in range(ncoef):
        column = list(map(operator.sub, column[1:], column[:-1]))
    n0 = n_max - deg
    while n0 > 0 and not column[n0 - 1]:
        n0 -= 1
    fitted = CoefficientSet(
        label=label, dim=dim, basis=basis, postulation=n0, n_max=n_max, window=window,
        coefficients=_newton_coefficients(values[n_max - deg:], n_max),
        certified_from=certified_from,
    )
    for n in (n_max - deg, n_max):
        if fitted.value(n) != values[n]:
            raise InternalInconsistencyError(
                f"integer read-off misses the table at n = {n}: "
                f"{fitted.value(n)} != {values[n]}"
            )
    if window is not None and n_max - n0 + 1 < ncoef + window:
        raise NotYetPolynomialError(
            f"Hilbert data stabilizes only at n = {n0} with n_max = {n_max}: "
            f"not enough validated points ({n_max - n0 + 1} < {ncoef + window}); "
            "raise n_max"
        )
    return fitted


class CoefficientReport(NamedTuple):
    """The three fitted coefficient sets with linking identities verified."""

    e: CoefficientSet
    g: CoefficientSet
    f: CoefficientSet

    @property
    def e0(self) -> int:
        return self.e.coefficients[0]

    @property
    def e1(self) -> int:
        return self.e.coefficients[1]

    @property
    def g1(self) -> int:
        return self.g.coefficients[1]

    @property
    def f0(self) -> int:
        return self.f.coefficients[0]

    @property
    def certified_from(self) -> int | None:
        """N from which all three fits are proved, None when window-validated."""
        return self.e.certified_from


def coefficient_report(
    table: HilbertTable, dim: int, certified_from: int | None = None
) -> CoefficientReport:
    """Fit all three Hilbert functions and assert the linking identities.

    certified_from = N states that H and H_K (so H_F) are polynomial from N on.
    """
    e = fit_coefficients(table.h, dim, Basis.STANDARD, certified_from=certified_from, label="E")
    g = fit_coefficients(table.hk, dim, Basis.STANDARD, certified_from=certified_from, label="G")
    f = fit_coefficients(table.hf, dim, Basis.FIBER, certified_from=certified_from, label="F")
    if g.coefficients[0] != e.coefficients[0]:
        raise InternalInconsistencyError(
            f"g_0 = {g.coefficients[0]} differs from e_0 = {e.coefficients[0]}"
        )
    for i in range(1, dim + 1):
        if g.coefficients[i] != e.coefficients[i] - f.coefficients[i - 1]:
            raise InternalInconsistencyError(
                f"g_{i} != e_{i} - f_{i - 1}: "
                f"{g.coefficients[i]} vs {e.coefficients[i]} - {f.coefficients[i - 1]}"
            )
    return CoefficientReport(e=e, g=g, f=f)


class VSequence(NamedTuple):
    """The d = 2 length decomposition of g_1 and g_2.

    values[0] = e_0, values[1] = e_0 - H_K(1) + H_K(0), and for n >= 2
    values[n] is the right side of the fundamental-lemma row at n,
    len(K I_n / K J I_{n-1}) - len((K I_{n-1} : J) / K I_{n-2}).
    Then g_1 = sum_{n>=1} values[n] and
    g_2 = sum_{n>=1} (n-1) values[n] + H_K(0), both cross-checked against
    the fitted coefficients.
    """

    values: tuple
    g1: int
    g2: int


def v_sequence(rows: tuple, table: HilbertTable, coefficients: CoefficientReport) -> VSequence:
    """The v-sequence read off the rows of fundamental_lemma_rows, which
    start at n = 2 and carry its guards (dimension 2, a minimal J), and
    cross-checked against the fitted g_1 and g_2."""
    e0 = coefficients.e0
    values = [e0, e0 - table.hk[1] + table.hk[0], *(row.rhs for row in rows)]
    g1 = sum(values[1:])
    g2 = sum((n - 1) * values[n] for n in range(1, len(values))) + table.hk[0]
    if g1 != coefficients.g.coefficients[1] or g2 != coefficients.g.coefficients[2]:
        raise TheoremViolationError(
            f"v-sequence sums (g1, g2) = ({g1}, {g2}) disagree with the fitted "
            f"({coefficients.g.coefficients[1]}, {coefficients.g.coefficients[2]})"
        )
    return VSequence(values=tuple(values), g1=g1, g2=g2)


class LemmaRow(NamedTuple):
    """One verified row of the second-difference length identity."""

    n: int
    lhs: int
    rhs: int


def fundamental_lemma_rows(
    spec: FiltrationSpec,
    table: HilbertTable,
    e0: int,
    n_stop: int | None = None,
    *,
    g: CoefficientSet | None = None,
) -> tuple:
    """Check, for each n in 2..n_stop, the dimension-2 identity

        e_0 - D2[H_K](n) = len(K I_n / K J I_{n-1})
                           - len((K I_{n-1} : J) / K I_{n-2}).

    J must be a minimal reduction (mu(J) = 2); otherwise the identity need
    not hold and the input is refused. n_stop defaults to table.n_max; past
    it H_K is read off the fitted G polynomial g, which must then be
    certified. Any inequality is a theorem violation (bug signal).
    """
    if spec.dim != 2:
        raise InternalInconsistencyError("the identity is a dimension-2 statement")
    spec.require_minimal_j()
    if n_stop is None:
        n_stop = table.n_max
    hk = table.hk
    if n_stop > table.n_max:
        if g is None or g.certified_from is None:
            raise InternalInconsistencyError(
                f"rows past the table (n_max = {table.n_max}) need a certified G fit"
            )
        hk += tuple(g.value(n) for n in range(table.n_max + 1, n_stop + 1))
    rows = []
    for n in range(2, n_stop + 1):
        lhs = e0 - (hk[n] - 2 * hk[n - 1] + hk[n - 2])
        rhs = spec.length("K upper", n) - spec.length("colon", n)
        if lhs != rhs:
            raise TheoremViolationError(
                f"second-difference identity fails at n = {n}: {lhs} != {rhs}"
            )
        rows.append(LemmaRow(n=n, lhs=lhs, rhs=rhs))
    return tuple(rows)


class HilbertSeries(NamedTuple):
    """Fiber-cone Hilbert series as numerator / (1-t)^pole_order."""

    numerator: tuple
    pole_order: int
    has_negative: bool

    def __str__(self):
        if not self.numerator:
            return "0"
        parts = []
        for j, c in enumerate(self.numerator):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                t = "t" if j == 1 else f"t^{j}"
                body = t if mag == 1 else f"{mag}*{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        num = " ".join(parts) if parts else "0"
        return f"({num}) / (1-t)^{self.pole_order}"


def fiber_hilbert_series(table: HilbertTable, dim: int, fit: CoefficientSet) -> HilbertSeries:
    """Numerator of sum_n H_F(n) t^n times (1-t)^dim, with termination and
    regeneration verified against the table and the fit.

    h_j is the dim-th backward difference of H_F at j (H_F = 0 below 0),
    taken by dim difference passes in place over H_F(0..top + dim + 2),
    top = fit.postulation + dim. The termination check reads h_j for
    top < j <= top + dim + 2, so H_F is extended past the table with the
    fit's values only through n = top + dim + 2, and not at all when the
    table reaches that far. Those values are trusted only once the fit is
    checked against the table on fit.postulation..n_max, a run of at least
    dim points, which pins the degree dim-1 polynomial down.
    """
    top = fit.postulation + dim
    stop = top + dim + 3
    coeffs = list(table.hf[:stop])
    coeffs += map(fit.value, range(len(coeffs), stop))
    for _ in range(dim):
        coeffs[1:] = map(operator.sub, coeffs[1:], coeffs[:-1])
    if any(coeffs[top + 1:]):
        j = next(j for j in range(top + 1, stop) if coeffs[j])
        raise InternalInconsistencyError(
            f"fiber series numerator does not terminate: h_{j} = {coeffs[j]}"
        )
    run = range(fit.postulation, table.n_max + 1)
    if len(run) < dim:
        raise InternalInconsistencyError(
            f"the F fit is checked on {len(run)} table points, fewer than dim = {dim}"
        )
    for n in run:
        if fit.value(n) != table.hf[n]:
            raise InternalInconsistencyError(
                f"the F fit misses the table at n = {n}: {fit.value(n)} != {table.hf[n]}"
            )
    del coeffs[top + 1:]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    # regenerate H_F from the numerator, dim prefix sums, as an independent check
    regen = (coeffs + [0] * (table.n_max + 1))[: table.n_max + 1]
    for _ in range(dim):
        regen = list(itertools.accumulate(regen))
    if tuple(regen) != table.hf:
        for n, (value, expected) in enumerate(zip(regen, table.hf)):
            if value != expected:
                raise InternalInconsistencyError(
                    f"fiber series regeneration fails at n = {n}: {value} != {expected}"
                )
    return HilbertSeries(
        numerator=tuple(coeffs),
        pole_order=dim,
        has_negative=any(c < 0 for c in coeffs),
    )
