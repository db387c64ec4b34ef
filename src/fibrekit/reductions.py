"""Reduction numbers, the Valabrega-Valla check, and depth classification.

Everything here is a finite, certified check:

* whether J is a reduction is read off the ideals, and the reduction number
  search proves its r (the filtration's recursion pushes each step forward);
* the Valabrega-Valla certificate is complete at the reduction number;
* the depth classifier compares e_1 against the two partial-length sums
  whose agreement characterizes depth of the associated graded ring.
"""

from __future__ import annotations

import functools
import itertools
import logging
from enum import Enum
from typing import NamedTuple

from . import ideals
from .errors import (
    InternalInconsistencyError,
    NotAReductionError,
    TheoremViolationError,
)
from .filtration import FiltrationSpec

_log = logging.getLogger(__name__)


class ReductionData(NamedTuple):
    """Certified reduction number of J for the filtration."""

    r: int
    mu: int              # number of minimal generators of J
    is_minimal: bool     # mu equals the ring dimension
    checked_through: int  # J I_n = I_{n+1} verified for r <= n <= this

    def __str__(self):
        kind = "minimal " if self.is_minimal else ""
        return f"{kind}reduction with r = {self.r} (mu = {self.mu})"


def reduction_number(spec: FiltrationSpec, j=None) -> ReductionData:
    """Least r with J I_n = I_{n+1} for all n >= r.

    J is the spec's own (its products J I_n cached on the spec) unless `j`
    names another candidate. J is first decided on I_1 (`is_reduction_of`):
    past the N explicit terms I_{n+1} = I_1 I_n, so J reduces the filtration
    iff it reduces I_1. A J that is not a reduction raises before any
    product. For a reduction the search stops: past I_N one step
    J I_m = I_{m+1} pushes forward (J I_{m+1} = J I_1 I_m = I_1 (J I_m) =
    I_{m+2}), and J I_1^s = I_1^{s+1} gives the step at m = N + s.

    So I_{n+1} = J I_n for every n >= r, and the spec reuses it: for its
    own J, when J is minimal, r is recorded on the spec
    (`FiltrationSpec.record_reduction_number`), which from then on builds
    I_{n+1} as the J-term J I_n, one product by d generators, and K J I_n
    as K I_{n+1}. Nothing is recorded for another candidate. Each step
    tried and the certified r are logged at DEBUG.
    """
    own = j is None
    if own:
        j, jterm = spec.require_j(), spec.jterm
    else:
        jterm = functools.cache(lambda n: spec.term(n) * j)
    if not j.is_reduction_of(spec.I):
        raise NotAReductionError(f"J = {j} is not a reduction of I_1 = {spec.I}")
    explicit = len(spec.explicit)
    for r in itertools.count():
        # J I_n and I_n are cached on the spec, so a repeated step is one ==
        last = max(r, explicit)
        _log.debug("reduction search: J I_n = I_(n+1) for n = %d..%d?", r, last)
        if all(jterm(n) == spec.term(n + 1) for n in range(r, last + 1)):
            mu = len(j.minimal_generators())
            data = ReductionData(
                r=r,
                mu=mu,
                is_minimal=(mu == spec.dim),
                checked_through=last,
            )
            _log.debug("reduction number r = %d certified, checked through n = %d", r, last)
            if own and data.is_minimal:
                spec.record_reduction_number(r)
            return data


class SequenceCheck(NamedTuple):
    """Degree-by-degree ideal-equality certificate, e.g. J cap I_n = J I_{n-1}."""

    name: str
    ok: bool
    failed_at: int | None
    n_checked: int


def valabrega_valla(
    spec: FiltrationSpec, reduction: ReductionData | None = None
) -> SequenceCheck:
    """Valabrega-Valla: the associated graded ring is Cohen-Macaulay iff
    J cap I_n = J I_{n-1} for every n >= 1.

    The certificate is complete at the reduction number r (`reduction`, the
    spec's own, certified here when not given): for n > r the certified
    step I_n = J I_{n-1} puts I_n inside J, so J cap I_n = I_n = J I_{n-1}.
    Only 1 <= n <= r is compared. Under ideals.CROSS_CHECK the implied
    degrees r < n <= r + d + 2 are compared too, and a difference raises
    InternalInconsistencyError.
    """
    j = spec.require_j()
    if reduction is None:
        reduction = reduction_number(spec)
    r = reduction.r

    def holds(n: int) -> bool:
        return j.intersect(spec.term(n)) == spec.jterm(n - 1)

    failed_at = next((n for n in range(1, r + 1) if not holds(n)), None)
    if ideals.CROSS_CHECK:
        for n in range(r + 1, r + spec.dim + 3):
            if not holds(n):
                raise InternalInconsistencyError(
                    f"J cap I_{n} differs from J I_{n - 1} although n > r = {r}"
                )
    return SequenceCheck(
        name="valabrega-valla",
        ok=failed_at is None,
        failed_at=failed_at,
        n_checked=r,
    )


class DepthClass(Enum):
    CM = "cohen-macaulay"
    DEPTH_GE_DIM_MINUS_1 = "depth >= dim - 1"
    LOW = "depth < dim - 1"


class GradedDepth(NamedTuple):
    """Depth classification of the associated graded ring via length sums.

    cm_sum     = sum_n len((I_n + J)/J)
    depth_sum  = sum_n len(I_n / J I_{n-1})
    The certified inequalities are cm_sum <= e_1 <= depth_sum; equality at
    the lower end means the graded ring is Cohen-Macaulay, equality at the
    upper end means its depth is at least dim - 1.
    """

    classification: DepthClass
    e1: int
    cm_sum: int
    depth_sum: int


def classify_graded_depth(
    spec: FiltrationSpec, e1: int, reduction_number: int
) -> GradedDepth:
    cm_sum = spec.length_sum("G cm", reduction_number)
    depth_sum = spec.length_sum("G depth", reduction_number)
    if not (cm_sum <= e1 <= depth_sum):
        raise TheoremViolationError(
            f"e_1 = {e1} escapes the certified range "
            f"[{cm_sum}, {depth_sum}] of the depth length sums"
        )
    if e1 == cm_sum:
        if cm_sum != depth_sum:
            raise TheoremViolationError(
                "Cohen-Macaulay length sum matches e_1 while the depth sum "
                f"does not: {cm_sum} vs {depth_sum}"
            )
        cls = DepthClass.CM
    elif e1 == depth_sum:
        cls = DepthClass.DEPTH_GE_DIM_MINUS_1
    else:
        cls = DepthClass.LOW
    return GradedDepth(
        classification=cls, e1=e1, cm_sum=cm_sum, depth_sum=depth_sum
    )
