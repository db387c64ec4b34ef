"""Hilbert filtrations paired with a companion ideal K and the three
associated Hilbert functions.

A FiltrationSpec fixes the data (F = {I_n}, K, optional candidate reduction
J) and validates the defining hypotheses up front:

* I_1 is a proper nonzero ideal of finite colength, I_1 <= K;
* adic mode: I_n = I_1^n;
* truncated-good mode: I_1, ..., I_N are given explicitly, must descend,
  satisfy I_m * I_n <= I_{m+n} and I_{n+1} <= K * I_n, and continue as
  I_{n+1} = I_1 * I_n past the explicit range (those checks up to the
  explicit range are enough: the recursion propagates both properties to all
  higher indices).

Terms, K-terms, J-terms and the colons (K I_n : J) are cached on the spec.
build_table evaluates H(n) = len(R/I_n), H_K(n) = len(R/K I_n),
H_F(n) = len(I_n/K I_n) and checks H_K = H + H_F pointwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InfiniteLengthError,
    InputError,
    InternalInconsistencyError,
    MissingReductionError,
)
from .ideals import INFINITE


class FiltrationSpec:
    """Validated (filtration, K, J) package with term caches.

    Treat instances as immutable; the caches only grow.
    """

    def __init__(
        self,
        I,
        K=None,
        J=None,
        *,
        truncated_terms=None,
        n_max: int | None = None,
        n_check: int | None = None,
    ):
        ring = I.ring
        self.ring = ring
        self.I = I
        self.K = ring.maximal_ideal() if K is None else K
        self.J = J
        self.n_max = n_max
        self.n_check = n_check

        if I.is_zero or I.is_unit:
            raise InputError("the filtration needs a proper nonzero ideal I_1")
        if I.colength() is INFINITE:
            raise InputError(
                "I_1 must have finite colength (the filtration would not be Hilbert)"
            )
        if self.K.ring != ring:
            raise InputError("K lives in a different ring than I")
        if not self.K.contains(I):
            raise InputError("K must contain I_1")
        if J is not None:
            if J.ring != ring:
                raise InputError("J lives in a different ring than I")
            if J.is_zero:
                raise InputError("J must be a nonzero ideal")
            if not I.contains(J):
                raise InputError("J must be contained in I_1")

        if truncated_terms is None:
            self.mode = "adic"
            self.explicit = (I,)
        else:
            self.mode = "truncated"
            terms = tuple(truncated_terms)
            if not terms or terms[0] != I:
                raise InputError("truncated terms must start with I_1 itself")
            for t in terms:
                if t.ring != ring:
                    raise InputError("every filtration term must live in the same ring")
                if t.is_zero:
                    raise InputError("filtration terms must be nonzero")
            self.explicit = terms
            N = len(terms)
            for n in range(1, N):
                if not terms[n - 1].contains(terms[n]):
                    raise InputError(f"I_{n + 1} is not contained in I_{n}")
                if not (self.K * terms[n - 1]).contains(terms[n]):
                    raise InputError(
                        f"I_{n + 1} is not contained in K*I_{n}: "
                        "(K, F) is not a Hilbert filtration pair"
                    )
            for a in range(1, N + 1):
                for b in range(a, N + 1):
                    target = terms[b + a - 1] if b + a <= N else None
                    prod = terms[a - 1] * terms[b - 1]
                    if target is None:
                        # recursion takes over past the explicit range
                        target = self._extend(terms, a + b)
                    if not target.contains(prod):
                        raise InputError(
                            f"I_{a} * I_{b} is not contained in I_{a + b}: not a filtration"
                        )

        self._terms = {0: ring.unit_ideal(), 1: I}
        self._kterms: dict = {}
        self._jterms: dict = {}
        self._kjterms: dict = {}
        self._kcolons: dict = {}
        self._kj = None

    @staticmethod
    def _extend(terms, n):
        acc = terms[-1]
        for _ in range(n - len(terms)):
            acc = terms[0] * acc
        return acc

    @property
    def dim(self) -> int:
        return self.ring.dim

    def term(self, n: int):
        """I_n (I_0 = R)."""
        if n < 0:
            raise InputError("filtration terms are indexed by n >= 0")
        got = self._terms.get(n)
        if got is not None:
            return got
        if self.mode == "adic":
            t = self.I ** n
        else:
            N = len(self.explicit)
            if n <= N:
                t = self.explicit[n - 1]
            else:
                t = self.term(N)
                for i in range(N + 1, n + 1):
                    nxt = self._terms.get(i)
                    if nxt is None:
                        nxt = self.I * t
                        self._terms[i] = nxt
                    t = nxt
        self._terms[n] = t
        return t

    def kterm(self, n: int):
        """K * I_n."""
        got = self._kterms.get(n)
        if got is None:
            got = self.K * self.term(n)
            self._kterms[n] = got
        return got

    def require_j(self):
        if self.J is None:
            raise MissingReductionError(
                "this operation needs a candidate reduction J and none was given"
            )
        return self.J

    def jterm(self, n: int):
        """J * I_n."""
        got = self._jterms.get(n)
        if got is None:
            got = self.require_j() * self.term(n)
            self._jterms[n] = got
        return got

    def kjterm(self, n: int):
        """K * J * I_n."""
        got = self._kjterms.get(n)
        if got is None:
            if self._kj is None:
                self._kj = self.K * self.require_j()
            got = self._kj * self.term(n)
            self._kjterms[n] = got
        return got

    def kcolon(self, n: int):
        """(K I_n : J)."""
        got = self._kcolons.get(n)
        if got is None:
            j = self.require_j()
            got = self.kterm(n).colon(j)
            self._kcolons[n] = got
        return got

    def __repr__(self):
        return (
            f"FiltrationSpec(I={self.I}, K={self.K}, J={self.J}, mode={self.mode!r})"
        )


class HilbertTable(NamedTuple):
    """The three Hilbert functions tabulated for n = 0..n_max."""

    n_max: int
    h: tuple
    hk: tuple
    hf: tuple

    def delta2_hk(self, n: int) -> int:
        """Second difference of H_K at n (needs n >= 2)."""
        return self.hk[n] - 2 * self.hk[n - 1] + self.hk[n - 2]


def build_table(spec: FiltrationSpec, n_max: int) -> HilbertTable:
    """Tabulate H, H_K, H_F for n = 0..n_max.

    Rejects the first n whose colength is infinite (the filtration would not
    be Hilbert; unreachable for specs that passed validation, kept as a
    guard for truncated user data).
    """
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    h = []
    hk = []
    hf = []
    for n in range(n_max + 1):
        term = spec.term(n)
        kterm = spec.kterm(n)
        ln = term.colength()
        lkn = kterm.colength()
        if ln is INFINITE or lkn is INFINITE:
            raise InfiniteLengthError(
                f"infinite colength at n = {n}: the filtration is not Hilbert"
            )
        if not term.contains(kterm):
            raise InternalInconsistencyError(f"K*I_{n} not inside I_{n}")
        h.append(ln)
        hk.append(lkn)
        hf.append(lkn - ln)
    for n in range(n_max + 1):
        if hk[n] != h[n] + hf[n]:
            raise InternalInconsistencyError(
                f"H_K(n) = H(n) + H_F(n) fails at n = {n}"
            )
    return HilbertTable(n_max=n_max, h=tuple(h), hk=tuple(hk), hf=tuple(hf))
