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

Terms, K-terms, J-terms and K J-terms are cached on the spec. Each is
built as I_n times I_1, K, J or K J: a product iterates over the generators
of its right factor, so the factor with few generators goes on the right.
Two identities let one cached ideal stand for another instead, so that
each ideal is built once:

* the J-step: once reduction_number certifies r for the spec's own minimal
  J, it records r (record_reduction_number), which proves I_(n+1) = J I_n
  for every n >= r. From then on term(n + 1) is jterm(n), one product by
  J's d generators and the same object in both caches, and kjterm(n) is
  kterm(n + 1), since K J I_n = K I_(n+1); K J is not built for these.
  Terms built before the record (the search's own, and in truncated mode
  those the validation builds) stay as they were.
* the K shift: when K = I_1^s with s in {0, 1} (K = R in any mode, since
  R I_n = I_n, or K = I_1 in an adic spec), K I_n is I_(n+s) and K J I_n
  is J I_(n+s), so kterm and kjterm delegate to term and jterm, their own
  caches stay empty, and K J is never built.

Under ideals.CROSS_CHECK every term that stands for a product is also
built as that product (I_(n-1) I_1, I_n K or I_n K J) and compared.
build_table evaluates H(n) = len(R/I_n), H_K(n) = len(R/K I_n) and
H_F(n) = len(I_n/K I_n) = H_K(n) - H(n), after checking K I_n <= I_n.

The spec also keeps the length ledger: every length the criteria, the
identities and the depth classifier compare, computed once per degree and
memoized by (entry, n), with each entry's certified sum over n >= 1
(length_sum) memoized by (entry, r). The entries at degree n:

* "K lower":    len((K I_n + J) / J);
* "K upper":    len(K I_n / K J I_{n-1});
* "K cm":       len((K I_n + J I_{n-1}) / J I_{n-1});
* "G cm":       len((I_n + J) / J);
* "G depth":    len(I_n / J I_{n-1});
* "colon":      len((K I_{n-1} : J) / K I_{n-2}).

Each entry is its own quotient length, except where one of two identities
gives it from a length the spec already holds. Past r, where the summed
entries vanish (length_sum), the J-step makes the two ideals of "G depth"
and of "K upper" one object, so quotient_length returns 0 after its
equality test.

When K = I_1^s the K entries at n >= 1 are G entries at n + s, and read
them (_K_TWINS) instead of computing their own quotients:

* s = 0: "K upper" and "K cm" are "G depth", "K lower" is "G cm" (with
  K I_n = I_n, and I_n + J I_(n-1) = I_n);
* s = 1: "K upper"(n) is "G depth"(n + 1) and "K lower"(n) is
  "G cm"(n + 1) (with K I_n = I_(n+1) and K J I_(n-1) = J I_n).

"K cm" with s = 1 and "colon" keep their own quotients.

In dimension 1 with a principal J = (f) (table_route), "G depth" and "K
upper" are read off colengths the table already holds:

  "G depth"(n) = len(R/J) + H(n-1) - H(n),
  "K upper"(n) = len(R/J) + H_K(n-1) - H_K(n).

The ring is a domain, so f is a nonzerodivisor and len(R/fE) = len(R/f) +
len(R/E) for every nonzero ideal E (R/fE contains fR/fE, isomorphic to
R/E); with E = I_(n-1) and E = K I_(n-1) this is len(R/J I_(n-1)) and
len(R/K J I_(n-1)). So no K J I_(n-1) is built in d = 1 past n = 0.

Under ideals.CROSS_CHECK each twin and each table value is also computed
as its own quotient, and a mismatch or a negative value raises
InternalInconsistencyError. Only the integers are memoized; the ideals come
from the term caches. len(R/K) is not an entry: it is K.colength(), which
the ideal caches.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

from . import ideals
from .errors import (
    InfiniteLengthError,
    InputError,
    InternalInconsistencyError,
    MissingReductionError,
    UndeterminedSumError,
)
from .ideals import INFINITE, quotient_length

# ledger entry -> the pair (big, small) whose quotient length it holds at n
_LEDGER = {
    "K lower": lambda s, n: (s.kterm(n) + s.require_j(), s.J),
    "K upper": lambda s, n: (s.kterm(n), s.kjterm(n - 1)),
    "K cm": lambda s, n: (s.kterm(n) + s.jterm(n - 1), s.jterm(n - 1)),
    "G cm": lambda s, n: (s.term(n) + s.require_j(), s.J),
    "G depth": lambda s, n: (s.term(n), s.jterm(n - 1)),
    "colon": lambda s, n: (s.kterm(n - 1).colon(s.require_j()), s.kterm(n - 2)),
}

# d = 1 entry -> the ideals E_(n-1), E_n with len(R/J) + len(R/E_(n-1)) -
# len(R/E_n) its value at n, for a principal J (see the module docstring)
_TABLE = {
    "K upper": lambda s, n: (s.kterm(n - 1), s.kterm(n)),
    "G depth": lambda s, n: (s.term(n - 1), s.term(n)),
}

# (s, entry) -> the G entry it equals at n + s when K = I_1^s, n >= 1
_K_TWINS = {
    (0, "K upper"): "G depth",
    (0, "K cm"): "G depth",
    (0, "K lower"): "G cm",
    (1, "K upper"): "G depth",
    (1, "K lower"): "G cm",
}

# entries whose sum over n >= 1 stops at the reduction number (see length_sum)
_SUMMABLE = frozenset(("K lower", "K upper", "K cm", "G cm", "G depth"))

_log = logging.getLogger(__name__)


class FiltrationSpec:
    """Validated (filtration, K, J) package with term caches and the length ledger.

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
    ):
        ring = I.ring
        self.ring = ring
        self.I = I
        self.K = ring.maximal_ideal() if K is None else K
        self.J = J
        self.n_max = n_max
        # every attribute is set here: on CPython 3.11 one added later
        # turns the instance's inline attributes into a slower dict
        self._terms = {0: ring.unit_ideal(), 1: I}
        # s with K = I_1^s, so K I_n = I_(n+s) and K J I_n = J I_(n+s)
        self._k_shift = (
            0 if self.K.is_unit else 1 if truncated_terms is None and self.K == I else None
        )
        if self._k_shift is not None:
            _log.debug("K = I_1^%d: the K entries of the ledger read their G twins", self._k_shift)
        # r once reduction_number certifies it for a minimal J: from there
        # on I_(n+1) = J I_n (record_reduction_number)
        self._r = None
        self._kterms: dict = {}
        self._jterms: dict = {}
        self._kjterms: dict = {}
        self._kj = None
        self._lengths: dict = {}
        self._sums: dict = {}

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
            self._terms.update(enumerate(terms, 1))
            N = len(terms)
            for n in range(1, N):
                if not terms[n - 1].contains(terms[n]):
                    raise InputError(f"I_{n + 1} is not contained in I_{n}")
                if not (terms[n - 1] * self.K).contains(terms[n]):
                    raise InputError(
                        f"I_{n + 1} is not contained in K*I_{n}: "
                        "(K, F) is not a Hilbert filtration pair"
                    )
            # past the explicit range term() continues by the recursion
            for a in range(1, N + 1):
                for b in range(a, N + 1):
                    if not self.term(a + b).contains(terms[a - 1] * terms[b - 1]):
                        raise InputError(
                            f"I_{a} * I_{b} is not contained in I_{a + b}: not a filtration"
                        )

    @property
    def dim(self) -> int:
        return self.ring.dim

    @property
    def k_is_maximal(self) -> bool:
        """K = m, the setting of the minimal-multiplicity statements."""
        return self.K == self.ring.maximal_ideal()

    @property
    def table_route(self) -> bool:
        """d = 1 with a principal J = (f): "G depth" and "K upper" come off
        the Hilbert table (see the module docstring)."""
        return self.ring.dim == 1 and self.J is not None and len(self.J.minimal_generators()) == 1

    def term(self, n: int):
        """I_n (I_0 = R), built as I_n = I_{n-1} I_1 past the explicit terms,
        and as the J-term J I_(n-1) past a recorded reduction number."""
        terms = self._terms
        got = terms.get(n)
        if got is not None:
            return got
        if n < 0:
            raise InputError("filtration terms are indexed by n >= 0")
        r = self._r
        for i in range(len(terms), n + 1):
            if r is not None and i > r:
                terms[i] = self._delegated(self.jterm(i - 1), i - 1, self.I)
            else:
                terms[i] = terms[i - 1] * self.I
        return terms[n]

    def record_reduction_number(self, r: int) -> None:
        """From now on build I_(n+1) as J I_n and K J I_n as K I_(n+1) for
        n >= r: reduction_number has certified I_(n+1) = J I_n there, for
        the spec's own minimal J."""
        self._r = r
        _log.debug("J-step from n = %d: I_n is built as J I_(n-1)", r + 1)

    def _delegated(self, got, n, *factors):
        """got, the term that stands for I_n times the factors when K = I_1^s
        or past the J-step; under ideals.CROSS_CHECK the product is also
        built and compared."""
        if ideals.CROSS_CHECK and got != math.prod(factors, start=self.term(n)):
            raise InternalInconsistencyError(
                f"I_{n} * {' * '.join(map(str, factors))} differs from the term "
                f"that stands for it (K = I_1^{self._k_shift}, reduction "
                f"number {self._r})"
            )
        return got

    def kterm(self, n: int):
        """K * I_n; I_(n+s) when K = I_1^s (a negative n raises in term)."""
        if self._k_shift is not None and n >= 0:
            return self._delegated(self.term(n + self._k_shift), n, self.K)
        got = self._kterms.get(n)
        if got is None:
            got = self._kterms[n] = self.term(n) * self.K
        return got

    def require_j(self):
        if self.J is None:
            raise MissingReductionError(
                "this operation needs a candidate reduction J and none was given"
            )
        return self.J

    def require_minimal_j(self):
        """J, checked to have as many minimal generators as the ring's
        dimension, as the paper's identities and criteria assume."""
        mu = len(self.require_j().minimal_generators())
        if mu != self.dim:
            raise InputError(
                f"this operation needs a minimal reduction: J has {mu} "
                f"minimal generators, the ring dimension is {self.dim}"
            )
        return self.J

    def jterm(self, n: int):
        """J * I_n."""
        got = self._jterms.get(n)
        if got is None:
            got = self._jterms[n] = self.term(n) * self.require_j()
        return got

    def kjterm(self, n: int):
        """K * J * I_n; J I_(n+s) when K = I_1^s, and K I_(n+1) past the
        J-step, neither building K J."""
        if n >= 0:
            if self._k_shift is not None:
                return self._delegated(self.jterm(n + self._k_shift), n, self.K, self.J)
            if self._r is not None and n >= self._r:
                return self._delegated(self.kterm(n + 1), n, self.K, self.J)
        got = self._kjterms.get(n)
        if got is None:
            if self._kj is None:
                self._kj = self.K * self.require_j()
            got = self._kjterms[n] = self.term(n) * self._kj
        return got

    def length(self, name: str, n: int) -> int:
        """The ledger entry `name` at degree n (see the module docstring)."""
        key = (name, n)
        got = self._lengths.get(key)
        if got is None:
            got = self._lengths[key] = self._entry(name, n)
        return got

    def _entry(self, name: str, n: int) -> int:
        """The entry `name` at n: its G twin when K = I_1^s, in d = 1 the
        Hilbert table, else its own quotient; the first two are compared with
        the quotient under ideals.CROSS_CHECK."""
        if n >= 1 and (twin := _K_TWINS.get((self._k_shift, name))):
            got, route = self.length(twin, n + self._k_shift), "as its G twin at n + s"
        elif name in _TABLE and self.table_route:
            before, here = _TABLE[name](self, n)
            got = self.J.colength() + before.colength() - here.colength()
            route = "off the Hilbert table"
        else:
            return quotient_length(*_LEDGER[name](self, n))
        if got < 0 or ideals.CROSS_CHECK and got != quotient_length(*_LEDGER[name](self, n)):
            raise InternalInconsistencyError(
                f"{name!r} at n = {n} reads {got} {route}: "
                "negative, or not its quotient length"
            )
        return got

    def length_sum(self, name: str, reduction_number: int) -> int:
        """Certified sum over n >= 1 of the ledger entry `name`: the entry
        is added up over n = 1..r (r = reduction_number) only.

        The tail is certified by "G depth" at n = r+1 .. max(r, N) + 1 (N
        explicit terms), the degrees reduction_number checks, and a nonzero
        value raises UNDETERMINED rather than truncating silently. Where it
        is 0, I_n = J I_{n-1}; one such step at n - 1 >= N carries forward
        (I_{n+1} = I_1 I_n = J I_1 I_{n-1} = J I_n), so I_n = J I_{n-1}
        for every n > r. That gives
          K I_n = K J I_{n-1},
          I_n <= J,
          K I_n <= I_n = J I_{n-1},
        so "K lower", "K upper", "K cm" and "G cm" vanish past r along with
        "G depth" itself. The certificate never trusts reduction_number, so
        a claimed reduction number that is too small meets a nonzero "G
        depth" in the checked degrees. Under ideals.CROSS_CHECK the entry
        itself is also computed at r < n <= r + d + 2, and a nonzero value
        raises InternalInconsistencyError.
        """
        key = (name, reduction_number)
        got = self._sums.get(key)
        if got is None:
            if name not in _SUMMABLE:
                raise InputError(f"{name!r} does not vanish past the reduction number")
            r = reduction_number
            got = sum(self.length(name, n) for n in range(1, r + 1))
            last = max(r, len(self.explicit)) + 1
            for n in range(r + 1, last + 1):
                v = self.length("G depth", n)
                if v:
                    raise UndeterminedSumError(
                        f"length sum {name!r} does not terminate: len(I_n / J I_(n-1)) "
                        f"at n = {n} is {v} although the reduction number is {r}"
                    )
            if ideals.CROSS_CHECK:
                for n in range(r + 1, r + self.dim + 3):
                    if self.length(name, n):
                        raise InternalInconsistencyError(
                            f"{name!r} at n = {n} is nonzero although n > r = {r}"
                        )
            self._sums[key] = got
            _log.debug(
                "length sum %r over n = 1..%d is %d; G depth is 0 at n = %d..%d",
                name, r, got, r + 1, last,
            )
        return got

    def g1_sum(self, name: str, reduction_number: int) -> int:
        """length_sum(name) - len(R/K), the shape of every g_1 length formula."""
        return self.length_sum(name, reduction_number) - self.K.colength()

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
    return HilbertTable(n_max=n_max, h=tuple(h), hk=tuple(hk), hf=tuple(hf))
