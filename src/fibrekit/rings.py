"""The two exactly-computable local ring models.

PowerSeriesRing(d variables) models k[[x_1, ..., x_d]] restricted to monomial
ideals; SemigroupRing(a_1, ..., a_k) models the complete numerical-semigroup
ring k[[t^a : a in S]], S = <a_1, ..., a_k> with gcd 1. Both are regular/CM
local of the stated dimension, which is what every depth criterion downstream
assumes about the ambient ring.

Rings compare by value, so equal rings built twice interoperate. Instances
are immutable after construction.
"""

from __future__ import annotations

import math

from .errors import ComputationError, InputError, InternalInconsistencyError
from .ideals import MonomialIdeal, SemigroupIdeal

# Largest bound (a1-1)(b-1) on the conductor accepted for a semigroup ring
# (see SemigroupRing): the member mask is built over that many bits, 2 MB at
# this size, before any ideal is.
MAX_CONDUCTOR_BOUND = 1 << 24


class PowerSeriesRing:
    """k[[x_1, ..., x_d]], monomials as exponent tuples of length d."""

    __slots__ = ("variables", "_zero", "_unit", "_maximal")

    def __init__(self, *variables: str):
        if not variables:
            raise InputError("a power-series ring needs at least one variable")
        names = tuple(str(v) for v in variables)
        for v in names:
            if not v.isidentifier():
                raise InputError(f"bad variable name {v!r}")
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        self.variables = names
        self._zero = None
        self._unit = None
        self._maximal = None

    @property
    def dim(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        if not isinstance(other, PowerSeriesRing):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self):
        return hash(("powerseries", self.variables))

    def __repr__(self):
        return f"PowerSeriesRing{self.variables!r}"

    def __str__(self):
        return "k[[" + ", ".join(self.variables) + "]]"

    def validate_monomial(self, exponents) -> tuple:
        try:
            m = tuple(exponents)
        except TypeError:
            raise InputError(f"monomial must be an exponent sequence, got {exponents!r}")
        if len(m) != self.dim:
            raise InputError(
                f"monomial {m} has {len(m)} exponents, ring has {self.dim} variables"
            )
        for e in m:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise InputError(f"exponents must be nonnegative integers, got {m}")
        return m

    def format_monomial(self, exponents) -> str:
        m = self.validate_monomial(exponents)
        parts = []
        for name, e in zip(self.variables, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def ideal(self, generators) -> MonomialIdeal:
        return MonomialIdeal(self, generators)

    def zero_ideal(self) -> MonomialIdeal:
        if self._zero is None:
            self._zero = MonomialIdeal(self, ())
        return self._zero

    def unit_ideal(self) -> MonomialIdeal:
        if self._unit is None:
            self._unit = MonomialIdeal(self, ((0,) * self.dim,))
        return self._unit

    def maximal_ideal(self) -> MonomialIdeal:
        if self._maximal is None:
            d = self.dim
            gens = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
            self._maximal = MonomialIdeal(self, gens)
        return self._maximal


class SemigroupRing:
    """k[[t^a : a in S]] for S = <generators>, gcd(generators) = 1.

    Membership is tabulated once, as the bitmask of the members below the
    conductor; anything at or beyond the conductor is a member. The mask is
    built by shift closure over the bound (a1-1)(b-1) plus a1 bits, where b
    is the least generator coprime to a1 (Schur's bound, b = ak, if none is):
    starting from {0}, each generator a ORs in the mask shifted by a, 2a,
    4a, ..., so a handful of bigint shifts replace a per-integer table.
    The generators are closed over in increasing order, so a generator the
    smaller ones already reach is redundant; `minimal_generators` keeps the
    others, and `generators` stays as given. A ring whose bound exceeds
    MAX_CONDUCTOR_BOUND is refused up front with ComputationError (exit 1).
    dim is always 1.
    """

    __slots__ = (
        "generators",
        "minimal_generators",
        "conductor",
        "frobenius",
        "_low_members",
        "_zero",
        "_unit",
        "_maximal",
    )

    def __init__(self, *generators: int):
        gens = sorted({int(a) for a in generators})
        if not gens:
            raise InputError("a semigroup ring needs at least one generator")
        if gens[0] < 1:
            raise InputError("semigroup generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise InputError(
                f"semigroup generators {tuple(gens)} have gcd {math.gcd(*gens)}; "
                "the semigroup must be numerical (gcd 1)"
            )
        self.generators = tuple(gens)
        a1 = gens[0]
        # every integer from (a1-1)(b-1) on is a member: Sylvester's bound
        # for a generator b coprime to a1, else Schur's with b = ak (Brauer
        # 1942); the least such b keeps a large redundant generator from
        # inflating the bound. a1 more bits certify the conductor
        b = next((a for a in gens if math.gcd(a1, a) == 1), gens[-1])
        bound = (a1 - 1) * (b - 1)
        if bound > MAX_CONDUCTOR_BOUND:
            raise ComputationError(
                f"semigroup {tuple(gens)} has conductor bound (a1-1)(b-1) = {bound} "
                f"with b = {b}, above the supported {MAX_CONDUCTOR_BOUND}"
            )
        width = bound + a1
        full = (1 << width) - 1
        members = 1
        minimal = []
        for a in gens:
            # from the bound on, a is reached by a1 and b, both smaller
            if minimal and (a >= width or members >> a & 1):
                continue
            minimal.append(a)
            # closing under a, 2a, 4a, ... adds every multiple of a below width
            step = a
            while step < width:
                members |= (members << step) & full
                step <<= 1
        c = (full & ~members).bit_length()
        if width - c < a1:
            raise InternalInconsistencyError(
                f"semigroup {tuple(gens)}: conductor {c} beyond its bound {bound}"
            )
        self.minimal_generators = tuple(minimal)
        self.conductor = c
        self.frobenius = c - 1
        self._low_members = members & ((1 << c) - 1)
        self._zero = None
        self._unit = None
        self._maximal = None

    @property
    def dim(self) -> int:
        return 1

    def __eq__(self, other):
        if not isinstance(other, SemigroupRing):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(("semigroup", self.generators))

    def __repr__(self):
        return f"SemigroupRing{self.generators!r}"

    def __str__(self):
        return "k[[" + ", ".join(f"t^{a}" for a in self.generators) + "]]"

    def member(self, s: int) -> bool:
        if s < 0:
            return False
        return s >= self.conductor or bool(self._low_members >> s & 1)

    def member_mask(self, bound: int) -> int:
        """Bit s set for each semigroup member s in [0, bound)."""
        c = self.conductor
        if bound <= c:
            return self._low_members & ((1 << bound) - 1)
        return self._low_members | ((1 << bound) - (1 << c))

    def members_below(self, bound: int) -> list:
        """Sorted semigroup members in [0, bound)."""
        mask = self.member_mask(bound)
        return [s for s in range(bound) if mask >> s & 1]

    def validate_monomial(self, valuation) -> int:
        if not isinstance(valuation, int) or isinstance(valuation, bool):
            raise InputError(f"monomial must be an integer valuation, got {valuation!r}")
        if valuation < 0 or not self.member(valuation):
            raise InputError(
                f"t^{valuation} is not in the semigroup generated by {self.generators}"
            )
        return valuation

    def format_monomial(self, valuation) -> str:
        v = self.validate_monomial(valuation)
        if v == 0:
            return "1"
        if v == 1:
            return "t"
        return f"t^{v}"

    def ideal(self, generators) -> SemigroupIdeal:
        return SemigroupIdeal(self, generators)

    def zero_ideal(self) -> SemigroupIdeal:
        if self._zero is None:
            self._zero = SemigroupIdeal(self, ())
        return self._zero

    def unit_ideal(self) -> SemigroupIdeal:
        if self._unit is None:
            self._unit = SemigroupIdeal(self, (0,))
        return self._unit

    def maximal_ideal(self) -> SemigroupIdeal:
        if self._maximal is None:
            self._maximal = SemigroupIdeal(self, self.minimal_generators)
        return self._maximal
