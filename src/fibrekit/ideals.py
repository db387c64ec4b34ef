"""Exact ideal arithmetic in the two supported local ring models.

Both representations are canonical, so structural equality coincides with
equality of ideals:

* power-series model: a monomial ideal of k[[x_1, ..., x_d]] stored as the
  antichain of minimal monomial generators (sorted exponent tuples, no
  generator dividing another);
* semigroup model: an ideal of k[[t^a : a in S]] for a numerical semigroup S
  stored as one int `missing` whose bits are the members of S outside the
  ideal (None for the zero ideal, 0 for the unit ideal); its conductor is
  missing.bit_length().

Nothing depends on the coefficient field; every operation is lattice or
semigroup combinatorics over plain integers. Ideals are immutable values.
An ideal's colength and a semigroup ideal's minimal generators are cached
on first use, an immutable value, so instances may be shared between
threads.

In both models a product with a unit factor returns the other factor. A
semigroup product makes one shift per generator of its right factor and a
plane product one sorted run, so callers keep the right factor the one with
few generators (K, J or I_1 against I_n).

Semigroup ideals compute on their missing-member masks: a sum is `&`, an
intersection `|`, containment one mask test, a colon ORs the mask shifted
right by each generator of the divisor and keeps the members, and a
colength is a popcount (`int.bit_count`, Python 3.10). A product ORs the
left factor's element mask shifted by each minimal generator of the right
one. Every construction checks that the missing members lie in S and that
the ideal is closed under each minimal generator of S, one shift apiece.

Monomial ideals compute on staircases. In d = 1 every nonzero ideal is
(x^a), so each kernel compares exponents. In the plane (d = 2), a product
sorts the generator sums, one sorted run per generator of the right factor,
and keeps their lower staircase in one scan; a colon by one monomial is one
walk that clips the staircase at the axes; intersection and containment are
each one merge walk over both generator lists; and colength is read off the
staircase directly (INFINITE when it does not reach both axes). In d = 3,
colength, containment and the antichain of minimal generators are each one
sweep of the points in order of z against a plane height profile: for each
distinct x value of the points, the least y among the (x, y) projections
taken so far at or left of it. A point is kept when it lies below the
profile, which it then lowers; a colength adds, per slab between distinct
z values, its height times the area under the profile. In d >= 4 the same
three kernels read one slab walk: per distinct last coordinate z, the
antichain A_z of the projections of the points at or below z, handed to the
same code one dimension down, ending in the d = 3 sweep.

The standard-graded Hilbert series of a monomial ideal has its numerator
from Bigatti's pivot recursion (_hilbert_numerator); adic_start reads off
it, per ideal M, the k from which len(S / m^k M) is a polynomial in k.

Setting the module flag CROSS_CHECK = True makes containment re-run the
divisibility test, makes colength also run inclusion-exclusion over
generator subsets (for <= 20 generators) and a lattice-point scan of the
pure-power box, and makes adic_start compare its series with the colengths
of the products m^k M; each raises InternalInconsistencyError when the
answers differ. Tests switch it on.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable

from .errors import (
    ComputationError,
    ContainmentError,
    InputError,
    InternalInconsistencyError,
    RingMismatchError,
)

INFINITE = math.inf

# When set, contains() and colength() compute every applicable route and compare.
CROSS_CHECK = False

# The inclusion-exclusion cross-check runs only up to this many generators.
IE_GENERATOR_CAP = 20


def quotient_length(big, small) -> int:
    """Length of big/small for ideals small <= big of the same ring.

    Containment is checked first; a violation is an error, never a negative
    number. Both colengths must be finite. Equal ideals cost one colength.
    """
    if big.ring is not small.ring and big.ring != small.ring:
        raise RingMismatchError("quotient_length across different rings")
    if big == small:
        if big.colength() is INFINITE:
            raise ComputationError("quotient_length of non-cofinite ideals")
        return 0
    if not big.contains(small):
        raise ContainmentError(f"quotient_length: {small} is not contained in {big}")
    a = big.colength()
    b = small.colength()
    if a is INFINITE or b is INFINITE:
        raise ComputationError("quotient_length of non-cofinite ideals")
    return b - a


class _Ideal:
    """Mixin for both models: the ring gate of every binary operation and
    A ** n by repeated multiplication. `_kind` names the model in errors."""

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {self._kind} ideal, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError(f"{self._kind} ideals from different rings")

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("ideal powers need n >= 0")
        acc = self if n else self.ring.unit_ideal()
        for _ in range(n - 1):
            acc = acc * self
        return acc


# ---------------------------------------------------------------------------
# power-series model


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


_last = operator.itemgetter(-1)


def _antichain(cands: Iterable[tuple]) -> tuple:
    """Minimal elements of cands under componentwise <=, sorted."""
    cands = sorted(set(cands))
    if not cands:
        return ()
    if len(cands[0]) == 1:
        return (cands[0],)
    if len(cands[0]) == 2:
        return _staircase(cands)
    if len(cands[0]) == 3:
        return _antichain_sweep(cands)
    # d >= 4: a candidate is minimal iff its projection enters the slab
    # antichain at its own level
    out = []
    below = ()
    for z, active in _slabs(cands):
        kept = set(below)
        out.extend(p + (z,) for p in active if p not in kept)
        below = active
    return tuple(sorted(out))


def _slabs(pts) -> list:
    """[(z, A_z)] for each distinct last coordinate z of pts in d >= 4,
    ascending: A_z is the antichain of the projections of the points with
    last coordinate <= z, the ideal of pts on the slab from z to the next."""
    out = []
    active = ()
    for z, level in itertools.groupby(sorted(pts, key=_last), key=_last):
        active = _antichain(active + tuple(p[:-1] for p in level))
        out.append((z, active))
    return out


def _staircase(pts: list) -> tuple:
    """Minimal elements of lexicographically sorted plane points: a point is
    minimal iff its second coordinate beats everything already kept, so
    repeated points fall out too."""
    out = []
    best = INFINITE
    for p in pts:
        if p[1] < best:
            out.append(p)
            best = p[1]
    return tuple(out)


# The d = 3 kernels sweep points in order of z against a plane height
# profile h over the distinct x values xs: h[i] is the least y among the
# (x, y) projections taken so far with x <= xs[i], INFINITE where there is
# none, so h never rises to the right. A point (x, y, z) is a multiple of a
# point taken so far iff h[rank of x] <= y, and taking it lowers h from that
# rank on. A stable sort by z of lexicographically sorted points gives
# (z, x, y) order. The x-axis is compressed to the values present, so the
# work depends on the number of points, not on the size of their exponents.


def _profile(xs) -> tuple:
    """Rank of each of the x values xs, and a height profile over them that
    holds no point yet."""
    xs = sorted(set(xs))
    return dict(zip(xs, range(len(xs)))), [INFINITE] * len(xs)


def _antichain_sweep(pts: list) -> tuple:
    """d = 3 minimal elements: a point is kept iff no point before it in
    (z, x, y) order, which includes every point dividing it, is kept below
    it. pts sorted lexicographically, distinct, nonempty."""
    rank, h = _profile([p[0] for p in pts])
    n = len(h)
    out = []
    for x, y, z in sorted(pts, key=_last):
        i = rank[x]
        if y < h[i]:
            out.append((x, y, z))
            while i < n and h[i] > y:
                h[i] = y
                i += 1
    out.sort()
    return tuple(out)


def _outside(gens: tuple, pts) -> list:
    """The points of pts outside the ideal generated by gens.

    gens is a canonical antichain; every caller passes canonical generators
    or the projections of one level of them. In d = 1 a point is outside
    below the one generator. In the plane, where pts is sorted
    lexicographically, this is one walk of pts against the staircase height
    of gens, and the points come out in that order. In d = 3 one sweep takes
    the points in order of z and, before testing each, adds to the height
    profile the generators whose z is at most the point's, so the points come
    out in level order of z. In d >= 4 the points are taken level by level
    in the last coordinate, and the projections of each level are tested one
    dimension down against the slab antichain of gens (_slabs) at the highest
    z at or below the level, ending in the d = 3 sweep."""
    if not pts:
        return []
    if len(pts[0]) == 1:
        bound = gens[0][0] if gens else INFINITE
        return [p for p in pts if p[0] < bound]
    if len(pts[0]) == 2:
        out = []
        ia = -1
        h = INFINITE
        for x, y in pts:
            while ia + 1 < len(gens) and gens[ia + 1][0] <= x:
                ia += 1
                h = gens[ia][1]
            if y < h:
                out.append((x, y))
        return out
    if len(pts[0]) == 3:
        rank, h = _profile([g[0] for g in gens] + [p[0] for p in pts])
        n = len(h)
        gens = sorted(gens, key=_last)
        out = []
        j = 0
        for p in sorted(pts, key=_last):
            while j < len(gens) and gens[j][2] <= p[2]:
                gx, gy, _ = gens[j]
                i = rank[gx]
                while i < n and h[i] > gy:
                    h[i] = gy
                    i += 1
                j += 1
            if p[1] < h[rank[p[0]]]:
                out.append(p)
        return out
    slabs = _slabs(gens)
    out = []
    active = ()
    i = 0
    for z, level in itertools.groupby(sorted(pts, key=_last), key=_last):
        while i < len(slabs) and slabs[i][0] <= z:
            active = slabs[i][1]
            i += 1
        out.extend(p + (z,) for p in _outside(active, [p[:-1] for p in level]))
    return out


class MonomialIdeal(_Ideal):
    """Monomial ideal of a power-series ring, canonical antichain form.
    Its colength is computed once, on first use."""

    __slots__ = ("ring", "gens", "_colength")
    _kind = "monomial"

    def __init__(self, ring, gens: Iterable, *, _canonical: bool = False):
        self.ring = ring
        if _canonical:
            self.gens = tuple(gens)
        else:
            self.gens = _antichain(ring.validate_monomial(g) for g in gens)
        self._colength = None

    # -- value semantics ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.ring!r}, {list(self.gens)})"

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.ring.format_monomial(g) for g in self.gens) + ")"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero_ideal()
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        if self.ring.dim == 2:
            # one sorted run of sums per generator of other; the lower
            # staircase of the merged runs is the product's antichain
            sums = [(a0 + b0, a1 + b1) for b0, b1 in other.gens for a0, a1 in self.gens]
            sums.sort()
            return MonomialIdeal(self.ring, _staircase(sums), _canonical=True)
        if self.ring.dim == 3:
            # unpacked sums run several times faster than map per pair
            cands = [
                (a0 + b0, a1 + b1, a2 + b2)
                for b0, b1, b2 in other.gens
                for a0, a1, a2 in self.gens
            ]
        else:
            cands = [tuple(map(operator.add, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.ring, _antichain(cands), _canonical=True)

    def __add__(self, other):
        self._check(other)
        return MonomialIdeal(
            self.ring, _antichain(self.gens + other.gens), _canonical=True
        )

    def intersect(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero_ideal()
        if self.ring.dim == 2:
            return MonomialIdeal(
                self.ring, _intersect_plane(self.gens, other.gens), _canonical=True
            )
        cands = [tuple(map(max, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.ring, _antichain(cands), _canonical=True)

    def colon(self, other):
        """(self : other) for a nonzero ideal other."""
        self._check(other)
        if other.is_zero:
            raise InputError("colon by the zero ideal")
        if self.is_zero:
            return self.ring.zero_ideal()
        d = self.ring.dim
        out = None
        for b in other.gens:
            if d == 2:
                shifted = _colon_plane(self.gens, b)
            else:
                shifted = _antichain(
                    tuple(max(g[i] - b[i], 0) for i in range(d)) for g in self.gens
                )
            part = MonomialIdeal(self.ring, shifted, _canonical=True)
            out = part if out is None else out.intersect(part)
        return out

    # -- membership and comparison -------------------------------------

    def contains_element(self, monomial) -> bool:
        m = self.ring.validate_monomial(monomial)
        return any(_divides(g, m) for g in self.gens)

    def contains(self, other) -> bool:
        self._check(other)
        walk = not _outside(self.gens, other.gens)
        if not CROSS_CHECK:
            return walk
        scan = all(self.contains_element(g) for g in other.gens)
        if walk != scan:
            raise InternalInconsistencyError(
                f"containment routes disagree on {self} >= {other}: "
                f"generator scan says {scan}, slice walk says {walk}"
            )
        return scan

    def minimal_generators(self) -> tuple:
        return self.gens

    def is_reduction_of(self, big) -> bool:
        """Is self, inside big, a reduction of it? Exactly when every
        generator u of big lies in NP(self) = conv(exponents) + R^d_>=0
        (Huneke-Swanson 1.2, 1.4): w.u >= min over self's generators v of
        w.v for each facet normal w >= 0. A facet normal is positive on its
        support A and normal to |A| generators projected to A, so every such
        cofactor normal is tested (a non-facet one is still a valid bound).
        An A where some generator projects to 0 only gives w.u >= 0 and is
        skipped; for pure powers x_i^a_i this leaves sum u_i/a_i >= 1. The
        zero ideal has no facet and reduces only the zero ideal."""
        self._check(big)
        if self.is_zero:
            return big.is_zero
        rest = _outside(self.gens, big.gens)
        d = self.ring.dim
        supports = {sum(1 << i for i, e in enumerate(v) if e) for v in self.gens}
        for mask in range(1, 1 << d):
            if not all(s & mask for s in supports):
                continue
            axes = [i for i in range(d) if mask >> i & 1]
            pts = {tuple(v[i] for i in axes) for v in self.gens}
            for face in itertools.combinations(pts, len(axes)):
                w = _cofactor_normal(face)
                w = [-c for c in w] if w[0] < 0 else w
                if min(w) > 0:
                    floor = min(sum(map(operator.mul, w, p)) for p in pts)
                    w = [w[axes.index(i)] if i in axes else 0 for i in range(d)]
                    if any(sum(map(operator.mul, w, u)) < floor for u in rest):
                        return False
        return True

    # -- colength -----------------------------------------------------------

    def pure_powers(self):
        """Per-axis pure-power exponent, or None if some axis has no pure
        power (colength infinite). An antichain has at most one per axis."""
        box = []
        for i in range(self.ring.dim):
            on_axis = [g[i] for g in self.gens if not any(g[:i] + g[i + 1:])]
            if not on_axis:
                return None
            box.append(on_axis[0])
        return box

    def colength(self):
        """Length of R/self; INFINITE when self is not cofinite. Cached on
        the ideal, except that CROSS_CHECK runs every route on every call."""
        if self.is_zero:
            return INFINITE
        if not CROSS_CHECK:
            if self._colength is None:
                self._colength = _colength_slice(self.gens)
            return self._colength
        routes = {"slice": _colength_slice(self.gens)}
        box = self.pure_powers()
        if box is None:
            routes["box"] = INFINITE
        else:
            if len(self.gens) <= IE_GENERATOR_CAP:
                routes["inclusion-exclusion"] = _colength_ie(self.gens, box)
            routes["scan"] = _colength_scan(self.gens, box)
        if len(set(routes.values())) != 1:
            raise InternalInconsistencyError(
                f"colength routes disagree on {self}: {routes}"
            )
        self._colength = routes["slice"]
        return self._colength


def _cofactor_normal(face) -> list:
    """Integer normal w of the hyperplane through the k points q of face in
    Z^k: the signed maximal minors of q_2 - q_1, ..., q_k - q_1, all 0 when
    the points are affinely dependent."""
    rows = [[a - b for a, b in zip(q, face[0])] for q in face[1:]]
    return [(-1) ** i * _det([r[:i] + r[i + 1:] for r in rows]) for i in range(len(face))]


def _det(rows) -> int:
    """Determinant of a square integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _intersect_plane(ga: tuple, gb: tuple) -> tuple:
    """Antichain of the intersection of two nonzero plane monomial ideals:
    one merge of both staircases in x, keeping a corner wherever the larger
    of the two heights drops."""
    out = []
    prev = INFINITE
    ia = ib = 0
    na, nb = len(ga), len(gb)
    ha = hb = INFINITE
    while ia < na or ib < nb:
        xa = ga[ia][0] if ia < na else INFINITE
        xb = gb[ib][0] if ib < nb else INFINITE
        if xa <= xb:
            x = xa
            ha = ga[ia][1]
            ia += 1
        if xb <= xa:
            x = xb
            hb = gb[ib][1]
            ib += 1
        h = ha if ha > hb else hb
        if h < prev:
            out.append((x, h))
            prev = h
    return tuple(out)


def _colon_plane(gens: tuple, b: tuple) -> tuple:
    """Antichain of (gens : x^b0 y^b1) for a canonical nonempty plane
    staircase, in one walk that clips each generator at the axes. Generators
    with x <= b0 clip onto the y-axis, where only the last of them stays
    minimal; the first generator with y <= b1 clips onto the x-axis and ends
    the walk, since every later one is a multiple of its image."""
    b0, b1 = b
    out = []
    for x, y in gens:
        x = x - b0 if x > b0 else 0
        if y <= b1:
            if not x:
                return ((0, 0),)
            out.append((x, 0))
            break
        if x:
            out.append((x, y - b1))
        else:
            out = [(0, y - b1)]
    return tuple(out)


def _colength_walk(gens: tuple):
    """d = 2 colength by walking the staircase. gens canonical, nonempty."""
    if gens[0][0] != 0 or gens[-1][1] != 0:
        return INFINITE
    total = 0
    for i in range(len(gens) - 1):
        total += (gens[i + 1][0] - gens[i][0]) * gens[i][1]
    return total


def _colength_slice(gens: tuple):
    """Colength by slices (Bigatti 1997): each slab z_k <= z < z_k+1 between
    consecutive last coordinates adds its width times the (d-1)-colength of
    the projections of the generators with last coordinate <= z_k. In d = 3
    one sweep in (z, x, y) order lowers a height profile h over the distinct
    x values, and each slab adds its width times the area sum h[i] * (x_i+1 -
    x_i) under it; in d >= 4 the slabs recurse one dimension down, ending in
    that sweep (_slabs). The plane staircase walk is the d = 2 case, and in
    d = 1 the colength is the one generator's exponent. The result is
    INFINITE when no slab starts at 0, a slab is not cofinite, or the top
    one is not the unit ideal. gens canonical, nonempty."""
    if len(gens[0]) == 1:
        return gens[0][0]
    if len(gens[0]) == 2:
        return _colength_walk(gens)
    if len(gens[0]) == 3:
        return _colength_sweep(gens)
    slabs = _slabs(gens)
    if slabs[0][0] or any(slabs[-1][1][0]):
        return INFINITE
    total = 0
    for (z, active), (top, _) in zip(slabs, slabs[1:]):
        sub = _colength_slice(active)
        if sub is INFINITE:
            return INFINITE
        total += (top - z) * sub
    return total


def _colength_sweep(gens: tuple):
    """d = 3 colength of a canonical nonempty antichain: the slab below the
    next z holds h[i] points over each x in [x_i, x_i+1), so it is finite
    only when the profile starts at x = 0 (a generator on the y, z-plane)
    and ends at y = 0 (one on the x, z-plane); the top slab only under a
    pure power of z, where h is 0 throughout."""
    rank, h = _profile([g[0] for g in gens])
    xs = list(rank)
    if xs[0]:
        return INFINITE
    widths = [b - a for a, b in zip(xs, xs[1:])]
    n = len(h)
    total = 0
    prev = 0
    for x, y, z in sorted(gens, key=_last):
        if z != prev:
            if h[0] is INFINITE or h[-1]:
                return INFINITE
            total += (z - prev) * sum(map(operator.mul, h, widths))
            prev = z
        i = rank[x]
        while i < n and h[i] > y:
            h[i] = y
            i += 1
    return INFINITE if h[0] else total


def _colength_ie(gens: tuple, box: list):
    """Inclusion-exclusion over generator subsets, inside the pure-power box.

    Contribution of a subset T is (-1)^|T| * prod_i max(box_i - lcm(T)_i, 0);
    once a partial product hits zero every superset is zero too, which prunes
    hard on staircase-like inputs.
    """
    d = len(box)
    n = len(gens)
    total = 0

    def rec(start: int, lcm: tuple, sign: int):
        nonlocal total
        vol = 1
        for i in range(d):
            side = box[i] - lcm[i]
            if side <= 0:
                return
            vol *= side
        total += sign * vol
        for j in range(start, n):
            g = gens[j]
            rec(j + 1, tuple(max(lcm[i], g[i]) for i in range(d)), -sign)

    rec(0, (0,) * d, 1)
    return total


def _colength_scan(gens: tuple, box: list):
    """Count lattice points inside the box that miss the ideal."""
    total = 0
    for pt in itertools.product(*(range(b) for b in box)):
        if not any(_divides(g, pt) for g in gens):
            total += 1
    return total


# ---------------------------------------------------------------------------
# standard-graded Hilbert series of monomial ideals


def _plus_shifted(a: list, b: list, e: int, sign: int = 1) -> list:
    """The coefficient list of a + sign * t^e * b."""
    out = a + [0] * (len(b) + e - len(a))
    for k, c in enumerate(b, e):
        out[k] += sign * c
    return out


def _hilbert_numerator(gens: tuple) -> list:
    """Coefficients of Q with sum_n len((S/N)_n) t^n = Q / (1 - t)^d, for
    the monomial ideal N of S = k[y_1, ..., y_d] in the standard grading
    with minimal generators gens (a canonical antichain; Q = 1 when empty).

    Bigatti's pivot recursion (J. Pure Appl. Algebra 119, 1997): for a
    monomial p of degree e, 0 -> S/(N : p)(-e) -> S/N -> S/(N + p) -> 0 is
    exact, so Q(N) = Q(N + p) + t^e Q(N : p). While two or more minimal
    generators are not pure powers, the pivot is y_i^e, y_i the variable in
    most of them and e the median of its exponents there; both branches
    lower the total degree of the minimal generators, and N + p needs no
    minimalizing: no pure power of y_i at or below e is a minimal generator
    beside a generator with y_i-exponent e. Pure powers y_i^a alone give
    Q = prod (1 - t^a), which is 0 for the unit ideal, and one more
    generator g is its own pivot: N + g with N pure has Q(N) - t^|g|
    Q(N : g), and N : g is pure again."""
    mixed = [g for g in gens if len(g) - g.count(0) > 1]
    if len(mixed) > 1:
        cols = [[x for x in col if x] for col in zip(*mixed)]
        i = max(range(len(cols)), key=lambda i: len(cols[i]))
        e = sorted(cols[i])[len(cols[i]) // 2]
        pivot = (0,) * i + (e,) + (0,) * (len(cols) - i - 1)
        plus = tuple(g for g in gens if g[i] < e) + (pivot,)
        colon = _antichain(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
        return _plus_shifted(_hilbert_numerator(plus), _hilbert_numerator(colon), e)
    pure = [g for g in gens if len(g) - g.count(0) < 2]
    q = _box_numerator(map(sum, pure))
    if mixed:
        (g,) = mixed
        colon = (sum(max(x - y, 0) for x, y in zip(u, g)) for u in pure)
        q = _plus_shifted(q, _box_numerator(colon), sum(g), -1)
    return q


def _box_numerator(exponents) -> list:
    """prod (1 - t^a) over the exponents a of pure powers, one per axis."""
    q = [1]
    for a in exponents:
        q = _plus_shifted(q, q, a, -1)
    return q


def adic_start(classes) -> int:
    """The largest k_0(M) over the m-primary monomial ideals M of S =
    k[[y_1, ..., y_d]], one per generating set in classes (none need be
    minimal): the least k_0 >= 0 with len(S / m^k M) a polynomial in k for
    every k >= k_0, m = (y_1, ..., y_d). Equal ideals are read once, and an
    M minimally generated in degree <= 1 (S or m) has k_0 = 0: len(S / m^k M)
    is C(k + d - 1, d) or C(k + d, d) for every k >= 0.

    A monomial w lies in m^k M outside m^(k+1) M exactly when |w| - s(w) =
    k, s(w) the least degree of a generator dividing w. With M_<=s generated
    by the generators of degree <= s and HS(S / M_<=s) = Q_s / (1 - t)^d
    (_hilbert_numerator), the w with s(w) = s are counted by (Q_s- - Q_s)
    / (1 - t)^d, s- the generator degree below s (Q = 1 below the least).
    So sum_k len(m^k M / m^(k+1) M) t^k = A / (1 - t)^d with A = sum_s
    t^(-s) (Q_s- - Q_s) (_graded_numerator), and summing over j < k,

        sum_k len(S / m^k M) t^k = P / (1 - t)^(d + 1),
        P = len(S/M) (1 - t)^d + t A.

    The coefficient of t^k is a polynomial in k from k = deg P - d on, and
    not at deg P - d - 1, where the top term's C(k - deg P + d, d) leaves
    the binomial polynomial. deg P = deg A + 1 when that exceeds d, and
    otherwise deg P <= d, so k_0 = max(0, deg A + 1 - d)."""
    k0 = 0
    for gens in {_antichain(c) for c in classes}:
        if max(map(sum, gens)) > 1:
            k0 = max(k0, len(_graded_numerator(gens)) - len(gens[0]))
    return k0


def _graded_numerator(gens: tuple) -> list:
    """Coefficients of A (see adic_start), trailing zeros dropped, for the
    m-primary ideal M with minimal generators gens. Under CROSS_CHECK, P is
    expanded and compared, for k = 0 .. k_0 + d, with the colength of the
    product m^k M, built generator by generator; a difference raises
    InternalInconsistencyError."""
    degrees = [sum(g) for g in gens]
    a = [0]
    below = [1]
    for s in sorted(set(degrees)):
        q = _hilbert_numerator(tuple(g for g, e in zip(gens, degrees) if e <= s))
        # Q_s- - Q_s has no term below degree s
        a = _plus_shifted(a, _plus_shifted(below, q, 0, -1)[s:], 0)
        below = q
    while len(a) > 1 and not a[-1]:
        a.pop()
    if CROSS_CHECK:
        _check_adic_series(gens, a, below)
    return a


def _check_adic_series(gens: tuple, a: list, q: list):
    """Compare the series P / (1 - t)^(d + 1) of adic_start, with len(S/M)
    read off M's numerator q, against the colengths of the products."""
    d = len(gens[0])
    # q = (1 - t)^d h and len(S/M) = h(1) = (-1)^d q^(d)(1) / d!
    colength = (-1) ** d * sum(c * math.comb(k, d) for k, c in enumerate(q))
    p = [(-1) ** k * math.comb(d, k) * colength for k in range(d + 1)]
    stop = max(len(a) - d, 0) + d + 1
    series = _plus_shifted(p, a, 1) + [0] * stop
    for _ in range(d + 1):
        series = list(itertools.accumulate(series))
    steps = [(0,) * i + (1,) + (0,) * (d - i - 1) for i in range(d)]
    power = gens
    for k in range(stop):
        got = _colength_slice(power)
        if got != series[k]:
            raise InternalInconsistencyError(
                f"adic series of {list(gens)} gives len(S/m^{k} M) = {series[k]}, "
                f"the colength of the product is {got}"
            )
        power = _antichain(tuple(map(operator.add, g, u)) for g in power for u in steps)


# ---------------------------------------------------------------------------
# semigroup model


class SemigroupIdeal(_Ideal):
    """Ideal of a numerical-semigroup ring, stored by its missing members.

    Bit s of the int `missing` is set for each semigroup member s that is
    not in the ideal. The zero ideal has missing None and the unit ideal 0.
    The conductor, the least c with every member from c on in the ideal, is
    missing.bit_length(), so it is minimal by construction. `fpart` is the
    sorted tuple of the ideal's elements below the conductor.
    """

    __slots__ = ("ring", "missing", "_mingens", "_colength")
    _kind = "semigroup"

    def __init__(self, ring, generators: Iterable, *, _missing: int | None = None):
        self.ring = ring
        if _missing is not None:
            self.missing = _missing
        else:
            gens = sorted({ring.validate_monomial(g) for g in generators})
            if not gens:
                self.missing = None
            else:
                # gens[0] + S holds every integer from gens[0] + ring conductor
                # on, so a generator from there on adds nothing
                bound = gens[0] + ring.conductor
                members = ring.member_mask(bound)
                elems = 0
                for g in gens:
                    if g >= bound:
                        break
                    elems |= members << g
                self.missing = members & ~elems
        self._mingens = None
        self._colength = None
        self._validate()

    def _validate(self):
        missing = self.missing
        if missing is None:
            return
        members = self.ring.member_mask(missing.bit_length())
        if missing & ~members:
            raise InternalInconsistencyError(
                f"bad finite part: missing {_bits(missing & ~members)} outside the semigroup"
            )
        # s in the ideal with s + a missing breaks closure under t^a
        inside = members & ~missing
        for a in self.ring.minimal_generators:
            if missing >> a & inside:
                raise InternalInconsistencyError(
                    f"missing members {_bits(missing)} are not closed under t^{a}"
                )

    # -- value semantics ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.missing is None

    @property
    def is_unit(self) -> bool:
        return self.missing == 0

    @property
    def conductor(self) -> int | None:
        """One past the last member missing; None for the zero ideal."""
        return None if self.missing is None else self.missing.bit_length()

    @property
    def fpart(self) -> tuple:
        """Sorted ideal elements below the conductor."""
        if self.missing is None:
            return ()
        return _bits(self._elements(self.missing.bit_length()))

    def __eq__(self, other):
        if not isinstance(other, SemigroupIdeal):
            return NotImplemented
        return self.ring == other.ring and self.missing == other.missing

    def __hash__(self):
        return hash((self.ring, self.missing))

    def __repr__(self):
        return f"SemigroupIdeal({self.ring!r}, fpart={self.fpart}, conductor={self.conductor})"

    def __str__(self):
        if self.is_zero:
            return "(0)"
        gens = self.minimal_generators()
        return "(" + ", ".join(self.ring.format_monomial(g) for g in gens) + ")"

    # -- element masks (nonzero ideals only) ---------------------------------

    def full_bound(self) -> int:
        """A bound B with [B, oo) entirely inside the ideal."""
        return max(self.missing.bit_length(), self.ring.conductor)

    def _elements(self, bound: int) -> int:
        """Mask of the ideal elements below bound."""
        return self.ring.member_mask(bound) & ~self.missing

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        """self * other, one shift of self's elements per minimal generator
        of other: callers keep the right factor the one with few generators."""
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero_ideal()
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        gens = other.minimal_generators()
        # the product holds every integer from full_bound + gens[0] on, and
        # below that s + g needs s < full_bound
        base = self.full_bound()
        elems = self._elements(base)
        prod = 0
        for g in gens:
            prod |= elems << g
        missing = self.ring.member_mask(base + gens[0]) & ~prod
        return SemigroupIdeal(self.ring, (), _missing=missing)

    def __add__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        return SemigroupIdeal(self.ring, (), _missing=self.missing & other.missing)

    def intersect(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero_ideal()
        return SemigroupIdeal(self.ring, (), _missing=self.missing | other.missing)

    def colon(self, other):
        """(self : other): members s with s + b in self for each generator b,
        so s is missing when some s + b is."""
        self._check(other)
        if other.is_zero:
            raise InputError("colon by the zero ideal")
        if self.is_zero:
            return self.ring.zero_ideal()
        missing = self.missing
        shifted = 0
        for b in other.minimal_generators():
            shifted |= missing >> b
        members = self.ring.member_mask(shifted.bit_length())
        return SemigroupIdeal(self.ring, (), _missing=members & shifted)

    # -- membership and comparison --------------------------------------

    def contains_element(self, valuation) -> bool:
        v = self.ring.validate_monomial(valuation)
        return not self.is_zero and not self.missing >> v & 1

    def contains(self, other) -> bool:
        self._check(other)
        if other.is_zero:
            return True
        if self.is_zero:
            return False
        return not self.missing & ~other.missing

    def minimal_generators(self) -> tuple:
        """Valuations generating the ideal: the elements of self outside
        t^a * self for every minimal generator a of S; computed once per
        ideal."""
        if self._mingens is None:
            if self.is_zero:
                self._mingens = ()
            else:
                gens = self.ring.minimal_generators
                elems = self._elements(self.full_bound() + gens[0])
                shifted = 0
                for a in gens:
                    shifted |= elems << a
                self._mingens = _bits(elems & ~shifted)
        return self._mingens

    def is_reduction_of(self, big) -> bool:
        """Is self, inside big, a reduction of it? The integral closure of I in
        k[[S]] is every f with v(f) >= v(I): yes iff both have the same least v.
        The zero ideal reduces only the zero ideal."""
        self._check(big)
        if self.is_zero or big.is_zero:
            return big.is_zero
        return self.minimal_generators()[0] == big.minimal_generators()[0]

    def colength(self):
        """Length of R/self: the number of members missing, counted once."""
        got = self._colength
        if got is None:
            if self.missing is None:
                return INFINITE
            got = self._colength = self.missing.bit_count()
        return got


def _bits(mask: int) -> tuple:
    """Positions of the set bits of mask >= 0, ascending: one scan of its
    binary digits, lowest first."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)
