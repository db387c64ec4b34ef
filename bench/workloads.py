"""Seeded input generators for the fibrekit benchmark.

Each workload has one fixed set of input files in the format of
docs/input-format.md, drawn from its distribution under DEFAULT_SEED, and
the run seed only shuffles their order. So every seed does exactly the same
work, and bench/reference/ holds the results of every input any seed runs.
For every input the generator also returns three numbers the benchmark
computes without the library: e_0 (the colength of the parameter ideal J,
which is a reduction of I by the screen the generator applies), len(R/I),
and the reduction number r. Every generated J is certified to be a
reduction before it is returned, so no input can fall into the reduction
search's failure path.

The generators import nothing from fibrekit or from the test suite.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 901


@dataclass(frozen=True)
class Input:
    """One analysis input: the file text and the values it must produce."""

    text: str
    e0: int
    colength_i: int
    r: int


def _minimal(monomials) -> frozenset:
    ms = sorted(set(monomials), key=sum)
    out = []
    for m in ms:
        if not any(all(g[i] <= m[i] for i in range(len(m))) for g in out):
            out.append(m)
    return frozenset(out)


def _monomial_product(a, b) -> frozenset:
    return _minimal(tuple(x + y for x, y in zip(g, h)) for g in a for h in b)


def monomial_reduction_number(gens, j_gens) -> int:
    """Least r with J I^r = I^(r+1), on minimal generating sets. J must be a
    reduction of I; for the I-adic filtration one equal step is enough."""
    i = _minimal(gens)
    j = _minimal(j_gens)
    power = _minimal([(0,) * len(gens[0])])
    r = 0
    while _monomial_product(j, power) != _monomial_product(i, power):
        power = _monomial_product(i, power)
        r += 1
    return r


# ---------------------------------------------------------------------------
# plane-corpus: the distribution of the test corpus in tests/conftest.py

PLANE_EXPONENT_CAP = 8
PLANE_IDEALS = 110


def newton_segment_admits(a: int, b: int, gens) -> bool:
    """J = (x^a, y^b) reduces the monomial ideal iff no generator lies
    below the segment from (a, 0) to (0, b)."""
    return all(b * u + a * v >= a * b for u, v in gens)


def _draw_plane_gens(rng: random.Random, a: int, b: int) -> tuple:
    """Interior generators drawn as the test corpus draws them: mostly on
    or above the Newton segment, 15% unconstrained (those are screened)."""
    gens = {(a, 0), (0, b)}
    for _ in range(rng.randint(1, 4)):
        u = rng.randint(1, a - 1)
        vmin = -((b * u - a * b) // a)
        if rng.random() < 0.15:
            v = rng.randint(1, b - 1)
        elif vmin <= b - 1:
            v = rng.randint(max(1, vmin), b - 1)
        else:
            continue
        gens.add((u, v))
    return tuple(sorted(gens))


def _plane_colength(gens) -> int:
    """Lattice points (u, v) in the box [0, a) x [0, b) outside the ideal."""
    a = max(u for u, _ in gens)
    b = max(v for _, v in gens)
    return sum(
        1
        for u in range(a)
        for v in range(b)
        if not any(g <= u and h <= v for g, h in gens)
    )


def _plane_corpus(rng: random.Random) -> list:
    out = []
    while len(out) < 2 * PLANE_IDEALS:
        a = rng.randint(2, PLANE_EXPONENT_CAP)
        b = rng.randint(2, PLANE_EXPONENT_CAP)
        gens = _draw_plane_gens(rng, a, b)
        if not newton_segment_admits(a, b, gens):
            continue
        r = monomial_reduction_number(gens, [(a, 0), (0, b)])
        i_line = " ".join(f"[{u},{v}]" for u, v in gens)
        colength = _plane_colength(gens)
        for k in ("maximal", "[0,0]"):
            text = (
                "ring powerseries x y\n"
                f"I {i_line}\n"
                f"J [{a},0] [0,{b}]\n"
                f"K {k}\n"
            )
            out.append(Input(text, a * b, colength, r))
    return out


# ---------------------------------------------------------------------------
# space-d3: small dimension-3 ideals, general colength routes


# Shapes as (pure-power exponents, mixed generator or None), each with its
# variables permuted by the generator.
SPACE_SHAPES = (
    ((1, 1, 1), None),
    ((1, 1, 2), None),
    ((1, 2, 2), None),
    ((1, 2, 2), (0, 1, 1)),
)


def newton_plane_admits(powers, gens) -> bool:
    """J = (x^a, y^b, z^c) reduces the ideal iff every generator u satisfies
    sum u_i / a_i >= 1 (exact rational arithmetic: scaled by a*b*c)."""
    scale = math.prod(powers)
    return all(
        sum(u * (scale // p) for u, p in zip(g, powers)) >= scale for g in gens
    )


def _space_colength(gens, powers) -> int:
    return sum(
        1
        for pt in itertools.product(*(range(p) for p in powers))
        if not any(all(g[i] <= pt[i] for i in range(3)) for g in gens)
    )


def _space_d3(rng: random.Random) -> list:
    out = []
    for powers, mixed in SPACE_SHAPES:
        perm = list(range(3))
        rng.shuffle(perm)
        powers = tuple(powers[perm[i]] for i in range(3))
        pure = [tuple(p if j == i else 0 for j in range(3)) for i, p in enumerate(powers)]
        gens = list(pure)
        if mixed is not None:
            gens.append(tuple(mixed[perm[i]] for i in range(3)))
        if not newton_plane_admits(powers, gens):
            raise AssertionError(f"space-d3 shape {gens} fails the Newton screen")

        def vec(g):
            return "[" + ",".join(map(str, g)) + "]"

        text = (
            "ring powerseries x y z\n"
            f"I {' '.join(vec(g) for g in gens)}\n"
            f"J {' '.join(vec(g) for g in pure)}\n"
            "K maximal\n"
        )
        out.append(
            Input(
                text,
                math.prod(powers),
                _space_colength(gens, powers),
                monomial_reduction_number(gens, pure),
            )
        )
    return out


# ---------------------------------------------------------------------------
# semigroup workloads


def _semigroup_members(gens, bound: int) -> list:
    table = [False] * bound
    table[0] = True
    for s in range(1, bound):
        table[s] = any(s >= g and table[s - g] for g in gens)
    return table


def _frobenius_bound(gens) -> int:
    """Every integer at or above this is in S (Schur's bound)."""
    return (min(gens) - 1) * (max(gens) - 1)


def _semigroup_colength(gens, i_gens) -> int:
    """len(R/I): members of S that are not in I = i_gens + S."""
    bound = _frobenius_bound(gens) + max(i_gens) + 1
    member = _semigroup_members(gens, bound)
    return sum(
        1
        for s in range(bound)
        if member[s] and not any(s >= f and member[s - f] for f in i_gens)
    )


def semigroup_reduction_number(gens, i_gens) -> int:
    """Least r with t^m I^r = I^(r+1), m = min I, on bitmasks of valuations.

    I^n contains n*m + S, so it holds every integer from n*m + c on, where c
    is the Frobenius bound; the mask of I^n covers the valuations below that.
    I^(n+1) is the union of the shifts of I^n by the generators of I, and
    every shift by g >= m of the part above n*m + c lands above (n+1)*m + c,
    so comparing the masks below (n+1)*m + c decides the step."""
    m = min(i_gens)
    c = _frobenius_bound(gens)
    member = _semigroup_members(gens, c)
    power = sum(1 << s for s in range(c) if member[s])  # I^0 = S
    r = 0
    while True:
        nxt = 0
        for g in i_gens:
            nxt |= power << g
        nxt &= (1 << ((r + 1) * m + c)) - 1
        if power << m == nxt:
            return r
        power = nxt
        r += 1


def _semigroup_input(gens, i_gens, k_line: str) -> Input:
    # J = (t^min I): t^m is a reduction of I exactly when m is the least
    # valuation in I, and e_0 = len(R/t^m R) = m.
    m = min(i_gens)
    text = (
        f"ring semigroup {' '.join(map(str, gens))}\n"
        f"I {' '.join(map(str, i_gens))}\n"
        f"J {m}\n"
        f"K {k_line}\n"
    )
    return Input(
        text, m, _semigroup_colength(gens, i_gens), semigroup_reduction_number(gens, i_gens)
    )


SEMIGROUP_LADDER = (11, 13, 17, 19, 23)
SEMIGROUP_BAND = 3


def _semigroup_ab(rng: random.Random) -> list:
    # Every b in a+1..a+3 is coprime to the prime a. Each rung takes b = a+1
    # and one drawn b from the rest of that narrow band: the cost grows with
    # b as well as with a, and a wider band would let a few rungs dominate.
    out = []
    for a in SEMIGROUP_LADDER:
        for b in (a + 1, rng.randint(a + 2, a + SEMIGROUP_BAND)):
            out.append(_semigroup_input((a, b), (a, b), "maximal"))
    return out


SMALL_RINGS = 600
SMALL_GENERATOR_RANGE = (3, 15)


def _semigroup_small(rng: random.Random) -> list:
    lo, hi = SMALL_GENERATOR_RANGE
    out = []
    for n in range(SMALL_RINGS):
        while True:
            gens = sorted(rng.sample(range(lo, hi + 1), 2 + n % 3))
            if math.gcd(*gens) == 1:
                break
        member = _semigroup_members(gens, 2 * hi + 1)
        small = [s for s in range(1, 2 * hi + 1) if member[s]]
        i_gens = sorted(rng.sample(small[:6], rng.randint(1, 3)))
        out.append(_semigroup_input(gens, i_gens, "maximal" if n % 2 == 0 else "0"))
    return out


WORKLOADS = {
    "plane-corpus": _plane_corpus,
    "space-d3": _space_d3,
    "semigroup-ab": _semigroup_ab,
    "semigroup-small": _semigroup_small,
}


def fixed_inputs(name: str) -> list:
    """Workload `name`'s input set, drawn once under DEFAULT_SEED."""
    return WORKLOADS[name](random.Random(f"{name}:{DEFAULT_SEED}"))


def generate(name: str, seed: int) -> list:
    """The inputs of one pass of workload `name`, in the order `seed` gives."""
    inputs = fixed_inputs(name)
    random.Random(f"{name}:{seed}").shuffle(inputs)
    return inputs
