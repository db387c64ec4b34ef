"""Line-oriented input files describing a filtration.

Grammar (one directive per line, '#' starts a comment, blank lines ignored):

    ring powerseries <var> [<var> ...]     line must precede any ideal line
    ring semigroup <a1> <a2> ...           coprime positive generators
    I <generators>                         required
    J <generators>                         optional (reduction to test)
    K maximal | K <generators>             default: maximal
    n_max <integer >= 0>                   optional table-length override
    format text | tree                     default stdout rendering

Monomial generators are bracketed exponent vectors: [3,0] or [3 0].
Semigroup generators are bare valuations: I 4 5 6.

Errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InputError, ParseError
from .filtration import FiltrationSpec
from .rings import PowerSeriesRing, SemigroupRing

MAXIMAL = "maximal"
_IDEAL_KEYS = ("I", "J", "K")


class InputDocument(NamedTuple):
    """Parsed but not yet validated-against-theory input."""

    ring: object
    i_gens: list
    j_gens: list | None
    k_gens: object  # MAXIMAL or a list of generators
    n_max: int | None
    fmt: str

    def spec(self) -> FiltrationSpec:
        ring = self.ring
        i = ring.ideal(self.i_gens)
        j = ring.ideal(self.j_gens) if self.j_gens is not None else None
        k = None if self.k_gens is MAXIMAL else ring.ideal(self.k_gens)
        return FiltrationSpec(i, K=k, J=j, n_max=self.n_max)


# a bracketed group up to the first ']' (or the line's end), or a word
# running to the next whitespace, comma or '['
_TOKEN = re.compile(r"\[[^\]]*\]?|[^\s,\[]+")


def _split_tokens(body: str, line_no: int, offset: int) -> list:
    """Tokens with their 1-based column positions.

    Bracketed groups [ ... ] are single tokens; everything else splits on
    whitespace and commas between groups, and '[' also starts a token.
    """
    tokens = []
    for m in _TOKEN.finditer(body):
        text = m.group()
        col = offset + m.start() + 1
        if text[0] == "[" and text[-1] != "]":
            raise ParseError("unclosed '['", line=line_no, column=col)
        tokens.append((text, col))
    return tokens


def _int_token(text: str, line_no: int, col: int, *, minimum: int | None = None) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line=line_no, column=col)
    if minimum is not None and value < minimum:
        raise ParseError(
            f"expected an integer >= {minimum}, got {value}", line=line_no, column=col
        )
    return value


def _vector_token(text: str, line_no: int, col: int) -> tuple:
    inner = text[1:-1].replace(",", " ")
    parts = inner.split()
    if not parts:
        raise ParseError("empty exponent vector", line=line_no, column=col)
    return tuple(_int_token(p, line_no, col, minimum=0) for p in parts)


def _parse_generators(ring, tokens, line_no):
    """Generator list appropriate to the ring model."""
    if not tokens:
        raise ParseError("expected at least one generator", line=line_no, column=1)
    gens = []
    monomial = isinstance(ring, PowerSeriesRing)
    for text, col in tokens:
        if monomial:
            if not text.startswith("["):
                raise ParseError(
                    f"expected a bracketed exponent vector, got {text!r}",
                    line=line_no,
                    column=col,
                )
            vec = _vector_token(text, line_no, col)
            if len(vec) != ring.dim:
                raise ParseError(
                    f"exponent vector has {len(vec)} entries, ring has {ring.dim}",
                    line=line_no,
                    column=col,
                )
            gens.append(vec)
        else:
            if text.startswith("["):
                raise ParseError(
                    "semigroup generators are bare integers, not vectors",
                    line=line_no,
                    column=col,
                )
            value = _int_token(text, line_no, col, minimum=0)
            if not ring.member(value):
                raise ParseError(
                    f"{value} is not a member of the semigroup",
                    line=line_no,
                    column=col,
                )
            gens.append(value)
    return gens


def parse_input(text: str) -> InputDocument:
    ring = None
    seen = {}
    ideals = {"I": None, "J": None, "K": None}
    n_max = None
    fmt = "text"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        stripped = body.lstrip()
        indent = len(body) - len(stripped)
        tokens = _split_tokens(stripped, line_no, indent)
        if not tokens:
            raise ParseError(
                "expected a directive, found only commas", line=line_no, column=indent + 1
            )
        (key, key_col), rest = tokens[0], tokens[1:]

        if key in seen:
            raise ParseError(
                f"duplicate directive {key!r} (first on line {seen[key]})",
                line=line_no,
                column=key_col,
            )
        seen[key] = line_no

        if key == "ring":
            if not rest:
                raise ParseError(
                    "ring needs a model: powerseries or semigroup",
                    line=line_no,
                    column=key_col,
                )
            (model, model_col), args = rest[0], rest[1:]
            if model == "powerseries":
                if not args:
                    raise ParseError(
                        "powerseries needs variable names", line=line_no, column=model_col
                    )
                try:
                    ring = PowerSeriesRing(*(t for t, _ in args))
                except InputError as exc:
                    raise ParseError(str(exc), line=line_no, column=args[0][1])
            elif model == "semigroup":
                if not args:
                    raise ParseError(
                        "semigroup needs generators", line=line_no, column=model_col
                    )
                values = [_int_token(t, line_no, c, minimum=1) for t, c in args]
                try:
                    ring = SemigroupRing(*values)
                except InputError as exc:
                    raise ParseError(str(exc), line=line_no, column=args[0][1])
            else:
                raise ParseError(
                    f"unknown ring model {model!r} (powerseries or semigroup)",
                    line=line_no,
                    column=model_col,
                )
        elif key in _IDEAL_KEYS:
            if ring is None:
                raise ParseError(
                    f"{key} appears before the ring line", line=line_no, column=key_col
                )
            if key == "K" and len(rest) == 1 and rest[0][0] == MAXIMAL:
                ideals["K"] = MAXIMAL
            else:
                ideals[key] = _parse_generators(ring, rest, line_no)
        elif key == "n_max":
            if len(rest) != 1:
                raise ParseError("n_max takes one integer", line=line_no, column=key_col)
            n_max = _int_token(rest[0][0], line_no, rest[0][1], minimum=0)
        elif key == "format":
            if len(rest) != 1 or rest[0][0] not in ("text", "tree"):
                raise ParseError(
                    "format is 'text' or 'tree'",
                    line=line_no,
                    column=rest[0][1] if rest else key_col,
                )
            fmt = rest[0][0]
        else:
            raise ParseError(
                f"unknown directive {key!r}", line=line_no, column=key_col
            )

    if ring is None:
        raise ParseError("input has no ring line", line=1, column=1)
    if ideals["I"] is None:
        raise ParseError("input has no I line", line=1, column=1)
    return InputDocument(
        ring=ring,
        i_gens=ideals["I"],
        j_gens=ideals["J"],
        k_gens=MAXIMAL if ideals["K"] is None else ideals["K"],
        n_max=n_max,
        fmt=fmt,
    )


def load_spec(text: str) -> tuple:
    """Parse and build; returns (InputDocument, FiltrationSpec)."""
    doc = parse_input(text)
    return doc, doc.spec()
