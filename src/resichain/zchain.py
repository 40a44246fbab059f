"""Symbolic residuated chains indexed by the integers.

For a set S of integers (given as a word), the chain has elements
b_i < b_j < e < a_j < a_i for i < j. Products of like letters take the
smaller index for a, the larger for b; a mixed product a_i·b_j falls to
whichever side wins by index, with S breaking the tie i = j. These
chains are never materialized as finite tables: no finite index window
is closed under the unit residuals, so every operation here is a closed
form over symbolic elements. The window-bounded brute-force oracle that
cross-checks them is selfcheck.window_residual_oracle.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Tuple

from ._common import ELL, LEFT, R, RIGHT, STAR
from ._record import Record
from .errors import StartIsUnit
from .words import SetSpec

A = "a"
B = "b"
E = "e"


class ASElement(Record):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: Optional[int] = None):
        if kind not in (A, B, E):
            raise ValueError("kind must be a, b, or e")
        if kind == E and index is not None:
            raise ValueError("the unit carries no index")
        if kind != E and index is None:
            raise ValueError("letter elements carry an index")
        super().__init__(kind, index)

    def text(self) -> str:
        if self.kind == E:
            return "e"
        return f"{self.kind}:{self.index}"


UNIT = ASElement(E)


def a(i: int) -> ASElement:
    return ASElement(A, i)


def b(i: int) -> ASElement:
    return ASElement(B, i)


def parse_element(text: str) -> ASElement:
    text = text.strip()
    if text == "e":
        return UNIT
    m = re.fullmatch(r"([ab]):(-?\d+)", text)
    if not m:
        raise ValueError(f"unrecognized element syntax: {text!r}")
    return ASElement(m.group(1), int(m.group(2)))


def _order_key(x: ASElement):
    # all b's sit below e, all a's above; b's grow with the index while
    # a's shrink with it
    if x.kind == B:
        return (0, x.index)
    if x.kind == E:
        return (1, 0)
    return (2, -x.index)


def as_compare(x: ASElement, y: ASElement) -> int:
    kx, ky = _order_key(x), _order_key(y)
    return (kx > ky) - (kx < ky)


def as_leq(x: ASElement, y: ASElement) -> bool:
    return as_compare(x, y) <= 0


def _meet(x: ASElement, y: ASElement) -> ASElement:
    return x if as_leq(x, y) else y


def _join(x: ASElement, y: ASElement) -> ASElement:
    return y if as_leq(x, y) else x


def _member(spec: SetSpec, i: int) -> bool:
    return spec.bit_at(i) == 1


def as_mult(spec: SetSpec, x: ASElement, y: ASElement) -> ASElement:
    if x.kind == E:
        return y
    if y.kind == E:
        return x
    if x.kind == y.kind:
        if x.kind == A:
            return a(min(x.index, y.index))
        return b(min(x.index, y.index))
    if x.kind == A:  # a_i · b_j
        i, j = x.index, y.index
        if i < j or (i == j and _member(spec, i)):
            return x
        return y
    # b_j · a_i
    j, i = x.index, y.index
    if j < i or (i == j and _member(spec, i)):
        return x
    return y


def as_unary(spec: SetSpec, x: ASElement, which: str) -> ASElement:
    if x.kind == E:
        return UNIT
    i = x.index
    if which == STAR:
        return _meet(as_unary(spec, x, ELL), as_unary(spec, x, R))
    if x.kind == A:
        if which == ELL:
            return b(i) if _member(spec, i) else b(i - 1)
        if which == R:
            return b(i) if not _member(spec, i) else b(i - 1)
    else:
        if which == ELL:
            return a(i) if not _member(spec, i) else a(i + 1)
        if which == R:
            return a(i) if _member(spec, i) else a(i + 1)
    raise ValueError(f"unknown unary operation {which!r}")


def as_residual(spec: SetSpec, x: ASElement, y: ASElement, side: str) -> ASElement:
    """Closed form valid in any idempotent chain: below the diagonal the
    answer joins with y, above it meets."""
    if side == LEFT:
        w = as_unary(spec, x, R)
    elif side == RIGHT:
        w = as_unary(spec, x, ELL)
    else:
        raise ValueError(f"unknown side {side!r}")
    return _join(w, y) if as_leq(x, y) else _meet(w, y)


def generated_reach(spec: SetSpec, start: ASElement, depth: int) -> frozenset:
    """Closure of {start} under the two unit residual maps, truncated at
    the given number of applications."""
    if start.kind == E:
        raise StartIsUnit()
    if depth < 0:
        raise ValueError("depth must be a natural")
    reached = {start}
    frontier = {start}
    for _ in range(depth):
        # only the elements added by the last step can reach new ones
        images = {as_unary(spec, x, which) for x in frontier for which in (ELL, R)}
        frontier = images - reached
        if not frontier:
            break
        reached |= frontier
    return frozenset(reached)


def index_range(elements: Iterable[ASElement]) -> Optional[Tuple[int, int]]:
    """Contiguous index interval touched by the letter elements."""
    indices = [x.index for x in elements if x.kind != E]
    if not indices:
        return None
    return (min(indices), max(indices))
