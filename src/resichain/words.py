"""Bi-infinite 0/1 words, the subword preorder, and minimality checks.

Only two decidable families are represented: fully periodic words and
words with finitely many ones. A word stands for a subset of the
integers via its characteristic function; positions with bit 1 are the
members. Factor questions on these families reduce to bounded scans.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from ._record import Record


class FiniteWord(Record):
    """A finite block of bits; the unit of comparison between words."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple):
        if len(bits) == 0:
            raise ValueError("finite words are nonempty")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        super().__init__(bits)

    def __len__(self) -> int:
        return len(self.bits)

    def text(self) -> str:
        return "".join(str(b) for b in self.bits)


class Periodic(Record):
    """w(i) = bits[(i - phase) mod period]."""

    __slots__ = ("bits", "phase")

    def __init__(self, bits: tuple, phase: int = 0):
        if len(bits) == 0:
            raise ValueError("period is nonempty")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        super().__init__(bits, phase)

    def bit_at(self, i: int) -> int:
        return self.bits[(i - self.phase) % len(self.bits)]

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    def text(self) -> str:
        return "per:" + "".join(str(b) for b in self.bits) + f"@{self.phase}"


class FiniteSupport(Record):
    """w(i) = 1 exactly on the stored positions."""

    __slots__ = ("support",)

    def __init__(self, support: frozenset):
        super().__init__(frozenset(support))

    def bit_at(self, i: int) -> int:
        return 1 if i in self.support else 0

    def is_zero(self) -> bool:
        return not self.support

    def text(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.support))
        return "fin:{" + inner + "}"


SetSpec = Union[Periodic, FiniteSupport]


def parse_word(text: str) -> SetSpec:
    """Parse `per:001@0` (phase optional) or `fin:{-1,3}`."""
    text = text.strip()
    m = re.fullmatch(r"per:([01]+)(?:@(-?\d+))?", text)
    if m:
        bits = tuple(int(c) for c in m.group(1))
        phase = int(m.group(2)) if m.group(2) is not None else 0
        return Periodic(bits, phase)
    m = re.fullmatch(r"fin:\{([^{}]*)\}", text)
    if m:
        inner = m.group(1).strip()
        if not inner:
            return FiniteSupport(frozenset())
        return FiniteSupport(frozenset(int(tok) for tok in inner.split(",")))
    raise ValueError(f"unrecognized word syntax: {text!r}")


def _matches_at(v: FiniteWord, w: SetSpec, k: int) -> bool:
    return all(v.bits[i] == w.bit_at(i + k) for i in range(len(v)))


def is_subword(v: FiniteWord, w: SetSpec) -> bool:
    """Whether v occurs in w at some offset."""
    if isinstance(w, Periodic):
        # every offset repeats modulo the period
        return any(_matches_at(v, w, k) for k in range(len(w.bits)))
    if not w.support:
        return all(b == 0 for b in v.bits)
    lo = min(w.support) - len(v)
    hi = max(w.support) + len(v)
    return any(_matches_at(v, w, k) for k in range(lo, hi + 1))


def _trimmed_block(w: FiniteSupport) -> tuple:
    """Bits from the first 1 to the last 1."""
    lo, hi = min(w.support), max(w.support)
    return tuple(w.bit_at(i) for i in range(lo, hi + 1))


def preorder_leq(w1: SetSpec, w2: SetSpec) -> bool:
    """Whether every finite factor of w1 is a factor of w2."""
    if isinstance(w1, Periodic) and isinstance(w2, Periodic):
        # long enough factors pin the period structure, so checking all
        # factors of this length decides every length
        length = len(w1.bits) + len(w2.bits)
        return all(
            is_subword(FiniteWord(tuple(w1.bit_at(k + i) for i in range(length))), w2)
            for k in range(len(w1.bits))
        )
    if isinstance(w1, Periodic):
        # a word with finitely many ones cannot absorb a recurring one
        return w1.is_zero()
    if isinstance(w2, Periodic):
        # w1 has unbounded zero runs, so w2 must be the zero word, and
        # then w1 may not contain any one at all
        return w1.is_zero() and w2.is_zero()
    if w1.is_zero():
        return True
    if w2.is_zero():
        return False
    # both have ones: w1's block padded by long zero runs must occur in
    # w2, which forces the blocks to coincide
    return _trimmed_block(w1) == _trimmed_block(w2)


class MinimalityVerdict(Record):
    """minimal with a uniform-recurrence offset (every window of length
    n + recurrence_offset contains every length-n factor), or refuted by
    a strictly smaller word."""

    __slots__ = ("minimal", "recurrence_offset", "below")

    def __init__(self, minimal: bool, recurrence_offset: Optional[int] = None,
                 below: Optional[SetSpec] = None):
        super().__init__(minimal, recurrence_offset, below)

    def to_json(self) -> dict:
        out: dict = {"minimal": self.minimal}
        if self.recurrence_offset is not None:
            out["recurrence_offset"] = self.recurrence_offset
        if self.below is not None:
            out["below"] = self.below.text()
        return out


def is_minimal(w: SetSpec) -> MinimalityVerdict:
    """Whether no word sits strictly below w in the factor preorder."""
    if isinstance(w, Periodic):
        return MinimalityVerdict(minimal=True, recurrence_offset=len(w.bits))
    if w.is_zero():
        return MinimalityVerdict(minimal=True, recurrence_offset=1)
    return MinimalityVerdict(minimal=False, below=Periodic((0,)))
