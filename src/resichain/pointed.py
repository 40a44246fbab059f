"""Chains expanded by a designated constant.

A pointed chain is a finite commutative idempotent chain plus a chosen
element f. Every such algebra lands in exactly one of six conditions:
on the skeleton f is the unit, below it, or above it (1a/1b/1c); off
the skeleton f sits below the unit with star-image the unit (2a), below
with star-image above (2b), or above the unit (2c). Each condition has
a smallest representative, and the subalgebra generated by f is always
isomorphic to that seed. Congruences of a pointed chain are exactly the
congruences of the unpointed chain, so no separate machinery is needed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ._record import Record
from .chain import (
    STAR,
    FiniteChain,
    _restrict,
    chain_from_json,
    derived,
    enumerate_chains,
    subalgebra_generated,
)
from .constructors import com, go
from .decomposition import sugihara_skeleton
from .morphisms import ChainMap, enumerate_embeddings

ONE_A = "1a"
ONE_B = "1b"
ONE_C = "1c"
TWO_A = "2a"
TWO_B = "2b"
TWO_C = "2c"
CONDITIONS = (ONE_A, ONE_B, ONE_C, TWO_A, TWO_B, TWO_C)


class PointedChain(Record):
    """A finite chain with a designated constant f (an element index)."""

    __slots__ = ("base", "f")

    def __init__(self, base: FiniteChain, f: int):
        if not 0 <= f < base.size:
            raise ValueError("f out of range")
        super().__init__(base, f)

    def to_json(self) -> dict:
        out = self.base.to_json()
        out["f"] = self.f
        return out


def pointed_from_json(data: dict) -> PointedChain:
    if "f" not in data:
        raise ValueError("pointed chain needs an \"f\" entry")
    f = data["f"]
    if type(f) is not int:
        raise ValueError(f"f must be an integer, got {f!r}")
    rest = {k: v for k, v in data.items() if k != "f"}
    return PointedChain(base=chain_from_json(rest), f=f)


def condition_of(A: PointedChain) -> str:
    """Which of the six conditions holds; exactly one always does."""
    base, f = A.base, A.f
    skeleton = sugihara_skeleton(base)
    if f in skeleton:
        if f == base.unit:
            return ONE_A
        return ONE_B if f < base.unit else ONE_C
    if f > base.unit:
        return TWO_C
    fstar = derived(base, f, STAR)
    if fstar == base.unit:
        return TWO_A
    if fstar > base.unit:
        return TWO_B
    raise RuntimeError("no condition matched; base is outside the classified shape")


def seed_algebra(condition: str) -> PointedChain:
    """Smallest pointed chain satisfying the condition."""
    if condition == ONE_A:
        return PointedChain(go(0), 0)
    if condition == ONE_B:
        return PointedChain(com(0, 0), 0)
    if condition == ONE_C:
        return PointedChain(com(0, 0), 2)
    if condition == TWO_A:
        return PointedChain(go(1), 0)
    if condition == TWO_B:
        return PointedChain(com(1, 0), 0)
    if condition == TWO_C:
        return PointedChain(com(0, 1), 2)
    raise ValueError(f"unknown condition {condition!r}")


def enumerate_pointed_embeddings(A: PointedChain, B: PointedChain) -> List[ChainMap]:
    return [h for h in enumerate_embeddings(A.base, B.base) if h.image[A.f] == B.f]


def cross_embedding_count(pool: Sequence[PointedChain]) -> int:
    """Number of pointed embeddings between pool members of different
    conditions; always zero, exhaustively confirmed at pool scale."""
    tagged = [(condition_of(p), p) for p in pool]
    count = 0
    for ca, a in tagged:
        for cb, b in tagged:
            if ca != cb and enumerate_pointed_embeddings(a, b):
                count += 1
    return count


def partition(pool: Sequence[PointedChain]) -> Dict[str, List[PointedChain]]:
    """Bucket a pool by condition. No pointed embedding crosses buckets;
    cross_embedding_count confirms that for a given pool."""
    buckets: Dict[str, List[PointedChain]] = {c: [] for c in CONDITIONS}
    for p in pool:
        buckets[condition_of(p)].append(p)
    return buckets


def pointed_pool(max_size: int) -> List[PointedChain]:
    """Every pointed commutative idempotent chain of size ≤ max_size."""
    out = []
    for n in range(1, max_size + 1):
        for c in enumerate_chains(n, filters=("commutative", "idempotent")):
            for f in c.elements():
                out.append(PointedChain(c, f))
    return out


def generated_pointed_subalgebra(A: PointedChain) -> PointedChain:
    """Subalgebra generated by f, with f relocalized."""
    universe = sorted(subalgebra_generated(A.base, [A.f]))
    sub = _restrict(A.base, universe)
    return PointedChain(sub, universe.index(A.f))
