"""Normal form for finite commutative idempotent chains.

Every such chain splits uniquely as a nested sum of two-sided components
com(m_i, n_i) wrapped around a final Gödel tail go(p). The double unit
residual x ↦ (x^⋆)^⋆ is a retraction onto an odd-sized fixpoint set (the
skeleton); the fibers of that retraction are intervals whose sizes read
off the component parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .chain import FiniteChain, predicates
from .constructors import com, go, nested_sum
from .errors import NotCommutative, NotIdempotent


@dataclass(frozen=True)
class DecompositionSignature:
    """pairs lists (m_i, n_i) outermost first; p is the Gödel tail length."""

    pairs: tuple
    p: int

    def __post_init__(self):
        for m, n in self.pairs:
            if m < 0 or n < 0:
                raise ValueError("component parameters must be naturals")
        if self.p < 0:
            raise ValueError("tail length must be a natural")

    @property
    def size(self) -> int:
        return sum(m + n + 2 for m, n in self.pairs) + self.p + 1

    def text(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        parts = [f"C({m},{n})" for m, n in self.pairs]
        if self.p > 0 or not parts:
            parts.append(f"Go_{self.p}")
        return " ⊞ ".join(parts)

    def to_json(self) -> dict:
        return {"pairs": [list(pair) for pair in self.pairs], "p": self.p}


def _require_commutative_idempotent(chain: FiniteChain) -> None:
    preds = predicates(chain)
    if not preds.commutative:
        raise NotCommutative()
    if not preds.idempotent:
        raise NotIdempotent()


def sugihara_skeleton(chain: FiniteChain) -> tuple:
    """Fixpoints of the double unit residual, in chain order. Always odd
    in count, and the induced subalgebra is the odd Sugihara chain of
    that size."""
    return tuple(b for b, _ in skeleton_blocks(chain))


def skeleton_blocks(chain: FiniteChain) -> list:
    """Pairs (fixpoint b, interval of elements retracting onto b), in
    chain order. The intervals partition the chain. The double unit
    residual is a retraction, so the points it hits are its fixpoints."""
    _require_commutative_idempotent(chain)
    star = chain.tables.star
    blocks = {}
    for x in chain.elements():
        blocks.setdefault(star[star[x]], []).append(x)
    return [(b, tuple(blocks[b])) for b in sorted(blocks)]


def decompose(chain: FiniteChain) -> DecompositionSignature:
    """Unique normal form: fiber sizes over the i-th skeleton point below
    the unit and the i-th above it (counting outward) give (m_i, n_i);
    the fiber over the unit gives the tail. Computed once per chain and
    kept on it; a chain that is not commutative and idempotent raises on
    every call."""
    sig = chain._decomposition
    if sig is not None:
        return sig
    blocks = skeleton_blocks(chain)
    k = sum(b < chain.unit for b, _ in blocks)
    below, above = blocks[:k], blocks[k + 1 :][::-1]
    assert len(below) == len(above), "skeleton must be symmetric around e"
    pairs = tuple((len(lo) - 1, len(hi) - 1) for (_, lo), (_, hi) in zip(below, above))
    sig = DecompositionSignature(pairs=pairs, p=len(blocks[k][1]) - 1)
    object.__setattr__(chain, "_decomposition", sig)
    return sig


@lru_cache(maxsize=None)
def recompose(sig: DecompositionSignature) -> FiniteChain:
    """The nested sum of com(m_i, n_i) for each pair, outermost first,
    around go(p); built once per signature. Inverse of decompose up to
    isomorphism."""
    parts = [com(m, n) for m, n in sig.pairs]
    if sig.p > 0:
        parts.append(go(sig.p))
    return nested_sum(parts)


@lru_cache(maxsize=None)
def _signature_count(budget: int) -> int:
    """Number of component sequences of total weight ≤ budget; the spare
    weight becomes the tail. A two-sided component of weight w ≥ 2 can
    split its w−2 non-anchor elements in w−1 ways."""
    total = 1
    for w in range(2, budget + 1):
        total += (w - 1) * _signature_count(budget - w)
    return total


def count_chains(n: int) -> int:
    """Commutative idempotent chains of size n, up to isomorphism."""
    if n < 1:
        raise ValueError("size must be positive")
    return _signature_count(n - 1)
