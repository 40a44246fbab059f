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

from .chain import STAR, FiniteChain, derived, predicates
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


def _star_star(chain: FiniteChain, x: int) -> int:
    return derived(chain, derived(chain, x, STAR), STAR)


def sugihara_skeleton(chain: FiniteChain) -> tuple:
    """Fixpoints of the double unit residual, in chain order. Always odd
    in count, and the induced subalgebra is the odd Sugihara chain of
    that size."""
    _require_commutative_idempotent(chain)
    return tuple(x for x in chain.elements() if _star_star(chain, x) == x)


def skeleton_blocks(chain: FiniteChain) -> list:
    """Pairs (fixpoint b, interval of elements retracting onto b). The
    intervals partition the chain."""
    _require_commutative_idempotent(chain)
    fix = sugihara_skeleton(chain)
    blocks = {b: [] for b in fix}
    for x in chain.elements():
        blocks[_star_star(chain, x)].append(x)
    return [(b, tuple(blocks[b])) for b in fix]


def decompose(chain: FiniteChain) -> DecompositionSignature:
    """Unique normal form: fiber sizes over the i-th skeleton point below
    the unit and the i-th above it (counting outward) give (m_i, n_i);
    the fiber over the unit gives the tail."""
    blocks = dict(skeleton_blocks(chain))
    u = chain.unit
    below = sorted(b for b in blocks if b < u)
    above = sorted((b for b in blocks if b > u), reverse=True)
    assert len(below) == len(above), "skeleton must be symmetric around e"
    pairs = tuple(
        (len(blocks[b]) - 1, len(blocks[a]) - 1) for b, a in zip(below, above)
    )
    return DecompositionSignature(pairs=pairs, p=len(blocks[u]) - 1)


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
