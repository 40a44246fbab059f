"""Normal form for finite commutative idempotent chains.

Every such chain splits uniquely as a nested sum of two-sided components
com(m_i, n_i) wrapped around a final Gödel tail go(p). The double unit
residual x ↦ (x^⋆)^⋆ is a retraction onto an odd-sized fixpoint set (the
skeleton); the fibers of that retraction are intervals whose sizes read
off the component parameters.
"""

from __future__ import annotations

from ._memo import remembered
from .chain import FiniteChain, predicates
from .constructors import com, go, nested_sum
from .errors import NotCommutative, NotIdempotent


# (pairs, p) -> its one DecompositionSignature, kept for the process
_INTERNED: dict = {}


class DecompositionSignature:
    """pairs lists (m_i, n_i) outermost first; p is the Gödel tail length.

    There is one object per value: DecompositionSignature(pairs, p)
    returns the object already made for (pairs, p), also after pickling or
    copying, so equal signatures are the same object and == is identity.
    The hash is hash((pairs, p)) and, like size, is computed once. Set and
    frozenset iteration order over signatures follows these hash values,
    and so do the premises that closure_rule_violations reports; changing
    the hash would change that output. index numbers the signatures in the
    order this process first made them (0, 1, 2, ...); the audit keys its
    rule instances on it. It takes no part in ==, hash or order."""

    __slots__ = ("pairs", "p", "size", "index", "_hash", "_text")

    def __new__(cls, pairs: tuple, p: int):
        key = (pairs, p)
        sig = _INTERNED.get(key)
        if sig is not None:
            return sig
        size = p + 1
        for m, n in pairs:
            if m < 0 or n < 0:
                raise ValueError("component parameters must be naturals")
            size += m + n + 2
        if p < 0:
            raise ValueError("tail length must be a natural")
        sig = object.__new__(cls)
        init = object.__setattr__
        init(sig, "pairs", pairs)
        init(sig, "p", p)
        init(sig, "size", size)
        init(sig, "index", len(_INTERNED))
        init(sig, "_hash", hash(key))
        init(sig, "_text", None)
        return _INTERNED.setdefault(key, sig)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DecompositionSignature, (self.pairs, self.p)

    def __repr__(self) -> str:
        return f"DecompositionSignature(pairs={self.pairs!r}, p={self.p!r})"

    def text(self) -> str:
        text = self._text
        if text is None:
            parts = [f"C({m},{n})" for m, n in self.pairs]
            if self.p > 0 or not parts:
                parts.append(f"Go_{self.p}")
            text = " ⊞ ".join(parts)
            object.__setattr__(self, "_text", text)
        return text

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


@remembered
def recompose(sig: DecompositionSignature) -> FiniteChain:
    """The nested sum of com(m_i, n_i) for each pair, outermost first,
    around go(p); built once per signature. Inverse of decompose up to
    isomorphism."""
    parts = [com(m, n) for m, n in sig.pairs]
    if sig.p > 0:
        parts.append(go(sig.p))
    return nested_sum(parts)


@remembered
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
