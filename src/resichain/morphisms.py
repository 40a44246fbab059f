"""Structure-preserving maps between chains, congruences, and quotients.

Maps are stored as tuples of images. On idempotent chains an injective
order-preserving unit-preserving map is an embedding exactly when it
preserves the two unit-residual operations, so enumeration only needs to
track those; general chains fall back to checking the full signature.
is_embedding and is_homomorphism remember one verdict per distinct map,
and maps between two signatures are listed once, under _memo's policy.
Congruences are determined by their unit class, which must be an
order-convex normal subuniverse; the whole partition is kept explicit
because quotients and projections read it directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._memo import Memo, remembered
from ._record import Record
from .chain import FiniteChain, _intern, signature_hex


class ChainMap(Record):
    """A function between two chains, recorded pointwise."""

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain: FiniteChain, codomain: FiniteChain, image: tuple):
        if type(image) is not tuple:
            image = tuple(image)
        if len(image) != domain.size:
            raise ValueError("one image per domain element")
        for v in image:
            # exactly int: 0.0 and False equal 0, so they would read the
            # verdict remembered for an integer map
            if type(v) is not int:
                raise ValueError(f"image entries must be integers, got {v!r}")
            if not 0 <= v < codomain.size:
                raise ValueError("image out of range")
        init = object.__setattr__
        init(self, "domain", domain)
        init(self, "codomain", codomain)
        init(self, "image", image)

    def is_injective(self) -> bool:
        return len(set(self.image)) == len(self.image)

    def is_order_preserving(self) -> bool:
        return all(
            self.image[x] <= self.image[x + 1] for x in range(self.domain.size - 1)
        )

    def to_json(self) -> dict:
        return {
            "domain": signature_hex(self.domain),
            "codomain": signature_hex(self.codomain),
            "image": list(self.image),
        }


# (domain signature, codomain signature, image, check) -> verdict. A
# signature fixes the whole table, so the key fixes the answer. Criterion
# 2's 71,236 spans make about 353,000 checks on 2,955 distinct maps.
# Enumerations call the check bodies directly and never fill it.
_VERDICTS = Memo()


def _remembered(check, h: ChainMap) -> bool:
    key = (h.domain.signature, h.codomain.signature, h.image, check)
    verdict = _VERDICTS.get(key)
    if verdict is None:
        return _VERDICTS.put(key, check(h))
    return verdict


def is_homomorphism(h: ChainMap) -> bool:
    """Preserves order (hence meet and join), unit, multiplication, and
    both residuals. Remembered per distinct map."""
    return _remembered(_homomorphism_verdict, h)


def is_embedding(h: ChainMap) -> bool:
    """Injective homomorphism. Remembered per distinct map."""
    return _remembered(_embedding_verdict, h)


def _homomorphism_verdict(h: ChainMap) -> bool:
    a, b, f = h.domain, h.codomain, h.image
    if f[a.unit] != b.unit:
        return False
    if not h.is_order_preserving():
        return False
    ta, tb = a.tables, b.tables
    for x in range(a.size):
        for y in range(a.size):
            if f[a.mult[x][y]] != b.mult[f[x]][f[y]]:
                return False
            if f[ta.lres[x][y]] != tb.lres[f[x]][f[y]]:
                return False
            if f[ta.rres[x][y]] != tb.rres[f[x]][f[y]]:
                return False
    return True


def _embedding_verdict(h: ChainMap) -> bool:
    """On idempotent chains the embedding check reduces to injectivity,
    order, unit, and the two unit-residual maps."""
    if not (h.is_injective() and h.is_order_preserving()):
        return False
    a, b, f = h.domain, h.codomain, h.image
    if f[a.unit] != b.unit:
        return False
    ta, tb = a.tables, b.tables
    if ta.predicates.idempotent and tb.predicates.idempotent:
        for x in range(a.size):
            if f[ta.ell[x]] != tb.ell[f[x]]:
                return False
            if f[ta.r[x]] != tb.r[f[x]]:
                return False
        return True
    return _homomorphism_verdict(h)


def _embeddings_images(a: FiniteChain, b: FiniteChain) -> Iterable[tuple]:
    """Backtracking enumeration of embedding image tuples, lexicographic.

    Candidates respect order and the unit; closure under the unit
    residuals is checked as each image is placed (idempotent case) or at
    the leaf (general case). An embedding keeps order and the unit, so
    when a's part below or above its unit is longer than b's there is
    none, and the walk does not start.
    """
    if a.unit > b.unit or a.size - a.unit > b.size - b.unit:
        return
    ta, tb = a.tables, b.tables
    both_idem = ta.predicates.idempotent and tb.predicates.idempotent
    images: list = [None] * a.size
    ell_a, r_a, ell_b, r_b = ta.ell, ta.r, tb.ell, tb.r

    def closed_ok() -> bool:
        # check every derived-op constraint whose arguments are all placed
        for y in range(a.size):
            v = images[y]
            if v is None:
                continue
            z = ell_a[y]
            if images[z] is not None and images[z] != ell_b[v]:
                return False
            z = r_a[y]
            if images[z] is not None and images[z] != r_b[v]:
                return False
        return True

    def extend(x: int, low: int):
        if x == a.size:
            if both_idem:
                yield tuple(images)
            else:
                if _homomorphism_verdict(ChainMap(a, b, tuple(images))):
                    yield tuple(images)
            return
        if x == a.unit:
            # the elements below a's unit went strictly below b's
            choices = (b.unit,)
        elif x < a.unit:
            # leave room below b's unit for the rest of a's lower part
            choices = range(low, b.unit - (a.unit - x) + 1)
        else:
            hi = b.size - (a.size - x)  # leave room for the rest
            choices = range(low, hi + 1)
        for v in choices:
            images[x] = v
            if not both_idem or closed_ok():
                yield from extend(x + 1, v + 1)
            images[x] = None

    yield from extend(0, 0)


# (a.signature, b.signature) -> image tuples. Maps do not depend on labels,
# and bytes keys hash once and compare in C, where chain keys would call
# FiniteChain.__eq__ for every label variant.
_EMBEDDINGS = Memo()
_HOMOMORPHISMS = Memo()
# one shared tuple per distinct image, so the two memos above hold each
# image once: without it, the sweep bench's peak RSS rose by 1.3-1.4 MB
# (seed 101, 2-core machine)
_shared = remembered(lambda f: f)


def embedding_images(a: FiniteChain, b: FiniteChain) -> tuple:
    """Image tuples of every embedding a -> b, lexicographic; memoized."""
    key = (a.signature, b.signature)
    images = _EMBEDDINGS.get(key)
    if images is None:
        return _EMBEDDINGS.put(key, tuple(map(_shared, _embeddings_images(a, b))))
    return images


def enumerate_embeddings(a: FiniteChain, b: FiniteChain) -> list:
    return [ChainMap(a, b, f) for f in embedding_images(a, b)]


class Congruence(Record):
    """A congruence, stored as its full block partition. blocks are the
    classes in chain order; kernel_class is the block of the unit.

    Only a congruence is accepted: kernel_class must be a normal convex
    subuniverse and blocks the partition it induces, otherwise ValueError.
    So quotient() can trust the partition."""

    __slots__ = ("chain", "blocks", "kernel_class")

    def __init__(self, chain: FiniteChain, blocks: tuple, kernel_class: tuple):
        seen = []
        for blk in blocks:
            # order-convex: each block is a run of consecutive elements
            if tuple(blk) != tuple(range(blk[0], blk[-1] + 1)):
                raise ValueError("blocks must be intervals")
            seen.extend(blk)
        if seen != list(range(chain.size)):
            raise ValueError("blocks must partition the chain in order")
        if chain.unit not in kernel_class:
            raise ValueError("kernel_class must contain the unit")
        if tuple(kernel_class) not in map(tuple, blocks):
            raise ValueError("kernel_class must be a block")
        lo, hi = kernel_class[0], kernel_class[-1]
        if not _interval_is_normal_subuniverse(chain, lo, hi):
            raise ValueError("kernel_class is not a normal convex subuniverse")
        if tuple(map(tuple, blocks)) != _blocks_from_kernel(chain, lo, hi):
            raise ValueError("blocks must be the partition that kernel_class induces")
        super().__init__(chain, blocks, kernel_class)


def _interval_is_normal_subuniverse(chain: FiniteChain, lo: int, hi: int) -> bool:
    """Whether [lo, hi] carries a subuniverse closed under the conjugation
    bounds; these unit classes are exactly the congruence kernels."""
    u = chain.unit
    mult, tables = chain.mult, chain.tables
    lres, rres = tables.lres, tables.rres
    members = range(lo, hi + 1)
    for x in members:
        for y in members:
            if not lo <= mult[x][y] <= hi:
                return False
            if not lo <= lres[x][y] <= hi:
                return False
            if not lo <= rres[x][y] <= hi:
                return False
    if not tables.predicates.commutative:
        # x in class, a arbitrary: a\(xa) ∧ e and (ax)/a ∧ e stay in class
        for x in members:
            for a in range(chain.size):
                lam = min(lres[a][mult[x][a]], u)
                rho = min(rres[a][mult[a][x]], u)
                if not (lo <= lam <= hi and lo <= rho <= hi):
                    return False
    return True


def _blocks_from_kernel(chain: FiniteChain, lo: int, hi: int) -> tuple:
    """Partition induced by the kernel interval [lo, hi]: x ~ y whenever
    x\\y ∧ y\\x ∧ e lands in the kernel."""
    u = chain.unit
    lres = chain.tables.lres

    def related(x: int, y: int) -> bool:
        w = min(lres[x][y], lres[y][x], u)
        return lo <= w <= hi

    blocks = []
    x = 0
    while x < chain.size:
        y = x
        while y + 1 < chain.size and related(x, y + 1):
            y += 1
        blocks.append(tuple(range(x, y + 1)))
        x = y + 1
    return tuple(blocks)


def _congruence(chain: FiniteChain, lo: int, hi: int) -> Congruence:
    """The congruence of a kernel interval already known to be one, built
    without Congruence's checks; the unit's block of the partition it
    induces is the interval itself."""
    blocks = _blocks_from_kernel(chain, lo, hi)
    return Congruence._trusted(chain, blocks, tuple(range(lo, hi + 1)))


def congruence_from_kernel(chain: FiniteChain, kernel: Sequence[int]) -> Congruence:
    """Build the congruence whose unit class is the given interval."""
    lo, hi = min(kernel), max(kernel)
    if sorted(kernel) != list(range(lo, hi + 1)):
        raise ValueError("kernel must be an interval")
    if not lo <= chain.unit <= hi:
        raise ValueError("kernel must contain the unit")
    if not _interval_is_normal_subuniverse(chain, lo, hi):
        raise ValueError("kernel is not a normal convex subuniverse")
    return _congruence(chain, lo, hi)


def congruences(chain: FiniteChain) -> list:
    """All congruences, one per order-convex normal subuniverse around the
    unit, smallest kernel first."""
    u = chain.unit
    out = []
    for width in range(chain.size):
        for lo in range(max(0, u - width), u + 1):
            hi = lo + width
            if hi >= chain.size or hi < u:
                continue
            if _interval_is_normal_subuniverse(chain, lo, hi):
                out.append(_congruence(chain, lo, hi))
    return out


def quotient(chain: FiniteChain, cong: Congruence):
    """Quotient chain by a congruence; returns (chain, projection).

    Blocks keep the source order; merged blocks get a bracketed label
    listing the collapsed elements. A bracketed label that another block
    already has gets the first free suffix .2, .3, ..., so the labels stay
    distinct when the chain's are. A quotient of a chain by a congruence
    (which Congruence guarantees) is a chain, so its table is interned
    without a check of its own.
    """
    if cong.chain != chain:
        raise ValueError("congruence belongs to a different chain")
    blocks = cong.blocks
    index_of = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            index_of[x] = i
    size = len(blocks)
    table = [
        [index_of[chain.mult[blk[0]][other[0]]] for other in blocks]
        for blk in blocks
    ]
    singles = {chain.label(blk[0]) for blk in blocks if len(blk) == 1}
    labels = []
    for blk in blocks:
        if len(blk) == 1:
            labels.append(chain.label(blk[0]))
            continue
        name = label = "[" + " ".join(chain.label(x) for x in blk) + "]"
        suffix = 1
        while label in singles or label in labels:
            suffix += 1
            label = f"{name}.{suffix}"
        labels.append(label)
    q = _intern(size, index_of[chain.unit], tuple(map(tuple, table)), tuple(labels))
    proj = ChainMap(chain, q, tuple(index_of[x] for x in range(chain.size)))
    return q, proj


def homomorphism_images(a: FiniteChain, b: FiniteChain) -> tuple:
    """Image tuples of every homomorphism a -> b, sorted; memoized, and
    each domain's quotients are worked out once for every codomain."""
    key = (a.signature, b.signature)
    images = _HOMOMORPHISMS.get(key)
    if images is None:
        out = [tuple(f[v] for v in p) for q, p in _quotients(a) for f in embedding_images(q, b)]
        return _HOMOMORPHISMS.put(key, tuple(map(_shared, sorted(out))))
    return images


@remembered(chains=1)
def _quotients(a: FiniteChain) -> list:
    """(quotient, projection image) for each congruence of a."""
    return [(q, proj.image) for q, proj in (quotient(a, cong) for cong in congruences(a))]


def enumerate_homomorphisms(a: FiniteChain, b: FiniteChain) -> list:
    """Every homomorphism factors as quotient projection then embedding,
    so enumeration walks (congruence, embedding-of-quotient) pairs."""
    return [ChainMap(a, b, f) for f in homomorphism_images(a, b)]
