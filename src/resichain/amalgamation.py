"""Spans of embeddings, amalgam search, and constructive amalgamators.

A span is two embeddings out of a common chain; an amalgam completes the
square inside a class, with the C-leg relaxed to a homomorphism in the
one-sided variant. find_amalgam searches candidate codomains
exhaustively in canonical order, and remembers what each candidate
decided for a span in a table that classification's span search shares;
amalgamate_components instead builds the completion directly for spans
of Gödel chains or of two-sided chains by zipping the two element lists
around the images of the common chain. Certificates, constructions and
the table's three parts are _memo memos, each starting over on its own;
the numbering of chains that the table's masks read lasts for the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._memo import Memo, remembered
from .chain import FiniteChain, chain_from_json, check_cap, enumerate_chains
from .constructors import com, go
from .decomposition import decompose
from .errors import InvalidSpan, NotCommutative, NotIdempotent, ShapeMismatch
from .morphisms import (
    ChainMap,
    embedding_images,
    enumerate_embeddings,
    homomorphism_images,
    is_embedding,
    is_homomorphism,
)


@dataclass(frozen=True, slots=True)
class Span:
    """Two embeddings i_B: A→B and i_C: A→C out of a shared chain."""

    A: FiniteChain
    B: FiniteChain
    C: FiniteChain
    i_B: ChainMap
    i_C: ChainMap

    def __post_init__(self):
        if self.i_B.domain != self.A or self.i_B.codomain != self.B:
            raise InvalidSpan()
        if self.i_C.domain != self.A or self.i_C.codomain != self.C:
            raise InvalidSpan()
        if not is_embedding(self.i_B) or not is_embedding(self.i_C):
            raise InvalidSpan()

    def to_json(self) -> dict:
        return {
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "C": self.C.to_json(),
            "iB": list(self.i_B.image),
            "iC": list(self.i_C.image),
        }


def spans_over(chains: Sequence[FiniteChain]) -> Iterator[Span]:
    """Every span over a list of chains: A, then B, then C in list order,
    then i_B and i_C lexicographically. A B that A does not embed into is
    skipped before any C is tried."""
    for a in chains:
        for b in chains:
            legs_b = enumerate_embeddings(a, b)
            if not legs_b:
                continue
            for c in chains:
                legs_c = enumerate_embeddings(a, c)
                for i_b in legs_b:
                    for i_c in legs_c:
                        yield Span(a, b, c, i_b, i_c)


def span_from_json(data: dict) -> Span:
    a = chain_from_json(data["A"])
    b = chain_from_json(data["B"])
    c = chain_from_json(data["C"])
    return Span(
        a,
        b,
        c,
        ChainMap(a, b, tuple(data["iB"])),
        ChainMap(a, c, tuple(data["iC"])),
    )


@dataclass(frozen=True, slots=True)
class AmalgamResult:
    """Completion of a span: j_B embeds B, j_C maps C (embedding unless
    one_sided), and both routes from A agree."""

    D: FiniteChain
    j_B: ChainMap
    j_C: ChainMap
    one_sided: bool

    def to_json(self) -> dict:
        return {
            "D": self.D.to_json(),
            "jB": list(self.j_B.image),
            "jC": list(self.j_C.image),
            "one_sided": self.one_sided,
        }


@dataclass(frozen=True, slots=True)
class Refuted:
    """No amalgam exists in the class; trustworthy only when the search
    covered every member (complete=True was asserted by the caller)."""

    checked: int


@dataclass(frozen=True)
class BoundExhausted:
    """Search ran out of candidates below the size bound without either
    finding an amalgam or being entitled to refute."""

    size_bound: int


def verify_amalgam(span: Span, result: AmalgamResult) -> bool:
    """Independent recheck of every amalgam invariant: the legs' endpoints,
    j_B an embedding, j_C a homomorphism (one-sided) or an embedding, and
    the square commuting on A. The map checks are is_embedding and
    is_homomorphism, which remember one verdict per distinct map but work
    each one out from the chains' tables, never from the search."""
    jb, jc = result.j_B, result.j_C
    if jb.domain != span.B or jc.domain != span.C:
        return False
    if jb.codomain != result.D or jc.codomain != result.D:
        return False
    if not is_embedding(jb):
        return False
    if result.one_sided:
        if not is_homomorphism(jc):
            return False
    else:
        if not is_embedding(jc):
            return False
    return all(
        jb.image[span.i_B.image[x]] == jc.image[span.i_C.image[x]]
        for x in range(span.A.size)
    )


class CandidatePool(list):
    """A candidate list that also carries its canonical scan order: one
    chain per signature (the first listed), sorted by size and signature.
    find_amalgam reads that order instead of deriving it on every call, so
    build the pool once its list is final (any other iterable is wrapped
    in a new pool on every call). The first search also gives the pool the
    bits of its chains in the completion table's masks."""

    def __init__(self, chains: Iterable[FiniteChain] = ()):
        super().__init__(chains)
        self.canonical = canonical_order(self)
        self._bits = None


def canonical_order(chains: Iterable[FiniteChain]) -> list:
    """One chain per signature (the first listed), sorted by size, then
    by signature."""
    firsts = {}
    for d in chains:
        firsts.setdefault(d.signature, d)
    # the signature encodes the size first (a tag byte, then one byte below
    # 256 and four big-endian bytes from 256 up), so it sorts by size too
    return sorted(firsts.values(), key=attrgetter("signature"))


def _default_candidates(size_bound: int) -> CandidatePool:
    """Every residuated chain up to size_bound. A bound past the
    enumeration cap is refused before any chain is enumerated."""
    check_cap(size_bound)
    return CandidatePool(d for n in range(1, size_bound + 1) for d in enumerate_chains(n))


@remembered(chains=3)
def _certificate(B, C, D, jb: tuple, jc: tuple, one_sided: bool) -> AmalgamResult:
    """One shared record per distinct certificate: criterion 2's 71,236
    spans have 2,890 distinct ones. Without this memo the sweep bench's
    peak RSS rose from 70 to 82-83 MB and its throughput fell by 14-22%
    (seed 101, medians of two sets of 6 pairs, 2-core machine)."""
    return AmalgamResult(D, ChainMap(B, D, jb), ChainMap(C, D, jc), one_sided)


# Whether D completes a span depends only on the signatures of B, C and D,
# the two leg images and one_sided. Both span searches, find_amalgam and
# classification.find_refuting_span, read each answer from this table and
# write it there, as a bit of D in a mask. The table is three memos, each
# starting over on its own. A bit only names a signature, and the numbering
# lasts for the process, like chain._INTERNED, so no mask or pool's bits
# goes stale; a yes bit whose legs are gone sends D through _decide again.
# D.signature -> its bit in the masks
_BITS: dict = {}
# B.signature -> mask of the D's that B does not embed in, which complete no
# span out of B
_NON_HOSTS = Memo()
# (span key, D.signature) -> _completion's (j_B, j_C) images for a D known to
# complete the span
_LEGS = Memo()
# (B.signature, i_B image, C.signature, i_C image, one_sided) -> [mask of
# the D's known to complete the span, mask of the D's known not to]
_SPANS = Memo()


def _bits(chains: Iterable[FiniteChain]) -> list:
    return [_BITS.setdefault(d.signature, 1 << len(_BITS)) for d in chains]


def _decide(key: tuple, entry: list, B, i_b: tuple, C, i_c: tuple, D, bit: int, one_sided: bool):
    """_completion for a D that the table has not decided for the span
    under key, whose masks are entry; the answer goes into the table."""
    legs = _completion(B, i_b, C, i_c, D, one_sided)
    if legs is not None:
        entry[0] |= bit
        _LEGS.put((key, D.signature), legs)
    elif D.size < B.size or not embedding_images(B, D):
        _NON_HOSTS.put(B.signature, _NON_HOSTS.get(B.signature, 0) | bit)
    else:
        entry[1] |= bit
    return legs


def _completed_in(members: Sequence[FiniteChain]) -> Callable[..., bool]:
    """The test completed(B, i_b, C, i_c): whether some chain in members
    completes the span with leg images i_b and i_c one-sidedly. members
    hold one chain per signature. A span with a known completion among
    them is answered from its masks; otherwise only the members not yet
    decided go through _completion."""
    bits = _bits(members)
    in_members = sum(bits)

    def completed(B, i_b: tuple, C, i_c: tuple) -> bool:
        key = (B.signature, i_b, C.signature, i_c, True)
        entry = _SPANS.get(key)
        if entry is None:
            entry = _SPANS.put(key, [0, 0])
        elif entry[0] & in_members:
            return True
        skip = entry[1] | _NON_HOSTS.get(B.signature, 0)
        for d, bit in zip(members, bits):
            if not skip & bit and _decide(key, entry, B, i_b, C, i_c, d, bit, True) is not None:
                return True
        return False

    return completed


def _completion(B, i_b: tuple, C, i_c: tuple, D, one_sided: bool):
    """The first image pair (j_B, j_C) by which D completes the span with
    leg images i_b and i_c, or None: j_B is an embedding B→D, j_C a
    homomorphism C→D when one_sided and an embedding otherwise, and the
    two agree on A. The C-legs are indexed by their values on the image
    of i_c, and each B-leg in lexicographic order looks up the first C-leg
    that agrees with it."""
    if D.size < B.size or (not one_sided and D.size < C.size):
        return None
    jbs = embedding_images(B, D)
    if not jbs:
        return None
    # for a one-element A both getters return a value, not a tuple
    on_a_via_c = itemgetter(*i_c)
    legs = {}
    for jc in (homomorphism_images if one_sided else embedding_images)(C, D):
        legs.setdefault(on_a_via_c(jc), jc)
    on_a_via_b = itemgetter(*i_b)
    for jb in jbs:
        jc = legs.get(on_a_via_b(jb))
        if jc is not None:
            return jb, jc
    return None


def find_amalgam(
    span: Span,
    class_membership: Callable[[FiniteChain], bool],
    size_bound: int,
    one_sided: bool = False,
    *,
    complete: bool = False,
    candidates: Optional[Iterable[FiniteChain]] = None,
):
    """Exhaustive search for an amalgam among class members up to
    size_bound, in canonical order (codomain size and signature, then
    both maps lexicographically). Returns the first certificate, else
    Refuted when the caller asserts the candidate pool covered the whole
    class (complete=True), else BoundExhausted.

    Candidates are scanned lazily: class_membership, which must depend on
    the algebra only, is asked about each candidate as it is reached. The
    completion table then answers for the candidate when it can: a known
    "no" is skipped, and a known "yes" gives back the legs _completion
    found while _LEGS still holds them. Any other candidate goes through
    _completion, and its answer goes into the table.
    """
    B, C = span.B, span.C
    if size_bound < max(B.size, C.size):
        raise ValueError("size_bound cannot be below the span's own chains")
    pool = _default_candidates(size_bound) if candidates is None else candidates
    if not isinstance(pool, CandidatePool):
        pool = CandidatePool(pool)
    i_b, i_c = span.i_B.image, span.i_C.image
    key = (B.signature, i_b, C.signature, i_c, one_sided)
    entry = _SPANS.get(key) or _SPANS.put(key, [0, 0])
    if pool._bits is None:
        pool._bits = _bits(pool.canonical)
    yes = entry[0]
    skip = entry[1] | _NON_HOSTS.get(B.signature, 0)
    checked = 0
    for d, bit in zip(pool.canonical, pool._bits):
        if d.size > size_bound:
            break
        if not class_membership(d):
            continue
        checked += 1
        if skip & bit:
            continue
        legs = yes & bit and _LEGS.get((key, d.signature)) or _decide(
            key, entry, B, i_b, C, i_c, d, bit, one_sided)
        if legs is None:
            continue
        return _certificate(B, C, d, *legs, one_sided)
    if complete:
        return Refuted(checked=checked)
    return BoundExhausted(size_bound=size_bound)


def _zip_side(
    b_elems: Sequence[int], c_elems: Sequence[int], anchors: Sequence[tuple]
) -> list:
    """Merge two ascending element lists that share identified anchor
    pairs. Between consecutive anchors the two gap segments are zipped
    aligned at the top, so equal-length gaps collapse onto shared slots;
    leftovers keep their own slot at the bottom of the gap. Returns slots
    (b_elem or None, c_elem or None)."""
    b_anchor_pos = [b_elems.index(bx) for bx, _ in anchors]
    c_anchor_pos = [c_elems.index(cx) for _, cx in anchors]
    slots = []
    prev_b = prev_c = 0
    for t in range(len(anchors) + 1):
        end_b = b_anchor_pos[t] if t < len(anchors) else len(b_elems)
        end_c = c_anchor_pos[t] if t < len(anchors) else len(c_elems)
        gap_b = list(b_elems[prev_b:end_b])
        gap_c = list(c_elems[prev_c:end_c])
        shared = min(len(gap_b), len(gap_c))
        for x in gap_b[: len(gap_b) - shared]:
            slots.append((x, None))
        for y in gap_c[: len(gap_c) - shared]:
            slots.append((None, y))
        for x, y in zip(gap_b[len(gap_b) - shared :], gap_c[len(gap_c) - shared :]):
            slots.append((x, y))
        if t < len(anchors):
            slots.append(anchors[t])
            prev_b, prev_c = end_b + 1, end_c + 1
    return slots


def _shape_of(chain: FiniteChain) -> tuple:
    try:
        sig = decompose(chain)
    except (NotCommutative, NotIdempotent):
        raise ShapeMismatch()
    if sig.pairs == ():
        return ("go", sig.p)
    if len(sig.pairs) == 1 and sig.p == 0:
        return ("com", sig.pairs[0])
    raise ShapeMismatch()


def amalgamate_components(span: Span) -> AmalgamResult:
    """Constructive two-sided amalgam for a span of Gödel chains or of
    two-sided chains: zip the below-unit element lists (and above-unit
    lists, in the two-sided case) around the anchor images of A. Never
    searches; the certificate is checked by the caller via
    verify_amalgam. Remembered per distinct span, a ShapeMismatch too:
    criterion 2's 71,236 spans have 5,112 distinct ones."""
    A, B, C = span.A, span.B, span.C
    res = _components(A, B, C, span.i_B.image, span.i_C.image)
    if res is None:
        raise ShapeMismatch()
    return res


@remembered(chains=3)
def _components(A, B, C, i_b: tuple, i_c: tuple) -> Optional[AmalgamResult]:
    """_construct's amalgam, or None for a ShapeMismatch."""
    try:
        return _construct(A, B, C, i_b, i_c)
    except ShapeMismatch:
        return None


def _construct(A, B, C, i_b: tuple, i_c: tuple) -> AmalgamResult:
    """The construction behind amalgamate_components, for the span with
    leg images i_b: A→B and i_c: A→C; raises ShapeMismatch."""
    shapes = [_shape_of(x) for x in (A, B, C)]
    # the trivial chain fits either family, so only sized chains vote
    kinds = {s[0] for s, x in zip(shapes, (A, B, C)) if x.size > 1}
    if len(kinds) > 1:
        raise ShapeMismatch()
    kind = kinds.pop() if kinds else "go"
    ua, ub, uc = A.unit, B.unit, C.unit

    below_anchors = [(i_b[x], i_c[x]) for x in range(ua)]
    below = _zip_side(list(range(ub)), list(range(uc)), below_anchors)

    if kind == "go":
        above = []
        d = go(len(below))
    else:
        above_anchors = [(i_b[x], i_c[x]) for x in range(ua + 1, A.size)]
        above = _zip_side(
            list(range(ub + 1, B.size)),
            list(range(uc + 1, C.size)),
            above_anchors,
        )
        d = com(len(below) - 1, len(above) - 1)
    # the units pair up in the slot after the below-unit ones: d's unit
    # in both shapes
    jb_img = [None] * B.size
    jc_img = [None] * C.size
    for pos, (x, y) in enumerate(below + [(ub, uc)] + above):
        if x is not None:
            jb_img[x] = pos
        if y is not None:
            jc_img[y] = pos
    return AmalgamResult(
        D=d,
        j_B=ChainMap(B, d, tuple(jb_img)),
        j_C=ChainMap(C, d, tuple(jc_img)),
        one_sided=False,
    )
