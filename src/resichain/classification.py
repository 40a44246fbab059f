"""The sixty canonical chain classes, the classifier, and AP verdicts.

A class is a family name plus parameters from {0, 1, ω}. Membership of a
finite commutative idempotent chain is decided on its decomposition
signature by sig_in_class alone; a class's signatures are those up to a
size budget that pass it, found by a walk that extends only what passes.
A finite set of chains closed under subalgebras and quotients (here:
ChainClass) is classified by looking its signature set up among the
twelve finite classes. The amalgamation verdict follows: a set equal to
one of the sixty has the property; anything else gets an audit of
violated closure rules plus, when found, a concrete span with no
one-sided completion inside the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ._memo import Memo, remembered
from .chain import (
    FiniteChain,
    restrict_to,
    subalgebra_generated,
)
from .decomposition import DecompositionSignature, decompose, recompose
from .errors import NotHSClosed
from .morphisms import ChainMap, _quotients, embedding_images
from .amalgamation import CandidatePool, Refuted, Span, _completed_in, canonical_order

OMEGA = float("inf")
PARAM_VALUES = (0, 1, OMEGA)


def param_text(value) -> str:
    return "w" if value == OMEGA else str(int(value))


def parse_param(text: str):
    """0, 1 or ω from its text; None for text that is not a number."""
    text = text.strip()
    if text == "w":
        return OMEGA
    try:
        value = int(text)
    except ValueError:
        return None
    if value not in (0, 1):
        raise ValueError("parameters range over 0, 1, w")
    return value


E_FAMILY = "e"
FIN = "fin"
INF = "inf"
FIN_UNION_E = "fin+e"
INF_UNION_E = "inf+e"


@dataclass(frozen=True)
class CanonicalClass:
    """One of the sixty: a family tag plus parameters (None where the
    family does not use one)."""

    family: str
    m: Optional[float] = None
    n: Optional[float] = None
    p: Optional[float] = None

    def __post_init__(self):
        for v in (self.m, self.n, self.p):
            if v is not None and v not in PARAM_VALUES:
                raise ValueError("parameters range over 0, 1, w")
        if self.family == E_FAMILY:
            if self.m is not None or self.n is not None or self.p is None:
                raise ValueError("this family takes only p")
        elif self.family in (FIN, INF):
            if self.m is None or self.n is None or self.p is None:
                raise ValueError("this family takes m, p, n")
            if self.p < self.m:
                raise ValueError("p must dominate m")
        elif self.family == FIN_UNION_E:
            if self.m is None or self.n is None or self.p is None:
                raise ValueError("this family takes m, n, p")
            if self.p not in (1, OMEGA):
                raise ValueError("the union tail needs p in {1, w}")
            if self.p < self.m:
                raise ValueError("p must dominate m")
        elif self.family == INF_UNION_E:
            if self.m not in (None, 0):
                raise ValueError("this family fixes m = 0")
            if self.n is None or self.p is None:
                raise ValueError("this family takes n, p")
            if self.p not in (1, OMEGA):
                raise ValueError("the union tail needs p in {1, w}")
            object.__setattr__(self, "m", 0)
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def text(self) -> str:
        if self.family == E_FAMILY:
            return f"e:{param_text(self.p)}"
        if self.family == FIN:
            return f"fin:{param_text(self.m)},{param_text(self.p)},{param_text(self.n)}"
        if self.family == INF:
            return f"inf:{param_text(self.m)},{param_text(self.p)},{param_text(self.n)}"
        if self.family == FIN_UNION_E:
            return f"fin:{param_text(self.m)},0,{param_text(self.n)}+e:{param_text(self.p)}"
        return f"inf:0,0,{param_text(self.n)}+e:{param_text(self.p)}"

    @property
    def is_finite(self) -> bool:
        """Whether the class has finitely many members."""
        if self.family == E_FAMILY:
            return self.p != OMEGA
        if self.family in (FIN, FIN_UNION_E):
            return OMEGA not in (self.m, self.n, self.p)
        return False

    @property
    def max_member_size(self) -> int:
        if not self.is_finite:
            raise ValueError("unbounded class")
        if self.family == E_FAMILY:
            return int(self.p) + 1
        if self.family == FIN:
            return int(self.m) + int(self.n) + int(self.p) + 3
        return max(int(self.m) + int(self.n) + 3, int(self.p) + 1)


def parse_class(text: str) -> CanonicalClass:
    """Parse `e:P`, `fin:M,P,N`, `inf:M,P,N`, `fin:M,0,N+e:P`, or
    `inf:0,0,N+e:P` with `w` standing for ω. CanonicalClass enforces each
    family's own parameter rules."""
    unrecognized = ValueError(f"unrecognized class syntax: {text!r}")
    head, *tail = text.strip().split("+")
    family, _, params = head.partition(":")
    values = [parse_param(v) for v in params.split(",")]
    if None in values:
        raise unrecognized
    if family == E_FAMILY and len(values) == 1 and not tail:
        return CanonicalClass(E_FAMILY, p=values[0])
    if family in (FIN, INF) and len(values) == 3:
        m, p, n = values
        if not tail:
            return CanonicalClass(family, m=m, n=n, p=p)
        if len(tail) == 1 and tail[0].startswith("e:"):
            if p != 0:
                raise ValueError("the union form fixes the middle parameter to 0")
            tail_p = parse_param(tail[0][2:])
            if tail_p is None:
                raise unrecognized
            family = FIN_UNION_E if family == FIN else INF_UNION_E
            return CanonicalClass(family, m=m, n=n, p=tail_p)
    raise unrecognized


def all_sixty() -> List[CanonicalClass]:
    """The sixty in catalogue order: every parameter choice, family by
    family, that CanonicalClass accepts. The family rules (p ≥ m, a union
    tail needs p ∈ {1, ω}, inf+e fixes m = 0) live only in its
    __post_init__; this walk skips the choices it rejects."""
    grids = ((E_FAMILY, "p"), (FIN, "mpn"), (INF, "mpn"), (FIN_UNION_E, "mpn"),
             (INF_UNION_E, "np"))
    out = []
    for family, names in grids:
        for values in product(PARAM_VALUES, repeat=len(names)):
            try:
                out.append(CanonicalClass(family, **dict(zip(names, values))))
            except ValueError:
                continue
    return out


def sig_in_class(sig: DecompositionSignature, cls: CanonicalClass) -> bool:
    pairs, q = sig.pairs, sig.p
    if cls.family == E_FAMILY:
        return pairs == () and q <= cls.p
    if cls.family == FIN:
        return (
            len(pairs) <= 1
            and q <= cls.p
            and all(r <= cls.m and s <= cls.n for r, s in pairs)
        )
    if cls.family == INF:
        return q <= cls.p and all(r <= cls.m and s <= cls.n for r, s in pairs)
    if cls.family == FIN_UNION_E:
        in_fin = (
            len(pairs) <= 1
            and q == 0
            and all(r <= cls.m and s <= cls.n for r, s in pairs)
        )
        in_e = pairs == () and q <= cls.p
        return in_fin or in_e
    in_inf = q == 0 and all(r == 0 and s <= cls.n for r, s in pairs)
    in_e = pairs == () and q <= cls.p
    return in_inf or in_e


def member_of(chain: FiniteChain, cls: CanonicalClass) -> bool:
    return sig_in_class(decompose(chain), cls)


def _signatures(budget: int, keep: Callable, pairs: tuple = ()) -> Iterator:
    """The signatures keep accepts among pairs's tails and extensions with at
    most budget elements beyond pairs's weight Σ(r+s+2), depth first. A
    sequence keep rejects at tail 0 is not extended, and its tails stop at
    the first one keep rejects: exact for sig_in_class, whose pair conditions
    hold on every prefix and whose tail conditions are downward closed."""
    for q in range(budget):
        sig = DecompositionSignature(pairs, q)
        if not keep(sig):
            if q == 0:
                return
            break
        yield sig
    for r in range(budget - 2):
        for s in range(budget - 2 - r):
            yield from _signatures(budget - (r + s + 2), keep, pairs + ((r, s),))


def class_signatures(cls: CanonicalClass, max_size: Optional[int] = None) -> set:
    """All member signatures, complete for finite classes; unbounded
    classes require an explicit size cap."""
    if cls.is_finite:
        budget = cls.max_member_size
        if max_size is not None:
            budget = min(budget, max_size)
    else:
        if max_size is None:
            raise ValueError("unbounded class needs a size cap")
        budget = max_size
    return set(_signatures(budget, lambda sig: sig_in_class(sig, cls)))


def class_members(cls: CanonicalClass, max_size: Optional[int] = None) -> CandidatePool:
    """Member chains (canonical constructions), sorted by size, then by
    decomposition signature. The list also carries their canonical
    (size, signature) order for find_amalgam."""
    sigs = sorted(class_signatures(cls, max_size), key=lambda s: (s.size, s.pairs, s.p))
    return CandidatePool(recompose(sig) for sig in sigs)


@dataclass(frozen=True, slots=True)
class ChainClass:
    """A finite set of chains, deduplicated up to isomorphism: members
    keeps one chain per signature (the first listed), in canonical_order.

    A ChainClass also remembers what was worked out about it: whether it
    is known to be HS-closed (set by hs_closure on the non-empty sets it
    builds, and by classify after its first successful check) and its
    ap_verdict, which a label variant (equal members, other chain objects)
    takes over on its own chains. Neither takes part in ==, hash or repr."""

    members: tuple
    _closed: bool = field(init=False, repr=False, compare=False, default=False)
    _verdict: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(canonical_order(self.members)))

    @classmethod
    def from_chains(cls, chains: Iterable[FiniteChain]) -> "ChainClass":
        return cls(members=chains)

    def signatures(self) -> frozenset:
        return frozenset(decompose(c) for c in self.members)

    def is_hs_closed(self) -> bool:
        """Whether the set is non-empty and holds each member's HS-closure.
        The members are walked largest first, and one whose signature an
        earlier closure held is skipped: its closure lies inside that one."""
        keys = {c.signature for c in self.members}
        covered = set()
        for c in reversed(self.members):
            if c.signature not in covered:
                closure = _closure_of(c)
                if not keys.issuperset(closure):
                    return False
                covered.update(closure)
        return bool(keys)


def _closed_sets(n: int, close: Callable, start: int) -> Iterator[int]:
    """Every set over 0..n-1 that a closure operator fixes, as a bitmask,
    each once: start is the least fixed set, close(mask, x) the least one
    holding mask and x. Depth first over the elements in order, leaving x
    out before adding it; a branch ends where adding x brings back one left out."""
    stack = [(0, start, 0)]
    while stack:
        x, chosen, out = stack.pop()
        while x < n and chosen >> x & 1:
            x += 1
        if x == n:
            yield chosen
            continue
        grown = close(chosen, x)
        if not grown & out:
            stack.append((x + 1, grown, out))
        stack.append((x + 1, chosen, out | 1 << x))


@remembered(chains=1)
def _hs_images(chain: FiniteChain) -> tuple:
    """Every subalgebra, in the order of their element bitmasks, then every
    quotient, of one chain (the chain itself among them)."""
    def members(mask: int) -> list:
        return [x for x in chain.elements() if mask >> x & 1]

    def close(mask: int, x: int) -> int:
        return sum(1 << y for y in subalgebra_generated(chain, members(mask) + [x]))

    subuniverses = sorted(_closed_sets(chain.size, close, close(0, chain.unit)))
    images = [restrict_to(chain, members(m)) for m in subuniverses]
    images.extend(q for q, _ in _quotients(chain))
    return tuple(images)


# Equal closures come back as one shared object: members tuple -> the
# ChainClasses built on it, one per label variant, from which ap_verdict
# carries a verdict over.
_CLOSED = Memo()


@remembered(chains=1)
def _closure_of(chain: FiniteChain) -> dict:
    """{canonical signature: chain} for the HS-closure of one chain, in
    the order a last-in first-out walk of _hs_images first reaches each
    signature."""
    pool = {}
    work = [chain]
    while work:
        c = work.pop()
        key = c.signature
        if key not in pool:
            pool[key] = c
            work.extend(_hs_images(c))
    return pool


def hs_closure(generators: Iterable[FiniteChain]) -> ChainClass:
    """Least superset closed under subalgebras and quotients. A closure
    whose members are the very chain objects of an earlier one returns
    that earlier ChainClass, with the verdict it remembers. Label variants
    compare equal, so each gets its own, and ap_verdict carries the verdict
    of one variant over to the others. A non-empty result is marked
    HS-closed, so classify does not check it again.

    The closure of a set is the union of its generators' closures, each
    remembered by _closure_of. The last-in first-out walk of _hs_images
    from all the generators (selfcheck.reference_hs_closure) pops
    the last generator first and finishes its closure before it pops the
    next. Its pool is then HS-closed, so expanding a chain whose signature
    is already in the pool reaches only signatures already there, and
    skipping such a chain changes no first visit of a new signature. So
    walking the generators in reverse, skipping each one whose signature
    is already in, and adding the chains of the others' closures whose
    signatures are new keeps the very chain objects, labels included,
    that the walk keeps."""
    pool = {}
    for g in reversed(list(generators)):
        key = g.signature
        if key not in pool:
            # chains already in the pool stay; g stands for its own signature
            # even when the memo holds an equal copy that validate did not intern
            pool = {**_closure_of(g), **pool, key: g}
    # one chain per signature already, so sorting gives K's members, and
    # K skips __post_init__, which would sort them again
    members = tuple(sorted(pool.values(), key=attrgetter("signature")))
    variants = _CLOSED.get(members, ())
    for earlier in variants:
        if all(map(is_, earlier.members, members)):
            return earlier
    K = object.__new__(ChainClass)
    for name, value in (("members", members), ("_closed", bool(members)), ("_verdict", None)):
        object.__setattr__(K, name, value)
    _CLOSED.put(members, variants + (K,))
    return K


@remembered
def _finite_classes() -> dict:
    """The twelve finite classes, keyed by their (distinct) signature sets."""
    return {
        frozenset(class_signatures(cls)): cls for cls in all_sixty() if cls.is_finite
    }


def classify(K: ChainClass) -> Optional[CanonicalClass]:
    """The class among the sixty whose member set is K, or None.

    Only a finite class can equal a finite K, so K's signature set is
    looked up among the twelve finite classes. An empty or non-closed K
    raises NotHSClosed on every call; a K found closed once is marked so
    and not walked again.
    """
    if not K._closed:
        if not K.is_hs_closed():
            raise NotHSClosed()
        object.__setattr__(K, "_closed", True)
    return _finite_classes().get(K.signatures())


_RULE_TEXT = {
    "i": "a tail of length 2 admits a tail of every positive length",
    "ii": "two stacked three-element components admit any stack height",
    "iii": "a lower side of length 2 admits every lower side and every tail",
    "iv": "an upper side of length 2 admits every upper side",
    "v": "a lower-only and an upper-only component combine into one",
    "vi": "a stacked three-element component swaps for any present two-sided component",
    "vii": "a positive tail upgrades to any present tail length",
}


# the largest conclusion the closure-rule audit instantiates
_AUDIT_SIZE_CAP = 9


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    premises: tuple
    missing: DecompositionSignature

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "statement": _RULE_TEXT[self.rule],
            "premises": [s for s in self.premises],
            "missing": self.missing.text(),
        }


def closure_rule_violations(K: ChainClass) -> tuple:
    """Audit of the seven closure consequences of amalgamability: every
    instance from _instances whose premises are in K and whose conclusion
    is not, one per rule and missing signature, sorted by rule in
    _RULE_TEXT's order, then by the missing signature. Membership is
    tested on signature indexes, and only the partners in K are looked at.
    When members of K give the same conclusion, the first in K.signatures()
    order names the premises. That is frozenset iteration order, which
    follows the signatures' hash values, hash((pairs, p)): a different hash
    would name other premises. Within one member no rule and conclusion
    arise under two partners, so the order of its partners does not
    matter. Equal violations are one shared object."""
    sigs = K.signatures()
    present = {sig.index for sig in sigs}
    found = {}
    for sig in sigs:
        by_partner = _instances(sig)
        for partner in by_partner.keys() & present:
            for missing, rank, violation in by_partner[partner]:
                if missing not in present:
                    found.setdefault(rank, violation)
    return tuple(found[rank] for rank in sorted(found))


@remembered
def _instances(sig: DecompositionSignature) -> dict:
    """Every rule instance whose first premise is sig and whose conclusion
    has at most _AUDIT_SIZE_CAP elements (measured by
    DecompositionSignature.size) and is not sig, keyed by the index of its
    second premise, or of sig for an instance with none, as (the missing
    signature's index, rank, the violation it reports when its conclusion
    is missing). The rank, an int, orders as the rule's place in
    _RULE_TEXT, then the missing signature's size and pairs (which fix its
    tail), and stands for one rule and missing signature. Only this function reads
    the cap. A second premise is never larger than the conclusion, so the
    partners are the components and tails up to the cap."""
    cap = _AUDIT_SIZE_CAP
    n = cap - 2
    components = [DecompositionSignature(((r, s),), 0) for r in range(n) for s in range(n - r)]
    tails = [DecompositionSignature((), q) for q in range(cap)]
    # every stack height, side length and tail length that can still fit
    lengths = range(cap)
    candidates = []
    if sig.p == 2:
        candidates += [("i", None, sig.pairs, n) for n in lengths[1:]]
    if sig.pairs[:2] == ((0, 0), (0, 0)):
        candidates += [("ii", None, ((0, 0),) * k + sig.pairs[2:], sig.p) for k in lengths[1:]]
    for i, pair in enumerate(sig.pairs):
        if pair == (0, 0):
            candidates += [
                ("vi", other, sig.pairs[:i] + other.pairs + sig.pairs[i + 1 :], sig.p)
                for other in components
            ]
    if sig.p == 1:
        candidates += [("vii", other, sig.pairs, other.p) for other in tails]
    if len(sig.pairs) == 1 and sig.p == 0:
        ((r, s),) = sig.pairs
        if r == 2:
            candidates += [("iii", None, ((m, s),), 0) for m in lengths]
            candidates += [("iii", None, (), m) for m in lengths]
        if s == 2:
            candidates += [("iv", None, ((r, n),), 0) for n in lengths]
        if s == 0:
            candidates += [
                ("v", other, ((r, other.pairs[0][1]),), 0)
                for other in components
                if other.pairs[0][0] == 0
            ]
    order = {rule: i for i, rule in enumerate(_RULE_TEXT)}
    out = {}
    for rule, other, pairs, q in candidates:
        missing = DecompositionSignature(pairs, q)
        if missing.size <= cap and missing is not sig:
            # (place, size, pairs) in one int, the tail following from size
            # and pairs: a pair is the digit 1 + r·cap + s, and each of the
            # at most cap // 2 places a shorter pairs leaves is 0, so it
            # sorts first
            rank = order[rule] * (cap + 1) + missing.size
            for i in range(cap // 2):
                digit = 1 + pairs[i][0] * cap + pairs[i][1] if i < len(pairs) else 0
                rank = rank * (cap * cap + 1) + digit
            premises = (sig,) if other is None else (sig, other)
            violation = RuleViolation(rule, tuple(p.text() for p in premises), missing)
            out.setdefault((other or sig).index, []).append((missing.index, rank, violation))
    return {partner: tuple(found) for partner, found in out.items()}


@dataclass(frozen=True, slots=True)
class HasAP:
    canonical: CanonicalClass

    def as_dict(self) -> dict:
        return {"ap": True, "class": self.canonical.text()}


@dataclass(frozen=True, slots=True)
class NoAP:
    audit: tuple
    witness: Optional[Span] = None
    refutation: Optional[Refuted] = None

    def as_dict(self) -> dict:
        out: dict = {"ap": False, "audit": [v.as_dict() for v in self.audit]}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_complete"] = True
        return out


@remembered(chains=3)
def _witness(A, B, C, i_b: tuple, i_c: tuple) -> Span:
    """One shared witness per distinct span. Without this memo the closure
    bench's peak RSS rose by 0.9-1.0 MB (seed 101, 2-core machine)."""
    return Span(A, B, C, ChainMap(A, B, i_b), ChainMap(A, C, i_c))


def find_refuting_span(K: ChainClass) -> Tuple[Optional[Span], Optional[Refuted]]:
    """First span over K (spans_over order) with no one-sided completion
    in K, with legs read as image tuples. Whether a member D completes a
    span is read from the completion table that find_amalgam shares
    (amalgamation._completed_in), and only the members of K that the table
    has not decided for the span go through the leg match. Only the
    witness becomes a Span. K's members are one per signature in canonical
    order, as find_amalgam scans candidates, so the refutation counts them
    all.

    Spans whose A is the one-element chain are skipped: B itself completes
    each of them, with j_B the identity and j_C mapping all of C to the
    unit, so none of them is ever the witness. So are the spans whose B or
    C is A (one member per signature, so B is A exactly when |B| = |A| and
    A embeds in B): i_B is then the identity, a chain's only automorphism,
    and C completes the span with j_B = i_C and j_C the identity; likewise
    B completes it when C is A."""
    members = K.members
    completed = _completed_in(members)
    for A in members:
        if A.size == 1:
            continue
        row = [embedding_images(A, y) for y in members]
        for B, legs_b in zip(members, row):
            if B is A or not legs_b:
                continue
            for C, legs_c in zip(members, row):
                if C is A:
                    continue
                for i_b in legs_b:
                    for i_c in legs_c:
                        if not completed(B, i_b, C, i_c):
                            return _witness(A, B, C, i_b, i_c), Refuted(checked=len(members))
    return None, None


def ap_verdict(K: ChainClass):
    """HasAP with the canonical class when K is one of the sixty member
    sets; otherwise NoAP carrying the closure-rule audit and, when one
    is found, a concretely refuted span. The verdict is kept on K, and a
    later call for the same K returns that object. A label variant of a
    closure that already has a verdict takes that verdict over on its own
    chains (_carried_verdict) instead of working it out again."""
    verdict = K._verdict
    if verdict is None:
        verdict = _carried_verdict(K)
        if verdict is None:
            cand = classify(K)
            if cand is not None:
                verdict = HasAP(canonical=cand)
            else:
                audit = closure_rule_violations(K)
                witness, refutation = find_refuting_span(K)
                verdict = NoAP(audit=audit, witness=witness, refutation=refutation)
        object.__setattr__(K, "_verdict", verdict)
    return verdict


def _carried_verdict(K: ChainClass):
    """The verdict of a closure in _CLOSED whose members equal K's, moved
    onto K's chains; None when no such closure has one yet. The
    classifier, the audit and the span search read only signatures, and
    equal member tuples list one chain per signature in the same canonical
    order, so the class, the audit and the refutation carry over as they
    are, and the witness is the span at the same places over K's own
    chains: the one find_refuting_span(K) returns, labels included."""
    for earlier in _CLOSED.get(K.members, ()):
        verdict = earlier._verdict
        if verdict is None:
            continue
        w = getattr(verdict, "witness", None)
        if w is not None:
            own = {c.signature: c for c in K.members}
            A, B, C = own[w.A.signature], own[w.B.signature], own[w.C.signature]
            witness = _witness(A, B, C, w.i_B.image, w.i_C.image)
            if witness is not w:
                verdict = NoAP(audit=verdict.audit, witness=witness, refutation=verdict.refutation)
        return verdict
    return None
