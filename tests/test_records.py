"""The package's immutable records: keyword construction and defaults,
==, hash, repr, immutability and pickling, one case per record class."""

import copy
import pickle

import pytest

from resichain import (
    TRIVIAL,
    AmalgamResult,
    ASElement,
    BoundExhausted,
    CanonicalClass,
    ChainClass,
    ChainMap,
    ChainPredicates,
    Congruence,
    DecompositionSignature,
    FiniteChain,
    FiniteSupport,
    FiniteWord,
    HasAP,
    MinimalityVerdict,
    NoAP,
    OMEGA,
    Periodic,
    PointedChain,
    Refuted,
    RuleViolation,
    Span,
    Violation,
    ap_verdict,
    com,
    go,
    hs_closure,
)

G1, G2 = go(1), go(2)
ID_G1 = ChainMap(G1, G1, (0, 1))
RULE = RuleViolation(rule="i", premises=("Go_2",), missing=DecompositionSignature((), 3))

# (class, keyword arguments, the defaults of the fields those arguments
# leave out, fields that make a record unequal to it, its repr)
CASES = [
    (Violation, dict(code="NotAMonoid", witness=("unit", 1)), {}, dict(witness=("unit", 2)),
     "Violation(code='NotAMonoid', witness=('unit', 1))"),
    (FiniteChain, dict(size=2, unit=1, mult=G1.mult), dict(labels=None),
     dict(size=3, unit=2, mult=G2.mult), "FiniteChain(size=2, unit=1)"),
    (ChainPredicates,
     dict(commutative=True, idempotent=True, star_involutive=False, admissible=True), {},
     dict(admissible=False),
     "ChainPredicates(commutative=True, idempotent=True, star_involutive=False, "
     "admissible=True)"),
    (ChainMap, dict(domain=TRIVIAL, codomain=G1, image=[1]), {}, dict(image=(0,)),
     "ChainMap(domain=FiniteChain(size=1, unit=0), codomain=FiniteChain(size=2, unit=1), "
     "image=(1,))"),
    (Congruence, dict(chain=com(0, 0), blocks=((0,), (1,), (2,)), kernel_class=(1,)), {},
     dict(blocks=((0, 1, 2),), kernel_class=(0, 1, 2)),
     "Congruence(chain=FiniteChain(size=3, unit=1), blocks=((0,), (1,), (2,)), "
     "kernel_class=(1,))"),
    (Span, dict(A=TRIVIAL, B=G1, C=G1, i_B=ChainMap(TRIVIAL, G1, (1,)),
                i_C=ChainMap(TRIVIAL, G1, (1,))), {},
     dict(C=G2, i_C=ChainMap(TRIVIAL, G2, (2,))),
     "Span(A=FiniteChain(size=1, unit=0), B=FiniteChain(size=2, unit=1), "
     "C=FiniteChain(size=2, unit=1), i_B=ChainMap(domain=FiniteChain(size=1, unit=0), "
     "codomain=FiniteChain(size=2, unit=1), image=(1,)), "
     "i_C=ChainMap(domain=FiniteChain(size=1, unit=0), "
     "codomain=FiniteChain(size=2, unit=1), image=(1,)))"),
    (AmalgamResult, dict(D=G1, j_B=ID_G1, j_C=ID_G1, one_sided=False), {},
     dict(one_sided=True),
     "AmalgamResult(D=FiniteChain(size=2, unit=1), "
     "j_B=ChainMap(domain=FiniteChain(size=2, unit=1), "
     "codomain=FiniteChain(size=2, unit=1), image=(0, 1)), "
     "j_C=ChainMap(domain=FiniteChain(size=2, unit=1), "
     "codomain=FiniteChain(size=2, unit=1), image=(0, 1)), one_sided=False)"),
    (Refuted, dict(checked=3), {}, dict(checked=4), "Refuted(checked=3)"),
    (BoundExhausted, dict(size_bound=5), {}, dict(size_bound=6),
     "BoundExhausted(size_bound=5)"),
    (CanonicalClass, dict(family="e", p=1), dict(m=None, n=None), dict(p=OMEGA),
     "CanonicalClass(family='e', m=None, n=None, p=1)"),
    (ChainClass, dict(members=[G1, TRIVIAL, G1]), {}, dict(members=[G2]),
     "ChainClass(members=(FiniteChain(size=1, unit=0), FiniteChain(size=2, unit=1)))"),
    (RuleViolation, dict(rule="i", premises=("Go_2",), missing=RULE.missing), {},
     dict(rule="vii"),
     "RuleViolation(rule='i', premises=('Go_2',), "
     "missing=DecompositionSignature(pairs=(), p=3))"),
    (HasAP, dict(canonical=CanonicalClass("e", p=1)), {},
     dict(canonical=CanonicalClass("e", p=0)),
     "HasAP(canonical=CanonicalClass(family='e', m=None, n=None, p=1))"),
    (NoAP, dict(audit=()), dict(witness=None, refutation=None), dict(audit=(RULE,)),
     "NoAP(audit=(), witness=None, refutation=None)"),
    (FiniteWord, dict(bits=(0, 1)), {}, dict(bits=(1, 0)), "FiniteWord(bits=(0, 1))"),
    (Periodic, dict(bits=(0, 1)), dict(phase=0), dict(phase=1),
     "Periodic(bits=(0, 1), phase=0)"),
    (FiniteSupport, dict(support=[3]), {}, dict(support=[2]),
     "FiniteSupport(support=frozenset({3}))"),
    (MinimalityVerdict, dict(minimal=True), dict(recurrence_offset=None, below=None),
     dict(minimal=False), "MinimalityVerdict(minimal=True, recurrence_offset=None, below=None)"),
    (ASElement, dict(kind="e"), dict(index=None), dict(kind="a", index=0),
     "ASElement(kind='e', index=None)"),
    (PointedChain, dict(base=G1, f=0), {}, dict(f=1),
     "PointedChain(base=FiniteChain(size=2, unit=1), f=0)"),
]


@pytest.mark.parametrize(
    "cls,kwargs,defaults,changed,text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_a_record_keeps_its_value_semantics(cls, kwargs, defaults, changed, text):
    record = cls(**kwargs)
    for name, value in defaults.items():
        assert getattr(record, name) == value
    twin = cls(**kwargs)
    assert record == twin and hash(record) == hash(twin) and record is not twin
    other = cls(**{**kwargs, **changed})
    assert record != other and other != record
    assert repr(record) == text
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert not hasattr(record, "__dict__")
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and repr(clone) == text


def test_fields_left_out_of_comparison():
    # a chain's labels, and what a ChainClass works out about itself
    relabeled = FiniteChain(2, 1, G1.mult, ("b", "e"))
    assert relabeled == G1 and hash(relabeled) == hash(G1)
    assert repr(relabeled) == repr(G1)
    K = hs_closure([G2])
    fresh = ChainClass(members=K.members)
    assert ap_verdict(K) is not None and K.signatures() and K._closed
    assert fresh._closed is False and fresh._verdict is None and fresh._signatures is None
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)
