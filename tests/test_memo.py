"""The memo layer: one size limit, clear() and the chain numbering it
leaves alone, the label rule, which memos there are, and the shared
records that save memory."""

import importlib
import pkgutil

import pytest

import resichain
from resichain import _memo, amalgamation, classification, morphisms
from resichain.amalgamation import AmalgamResult, CandidatePool, Span, _construct, find_amalgam
from resichain.chain import FiniteChain, validate
from resichain.constructors import com, go
from resichain.morphisms import ChainMap


def relabeled(chain, tag):
    return validate(chain.size, chain.unit, chain.mult, labels=[f"{tag}{x}" for x in chain.elements()])


def chain_labels(value) -> list:
    """The labels of every chain a remembered result holds, in order."""
    if isinstance(value, FiniteChain):
        return [value.labels]
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (tuple, list)):
        value = [getattr(value, name) for name in ("A", "B", "C", "D", "j_B", "j_C", "domain")
                 if hasattr(value, name)]
    return [labels for part in value for labels in chain_labels(part)]


A, B, C = com(0, 0), com(1, 0), com(0, 1)
I_B, I_C = (1, 2, 3), (0, 1, 3)
CERTIFICATE = _construct(A, B, C, I_B, I_C)

# every remembered function that takes chains, with arguments for it
CHAIN_ARGUMENTS = {
    "_hs_images": (classification._hs_images, (com(1, 1),)),
    "_closure_of": (classification._closure_of, (go(3),)),
    "_quotients": (morphisms._quotients, (com(1, 1),)),
    "_witness": (classification._witness, (A, B, C, I_B, I_C)),
    "_components": (amalgamation._components, (A, B, C, I_B, I_C)),
    "_certificate": (
        amalgamation._certificate,
        (B, C, CERTIFICATE.D, CERTIFICATE.j_B.image, CERTIFICATE.j_C.image, False),
    ),
}


@pytest.mark.parametrize("name", sorted(CHAIN_ARGUMENTS))
def test_a_label_variant_gets_its_own_entry_and_its_own_labels(name):
    fn, args = CHAIN_ARGUMENTS[name]
    variant = tuple(relabeled(a, "v") if isinstance(a, FiniteChain) else a for a in args)
    # label variants compare equal, so only the label rule tells them apart
    assert variant == args
    fn.memo.clear()
    first, got = fn(*args), fn(*variant)
    assert len(fn.memo) == 2 and fn(*variant) is got
    labels = chain_labels(got)
    assert labels == chain_labels(fn.__wrapped__(*variant)) != chain_labels(first)
    assert any(label and label[0].startswith("v") for label in labels)


def span():
    return Span(A, B, C, ChainMap(A, B, I_B), ChainMap(A, C, I_C))


def test_clear_starts_every_memo_and_the_completion_table_over():
    classification.ap_verdict(classification.hs_closure([com(0, 2)]))
    pool = CandidatePool([CERTIFICATE.D])
    assert find_amalgam(span(), lambda d: True, CERTIFICATE.D.size, candidates=pool) == CERTIFICATE
    assert amalgamation._LEGS and amalgamation._SPANS
    bits = dict(amalgamation._BITS)
    assert CERTIFICATE.D.signature in bits
    _memo.clear()
    assert not any(_memo._MEMOS)
    assert amalgamation._BITS == bits
    # the pool keeps the bits it took before the clear
    assert find_amalgam(span(), lambda d: True, CERTIFICATE.D.size, candidates=pool) == CERTIFICATE


def test_a_full_memo_starts_over_and_keeps_its_counts(monkeypatch, memo_restarts):
    monkeypatch.setattr(_memo, "LIMIT", 3)
    # a memo of its own, so a failing check leaves no stray memo behind
    monkeypatch.setattr(_memo, "_MEMOS", [])
    memo = _memo.Memo()
    for key in range(7):
        assert memo.put(key, -key) == -key
        assert len(memo) <= 3
    assert (memo_restarts(memo), dict(memo)) == (2, {6: -6})


def test_every_memo_has_a_module_level_name():
    modules = [importlib.import_module(f"resichain.{m.name}") for m in pkgutil.iter_modules(resichain.__path__)]
    named = set()
    for module in modules:
        for value in vars(module).values():
            memo = value if isinstance(value, _memo.Memo) else getattr(value, "memo", None)
            if isinstance(memo, _memo.Memo):
                named.add(id(memo))
    assert {id(memo) for memo in _memo._MEMOS} == named
    assert len(_memo._MEMOS) == 20


def test_equal_results_that_cost_memory_are_one_object():
    # _certificate, morphisms._shared and _witness are kept for the memory
    # this sharing saves; each check fails without its memo
    _memo.clear()
    pool = [CERTIFICATE.D]
    first = find_amalgam(span(), lambda d: True, CERTIFICATE.D.size, candidates=pool)
    assert isinstance(first, AmalgamResult) and first.D is CERTIFICATE.D
    assert find_amalgam(span(), lambda d: True, CERTIFICATE.D.size, candidates=pool) is first

    a, b = com(0, 0), com(1, 1)
    embeddings = morphisms.embedding_images(a, b)
    homomorphisms = {image: image for image in morphisms.homomorphism_images(a, b)}
    assert embeddings and all(homomorphisms[image] is image for image in embeddings)

    # two closures, of 4 and 8 members, refuted by the same span
    small, large = classification.hs_closure([com(0, 2)]), classification.hs_closure([com(1, 2)])
    assert len(small.members) < len(large.members)
    witness, _ = classification.find_refuting_span(small)
    assert witness is not None and classification.find_refuting_span(large)[0] is witness
