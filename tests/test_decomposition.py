"""Skeleton extraction, the nested-sum normal form, and signature
counting."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import resichain

from resichain import (
    DecompositionSignature,
    NotCommutative,
    NotIdempotent,
    canonical_signature,
    count_chains,
    decompose,
    enumerate_chains,
    iso_equal,
    predicates,
    recompose,
    skeleton_blocks,
    sugihara_skeleton,
    validate,
)
from resichain.classification import class_signatures, parse_class
from resichain.constructors import com, go, nested_sum


def lab(chain, name):
    return chain.index_of_label(name)


def all_signatures(budget):
    """Every (pairs, p) whose glued size fits the budget, by direct
    composition enumeration. Independent of the module's counter."""
    out = []

    def grow(pairs, weight):
        for p in range(budget - weight):
            out.append((tuple(pairs), p))
        for m in range(budget):
            for n in range(budget):
                w = weight + m + n + 2
                if w < budget:
                    grow(pairs + [(m, n)], w)

    grow([], 1)
    return out


# --- skeleton ----------------------------------------------------------


def test_skeleton_of_com12_is_the_index_zero_triple():
    c = com(1, 2)
    assert sugihara_skeleton(c) == (lab(c, "b0"), c.unit, lab(c, "a0"))


def test_skeleton_of_go3_is_the_unit():
    g = go(3)
    assert sugihara_skeleton(g) == (g.unit,)


def test_skeleton_of_double_com00_is_everything():
    chain = nested_sum([com(0, 0), com(0, 0)])
    assert sugihara_skeleton(chain) == tuple(chain.elements())


def test_skeleton_has_odd_size_and_pairs_up(
):
    for chain in (com(2, 1), go(4), nested_sum([com(1, 0), go(2)])):
        skel = sugihara_skeleton(chain)
        assert len(skel) % 2 == 1
        below = [x for x in skel if x < chain.unit]
        above = [x for x in skel if x > chain.unit]
        assert len(below) == len(above)


def test_skeleton_blocks_cover_the_chain_with_intervals():
    chain = nested_sum([com(1, 1), go(2)])
    blocks = skeleton_blocks(chain)
    seen = []
    for fixpoint, interval in blocks:
        assert fixpoint in interval
        seen.extend(interval)
    assert sorted(seen) == list(chain.elements())


def test_skeleton_demands_commutative_idempotent():
    noncomm = [c for c in enumerate_chains(4) if not predicates(c).commutative]
    assert noncomm
    with pytest.raises(NotCommutative):
        sugihara_skeleton(noncomm[0])
    nonidem = [
        c
        for c in enumerate_chains(3, ("commutative",))
        if not predicates(c).idempotent
    ]
    assert nonidem
    with pytest.raises(NotIdempotent):
        sugihara_skeleton(nonidem[0])


# --- decompose ---------------------------------------------------------


def test_decompose_com_plus_go_tail():
    chain = nested_sum([com(0, 0), go(1)])
    sig = decompose(chain)
    assert sig.pairs == ((0, 0),) and sig.p == 1
    assert sig.text() == "C(0,0) ⊞ Go_1"


def test_decompose_pure_go():
    sig = decompose(go(3))
    assert sig.pairs == () and sig.p == 3
    assert sig.text() == "Go_3"


def test_decompose_double_com00():
    chain = nested_sum([com(0, 0), com(0, 0)])
    sig = decompose(chain)
    assert sig.pairs == ((0, 0), (0, 0)) and sig.p == 0
    assert sig.text() == "C(0,0) ⊞ C(0,0)"


def test_decompose_reads_mixed_sums_outermost_first():
    chain = nested_sum([com(1, 1), com(0, 2), go(3)])
    sig = decompose(chain)
    assert sig.pairs == ((1, 1), (0, 2)) and sig.p == 3
    assert sig.text() == "C(1,1) ⊞ C(0,2) ⊞ Go_3"


def test_signature_size_identity():
    for n in range(1, 8):
        for chain in enumerate_chains(n, ("commutative", "idempotent")):
            sig = decompose(chain)
            assert sig.size == chain.size
            assert sum(m + k + 2 for m, k in sig.pairs) + sig.p + 1 == chain.size


def test_decompose_keeps_one_signature_per_chain():
    chain = nested_sum([com(1, 0), go(2)])
    assert decompose(chain) is decompose(chain)


def test_decompose_raises_on_every_call_for_a_chain_it_cannot_read():
    noncomm = next(c for c in enumerate_chains(4) if not predicates(c).commutative)
    nonidem = next(
        c for c in enumerate_chains(3, ("commutative",)) if not predicates(c).idempotent
    )
    for chain, error in ((noncomm, NotCommutative), (nonidem, NotIdempotent)):
        for _ in range(2):
            with pytest.raises(error):
                decompose(chain)


# --- one object per signature ---------------------------------------


def test_equal_signatures_are_one_object():
    sig = DecompositionSignature(((1, 0),), 2)
    assert DecompositionSignature(pairs=((1, 0),), p=2) is sig
    assert decompose(nested_sum([com(1, 0), go(2)])) is sig
    assert DecompositionSignature(((1, 0),), 1) is not sig


def test_a_signature_hashes_as_its_value_tuple():
    # set iteration order over signatures, and with it the premises the
    # closure-rule audit reports, follows these hash values
    for sig in class_signatures(parse_class("inf:w,w,w"), 8):
        assert hash(sig) == hash((sig.pairs, sig.p))


def test_pickling_and_copying_give_back_the_shared_signature():
    sig = DecompositionSignature(((0, 2), (1, 1)), 3)
    assert pickle.loads(pickle.dumps(sig)) is sig
    assert copy.copy(sig) is sig and copy.deepcopy(sig) is sig


def test_a_signature_cannot_be_changed():
    sig = DecompositionSignature((), 4)
    with pytest.raises(AttributeError):
        sig.p = 5
    with pytest.raises(AttributeError):
        sig.extra = 1
    with pytest.raises(AttributeError):
        del sig.pairs
    assert sig.p == 4 and DecompositionSignature((), 4) is sig


@pytest.mark.parametrize("pairs, p", [((), -1), (((-1, 0),), 0), (((0, 0), (2, -3)), 1)])
def test_a_negative_parameter_is_refused(pairs, p):
    with pytest.raises(ValueError):
        DecompositionSignature(pairs, p)
    with pytest.raises(ValueError):
        DecompositionSignature(pairs=pairs, p=p)


def test_size_and_text_follow_their_formulas():
    for sig in class_signatures(parse_class("inf:w,w,w"), 12):
        assert sig.size == sum(m + n + 2 for m, n in sig.pairs) + sig.p + 1 <= 12
        parts = [f"C({m},{n})" for m, n in sig.pairs]
        if sig.p > 0 or not parts:
            parts.append(f"Go_{sig.p}")
        assert sig.text() == " ⊞ ".join(parts)


def test_label_variants_of_one_table_decompose_alike():
    chain = nested_sum([com(0, 1), go(1)])
    variants = [
        validate(chain.size, chain.unit, chain.mult),
        validate(chain.size, chain.unit, chain.mult, labels=[f"y{x}" for x in chain.elements()]),
    ]
    for other in variants:
        assert other is not chain
        assert decompose(other) == decompose(chain)


# in a fresh interpreter, so that no earlier decompose call has touched the
# interned chain that recompose returns
RECOMPOSE_THEN_DECOMPOSE = """
from resichain.decomposition import DecompositionSignature, decompose, recompose
sig = DecompositionSignature(pairs=((1, 2), (0, 1)), p=2)
chain = recompose(sig)
assert chain._decomposition is None
assert decompose(chain) == sig and chain._decomposition is decompose(chain)
"""


def test_recompose_leaves_the_signature_to_decompose():
    env = dict(os.environ, PYTHONPATH=str(Path(resichain.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", RECOMPOSE_THEN_DECOMPOSE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


# --- recompose ---------------------------------------------------------


def test_round_trip_up_to_isomorphism():
    for n in range(1, 7):
        for chain in enumerate_chains(n, ("commutative", "idempotent")):
            rebuilt = recompose(decompose(chain))
            assert iso_equal(rebuilt, chain)


def test_signatures_separate_chains_up_to_isomorphism():
    pool = []
    for n in range(1, 7):
        pool.extend(enumerate_chains(n, ("commutative", "idempotent")))
    for a in pool:
        for b in pool:
            same_sig = decompose(a) == decompose(b)
            assert same_sig == iso_equal(a, b)


def test_every_signature_round_trips_through_recompose():
    for pairs, p in all_signatures(8):
        sig = DecompositionSignature(pairs=pairs, p=p)
        chain = recompose(sig)
        assert decompose(chain) == sig


# --- counting ----------------------------------------------------------


def test_count_chains_examples():
    assert count_chains(1) == 1
    assert count_chains(3) == 2
    assert count_chains(5) == 8


def test_count_chains_matches_direct_composition_enumeration():
    for n in range(1, 10):
        direct = sum(
            1
            for pairs, p in all_signatures(n + 1)
            if sum(m + k + 2 for m, k in pairs) + p + 1 == n
        )
        assert count_chains(n) == direct


def test_count_chains_matches_table_enumeration_small():
    for n in range(1, 7):
        assert count_chains(n) == len(
            list(enumerate_chains(n, ("commutative", "idempotent")))
        )
