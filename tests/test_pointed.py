"""Pointed chains: the six-condition classifier, seeds, partition,
pointed decomposition, and congruence reuse."""

import pytest

from resichain import (
    CONDITIONS,
    ConditionIsOneA,
    PointedChain,
    canonical_signature,
    condition_of,
    congruences,
    cross_embedding_count,
    enumerate_pointed_embeddings,
    generated_pointed_subalgebra,
    iso_equal,
    partition,
    pointed_congruences,
    pointed_decompose,
    pointed_from_json,
    pointed_pool,
    seed_algebra,
)
from resichain.constructors import com, go, nested_sum
from resichain.selfcheck import brute_star


def pointed_iso(p, q):
    return p.base.size == q.base.size and bool(enumerate_pointed_embeddings(p, q))


# --- conditions ----------------------------------------------------------


def test_condition_frozen_examples():
    assert condition_of(PointedChain(com(0, 0), 0)) == "1b"
    assert condition_of(PointedChain(go(1), 0)) == "2a"
    assert condition_of(PointedChain(com(1, 1), com(1, 1).unit)) == "1a"
    assert condition_of(PointedChain(com(0, 0), 2)) == "1c"
    assert condition_of(PointedChain(com(1, 0), 0)) == "2b"
    assert condition_of(PointedChain(com(0, 1), 2)) == "2c"


def test_exactly_one_condition_holds_everywhere():
    # mirror of the case split, evaluated with brute-force residuals
    for p in pointed_pool(4):
        base, f, e = p.base, p.f, p.base.unit
        skeleton = {
            x for x in base.elements() if brute_star(base, brute_star(base, x)) == x
        }
        fstar = brute_star(base, f)
        flags = {
            "1a": f in skeleton and f == e,
            "1b": f in skeleton and f < e,
            "1c": f in skeleton and f > e,
            "2a": f not in skeleton and f < e and fstar == e,
            "2b": f not in skeleton and f < e and fstar > e,
            "2c": f not in skeleton and f > e,
        }
        assert sum(flags.values()) == 1
        assert flags[condition_of(p)]


def test_the_point_must_lie_inside_the_chain():
    with pytest.raises(ValueError):
        PointedChain(go(1), 2)


# --- seeds ---------------------------------------------------------------


def test_seeds_are_the_documented_algebras():
    expected = {
        "1a": (go(0), 0),
        "1b": (com(0, 0), 0),
        "1c": (com(0, 0), 2),
        "2a": (go(1), 0),
        "2b": (com(1, 0), 0),
        "2c": (com(0, 1), 2),
    }
    for cond, (base, f) in expected.items():
        seed = seed_algebra(cond)
        assert canonical_signature(seed.base) == canonical_signature(base)
        assert seed.f == f
        assert condition_of(seed) == cond


def test_unknown_condition_is_rejected():
    with pytest.raises(ValueError):
        seed_algebra("3x")


def test_generated_subalgebra_is_the_condition_seed():
    for p in pointed_pool(4):
        seed = seed_algebra(condition_of(p))
        assert pointed_iso(generated_pointed_subalgebra(p), seed)


# --- partition -----------------------------------------------------------


def test_partition_at_size_three():
    pool = pointed_pool(3)
    buckets = partition(pool)
    assert set(buckets) == set(CONDITIONS)
    assert buckets["2b"] == [] and buckets["2c"] == []
    assert buckets["1a"] == [p for p in pool if p.f == p.base.unit]
    assert len(buckets["2a"]) == 3


def test_partition_of_the_seeds_is_discrete():
    buckets = partition([seed_algebra(c) for c in CONDITIONS])
    assert all(len(buckets[c]) == 1 for c in CONDITIONS)


def test_no_pointed_embedding_crosses_conditions():
    assert cross_embedding_count(pointed_pool(4)) == 0


# --- decomposition -------------------------------------------------------


def test_decompose_splits_at_the_summand_holding_f():
    base, desc = nested_sum([com(1, 0), go(2)])
    p = PointedChain(base, desc.element_maps[0][0])
    assert condition_of(p) == "2b"
    outer, middle, inner = pointed_decompose(p)
    assert outer.size == 1
    assert iso_equal(middle.base, com(1, 0)) and middle.f == 0
    assert iso_equal(inner, go(2))


def test_decompose_puts_a_tail_point_in_the_tail():
    base, desc = nested_sum([com(0, 0), go(2)])
    p = PointedChain(base, desc.element_maps[1][0])
    assert condition_of(p) == "2a"
    outer, tail = pointed_decompose(p)
    assert iso_equal(outer, com(0, 0))
    assert iso_equal(tail.base, go(2)) and tail.f == 0


def test_decompose_of_a_seed_is_padded_with_trivial_ends():
    outer, middle, inner = pointed_decompose(seed_algebra("1b"))
    assert outer.size == 1 and inner.size == 1
    assert iso_equal(middle.base, com(0, 0)) and middle.f == 0


def test_decompose_rejects_the_unit_point():
    with pytest.raises(ConditionIsOneA):
        pointed_decompose(PointedChain(com(1, 1), com(1, 1).unit))


def test_decompose_round_trips_through_nested_sum():
    for p in pointed_pool(5):
        if condition_of(p) == "1a":
            continue
        parts = pointed_decompose(p)
        if len(parts) == 2:
            outer, tail = parts
            rebuilt, desc = nested_sum([outer, tail.base])
            newf = desc.element_maps[1][tail.f]
        else:
            outer, middle, inner = parts
            rebuilt, desc = nested_sum([outer, middle.base, inner])
            newf = desc.element_maps[1][middle.f]
        assert pointed_iso(PointedChain(rebuilt, newf), p)


# --- congruences and JSON ------------------------------------------------


def test_pointed_congruences_are_the_base_congruences():
    for p in (PointedChain(com(1, 1), 0), PointedChain(go(3), 2)):
        assert pointed_congruences(p) == congruences(p.base)


def test_pointed_json_round_trip():
    p = PointedChain(com(1, 0), 1)
    blob = p.to_json()
    assert blob["f"] == 1
    back = pointed_from_json(blob)
    assert back.f == 1
    assert canonical_signature(back.base) == canonical_signature(p.base)
    with pytest.raises(ValueError):
        pointed_from_json(p.base.to_json())
