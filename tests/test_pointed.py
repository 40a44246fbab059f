"""Pointed chains: the six-condition classifier, seeds, partition and
JSON."""

import pytest

from resichain import (
    CONDITIONS,
    PointedChain,
    canonical_signature,
    condition_of,
    cross_embedding_count,
    enumerate_pointed_embeddings,
    generated_pointed_subalgebra,
    partition,
    pointed_from_json,
    pointed_pool,
    seed_algebra,
)
from resichain.constructors import com, go
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


# --- JSON ----------------------------------------------------------------


def test_pointed_json_round_trip():
    p = PointedChain(com(1, 0), 1)
    blob = p.to_json()
    assert blob["f"] == 1
    back = pointed_from_json(blob)
    assert back.f == 1
    assert canonical_signature(back.base) == canonical_signature(p.base)
    with pytest.raises(ValueError):
        pointed_from_json(p.base.to_json())
