"""Acceptance gate. Ten checks, one per release criterion, each with its
own wall-clock budget. Run with -v to get one pass/fail line per
criterion."""

import random
import time

from resichain import (
    ELL,
    LEFT,
    R,
    RIGHT,
    STAR,
    UNIT,
    FiniteSupport,
    NoAP,
    Periodic,
    Refuted,
    as_leq,
    as_unary,
)
from resichain.amalgamation import (
    AmalgamResult,
    ShapeMismatch,
    amalgamate_components,
    find_amalgam,
    spans_over,
    verify_amalgam,
)
from resichain.classification import (
    all_sixty,
    ap_verdict,
    class_members,
    class_signatures,
    classify,
    hs_closure,
    parse_class,
    sig_in_class,
)
from resichain.constructors import com, go
from resichain.decomposition import count_chains, decompose
from resichain.pointed import (
    CONDITIONS,
    condition_of,
    cross_embedding_count,
    enumerate_pointed_embeddings,
    generated_pointed_subalgebra,
    partition,
    pointed_pool,
    seed_algebra,
)
from resichain.zchain import a, b
from resichain.selfcheck import (
    suite_counting,
    suite_decomposition,
    suite_embedding_criterion,
    suite_skeleton_contraction,
    window_residual_oracle,
)


def test_acceptance_01_sixty_classes_distinct_by_small_probes():
    t0 = time.monotonic()
    classes = all_sixty()
    assert len(classes) == 60
    assert len(set(classes)) == 60
    probes = [frozenset(class_signatures(cls, 9)) for cls in classes]
    for i in range(60):
        for j in range(i + 1, 60):
            assert probes[i] != probes[j], (
                classes[i].text(),
                classes[j].text(),
            )
    assert time.monotonic() - t0 < 10


def test_acceptance_02_every_small_span_amalgamates_inside_its_class():
    t0 = time.monotonic()
    total = 0
    constructive = 0
    for cls in all_sixty():
        members = class_members(cls, 6)
        pool = class_members(cls, 12)
        for span in spans_over(members):
            bound = span.B.size + span.C.size
            res = find_amalgam(span, lambda d: True, bound, one_sided=True, candidates=pool)
            detail = (cls.text(), span.i_B.image, span.i_C.image)
            assert isinstance(res, AmalgamResult), detail
            assert verify_amalgam(span, res), detail
            assert res.D.size <= bound, detail
            # the pool is the member list, but recheck the
            # certificate against the class definition anyway
            assert sig_in_class(decompose(res.D), cls), detail
            try:
                cons = amalgamate_components(span)
            except ShapeMismatch:
                cons = None
            if cons is not None:
                assert verify_amalgam(span, cons), detail
                assert cons.D.size <= bound, detail
                constructive += 1
            total += 1
    assert total > 70000
    assert constructive > 10000
    assert time.monotonic() - t0 < 1800


def test_acceptance_03_no_ap_witness_for_the_two_gap_closures():
    t0 = time.monotonic()
    verdict = ap_verdict(hs_closure([go(2)]))
    assert isinstance(verdict, NoAP)
    assert verdict.witness is not None
    assert verdict.witness.i_B.image == (0, 2)
    assert verdict.witness.i_C.image == (1, 2)
    assert verdict.refutation == Refuted(checked=3)
    assert verdict.as_dict()["witness_complete"] is True

    verdict = ap_verdict(hs_closure([com(0, 2)]))
    assert isinstance(verdict, NoAP)
    assert verdict.witness is not None
    assert isinstance(verdict.refutation, Refuted)
    assert time.monotonic() - t0 < 1


def test_acceptance_04_classifier_fixed_points():
    t0 = time.monotonic()
    assert classify(hs_closure([com(0, 0)])) == parse_class("fin:0,0,0")
    assert classify(hs_closure([com(1, 1)])) == parse_class("fin:1,0,1+e:1")
    assert classify(hs_closure([go(2)])) is None
    assert time.monotonic() - t0 < 1


def test_acceptance_05_enumeration_agrees_with_signature_counting(monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "7")
    expected = [1, 1, 2, 4, 8, 16, 32]
    assert [count_chains(n) for n in range(1, 8)] == expected
    # one check per size: table enumeration against the signature count
    assert suite_counting(7, 0, 1) == (7, [])
    assert time.monotonic() - t0 < 120


def test_acceptance_06_embedding_criterion_matches_the_definition(monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "7")
    # every injective map between idempotent chains of size <= 5
    pairs_checked, failures = suite_embedding_criterion(5, 0, 1)
    assert failures == []
    assert pairs_checked > 10000
    assert time.monotonic() - t0 < 60


def test_acceptance_07_symbolic_chain_star_involution_and_oracles():
    t0 = time.monotonic()
    rng = random.Random(0x5EED)

    def random_spec():
        if rng.random() < 0.5:
            support = frozenset(
                rng.randint(-(10**6), 10**6) for _ in range(rng.randint(0, 5))
            )
            return FiniteSupport(support)
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))
        return Periodic(bits, rng.randint(-4, 4))

    for _ in range(10**4):
        spec = random_spec()
        letter = a if rng.random() < 0.5 else b
        x = letter(rng.randint(-(10**6), 10**6))
        assert as_unary(spec, as_unary(spec, x, STAR), STAR) == x

    for _ in range(100):
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))
        spec = Periodic(bits, rng.randint(-4, 4))
        for i in range(-6, 7):
            for x in (a(i), b(i)):
                ell = window_residual_oracle(spec, x, UNIT, RIGHT)
                r = window_residual_oracle(spec, x, UNIT, LEFT)
                assert as_unary(spec, x, ELL) == ell, (spec, x)
                assert as_unary(spec, x, R) == r, (spec, x)
                star = ell if as_leq(ell, r) else r
                assert as_unary(spec, x, STAR) == star, (spec, x)
    assert time.monotonic() - t0 < 10


def test_acceptance_08_decomposition_round_trip_and_uniqueness(monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "7")
    # one check per commutative idempotent chain of size <= 7; the suite
    # also checks one signature per iso class and the count per size
    assert suite_decomposition(7, 0, 1) == (64, [])
    assert time.monotonic() - t0 < 60


def test_acceptance_09_interval_collapse_leaves_the_goedel_part():
    t0 = time.monotonic()
    # com(m, n) for m, n < 4, collapsing the interval from b0 to the top
    assert suite_skeleton_contraction(6, 0, 1) == (16, [])
    assert time.monotonic() - t0 < 1


def test_acceptance_10_pointed_partition_and_seed_generation():
    t0 = time.monotonic()
    pool = pointed_pool(5)
    buckets = partition(pool)
    assert sorted(buckets) == sorted(CONDITIONS)
    assert sum(len(v) for v in buckets.values()) == len(pool)
    assert cross_embedding_count(pool) == 0
    for p in pool:
        cond = condition_of(p)
        assert cond in CONDITIONS
        seed = seed_algebra(cond)
        generated = generated_pointed_subalgebra(p)
        assert generated.base.size == seed.base.size, (cond, p.f)
        assert enumerate_pointed_embeddings(generated, seed), (cond, p.f)
    assert time.monotonic() - t0 < 60
