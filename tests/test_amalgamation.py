"""Spans, exhaustive amalgam search and constructive amalgamators."""

import hashlib
import itertools
import random

import pytest

from resichain import (
    AmalgamResult,
    BoundExhausted,
    ChainMap,
    FiniteChain,
    InvalidSpan,
    Refuted,
    ShapeMismatch,
    Span,
    amalgamate_components,
    canonical_signature,
    decompose,
    enumerate_chains,
    enumerate_embeddings,
    find_amalgam,
    iso_equal,
    predicates,
    span_from_json,
    spans_over,
    verify_amalgam,
)
from resichain import _memo, amalgamation, morphisms
from resichain.morphisms import embedding_images
from resichain.classification import all_sixty, class_members, hs_closure, parse_class
from resichain.constructors import com, go
from resichain.selfcheck import (
    _component_pool,
    definitional_embedding,
    reference_find_amalgam,
    residual_tables,
    suite_component_amalgams,
)


def inclusion(a, b, image):
    return ChainMap(a, b, tuple(image))


def identity(a):
    return ChainMap(a, a, tuple(range(a.size)))


def is_goedel(chain):
    p = predicates(chain)
    if not (p.commutative and p.idempotent):
        return False
    return decompose(chain).pairs == ()


def crossing_goedel_span():
    """Go_1 into Go_2 twice, once at c_2 and once at c_1, so neither
    copy of Go_2 can absorb the other."""
    a, b = go(1), go(2)
    return Span(a, b, b, inclusion(a, b, (0, 2)), inclusion(a, b, (1, 2)))


# --- spans ---------------------------------------------------------------


def test_span_rejects_a_non_embedding_leg():
    a, b = go(1), go(2)
    with pytest.raises(InvalidSpan):
        Span(a, b, b, ChainMap(a, b, (2, 2)), inclusion(a, b, (1, 2)))


def test_span_rejects_maps_with_the_wrong_endpoints():
    a, b = go(1), go(2)
    ok = inclusion(a, b, (1, 2))
    with pytest.raises(InvalidSpan):
        Span(a, b, go(3), ok, ok)


def test_span_json_round_trip():
    span = crossing_goedel_span()
    blob = span.to_json()
    assert set(blob) == {"A", "B", "C", "iB", "iC"}
    back = span_from_json(blob)
    assert back.i_B.image == span.i_B.image
    assert back.i_C.image == span.i_C.image
    assert canonical_signature(back.A) == canonical_signature(span.A)


def test_spans_over_walks_every_span_once_in_order():
    chains = [c for n in range(1, 5) for c in enumerate_chains(n, ("commutative", "idempotent"))]
    tables = {c: residual_tables(c) for c in chains}

    def legs(a, b):
        return [
            image
            for image in itertools.combinations(range(b.size), a.size)
            if definitional_embedding(a, b, image, tables[a], tables[b])
        ]

    want = [
        (a, b, c, i_b, i_c)
        for a, b, c in itertools.product(chains, repeat=3)
        for i_b in legs(a, b)
        for i_c in legs(a, c)
    ]
    got = [(s.A, s.B, s.C, s.i_B.image, s.i_C.image) for s in spans_over(chains)]
    assert len(want) > len(chains) ** 2
    assert got == want


# --- exhaustive search ---------------------------------------------------


def test_search_crossing_span_needs_a_longer_goedel_chain():
    res = find_amalgam(crossing_goedel_span(), is_goedel, 4)
    assert isinstance(res, AmalgamResult)
    assert not res.one_sided
    assert iso_equal(res.D, go(3))
    assert verify_amalgam(crossing_goedel_span(), res)


def test_search_refutes_inside_a_complete_finite_class():
    allowed = {canonical_signature(go(k)) for k in range(3)}
    res = find_amalgam(
        crossing_goedel_span(),
        lambda d: canonical_signature(d) in allowed,
        3,
        one_sided=True,
        complete=True,
    )
    assert res == Refuted(checked=3)


def test_search_without_completeness_reports_the_bound():
    allowed = {canonical_signature(go(k)) for k in range(3)}
    res = find_amalgam(
        crossing_goedel_span(),
        lambda d: canonical_signature(d) in allowed,
        3,
        one_sided=True,
    )
    assert res == BoundExhausted(size_bound=3)


def test_search_identity_span_returns_the_base_chain():
    a = com(0, 1)
    span = Span(a, a, a, identity(a), identity(a))
    res = find_amalgam(span, lambda d: True, a.size)
    assert isinstance(res, AmalgamResult)
    assert iso_equal(res.D, a)
    assert verify_amalgam(span, res)


def test_search_rejects_a_bound_below_the_span():
    with pytest.raises(ValueError):
        find_amalgam(crossing_goedel_span(), lambda d: True, 2)


def test_refutation_is_stable_under_candidate_order():
    span = crossing_goedel_span()
    forward = [go(0), go(1), go(2)]
    backward = list(reversed(forward))
    runs = [
        find_amalgam(
            span, lambda d: True, 3, one_sided=True, complete=True,
            candidates=pool,
        )
        for pool in (forward, backward)
    ]
    assert runs[0] == runs[1] == Refuted(checked=3)


def test_two_sided_certificates_pass_the_one_sided_check():
    span = crossing_goedel_span()
    res = find_amalgam(span, is_goedel, 4)
    relaxed = AmalgamResult(D=res.D, j_B=res.j_B, j_C=res.j_C, one_sided=True)
    assert verify_amalgam(span, relaxed)


# --- constructive amalgamation -------------------------------------------


def test_components_merge_the_two_one_sided_extensions():
    a, b, c = com(0, 0), com(1, 0), com(0, 1)
    span = Span(a, b, c, inclusion(a, b, (1, 2, 3)), inclusion(a, c, (0, 1, 3)))
    res = amalgamate_components(span)
    assert iso_equal(res.D, com(1, 1))
    assert verify_amalgam(span, res)


def test_components_identity_inclusions_need_no_growth():
    a, b = go(1), go(2)
    f = inclusion(a, b, (1, 2))
    span = Span(a, b, b, f, f)
    res = amalgamate_components(span)
    assert iso_equal(res.D, go(2))
    assert res.j_B.image == res.j_C.image == (0, 1, 2)
    assert verify_amalgam(span, res)


def test_components_distinct_placements_stack_the_lower_chain():
    a, b = com(1, 0), com(2, 0)
    span = Span(a, b, b, inclusion(a, b, (1, 2, 3, 4)), inclusion(a, b, (0, 2, 3, 4)))
    res = amalgamate_components(span)
    sig = decompose(res.D)
    assert sig.p == 0 and len(sig.pairs) == 1
    assert sig.pairs[0][1] == 0 and sig.pairs[0][0] <= 3
    assert verify_amalgam(span, res)


def test_components_refuse_mixed_shapes():
    a = go(0)
    span = Span(
        a, go(1), com(0, 0),
        inclusion(a, go(1), (1,)),
        inclusion(a, com(0, 0), (1,)),
    )
    with pytest.raises(ShapeMismatch):
        amalgamate_components(span)


def test_trivial_summands_do_not_vote_on_the_shape():
    a = go(0)
    span = Span(
        a, a, com(0, 0), identity(a), inclusion(a, com(0, 0), (1,))
    )
    res = amalgamate_components(span)
    assert iso_equal(res.D, com(0, 0))
    assert verify_amalgam(span, res)
    all_trivial = Span(a, a, a, identity(a), identity(a))
    res = amalgamate_components(all_trivial)
    assert res.D.size == 1
    assert verify_amalgam(all_trivial, res)


def goedel_spans():
    a = go(1)
    for bq in (2, 3):
        for cq in (2, 3):
            b, c = go(bq), go(cq)
            for ib in enumerate_embeddings(a, b):
                for ic in enumerate_embeddings(a, c):
                    yield Span(a, b, c, ib, ic)


def two_sided_spans():
    a = com(0, 0)
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for bs in shapes:
        for cs in shapes:
            b, c = com(*bs), com(*cs)
            for ib in enumerate_embeddings(a, b):
                for ic in enumerate_embeddings(a, c):
                    yield Span(a, b, c, ib, ic)
    crossing = com(1, 0), com(2, 0)
    a, b = crossing
    for ib in enumerate_embeddings(a, b):
        for ic in enumerate_embeddings(a, b):
            yield Span(a, b, b, ib, ic)


def test_constructive_size_tracks_the_search_minimum():
    # certificates for spans of these shapes stay within the same family,
    # so family-restricted candidate pools see the true minimum
    go_pool = [go(k) for k in range(8)]
    com_pool = [com(r, s) for r in range(5) for s in range(5)]
    for span, pool in [(s, go_pool) for s in goedel_spans()] + [
        (s, com_pool) for s in two_sided_spans()
    ]:
        cons = amalgamate_components(span)
        assert verify_amalgam(span, cons)
        bound = span.B.size + span.C.size
        res = find_amalgam(span, lambda d: True, bound, candidates=pool)
        assert isinstance(res, AmalgamResult)
        assert verify_amalgam(span, res)
        assert cons.D.size <= res.D.size + 1


# --- remembered constructions -------------------------------------------


def constructed(span):
    """The construction body's result for span, or None for a ShapeMismatch."""
    try:
        return amalgamation._construct(span.A, span.B, span.C, span.i_B.image, span.i_C.image)
    except ShapeMismatch:
        return None


def remembered(span):
    try:
        return amalgamate_components(span)
    except ShapeMismatch:
        return None


def as_record(res):
    return res and (res.to_json(), res.D.labels)


def memo_spans():
    """Every span over the component suite's size-6 pool and over the
    commutative idempotent chains up to size 5."""
    yield from spans_over(_component_pool(6))
    yield from spans_over(class_members(parse_class("inf:w,w,w"), 5))


def test_remembered_constructions_equal_the_body_also_when_the_memo_starts_over():
    amalgamation._components.memo.clear()
    spans = list(memo_spans())
    want = [as_record(constructed(span)) for span in spans]
    assert len(spans) > 2000 and None in want
    # the second pass reads the first one's entries back; the third starts
    # over every 97 spans
    for clear_every in (None, None, 97):
        got = []
        for n, span in enumerate(spans):
            if clear_every and n % clear_every == 0:
                amalgamation._components.memo.clear()
            got.append(as_record(remembered(span)))
        assert got == want


def relabeled(chain, tag):
    return FiniteChain(chain.size, chain.unit, chain.mult, tuple(f"{tag}{x}" for x in chain.elements()))


def test_remembered_constructions_carry_the_callers_labels():
    a, b, c = com(0, 0), com(1, 0), com(0, 1)
    i_b, i_c = (1, 2, 3), (0, 1, 3)
    amalgamate_components(Span(a, b, c, inclusion(a, b, i_b), inclusion(a, c, i_c)))
    a2, b2, c2 = relabeled(a, "a"), relabeled(b, "b"), relabeled(c, "c")
    span = Span(a2, b2, c2, inclusion(a2, b2, i_b), inclusion(a2, c2, i_c))
    res = amalgamate_components(span)
    assert res.j_B.domain.labels == b2.labels
    assert res.j_C.domain.labels == c2.labels
    assert as_record(res) == as_record(constructed(span))
    assert verify_amalgam(span, res)


def test_a_mismatched_span_raises_on_every_call(monkeypatch):
    a = go(0)
    span = Span(a, go(1), com(0, 0), inclusion(a, go(1), (1,)), inclusion(a, com(0, 0), (1,)))
    amalgamation._components.memo.clear()
    builds = []
    construct = amalgamation._construct
    monkeypatch.setattr(amalgamation, "_construct", lambda *args: builds.append(args) or construct(*args))
    for _ in range(3):
        with pytest.raises(ShapeMismatch):
            amalgamate_components(span)
        # built once, then read back
        assert len(builds) == 1


def test_the_component_suite_leaves_the_memo_empty():
    amalgamation._components.memo.clear()
    checked, failures = suite_component_amalgams(5, 0, 1)
    assert checked > 0 and failures == []
    assert len(amalgamation._components.memo) == 0


# --- certificate verification --------------------------------------------


def test_verify_rejects_a_doctored_leg():
    span = crossing_goedel_span()
    res = find_amalgam(span, is_goedel, 4)
    broken = AmalgamResult(
        D=res.D,
        j_B=res.j_B,
        j_C=ChainMap(span.C, res.D, (0, 0, 3)),
        one_sided=False,
    )
    assert not verify_amalgam(span, broken)


def test_verify_rejects_a_commuting_square_violation():
    a, b = go(1), go(2)
    f = inclusion(a, b, (1, 2))
    span = Span(a, b, b, f, f)
    res = amalgamate_components(span)
    skewed = AmalgamResult(
        D=go(3),
        j_B=inclusion(b, go(3), (0, 1, 3)),
        j_C=inclusion(b, go(3), (1, 2, 3)),
        one_sided=False,
    )
    assert not verify_amalgam(span, skewed)
    assert verify_amalgam(span, res)


# --- the search against the plain reference scan -------------------------


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, AmalgamResult):
        assert canonical_signature(got.D) == canonical_signature(want.D)
        assert got.to_json() == want.to_json()
    else:
        assert got == want


def test_search_matches_the_reference_on_criterion_2_spans():
    rng = random.Random(2)
    compared = 0
    for cls in all_sixty():
        pool = class_members(cls, 12)
        spans = list(spans_over(class_members(cls, 6)))
        for span in rng.sample(spans, min(4, len(spans))):
            bound = span.B.size + span.C.size
            args = (span, lambda d: True, bound)
            got = find_amalgam(*args, one_sided=True, candidates=pool)
            want = reference_find_amalgam(*args, one_sided=True, candidates=pool)
            assert_same_outcome(got, want)
            compared += 1
    assert compared == 4 * 60 - 3  # e:0 has one span


def test_search_matches_the_reference_on_refuting_span_searches():
    rng = random.Random(3)
    chains = class_members(parse_class("inf:w,w,w"), 5)
    refuted = 0
    for _ in range(12):
        K = hs_closure(rng.sample(chains, 2))
        keys = {canonical_signature(c) for c in K.members}
        bound = max(c.size for c in K.members)

        def membership(d):
            return canonical_signature(d) in keys

        spans = list(spans_over(K.members))
        for span in rng.sample(spans, min(10, len(spans))):
            args = (span, membership, bound)
            kwargs = dict(one_sided=True, complete=True, candidates=list(K.members))
            got = find_amalgam(*args, **kwargs)
            want = reference_find_amalgam(*args, **kwargs)
            assert_same_outcome(got, want)
            refuted += isinstance(want, Refuted)
    assert refuted > 0


def test_search_matches_the_reference_on_a_shuffled_pool_with_repeats():
    rng = random.Random(4)
    members = class_members(parse_class("inf:1,w,1"), 8)
    relabeled = [
        FiniteChain(c.size, c.unit, c.mult, tuple(f"r{x}" for x in c.elements()))
        for c in members
    ]
    pool = list(members) + relabeled + list(members)
    spans = list(spans_over(class_members(parse_class("inf:1,w,1"), 4)))
    for _ in range(3):
        rng.shuffle(pool)
        for span in rng.sample(spans, 15):
            args = (span, lambda d: True, span.B.size + span.C.size)
            got = find_amalgam(*args, one_sided=True, candidates=pool)
            want = reference_find_amalgam(*args, one_sided=True, candidates=pool)
            assert_same_outcome(got, want)


def test_search_matches_the_reference_when_membership_rejects_candidates():
    rng = random.Random(5)
    pool = class_members(parse_class("inf:w,w,w"), 7)
    asked = []

    def no_tail_of_one(d):
        asked.append(d)
        return decompose(d).p != 1

    spans = list(spans_over(class_members(parse_class("inf:w,w,w"), 4)))
    for span in rng.sample(spans, 40):
        bound = max(span.B.size + span.C.size - 1, span.B.size, span.C.size)
        for one_sided in (True, False):
            kwargs = dict(one_sided=one_sided, complete=True, candidates=pool)
            want = reference_find_amalgam(span, no_tail_of_one, bound, **kwargs)
            asked.clear()
            got = find_amalgam(span, no_tail_of_one, bound, **kwargs)
            assert_same_outcome(got, want)
            # membership is asked about each candidate reached, and no other
            last = (bound, b"\xff")
            if isinstance(got, AmalgamResult):
                last = (got.D.size, got.D.signature)
            reached = [d for d in pool.canonical if (d.size, d.signature) <= last]
            assert asked == reached


def test_two_sided_search_matches_the_reference():
    rng = random.Random(6)
    for text in ("inf:w,w,w", "fin:1,w,1", "e:w"):
        pool = class_members(parse_class(text), 9)
        spans = list(spans_over(class_members(parse_class(text), 5)))
        for span in rng.sample(spans, min(20, len(spans))):
            args = (span, lambda d: True, span.B.size + span.C.size)
            got = find_amalgam(*args, candidates=pool)
            want = reference_find_amalgam(*args, candidates=pool)
            assert_same_outcome(got, want)


# --- pinned criterion-2 certificates -------------------------------------


def criterion_2_sample():
    """A seeded sample of criterion 2's spans, as (class index, A, B, C,
    i_B image, i_C image): about 2,000 of the 71,236, drawn from each
    class in proportion, at least one per class, then shuffled together."""
    rng = random.Random(19)
    sample = []
    for ci, cls in enumerate(all_sixty()):
        members = class_members(cls, 6)
        spans = []
        for a in members:
            for b in members:
                legs_b = embedding_images(a, b)
                if not legs_b:
                    continue
                for c in members:
                    legs_c = embedding_images(a, c)
                    spans.extend((ci, a, b, c, i_b, i_c) for i_b in legs_b for i_c in legs_c)
        sample += rng.sample(spans, max(1, round(len(spans) * 2000 / 71236)))
    rng.shuffle(sample)
    return sample


def criterion_2_digest(sample, pools, clear_every=None, clear=lambda: morphisms._VERDICTS.clear()):
    """SHA-256 over the sample's spans, their search certificates and
    their constructive amalgams, after the gate's checks on each one;
    clear() runs every clear_every spans."""
    digest = hashlib.sha256()
    for n, (ci, a, b, c, i_b, i_c) in enumerate(sample):
        if clear_every and n % clear_every == 0:
            clear()
        span = Span(a, b, c, ChainMap(a, b, i_b), ChainMap(a, c, i_c))
        bound = b.size + c.size
        res = find_amalgam(span, lambda d: True, bound, one_sided=True, candidates=pools[ci])
        assert isinstance(res, AmalgamResult) and verify_amalgam(span, res)
        try:
            cons = amalgamate_components(span)
        except ShapeMismatch:
            cons = None
        else:
            assert verify_amalgam(span, cons)
        record = [(ci, a.signature, b.signature, c.signature, i_b, i_c)]
        for r in (res, cons):
            record.append(r and (r.D.signature, r.D.labels, r.j_B.image, r.j_C.image))
        digest.update(repr(record).encode())
    return digest.hexdigest()


# criterion_2_digest(criterion_2_sample(), ...) before map verdicts were
# remembered
CRITERION_2_SAMPLE_DIGEST = "0d89aba068b3e5c41f8b61b758c0016fb7bd32f333a9b08d6702d7b3605984f7"


def test_criterion_2_certificates_match_the_pinned_digest():
    # the gate checks that certificates are valid; this pins which ones
    # the search and the zipper return, also while the verdict table
    # keeps starting over
    sample = criterion_2_sample()
    assert len(sample) == 2011 and len({s[0] for s in sample}) == 60
    pools = [class_members(cls, 12) for cls in all_sixty()]
    assert criterion_2_digest(sample, pools) == CRITERION_2_SAMPLE_DIGEST
    assert criterion_2_digest(sample, pools, clear_every=100) == CRITERION_2_SAMPLE_DIGEST


@pytest.mark.parametrize(
    "memo, clear_every",
    [(amalgamation._components.memo, 100), (amalgamation._LEGS, 7), (amalgamation._NON_HOSTS, 7)],
    ids=["_components", "_LEGS", "_NON_HOSTS"],
)
def test_criterion_2_constructions_match_the_pinned_digest_while_the_memo_starts_over(memo, clear_every):
    # with _LEGS cleared alone, find_amalgam meets yes bits whose legs are
    # gone and must work them out again
    sample = criterion_2_sample()
    pools = [class_members(cls, 12) for cls in all_sixty()]
    assert criterion_2_digest(sample, pools, clear_every, memo.clear) == CRITERION_2_SAMPLE_DIGEST


def test_criterion_2_certificates_match_the_pinned_digest_while_the_table_starts_over(
    monkeypatch, memo_restarts
):
    # both runs reuse pools numbered before the restarts, whose bits still
    # name the same chains
    sample = criterion_2_sample()
    pools = [class_members(cls, 12) for cls in all_sixty()]
    table = amalgamation._SPANS
    assert criterion_2_digest(sample, pools, 100, table.clear) == CRITERION_2_SAMPLE_DIGEST
    assert memo_restarts(table) == 21
    # at a limit of 16 entries the table fills and starts over on its own,
    # also in the middle of a search
    monkeypatch.setattr(_memo, "LIMIT", 16)
    start = memo_restarts(table)
    assert criterion_2_digest(sample, pools) == CRITERION_2_SAMPLE_DIGEST
    assert memo_restarts(table) - start > 100


def test_criterion_2_certificates_match_the_pinned_digest_while_every_memo_starts_over(
    monkeypatch, memo_restarts
):
    # every memo starts over together every 37 spans; then each starts over
    # on its own at a limit of 16 entries, the three parts of the completion
    # table among them, while pools hold bits from before
    sample = criterion_2_sample()
    pools = [class_members(cls, 12) for cls in all_sixty()]
    assert criterion_2_digest(sample, pools, 37, _memo.clear) == CRITERION_2_SAMPLE_DIGEST
    monkeypatch.setattr(_memo, "LIMIT", 16)
    start = memo_restarts(amalgamation._SPANS)
    assert criterion_2_digest(sample, pools) == CRITERION_2_SAMPLE_DIGEST
    assert memo_restarts(amalgamation._SPANS) - start > 100
