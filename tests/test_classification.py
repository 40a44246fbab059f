"""The sixty-class catalogue, membership, HS-closure, the classifier,
the closure-rule audit, and AP verdicts."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from resichain import (
    TRIVIAL,
    CanonicalClass,
    ChainClass,
    HasAP,
    NoAP,
    NotHSClosed,
    NotIdempotent,
    OMEGA,
    Refuted,
    all_sixty,
    ap_verdict,
    canonical_order,
    canonical_signature,
    class_members,
    class_signatures,
    classify,
    closure_rule_violations,
    count_chains,
    decompose,
    enumerate_chains,
    find_refuting_span,
    hs_closure,
    is_embedding,
    iso_equal,
    member_of,
    parse_class,
    sig_in_class,
)
from resichain import _memo, amalgamation, classification
from resichain.amalgamation import (
    AmalgamResult,
    CandidatePool,
    _completion,
    find_amalgam,
    spans_over,
)
from resichain.chain import _INTERNED, FiniteChain, validate
from resichain.classification import _AUDIT_SIZE_CAP
from resichain.constructors import com, go, nested_sum
from resichain.selfcheck import (
    _hs_closed_sets,
    brute_is_chain,
    reference_closure_rule_violations,
    reference_find_amalgam,
    reference_find_refuting_span,
    reference_hs_closure,
    reference_hs_step,
    suite_ap_verdict,
)


def sig_keys(chains):
    return {canonical_signature(c) for c in chains}


# --- the catalogue -------------------------------------------------------


def test_the_catalogue_has_sixty_distinct_entries():
    classes = all_sixty()
    assert len(classes) == 60
    assert len(set(classes)) == 60
    by_family = {}
    for cls in classes:
        by_family[cls.family] = by_family.get(cls.family, 0) + 1
    assert by_family == {"e": 3, "fin": 18, "inf": 18, "fin+e": 15, "inf+e": 6}


def test_the_catalogue_order_is_pinned():
    # seeded draws (the benchmark's among them) consume this order
    assert [cls.text() for cls in all_sixty()] == [
        "e:0", "e:1", "e:w",
        "fin:0,0,0", "fin:0,0,1", "fin:0,0,w", "fin:0,1,0", "fin:0,1,1", "fin:0,1,w",
        "fin:0,w,0", "fin:0,w,1", "fin:0,w,w", "fin:1,1,0", "fin:1,1,1", "fin:1,1,w",
        "fin:1,w,0", "fin:1,w,1", "fin:1,w,w", "fin:w,w,0", "fin:w,w,1", "fin:w,w,w",
        "inf:0,0,0", "inf:0,0,1", "inf:0,0,w", "inf:0,1,0", "inf:0,1,1", "inf:0,1,w",
        "inf:0,w,0", "inf:0,w,1", "inf:0,w,w", "inf:1,1,0", "inf:1,1,1", "inf:1,1,w",
        "inf:1,w,0", "inf:1,w,1", "inf:1,w,w", "inf:w,w,0", "inf:w,w,1", "inf:w,w,w",
        "fin:0,0,0+e:1", "fin:0,0,1+e:1", "fin:0,0,w+e:1",
        "fin:0,0,0+e:w", "fin:0,0,1+e:w", "fin:0,0,w+e:w",
        "fin:1,0,0+e:1", "fin:1,0,1+e:1", "fin:1,0,w+e:1",
        "fin:1,0,0+e:w", "fin:1,0,1+e:w", "fin:1,0,w+e:w",
        "fin:w,0,0+e:w", "fin:w,0,1+e:w", "fin:w,0,w+e:w",
        "inf:0,0,0+e:1", "inf:0,0,0+e:w", "inf:0,0,1+e:1",
        "inf:0,0,1+e:w", "inf:0,0,w+e:1", "inf:0,0,w+e:w",
    ]


def test_class_text_round_trips_through_parse():
    for cls in all_sixty():
        assert parse_class(cls.text()) == cls


def test_parse_rejects_malformed_class_text():
    for text in (
        "fin:1,0",
        "fin:1,1,0+e:1",
        "e:2",
        "inf:1,0,0+e:1",
        "blob:0",
        "fin:0,0,0+e:0",
    ):
        with pytest.raises(ValueError):
            parse_class(text)


def test_parse_names_a_class_text_whose_parameter_is_no_number():
    # int()'s own message would name only the parameter, not the text
    for text in ("nope", "e:", "inf:a,b,c", "e:w:1", "fin:1,0,1+e:x"):
        with pytest.raises(ValueError) as err:
            parse_class(text)
        assert str(err.value) == f"unrecognized class syntax: {text!r}"


def test_class_parameters_are_validated():
    with pytest.raises(ValueError):
        CanonicalClass("fin", m=OMEGA, n=0, p=0)  # p below m
    with pytest.raises(ValueError):
        CanonicalClass("e", m=0, p=0)  # stray parameter
    with pytest.raises(ValueError):
        CanonicalClass("fin+e", m=0, n=0, p=0)  # union tail needs p >= 1
    with pytest.raises(ValueError):
        CanonicalClass("fin", m=2, n=0, p=2)  # parameters live in {0,1,w}


def test_finite_classes_know_their_largest_member():
    cls = parse_class("fin:1,1,1")
    assert cls.is_finite and cls.max_member_size == 6
    assert not parse_class("inf:0,0,0").is_finite
    assert parse_class("e:1").max_member_size == 2


# --- membership ----------------------------------------------------------


def test_membership_frozen_examples():
    stacked_tail = nested_sum([com(1, 0), go(2)])
    assert member_of(stacked_tail, parse_class("fin:1,w,0"))
    double = nested_sum([com(0, 0), com(0, 0)])
    assert not member_of(double, parse_class("fin:w,w,w"))
    tower = nested_sum([com(0, 0), com(0, 0), go(1)])
    assert member_of(tower, parse_class("inf:0,1,0"))


def test_sig_in_class_matches_member_of_on_small_chains():
    pool = []
    for n in range(1, 6):
        pool.extend(enumerate_chains(n, ("commutative", "idempotent")))
    for cls in all_sixty():
        for chain in pool:
            assert sig_in_class(decompose(chain), cls) == member_of(chain, cls)


def test_class_members_agree_with_a_direct_membership_scan():
    chains = [c for n in range(1, 8) for c in enumerate_chains(n, ("commutative", "idempotent"))]
    for cls in all_sixty():
        listed = sig_keys(class_members(cls, 7))
        scanned = {canonical_signature(c) for c in chains if member_of(c, cls)}
        assert listed == scanned, cls.text()


def test_the_widest_class_lists_every_signature():
    for n in range(1, 17):
        assert len(class_signatures(parse_class("inf:w,w,w"), n)) == sum(
            count_chains(k) for k in range(1, n + 1)
        )


def test_a_narrow_class_walks_few_signatures(monkeypatch):
    # e:w has 16 members up to size 16, out of 2^16 - 1 signatures
    calls = []
    test = classification.sig_in_class

    def counted(sig, cls):
        calls.append(sig)
        return test(sig, cls)

    monkeypatch.setattr(classification, "sig_in_class", counted)
    assert len(class_signatures(parse_class("e:w"), 16)) == 16
    assert len(calls) < 1000


# --- HS-closure ----------------------------------------------------------


def decomposed(chains):
    return frozenset(decompose(c) for c in chains)


def test_hs_closure_frozen_examples():
    got = hs_closure([com(1, 1)])
    want = [TRIVIAL, go(1), com(0, 0), com(1, 0), com(0, 1), com(1, 1)]
    assert got.signatures() == decomposed(want)
    assert hs_closure([go(2)]).signatures() == decomposed([TRIVIAL, go(1), go(2)])
    assert hs_closure([TRIVIAL]).signatures() == decomposed([TRIVIAL])


def test_hs_closure_is_idempotent():
    first = hs_closure([com(1, 1), go(2)])
    again = hs_closure(first.members)
    assert again.signatures() == first.signatures()
    assert first.is_hs_closed()


def labels_of(chains):
    return {label for c in chains for label in c.labels}


def test_hs_closure_keeps_the_labels_of_each_variant():
    # equal verdict parts are shared records; a relabeled generator must
    # still get a closure and a witness that carry its own labels
    for plain in (com(1, 1), go(2)):
        renamed = validate(
            plain.size, plain.unit, plain.mult, labels=[f"x{i}" for i in range(plain.size)]
        )
        assert renamed == plain
        ap_verdict(hs_closure([plain]))
        K = hs_closure([renamed])
        assert K == hs_closure([plain]) and K is not hs_closure([plain])
        labels = labels_of(K.members)
        assert labels and all(set(label) <= set("x0123456789[ ]") for label in labels)
    witness = ap_verdict(K).witness
    plain_witness = ap_verdict(hs_closure([go(2)])).witness
    assert witness == plain_witness and witness is not plain_witness
    assert labels_of((witness.A, witness.B, witness.C)) <= labels


def test_equal_verdicts_share_their_records():
    K = hs_closure([com(0, 2)])
    assert hs_closure([com(0, 2)]) is K
    first, second = ap_verdict(K), ap_verdict(hs_closure([com(0, 2)]))
    assert isinstance(first, NoAP) and first.witness is not None
    assert first.audit is second.audit
    assert first.witness is second.witness
    assert first.refutation is second.refutation
    # a label variant takes the records over and builds its witness on its
    # own chains, which a set of the variant's very chains shares
    variant = hs_closure([relabeled(com(0, 2), "t")])
    assert variant == K and variant is not K
    third = ap_verdict(variant)
    assert third.audit is first.audit and third.refutation is first.refutation
    assert third.witness == first.witness and third.witness is not first.witness
    fourth = ap_verdict(ChainClass(variant.members))
    assert fourth.audit is first.audit and fourth.witness is third.witness
    cls = parse_class("fin:1,0,1+e:1")
    has_ap = ap_verdict(hs_closure(class_members(cls)))
    assert has_ap is ap_verdict(hs_closure(class_members(cls)))
    assert has_ap is ap_verdict(hs_closure(relabeled(c, "t") for c in class_members(cls)))
    # a set built without hs_closure gets an equal verdict of its own
    assert has_ap == ap_verdict(ChainClass(class_members(cls)))


def test_every_canonical_class_is_hs_closed_at_bounded_scale():
    for cls in all_sixty():
        assert ChainClass(class_members(cls, 8)).is_hs_closed()


def test_is_hs_closed_matches_the_reference_closure_on_every_small_set():
    # is_hs_closed skips the members that a larger member's closure
    # covers; every set of the chains up to size 4, whatever it skips, must
    # be judged as the reference closure of all its members judges it
    chains = [c for n in range(1, 5) for c in enumerate_chains(n, ("commutative", "idempotent"))]
    closed = 0
    for r in range(len(chains) + 1):
        for subset in combinations(chains, r):
            K = ChainClass(subset)
            want = bool(subset) and reference_hs_closure(subset).signatures() == K.signatures()
            assert K.is_hs_closed() == want
            closed += want
    assert 2 ** len(chains) == 256 and closed == 30


def test_the_sixty_signature_sets_at_size_nine_are_distinct():
    sigs = [frozenset(class_signatures(cls, 9)) for cls in all_sixty()]
    assert len(set(sigs)) == 60


def test_smallest_fin_class_has_exactly_two_signatures():
    got = {
        (s.pairs, s.p) for s in class_signatures(parse_class("fin:0,0,0"), 9)
    }
    assert got == {((), 0), (((0, 0),), 0)}


# --- the classifier ------------------------------------------------------


def test_classifier_fixed_points():
    assert classify(hs_closure([com(0, 0)])) == parse_class("fin:0,0,0")
    assert classify(hs_closure([com(1, 1)])) == parse_class("fin:1,0,1+e:1")
    assert classify(hs_closure([go(2)])) is None


def test_classifier_accepts_every_finite_canonical_class():
    for cls in all_sixty():
        if not cls.is_finite:
            continue
        K = ChainClass(class_members(cls, cls.max_member_size))
        assert classify(K) == cls


def small_closed_sets() -> list:
    """Every non-empty HS-closed set of commutative idempotent chains of
    size <= 5."""
    chains = []
    for n in range(1, 6):
        chains.extend(enumerate_chains(n, ("commutative", "idempotent")))
    return [ChainClass(members) for members in _hs_closed_sets(chains)]


def relabeled(chain, prefix: str):
    return validate(
        chain.size, chain.unit, chain.mult, labels=[f"{prefix}{i}" for i in range(chain.size)]
    )


def seeded_generators() -> list:
    """25 lists of 1-3 chains of size <= 6 whose first chain is
    relabeled."""
    rng = random.Random(7)
    chains = class_members(parse_class("inf:w,w,w"), 6)
    lists = []
    for _ in range(25):
        first, *rest = rng.sample(chains, rng.randint(1, 3))
        lists.append([relabeled(first, "r"), *rest])
    return lists


def seeded_closures() -> list:
    """The closures of seeded_generators."""
    return [hs_closure(generators) for generators in seeded_generators()]


def test_classifier_agrees_with_the_span_search_up_to_size_five():
    # classified exactly when no span over the set is refuted
    assert suite_ap_verdict(5, 0, 1) == (643, [])
    classified = [classify(K) for K in small_closed_sets()]
    assert sum(cls is not None for cls in classified) == 11


def refutation(result):
    """A span search's answer as a caller sees it: the witness, the labels
    of its chains, and the number of candidates it refuted."""
    span, refuted = result
    if span is None:
        assert refuted is None
        return None
    return span.to_json(), [c.labels for c in (span.A, span.B, span.C)], refuted.checked


def assert_refutes_like_the_reference(K) -> bool:
    """find_refuting_span against the plain spans_over + find_amalgam
    scan: the same witness, with the same labels, and the same count."""
    want = refutation(reference_find_refuting_span(K))
    assert refutation(find_refuting_span(K)) == want
    return want is not None


@pytest.fixture(scope="module")
def small_sets_and_answers():
    """The 643 sets of small_closed_sets, then each again with every
    member relabeled, and the reference span search's answer for each."""
    sets = small_closed_sets()
    sets += [ChainClass(relabeled(c, "v") for c in K.members) for K in sets]
    return sets, [refutation(reference_find_refuting_span(K)) for K in sets]


def test_span_search_matches_the_reference_up_to_size_five(small_sets_and_answers):
    sets, want = small_sets_and_answers
    assert [refutation(find_refuting_span(K)) for K in sets] == want
    assert len(sets) == 2 * 643 and sum(w is not None for w in want[:643]) == 643 - 11


def test_span_search_matches_the_reference_on_relabeled_closures():
    assert sum(assert_refutes_like_the_reference(K) for K in seeded_closures()) > 0


def test_the_codomain_completes_every_span_out_of_the_trivial_chain():
    # why find_refuting_span skips a one-element A: D = B completes the
    # span, with j_B the identity and j_C mapping all of C to the unit
    chains = [c for n in range(1, 6) for c in enumerate_chains(n)]
    assert len(chains) == 104
    for B in chains:
        for C in chains:
            assert _completion(B, (B.unit,), C, (C.unit,), B, True) is not None


def test_a_member_completes_every_span_with_a_leg_out_of_its_codomain():
    # why find_refuting_span skips a span whose B or C is A: the plain
    # search finds a one-sided completion among K's members for each
    spans = 0
    for K in small_closed_sets() + seeded_closures():
        bound = max(c.size for c in K.members)
        for span in spans_over(K.members):
            if span.B is span.A or span.C is span.A:
                got = reference_find_amalgam(
                    span, lambda d: True, bound, one_sided=True, complete=True,
                    candidates=K.members,
                )
                assert isinstance(got, AmalgamResult)
                spans += 1
    assert spans == 48730


def test_span_search_does_not_depend_on_the_sets_searched_before(
    monkeypatch, small_sets_and_answers
):
    # span completions are remembered across calls under chain
    # signatures, so every set is asked in three orders, and again while
    # the shared tables keep starting over
    sets, want = small_sets_and_answers
    forward = list(range(len(sets)))
    orders = (forward, forward[::-1], random.Random(11).sample(forward, len(forward)))
    for limit in (_memo.LIMIT, 100):
        monkeypatch.setattr(_memo, "LIMIT", limit)
        for order in orders:
            got = [refutation(find_refuting_span(sets[i])) for i in order]
            assert got == [want[i] for i in order]


def clear_completion_table():
    for memo in (amalgamation._SPANS, amalgamation._NON_HOSTS):
        memo.clear()


def test_both_span_searches_share_one_completion_table():
    # find_refuting_span and the one-sided find_amalgam read and write the
    # same table. In either order, the second search reads what the first
    # wrote, and both still match their references. The first spans in
    # spans_over order are the ones find_refuting_span decides on its way.
    rng = random.Random(23)
    compared = refuted = 0
    for K in seeded_closures():
        want = refutation(reference_find_refuting_span(K))
        spans = [span for span in spans_over(K.members) if span.A.size > 1]
        picked = spans[:30] + rng.sample(spans, min(20, len(spans)))
        bound = max(c.size for c in K.members)
        pool = CandidatePool(K.members)
        for refuting_first in (True, False):
            clear_completion_table()
            if refuting_first:
                assert refutation(find_refuting_span(K)) == want
            for i, span in enumerate(picked):
                args = (span, lambda d: True, bound)
                candidates = pool if i % 2 else K.members
                kwargs = dict(one_sided=True, complete=True, candidates=candidates)
                got = find_amalgam(*args, **kwargs)
                expected = reference_find_amalgam(*args, **kwargs)
                if isinstance(expected, AmalgamResult):
                    assert got.to_json() == expected.to_json()
                    assert got.D.labels == expected.D.labels
                else:
                    assert got == expected
                    refuted += 1
                compared += 1
            if not refuting_first:
                assert refutation(find_refuting_span(K)) == want
    assert compared > 1000 and refuted > 0


def test_a_chain_class_keeps_its_members_in_canonical_order():
    # the span search and the audit scan K.members as they are, so the
    # constructor must canonicalize them
    rng = random.Random(5)
    for K in seeded_closures():
        pool = [*K.members, *(relabeled(c, "x") for c in K.members), *K.members]
        chains = rng.sample(pool, len(pool))
        direct = ChainClass(members=chains)
        firsts = {}
        for c in chains:
            firsts.setdefault(c.signature, c)
        assert direct.members == tuple(canonical_order(chains))
        assert all(c is firsts[c.signature] for c in direct.members)


def below_first(size, unit):
    """The idempotent commutative chain whose product is the factor that
    comes first in the order 0, 1, ..., unit - 1, top, top - 1, ..., unit:
    min below the unit, max above it, and the lower factor across it."""
    rank = list(range(size))
    rank[unit:] = range(size - 1, unit - 1, -1)

    def first(x, y):
        return x if rank[x] <= rank[y] else y

    mult = tuple(tuple(first(x, y) for y in range(size)) for x in range(size))
    return FiniteChain(size, unit, mult)


def test_canonical_order_is_size_then_signature_order():
    # canonical_order sorts on the signature alone; its encoding puts the
    # size first, in one byte below 256 and in four bytes from 256 up
    assert all(validate(6, u, below_first(6, u).mult) == below_first(6, u) for u in range(1, 6))
    chains = [c for n in range(1, 6) for c in enumerate_chains(n)]
    chains += [below_first(n, unit) for n in (255, 256, 300) for unit in (1, n // 2, n - 1)]
    random.Random(3).shuffle(chains)
    got = canonical_order(chains)
    assert got == sorted(chains, key=lambda d: (d.size, d.signature))
    assert [d.size for d in got][-9:] == [255] * 3 + [256] * 3 + [300] * 3


def test_classifier_requires_a_closed_input():
    with pytest.raises(NotHSClosed):
        classify(ChainClass([com(1, 1)]))
    with pytest.raises(NotHSClosed):
        ap_verdict(ChainClass([go(2), TRIVIAL]))


# --- closure-rule audit --------------------------------------------------


def test_rule_audit_flags_the_capped_upper_side():
    violations = closure_rule_violations(hs_closure([com(0, 2)]))
    hits = [v for v in violations if v.rule == "iv"]
    assert hits and hits[0].missing.text() == "C(0,3)"
    blob = hits[0].as_dict()
    assert set(blob) == {"rule", "statement", "premises", "missing"}
    assert blob["missing"] == "C(0,3)"
    assert any("C(0,2)" in p for p in blob["premises"])


def test_rule_audit_flags_the_short_tail():
    violations = closure_rule_violations(hs_closure([go(2)]))
    assert violations[0].rule == "i"
    assert violations[0].missing.text() == "Go_3"


STACK = "C(0,0) ⊞ C(0,0)"


@pytest.mark.parametrize(
    "rule, generators, premises, missing",
    [
        ("i", [go(2)], ("Go_2",), [f"Go_{q}" for q in range(3, 9)]),
        ("ii", [nested_sum([com(0, 0), com(0, 0)])], (STACK,),
         [f"{STACK} ⊞ C(0,0)", f"{STACK} ⊞ C(0,0) ⊞ C(0,0)"]),
        ("iii", [com(2, 0)], ("C(2,0)",),
         ["Go_3", "Go_4", "Go_5", "C(3,0)", "Go_6", "C(4,0)", "Go_7", "C(5,0)", "Go_8",
          "C(6,0)"]),
        ("iv", [com(0, 2)], ("C(0,2)",), ["C(0,3)", "C(0,4)", "C(0,5)", "C(0,6)"]),
        ("v", [com(1, 0), com(0, 1)], ("C(1,0)", "C(0,1)"), ["C(1,1)"]),
    ],
)
def test_rule_audit_lists_every_missing_conclusion_up_to_the_cap(
    rule, generators, premises, missing
):
    hits = [v for v in closure_rule_violations(hs_closure(generators)) if v.rule == rule]
    assert [v.missing.text() for v in hits] == missing
    assert all(v.premises == premises for v in hits)
    if rule != "v":
        # the growing rules stop exactly at the cap
        assert hits[-1].missing.size == _AUDIT_SIZE_CAP == 9


def test_rule_audit_does_not_depend_on_the_sets_audited_before():
    # the instance lists are remembered per signature, so every set is
    # audited with the lists built afresh, again, and in reverse order
    sets = small_closed_sets() + seeded_closures()
    classification._instances.memo.clear()
    cold = [[v.as_dict() for v in closure_rule_violations(K)] for K in sets]
    warm = [[v.as_dict() for v in closure_rule_violations(K)] for K in sets]
    again = [[v.as_dict() for v in closure_rule_violations(K)] for K in reversed(sets)]
    assert warm == cold and again[::-1] == cold


def test_rule_audit_matches_the_reference_audit():
    # the indexed audit against a plain reading of the seven rules,
    # premises included
    sets = small_closed_sets() + seeded_closures()
    sets += [ChainClass(relabeled(c, "v") for c in K.members) for K in sets]
    for K in sets:
        got = [v.as_dict() for v in closure_rule_violations(K)]
        assert got == [v.as_dict() for v in reference_closure_rule_violations(K)]


# SHA-256 of the audits below, taken from the per-set audit that the
# per-signature instance lists replaced: rule order, missing signatures,
# premises and texts must all stay as they were
AUDIT_DIGEST = "3d45a53afdaa59c34bc8c3325e6aa9e267deadf342220be6be11689f6c2801af"


def test_rule_audits_match_the_pinned_digest():
    sets = small_closed_sets() + seeded_closures()
    sets += [ChainClass(relabeled(c, "v") for c in K.members) for K in sets]
    audits = [[v.as_dict() for v in closure_rule_violations(K)] for K in sets]
    blob = json.dumps(audits, ensure_ascii=False, sort_keys=True).encode()
    assert len(sets) == 2 * (643 + 25) and sum(map(len, audits)) == 28470
    assert hashlib.sha256(blob).hexdigest() == AUDIT_DIGEST


def test_rule_audit_is_clean_on_every_canonical_class():
    for cls in all_sixty():
        K = ChainClass(class_members(cls, 9))
        assert closure_rule_violations(K) == ()


# --- AP verdicts ---------------------------------------------------------


def test_verdict_reports_the_class_when_it_classifies():
    verdict = ap_verdict(hs_closure([com(1, 1)]))
    assert isinstance(verdict, HasAP)
    assert verdict.as_dict() == {"ap": True, "class": "fin:1,0,1+e:1"}


def test_verdict_refutes_the_short_goedel_class_with_a_span():
    verdict = ap_verdict(hs_closure([go(2)]))
    assert isinstance(verdict, NoAP)
    assert verdict.refutation == Refuted(checked=3)
    span = verdict.witness
    assert iso_equal(span.A, go(1))
    assert iso_equal(span.B, go(2)) and iso_equal(span.C, go(2))
    assert span.i_B.image == (0, 2) and span.i_C.image == (1, 2)
    blob = verdict.as_dict()
    assert blob["ap"] is False and blob["witness_complete"] is True
    assert any(v["rule"] == "i" for v in blob["audit"])


def test_verdict_refutes_the_capped_upper_side_class():
    verdict = ap_verdict(hs_closure([com(0, 2)]))
    assert isinstance(verdict, NoAP)
    assert any(v.rule == "iv" for v in verdict.audit)
    assert verdict.witness is not None
    assert isinstance(verdict.refutation, Refuted)


# SHA-256 of the verdicts of the size-14 and size-16 generators below,
# taken before the span search skipped the spans whose B or C is A
LARGE_VERDICTS_DIGEST = "68d094aa94b50ed68c78cb6a92c895ee0bdebede94bc41dbb24a8400b5ab8bc1"


def test_the_verdicts_of_two_large_closures_match_the_pinned_digest():
    records = []
    for tail, size in ((2, 159), (4, 265)):
        K = hs_closure([nested_sum([com(0, 0), com(2, 2), com(1, 0), go(tail)])])
        assert len(K.members) == size
        records.append(verdict_record(ap_verdict(K)))
    blob = json.dumps(records, ensure_ascii=False, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LARGE_VERDICTS_DIGEST


def test_every_interned_table_is_a_chain():
    # the table search and _restrict intern their tables without checking
    # them; an oracle that shares no code with either reads every table back
    for n in range(1, 8):
        enumerate_chains(n)
    for generators in seeded_generators():
        hs_closure(generators)
    hs_closure([nested_sum([com(0, 0), com(2, 2), com(1, 0), go(2)])])
    tables = list(_INTERNED)
    assert len(tables) > 4687
    assert [table for table in tables if not brute_is_chain(*table)] == []


# --- what a closure remembers --------------------------------------------


@pytest.fixture(scope="module")
def closures():
    """hs_closure of the 643 small HS-closed sets and of their relabeled
    copies, then the 25 seeded closures."""
    small = small_closed_sets()
    small += [ChainClass(relabeled(c, "v") for c in K.members) for K in small]
    return [hs_closure(K.members) for K in small] + seeded_closures()


def verdict_record(verdict) -> list:
    """A verdict as a caller reads it, witness labels and count included."""
    record = [verdict.as_dict()]
    if isinstance(verdict, NoAP) and verdict.witness is not None:
        w = verdict.witness
        record += [[c.labels for c in (w.A, w.B, w.C)], verdict.refutation.checked]
    return record


def test_a_closure_remembers_its_verdict(closures):
    cold = []
    for K in closures:
        # the completion table starts over before every search, and
        # the constructor builds a K that remembers nothing
        clear_completion_table()
        cold.append(verdict_record(ap_verdict(ChainClass(K.members))))
    warm = [ap_verdict(K) for K in closures]
    assert all(ap_verdict(K) is verdict for K, verdict in zip(closures, warm))
    assert [verdict_record(verdict) for verdict in warm] == cold
    assert sum(isinstance(verdict, HasAP) for verdict in warm) >= 2 * 11


def test_a_label_variant_takes_over_the_verdict_worked_out_before(monkeypatch):
    # with an earlier variant's verdict at hand, the verdict of a relabeled
    # closure is carried over without classifying, auditing or searching;
    # it must equal the verdict worked out from scratch once every memo has
    # started over, witness labels and legs included
    carried, seen = [], set()
    for K in small_closed_sets() + seeded_closures():
        if K.members in seen:  # a seeded closure may repeat a small set
            continue
        seen.add(K.members)
        earlier = ap_verdict(hs_closure(K.members))
        variant = hs_closure(relabeled(c, "u") for c in K.members)
        assert variant == K and variant._verdict is None
        with monkeypatch.context() as m:
            for name in ("classify", "closure_rule_violations", "find_refuting_span"):
                m.setattr(classification, name, None)
            verdict = ap_verdict(variant)
        if isinstance(verdict, NoAP):
            assert verdict.audit is earlier.audit
            assert verdict.refutation is earlier.refutation
        else:
            assert verdict is earlier
        carried.append((variant.members, verdict))
    assert len(carried) == 657
    assert sum(isinstance(verdict, NoAP) for _, verdict in carried) == 643 - 11 + 13
    _memo.clear()
    for members, verdict in carried:
        fresh = ap_verdict(ChainClass(members))
        assert fresh is not verdict
        assert verdict_record(fresh) == verdict_record(verdict)
        if isinstance(fresh, NoAP):
            assert fresh.refutation == verdict.refutation
            w, v = fresh.witness, verdict.witness
            assert (w.i_B.image, w.i_C.image) == (v.i_B.image, v.i_C.image)


def test_a_fresh_verdict_builds_the_signature_set_once(monkeypatch):
    # classify and the audit share one set; once the verdict is kept, K lets
    # the set go, and signatures() builds an equal one again
    _memo.clear()  # so no earlier closure's verdict is carried over
    K = ChainClass(hs_closure([go(2), com(1, 0)]).members)
    classification._finite_classes()
    decomposed = []
    monkeypatch.setattr(
        classification, "decompose", lambda c: decomposed.append(c) or decompose(c)
    )
    verdict = ap_verdict(K)
    assert isinstance(verdict, NoAP) and verdict.audit and verdict.witness is not None
    assert decomposed == list(K.members)
    assert K._signatures is None
    assert K.signatures() == {decompose(c) for c in K.members}


def test_classify_does_not_walk_a_closure_that_hs_closure_built(monkeypatch, closures):
    want = [classify(ChainClass(K.members)) for K in closures]

    def refuse(self):
        raise AssertionError("walked a set that hs_closure built")

    monkeypatch.setattr(ChainClass, "is_hs_closed", refuse)
    assert [classify(K) for K in closures] == want
    fresh = [hs_closure(relabeled(c, "h") for c in K.members) for K in closures[-25:]]
    assert [classify(K) for K in fresh] == want[-25:]


def test_an_unclosed_or_empty_set_is_refused_on_every_call(capsys, tmp_path):
    from resichain.cli import main

    for K in (ChainClass([com(1, 1)]), hs_closure([])):
        for _ in range(2):
            with pytest.raises(NotHSClosed):
                classify(K)
            with pytest.raises(NotHSClosed):
                ap_verdict(K)
    assert hs_closure([]) is hs_closure([])
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for _ in range(2):
        assert main(["classify", str(empty)]) == 1
        assert capsys.readouterr().out == '{"error": "NotHSClosed"}\n'


def test_what_a_closure_remembers_is_not_part_of_its_value():
    for generators in ([go(2)], [com(1, 1)]):
        K = hs_closure(generators)
        ap_verdict(K)
        same = ChainClass(K.members)
        assert same == K and hash(same) == hash(K) and repr(same) == repr(K)


# --- closures merged from remembered single-generator closures ------------


def generator_lists() -> list:
    """The members of each small HS-closed set and of its relabeled copy,
    the 25 seeded generator lists, and 40 seeded lists of size <= 6 chains
    with a repeated chain and two label variants, each also shuffled."""
    lists = [list(K.members) for K in small_closed_sets()]
    lists += [[relabeled(c, "v") for c in members] for members in lists]
    lists += seeded_generators()
    rng = random.Random(18)
    chains = class_members(parse_class("inf:w,w,w"), 6)
    for _ in range(40):
        generators = rng.choices(chains, k=rng.randint(1, 3))
        generators.append(rng.choice(generators))
        variant = rng.choice(generators)
        q = relabeled(variant, "q")
        generators += [q, relabeled(variant, "s")]
        lists.append(generators)
        # shuffled, then a copy of q that validate did not intern: it equals
        # q, labels and all, and the walk pops it first and keeps it
        copy = FiniteChain(q.size, q.unit, q.mult, q.labels)
        lists.append(rng.sample(generators, len(generators)) + [copy])
    return lists


def test_hs_closure_builds_its_members_in_canonical_order():
    # hs_closure sorts its members itself and does not sort them again
    for K in seeded_closures():
        rebuilt = ChainClass(K.members).members
        assert K.members == rebuilt and all(x is y for x, y in zip(K.members, rebuilt))


def members_record(K) -> list:
    return [(canonical_signature(c), c.labels) for c in K.members]


def test_hs_closure_keeps_the_chains_that_the_walk_keeps():
    # a closure is merged from one remembered closure per generator; each
    # signature must keep the very chain that the plain walk keeps
    classification._closure_of.memo.clear()
    lists = generator_lists()
    assert len(lists) == 2 * 643 + 25 + 2 * 40
    for generators in lists:
        got, want = hs_closure(generators).members, reference_hs_closure(generators).members
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))


def test_hs_step_lists_the_reference_images_of_every_small_chain():
    # every residuated chain up to size 6 and every idempotent chain of
    # size 7: an idempotent one steps to its maximal proper subalgebras,
    # then its quotients; the others, whose subalgebras close under the
    # product too, are refused
    chains = [c for n in range(1, 7) for c in enumerate_chains(n)]
    chains += enumerate_chains(7, filters=("idempotent",))
    assert len(chains) == 679 + 120
    assert sum(c.tables.predicates.idempotent for c in chains) == 190
    for c in chains:
        if c.tables.predicates.idempotent:
            got, want = classification._hs_images(c), reference_hs_step(c)
            assert len(got) == len(want) and all(x is y for x, y in zip(got, want))
        else:
            with pytest.raises(NotIdempotent):
                classification._hs_images(c)


def test_hs_closure_refuses_a_chain_that_is_not_idempotent_before_it_builds_any(monkeypatch):
    # the three-element Łukasiewicz chain: 1·1 = 0
    luk = validate(3, 2, [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
    built = []
    monkeypatch.setattr(classification, "_restrict", lambda *args: built.append(args))
    monkeypatch.setattr(classification, "_quotients", lambda *args: built.append(args) or [])
    with pytest.raises(NotIdempotent):
        hs_closure([luk])
    assert built == []


def test_hs_closure_does_not_depend_on_the_closures_built_before():
    # the memo behind hs_closure starts over before every second set
    lists = generator_lists()
    want = [members_record(reference_hs_closure(generators)) for generators in lists]
    got = []
    for i, generators in enumerate(lists):
        if i % 2 == 0:
            classification._closure_of.memo.clear()
        got.append(members_record(hs_closure(generators)))
    assert got == want


# SHA-256 of the verdicts below, taken from the walk over every generator
# that the merge of remembered single-generator closures replaced: member
# labels, witnesses, audits and refutation counts must all stay as they were
VERDICT_DIGEST = "109d9d578dd38122c5c9b44da9968fb7027b82d526a9d33ce64fd5e5644a8bb9"


def closure_verdicts_digest(clear_every=None) -> str:
    """SHA-256 over 2,000 seeded closures' verdicts and member labels;
    every memo starts over every clear_every closures."""
    rng = random.Random(18)
    chains = class_members(parse_class("inf:w,w,w"), 7)
    records = []
    for n in range(2000):
        if clear_every and n % clear_every == 0:
            _memo.clear()
        K = hs_closure(rng.sample(chains, rng.randint(1, 3)))
        verdict = ap_verdict(K)
        refutation = getattr(verdict, "refutation", None)
        records.append(
            [verdict.as_dict(), [c.labels for c in K.members], refutation and refutation.checked]
        )
    blob = json.dumps(records, ensure_ascii=False, sort_keys=True).encode()
    assert sum(isinstance(record[2], int) for record in records) == 1905
    return hashlib.sha256(blob).hexdigest()


def test_closure_verdicts_match_the_pinned_digest():
    assert closure_verdicts_digest() == VERDICT_DIGEST


def test_closure_verdicts_match_the_pinned_digest_while_every_memo_starts_over(
    monkeypatch, memo_restarts
):
    # every memo starts over together every 400 closures; then each starts
    # over on its own at a limit of 160 entries, the completion table's
    # spans about 40 times
    assert closure_verdicts_digest(clear_every=400) == VERDICT_DIGEST
    monkeypatch.setattr(_memo, "LIMIT", 160)
    start = memo_restarts(amalgamation._SPANS)
    assert closure_verdicts_digest() == VERDICT_DIGEST
    assert memo_restarts(amalgamation._SPANS) - start > 20
