"""Bi-infinite words, the factor preorder, and minimality verdicts."""

import itertools
import random

import pytest

from resichain import (
    FiniteSupport,
    FiniteWord,
    Periodic,
    is_minimal,
    is_subword,
    parse_word,
    preorder_leq,
)
from resichain.selfcheck import brute_preorder_leq


def factor(word, start, length):
    return tuple(word.bit_at(start + i) for i in range(length))


def bit_at(word, i):
    if isinstance(word, Periodic):
        return word.bit_at(i)
    return 1 if i in word.support else 0


def bounded_leq(w1, w2, length, window=40):
    """Every length-`length` factor of w1 occurs in w2, by raw scanning
    over a wide window. Reference for the short-cut bound."""
    factors1 = {
        tuple(bit_at(w1, k + i) for i in range(length)) for k in range(-window, window)
    }
    factors2 = {
        tuple(bit_at(w2, k + i) for i in range(length)) for k in range(-window, window)
    }
    return factors1 <= factors2


def random_specs(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            period = rng.randint(1, 5)
            bits = tuple(rng.randint(0, 1) for _ in range(period))
            out.append(Periodic(bits, rng.randint(-3, 3)))
        else:
            support = frozenset(
                rng.randint(-6, 6) for _ in range(rng.randint(0, 4))
            )
            out.append(FiniteSupport(support))
    return out


# --- is_subword ---------------------------------------------------------


def test_010_occurs_in_alternating_word():
    assert is_subword(FiniteWord((0, 1, 0)), Periodic((0, 1)))


def test_00_does_not_occur_in_alternating_word():
    assert not is_subword(FiniteWord((0, 0)), Periodic((0, 1)))


def test_0110_occurs_around_a_two_point_support():
    assert is_subword(FiniteWord((0, 1, 1, 0)), FiniteSupport(frozenset({0, 1})))


def test_subword_answers_ignore_the_phase():
    v = FiniteWord((0, 1, 1))
    for bits in ((0, 1), (0, 1, 1), (1, 0, 0), (0,)):
        answers = {is_subword(v, Periodic(bits, phase)) for phase in range(-4, 5)}
        assert len(answers) == 1


def test_finite_word_validation():
    with pytest.raises(ValueError):
        FiniteWord(())
    with pytest.raises(ValueError):
        FiniteWord((0, 2))
    with pytest.raises(ValueError):
        Periodic(())


# --- preorder -----------------------------------------------------------


def test_alternating_words_are_equivalent():
    w01, w10 = Periodic((0, 1)), Periodic((1, 0))
    assert preorder_leq(w01, w10)
    assert preorder_leq(w10, w01)


def test_zero_word_sits_below_single_support():
    zero, spike = Periodic((0,)), FiniteSupport(frozenset({0}))
    assert preorder_leq(zero, spike)
    # 1 is a factor of the right word only
    assert not preorder_leq(spike, zero)


def test_sparser_period_is_not_below_denser_period():
    # factor 00 never occurs in the alternating word
    assert not preorder_leq(Periodic((0, 0, 1)), Periodic((0, 1)))


def test_preorder_is_reflexive_and_transitive_on_a_random_pool():
    rng = random.Random(20210 + 8)
    pool = random_specs(rng, 50)
    for w in pool:
        assert preorder_leq(w, w)
    related = [
        (i, j)
        for i, w1 in enumerate(pool)
        for j, w2 in enumerate(pool)
        if preorder_leq(w1, w2)
    ]
    related_set = set(related)
    for i, j in related:
        for k, w3 in enumerate(pool):
            if (j, k) in related_set:
                assert (i, k) in related_set


def test_periodic_comparison_never_stabilizes_early():
    # the period-sum factor length gives the same verdict as a check
    # four times as long
    rng = random.Random(977)
    for _ in range(60):
        p1 = rng.randint(1, 5)
        p2 = rng.randint(1, 5)
        w1 = Periodic(tuple(rng.randint(0, 1) for _ in range(p1)), rng.randint(-2, 2))
        w2 = Periodic(tuple(rng.randint(0, 1) for _ in range(p2)), rng.randint(-2, 2))
        assert preorder_leq(w1, w2) == bounded_leq(w1, w2, 4 * (p1 + p2))


def test_preorder_matches_the_factor_set_oracle():
    # every periodic word of period <= 4 in every phase, and every support
    # in [0, 5) with at most three ones, against factor sets compared at
    # every length up to 2(p1 + p2) + 12
    words = [
        Periodic(bits, phase)
        for period in range(1, 5)
        for bits in itertools.product((0, 1), repeat=period)
        for phase in range(period)
    ]
    words += [
        FiniteSupport(frozenset(ones))
        for count in range(4)
        for ones in itertools.combinations(range(5), count)
    ]
    assert len(words) == 98 + 26
    disagree = [
        (w1.text(), w2.text())
        for w1 in words
        for w2 in words
        if preorder_leq(w1, w2) != brute_preorder_leq(w1, w2)
    ]
    assert disagree == []


# --- minimality ---------------------------------------------------------


def test_period_three_word_is_minimal_with_linear_recurrence():
    verdict = is_minimal(Periodic((0, 0, 1)))
    assert verdict.minimal
    assert verdict.recurrence_offset == 3


def test_recurrence_offset_is_honest_for_periodic_words():
    # every window of length n + offset contains every length-n factor
    w = Periodic((0, 0, 1))
    offset = is_minimal(w).recurrence_offset
    for n in range(1, 6):
        factors = {factor(w, k, n) for k in range(len(w.bits))}
        for start in range(-6, 6):
            window = {factor(w, start + d, n) for d in range(offset + 1)}
            assert window == factors


def test_nonempty_support_is_refuted_by_the_zero_word():
    verdict = is_minimal(FiniteSupport(frozenset({0})))
    assert not verdict.minimal
    assert verdict.below == Periodic((0,))
    assert preorder_leq(verdict.below, FiniteSupport(frozenset({0})))
    assert not preorder_leq(FiniteSupport(frozenset({0})), verdict.below)


def test_empty_support_is_minimal():
    assert is_minimal(FiniteSupport(frozenset())).minimal


# --- text syntax --------------------------------------------------------


def test_parse_word_round_trip():
    for text in ("per:001@0", "per:01@-2", "fin:{-1,3}", "fin:{}"):
        w = parse_word(text)
        assert parse_word(w.text()) == w


def test_parse_word_matches_fields():
    assert parse_word("per:001@0") == Periodic((0, 0, 1), 0)
    assert parse_word("fin:{-1,3}") == FiniteSupport(frozenset({-1, 3}))
