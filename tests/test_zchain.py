"""The symbolic integer-indexed chains driven by a 0/1 word."""

import random

import pytest

from resichain import (
    ELL,
    LEFT,
    R,
    RIGHT,
    STAR,
    UNIT,
    FiniteSupport,
    Periodic,
    StartIsUnit,
    as_leq,
    as_mult,
    as_residual,
    as_unary,
    generated_reach,
    parse_element,
)
from resichain.selfcheck import window_residual_oracle
from resichain.zchain import a, as_compare, b, index_range

WITH_ZERO = FiniteSupport(frozenset({0}))
SANS_ZERO = FiniteSupport(frozenset())
SPECS = (WITH_ZERO, SANS_ZERO, Periodic((0, 1)), Periodic((1, 1, 0), -1))


def window(lo, hi):
    out = [UNIT]
    for i in range(lo, hi + 1):
        out.append(a(i))
        out.append(b(i))
    return out


# --- order --------------------------------------------------------------


def test_b_family_grows_with_the_index():
    assert as_compare(b(-1), b(5)) < 0


def test_a_family_shrinks_with_the_index():
    assert as_compare(a(5), a(-1)) < 0


def test_unit_compares_equal_to_itself():
    assert as_compare(UNIT, UNIT) == 0


def test_unit_separates_the_families():
    assert as_leq(b(10 ** 9), UNIT) and not as_leq(a(10 ** 9), UNIT)


# --- product ------------------------------------------------------------


def test_mixed_product_with_equal_indices_follows_membership():
    assert as_mult(WITH_ZERO, a(0), b(0)) == a(0)
    assert as_mult(SANS_ZERO, a(0), b(0)) == b(0)


def test_mixed_product_with_larger_a_index_falls_to_b():
    for spec in SPECS:
        assert as_mult(spec, a(1), b(0)) == b(0)


def test_like_products_take_the_lower_index():
    for spec in SPECS:
        assert as_mult(spec, a(3), a(-2)) == a(-2)
        assert as_mult(spec, b(3), b(-2)) == b(-2)


def test_diagonal_products_depend_on_the_argument_order():
    # the two-sided chain is not commutative: membership of the shared
    # index decides which factor survives, differently per side
    assert as_mult(WITH_ZERO, a(0), b(0)) == a(0)
    assert as_mult(WITH_ZERO, b(0), a(0)) == b(0)
    assert as_mult(SANS_ZERO, a(0), b(0)) == b(0)
    assert as_mult(SANS_ZERO, b(0), a(0)) == a(0)


def test_product_is_conservative_idempotent_associative_on_windows():
    for spec in (WITH_ZERO, Periodic((0, 1))):
        elems = window(-2, 2)
        for x in elems:
            assert as_mult(spec, x, x) == x
            for y in elems:
                assert as_mult(spec, x, y) in (x, y)
                for z in elems:
                    left = as_mult(spec, as_mult(spec, x, y), z)
                    right = as_mult(spec, x, as_mult(spec, y, z))
                    assert left == right


# --- unary maps ---------------------------------------------------------


def test_left_unary_at_zero_follows_membership():
    assert as_unary(WITH_ZERO, a(0), ELL) == b(0)
    assert as_unary(SANS_ZERO, a(0), ELL) == b(-1)


def test_star_of_unit_is_unit():
    for spec in SPECS:
        assert as_unary(spec, UNIT, STAR) == UNIT


def test_unary_never_returns_the_unit_on_letters():
    rng = random.Random(11)
    for spec in SPECS:
        for _ in range(200):
            x = (a if rng.random() < 0.5 else b)(rng.randint(-50, 50))
            for which in (ELL, R, STAR):
                assert as_unary(spec, x, which) != UNIT


def test_star_is_an_involution_on_random_elements():
    rng = random.Random(12)
    for _ in range(500):
        spec = random.Random(rng.random()).choice(SPECS)
        x = (a if rng.random() < 0.5 else b)(rng.randint(-(10 ** 6), 10 ** 6))
        assert as_unary(spec, as_unary(spec, x, STAR), STAR) == x


def test_unary_closed_forms_match_the_window_oracle():
    for spec in SPECS:
        for i in range(-4, 5):
            for x in (a(i), b(i)):
                assert as_unary(spec, x, ELL) == window_residual_oracle(
                    spec, x, UNIT, RIGHT
                )
                assert as_unary(spec, x, R) == window_residual_oracle(
                    spec, x, UNIT, LEFT
                )


# --- residuals ----------------------------------------------------------


def test_residual_by_the_unit_is_identity():
    for spec in SPECS:
        assert as_residual(spec, UNIT, a(0), LEFT) == a(0)


def test_residual_examples_at_zero():
    assert as_residual(WITH_ZERO, a(0), b(5), LEFT) == b(-1)
    assert as_residual(SANS_ZERO, b(0), UNIT, LEFT) == a(1)


def test_residuation_law_on_windows():
    for spec in (WITH_ZERO, Periodic((0, 1))):
        elems = window(-3, 3)
        for x in elems:
            for y in elems:
                r = as_residual(spec, x, y, LEFT)
                for z in elems:
                    assert as_leq(as_mult(spec, x, z), y) == as_leq(z, r)


def test_residuals_match_the_window_oracle():
    for spec in SPECS:
        elems = window(-3, 3)
        for x in elems:
            for y in elems:
                for side in (LEFT, RIGHT):
                    assert as_residual(spec, x, y, side) == window_residual_oracle(
                        spec, x, y, side
                    )


# --- generation ---------------------------------------------------------


def test_reach_depth_zero_is_the_start():
    assert generated_reach(Periodic((0, 1)), a(0), 0) == frozenset({a(0)})


def test_reach_depth_one_collects_both_unary_images():
    got = generated_reach(Periodic((0, 1)), a(0), 1)
    assert got == frozenset({a(0), b(0), b(-1)})


def test_reach_depth_eight_covers_a_symmetric_index_range():
    got = generated_reach(Periodic((0, 1)), a(0), 8)
    lo, hi = index_range(got)
    assert lo <= -4 and hi >= 4
    # families alternate per application, so the family reached on the
    # odd step lags the other by one index at any fixed depth
    deeper = generated_reach(Periodic((0, 1)), a(0), 9)
    for family in (a, b):
        indices = [x.index for x in deeper if x.kind == family(0).kind]
        assert min(indices) <= -4 and max(indices) >= 4


def test_reach_grows_monotonically_without_stalling():
    spec = Periodic((0, 1))
    prev = generated_reach(spec, a(0), 0)
    prev_span = 0
    for depth in range(1, 9):
        cur = generated_reach(spec, a(0), depth)
        assert prev <= cur
        lo, hi = index_range(cur)
        assert hi - lo > prev_span or depth == 1
        prev, prev_span = cur, hi - lo


def test_reach_adds_two_elements_per_step_at_depth():
    # each step touches only the elements the previous step added
    got = generated_reach(Periodic((0, 1)), a(0), 2000)
    assert len(got) == 4001


def test_reach_refuses_the_unit_start():
    with pytest.raises(StartIsUnit):
        generated_reach(Periodic((0, 1)), UNIT, 1)
    with pytest.raises(ValueError):
        generated_reach(Periodic((0, 1)), a(0), -1)


# --- parsing ------------------------------------------------------------


def test_element_syntax_round_trip():
    for text in ("a:3", "b:-2", "e"):
        assert parse_element(text).text() == text


def test_element_syntax_rejects_junk():
    with pytest.raises(ValueError):
        parse_element("q:1")
    with pytest.raises(ValueError):
        parse_element("a:one")
