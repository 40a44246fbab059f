"""Goedel chains, two-sided chains, and nested sums."""

import pytest

from resichain import (
    LEFT,
    NotAdmissible,
    enumerate_chains,
    iso_equal,
    predicates,
    residual,
    validate,
)
from resichain.constructors import com, go, nested_sum
from resichain.selfcheck import brute_is_chain


def lab(chain, name):
    return chain.index_of_label(name)


def placement(chain, parts, i):
    """Where the elements of parts[i] land in their nested sum, read from
    the glued labels: a label shared by several summands carries the
    summand's position as a suffix."""
    part = parts[i]

    def spot(x):
        if x == part.unit:
            return chain.unit
        name = part.label(x)
        return lab(chain, name if name in chain.labels else f"{name}.{i + 1}")

    return [spot(x) for x in part.elements()]


# --- go ---------------------------------------------------------------


def test_go_product_is_min_pointwise():
    for n in range(5):
        g = go(n)
        for x in g.elements():
            for y in g.elements():
                assert g.mul(x, y) == min(x, y)


def test_go2_product_example():
    g = go(2)
    assert g.mul(lab(g, "c1"), lab(g, "c2")) == lab(g, "c2")


def test_go3_residual_example():
    g = go(3)
    assert residual(g, lab(g, "c1"), lab(g, "c3"), LEFT) == lab(g, "c3")


def test_go_labels_and_unit():
    g = go(3)
    assert g.labels == ("c3", "c2", "c1", "e")
    assert g.unit == g.top == 3


def test_go0_is_trivial():
    assert go(0).size == 1


def test_go_rejects_negative():
    with pytest.raises(ValueError):
        go(-1)


# --- com --------------------------------------------------------------


def test_com_shape_and_labels():
    c = com(1, 2)
    assert c.labels == ("b1", "b0", "e", "a2", "a1", "a0")
    assert c.unit == 2
    assert c.size == 6


def test_com10_product_example():
    c = com(1, 0)
    assert c.mul(lab(c, "a0"), lab(c, "b1")) == lab(c, "b1")


def test_com11_product_example():
    c = com(1, 1)
    assert c.mul(lab(c, "a1"), lab(c, "a0")) == lab(c, "a0")


def test_com_always_revalidates_commutative_idempotent():
    for m in range(4):
        for n in range(4):
            c = com(m, n)
            validate(c.size, c.unit, c.mult)
            p = predicates(c)
            assert p.commutative and p.idempotent and p.admissible


def test_go_is_admissible_only_when_trivial():
    assert predicates(go(0)).admissible
    for n in range(1, 5):
        assert not predicates(go(n)).admissible


def test_com_rejects_negative():
    with pytest.raises(ValueError):
        com(-1, 0)


# --- nested sums ------------------------------------------------------


def test_nested_sum_order_example():
    chain = nested_sum([com(0, 0), go(1)])
    assert [chain.label(x) for x in chain.elements()] == ["b0", "c1", "e", "a0"]


def test_nested_sum_cross_product_falls_to_outer_element():
    chain = nested_sum([com(0, 0), go(1)])
    assert chain.mul(lab(chain, "a0"), lab(chain, "c1")) == lab(chain, "a0")


def test_nested_sum_rejects_inadmissible_non_top_part():
    with pytest.raises(NotAdmissible) as exc:
        nested_sum([go(1), com(0, 0)])
    assert exc.value.index == 0
    assert exc.value.payload() == {"error": "NotAdmissible", "witness": 0}


def test_nested_sum_top_part_may_be_inadmissible():
    chain = nested_sum([com(0, 0), go(2)])
    assert chain.size == 5


def test_nested_sum_of_nothing_is_trivial():
    chain = nested_sum([])
    assert chain.size == 1


def test_element_maps_are_order_embeddings_gluing_units():
    parts = [com(1, 0), com(0, 1), go(2)]
    chain = nested_sum(parts)
    assert chain.size == sum(p.size - 1 for p in parts) + 1
    for i, part in enumerate(parts):
        emap = placement(chain, parts, i)
        assert emap[part.unit] == chain.unit
        assert len(set(emap)) == part.size
        for x in range(part.size - 1):
            assert emap[x] < emap[x + 1]


def test_labels_qualified_only_on_cross_part_collision():
    chain = nested_sum([com(0, 0), com(0, 0)])
    labels = [chain.label(x) for x in chain.elements()]
    # both parts carry b0 and a0, so each copy is qualified by position
    assert labels == ["b0.1", "b0.2", "e", "a0.2", "a0.1"]
    chain2 = nested_sum([com(0, 0), go(1)])
    assert "b0" in chain2.labels and "c1" in chain2.labels


def test_later_parts_nest_strictly_inside_earlier_ones():
    parts = [com(1, 0), com(0, 1)]
    chain = nested_sum(parts)
    outer, inner = (placement(chain, parts, i) for i in range(2))
    lo, hi = min(inner), max(inner)
    for g in outer:
        if g != chain.unit:
            assert g < lo or g > hi


def test_nested_sum_associates_with_itself():
    # gluing a glued chain behaves like gluing the flat part list
    inner = nested_sum([com(0, 0), com(1, 0)])
    left = nested_sum([inner, go(1)])
    flat = nested_sum([com(0, 0), com(1, 0), go(1)])
    assert iso_equal(left, flat)


def test_every_nested_sum_of_small_chains_is_a_chain():
    # nested_sum interns its table without a check of its own; an oracle
    # that shares no code with it reads each glued table back
    chains = [c for n in range(1, 6) for c in enumerate_chains(n)]
    outer = [c for c in chains if predicates(c).admissible]
    sums = [nested_sum([p, q]) for p in outer for q in chains]
    small = [c for c in outer if c.size <= 4]
    sums += [nested_sum([p, q, r]) for p in small for q in small for r in chains if r.size <= 4]
    assert (len(outer), len(sums)) == (32, 32 * 104 + 6 * 6 * 20)
    assert [s for s in sums if not brute_is_chain(s.size, s.unit, s.mult)] == []
