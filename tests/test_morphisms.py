"""Homomorphisms, embeddings, congruences, quotients, and embeddings
between nested sums."""

import pytest

from resichain import (
    TRIVIAL,
    ChainMap,
    Congruence,
    FiniteChain,
    congruence_from_kernel,
    congruences,
    enumerate_chains,
    enumerate_embeddings,
    enumerate_homomorphisms,
    is_embedding,
    is_homomorphism,
    iso_equal,
    predicates,
    quotient,
)
from resichain import _memo, morphisms
from resichain.constructors import com, go, nested_sum
from resichain.selfcheck import (
    brute_congruence_blocks,
    brute_is_chain,
    definitional_embedding,
    definitional_homomorphism,
    residual_tables,
)


def lab(chain, name):
    return chain.index_of_label(name)


def small_pool():
    pool = [com(m, n) for m in range(2) for n in range(2)] + [go(k) for k in range(4)]
    for n in range(1, 5):
        pool.extend(enumerate_chains(n))
    return pool


# --- single maps ------------------------------------------------------


def test_label_inclusion_com00_into_com11_is_embedding():
    a, b = com(0, 0), com(1, 1)
    image = tuple(lab(b, a.label(x)) for x in a.elements())
    assert image == (1, 2, 4)
    assert is_embedding(ChainMap(a, b, image))


def test_collapse_go2_onto_go1_is_not_a_homomorphism():
    # c1\c2 = c2 in the domain but the image residual is e
    h = ChainMap(go(2), go(1), (0, 0, 1))
    assert not is_homomorphism(h)


def test_identity_is_an_embedding():
    for chain in (go(2), com(1, 1), TRIVIAL):
        assert is_embedding(ChainMap(chain, chain, tuple(range(chain.size))))


def test_embedding_criterion_agrees_with_definitional_check():
    # every injection between every ordered pair in a small pool
    from itertools import permutations

    pool = [c for c in small_pool() if predicates(c).idempotent and c.size <= 4]
    tables = {id(c): residual_tables(c) for c in pool}
    for a in pool:
        for b in pool:
            if a.size > b.size:
                continue
            for combo in permutations(range(b.size), a.size):
                image = tuple(combo)
                got = is_embedding(ChainMap(a, b, image))
                want = definitional_embedding(
                    a, b, image, tables[id(a)], tables[id(b)]
                )
                assert got == want


@pytest.mark.parametrize("bad", [0.0, False, "0", None])
def test_a_map_rejects_image_entries_that_are_not_integers(bad):
    # 0.0 and False equal 0, so they would read an integer map's verdict
    with pytest.raises(ValueError, match="image entries must be integers"):
        ChainMap(go(1), go(3), (bad, 3))


def test_a_map_keeps_its_image_as_a_tuple():
    h = ChainMap(go(1), go(3), [0, 3])
    assert h.image == (0, 3) and h == ChainMap(go(1), go(3), (0, 3))
    assert is_embedding(h)


# --- remembered verdicts ----------------------------------------------


def every_map_between_small_chains():
    from itertools import product

    pool = [c for n in range(1, 4) for c in enumerate_chains(n)] + [com(1, 0), go(3)]
    for a in pool:
        for b in pool:
            for image in product(range(b.size), repeat=a.size):
                yield ChainMap(a, b, image)


def test_remembered_verdicts_match_the_check_bodies(monkeypatch):
    # a small limit makes the table start over many times along the way
    monkeypatch.setattr(_memo, "LIMIT", 50)
    morphisms._VERDICTS.clear()
    maps = list(every_map_between_small_chains())
    assert len(maps) > 1000
    for _ in range(2):
        for h in maps:
            assert is_embedding(h) == morphisms._embedding_verdict(h)
            assert is_homomorphism(h) == morphisms._homomorphism_verdict(h)
            assert len(morphisms._VERDICTS) <= 50


def test_verdicts_are_keyed_on_the_tables_not_the_labels():
    a, b = go(1), go(3)
    relabeled = FiniteChain(b.size, b.unit, b.mult, labels=("p", "q", "r", "s"))
    morphisms._VERDICTS.clear()
    assert is_embedding(ChainMap(a, b, (1, 3)))
    assert is_embedding(ChainMap(a, relabeled, (1, 3)))
    assert not is_embedding(ChainMap(a, relabeled, (3, 3)))
    assert len(morphisms._VERDICTS) == 2


def test_enumerations_and_the_criterion_suite_leave_the_verdict_table_alone():
    from resichain.selfcheck import suite_embedding_criterion

    morphisms._VERDICTS.clear()
    # non-idempotent pairs check each enumerated leaf with the homomorphism body
    pool = [c for c in enumerate_chains(4) if not predicates(c).idempotent]
    assert pool
    for a in pool:
        for b in pool:
            list(morphisms._embeddings_images(a, b))
            morphisms.homomorphism_images(a, b)
    assert suite_embedding_criterion(4, 0, 1)[1] == []
    assert morphisms._VERDICTS == {}


# --- embedding enumeration --------------------------------------------


def test_three_embeddings_go1_into_go3():
    maps = enumerate_embeddings(go(1), go(3))
    assert len(maps) == 3
    assert sorted(m.image for m in maps) == [(0, 3), (1, 3), (2, 3)]


def test_single_embedding_com00_into_com11():
    maps = enumerate_embeddings(com(0, 0), com(1, 1))
    assert [m.image for m in maps] == [(1, 2, 4)]


def test_no_embedding_go2_into_go1():
    assert enumerate_embeddings(go(2), go(1)) == []


def test_enumerated_embeddings_are_exactly_the_definitional_ones():
    from itertools import permutations

    for a, b in ((go(2), go(3)), (com(0, 0), com(1, 1)), (com(1, 0), com(1, 1))):
        found = {m.image for m in enumerate_embeddings(a, b)}
        ta, tb = residual_tables(a), residual_tables(b)
        expected = {
            combo
            for combo in permutations(range(b.size), a.size)
            if definitional_embedding(a, b, combo, ta, tb)
        }
        assert found == expected


def test_enumeration_equals_the_permutation_scan_on_all_small_pairs():
    from itertools import permutations

    residuated = [c for n in range(1, 5) for c in enumerate_chains(n)]
    idempotent = [c for n in range(1, 6) for c in enumerate_chains(n, ("idempotent",))]
    pairs = [(a, b) for a in residuated for b in residuated]
    pairs += [(a, b) for a in idempotent for b in idempotent]

    def only_the_upper_part_is_too_long(a, b):
        return a.unit <= b.unit and a.size - a.unit > b.size - b.unit

    # larger codomains whose part below the unit has room and whose part
    # above it has none
    pairs += [
        (a, b)
        for a in idempotent
        for b in enumerate_chains(6, ("idempotent",))
        if only_the_upper_part_is_too_long(a, b)
    ]
    assert sum(only_the_upper_part_is_too_long(a, b) for a, b in pairs) > 300
    assert any(not predicates(c).idempotent for c in residuated)
    found = 0
    for a, b in pairs:
        ta, tb = residual_tables(a), residual_tables(b)
        want = [
            image
            for image in permutations(range(b.size), a.size)
            if definitional_embedding(a, b, image, ta, tb)
        ]
        # the same maps, in the same lexicographic order
        assert [m.image for m in enumerate_embeddings(a, b)] == want
        found += len(want)
    # at least each chain's identity
    assert found > len(residuated) + len(idempotent)


# --- congruences ------------------------------------------------------


def test_congruence_counts_for_spec_chains():
    assert len(congruences(com(1, 1))) == 3
    assert len(congruences(go(2))) == 3
    assert len(congruences(TRIVIAL)) == 1


def test_congruences_test_each_kernel_interval_once(monkeypatch):
    # every interval around the unit is tested once, and the congruences it
    # yields are built without testing them again
    tested = []
    normal = morphisms._interval_is_normal_subuniverse
    monkeypatch.setattr(
        morphisms, "_interval_is_normal_subuniverse",
        lambda chain, lo, hi: tested.append((lo, hi)) or normal(chain, lo, hi),
    )
    c = com(1, 1)
    assert len(congruences(c)) == 3
    assert sorted(tested) == [(lo, hi) for lo in range(3) for hi in range(2, 5)]


def test_congruence_kernels_of_com11():
    kernels = [tuple(c.kernel_class) for c in congruences(com(1, 1))]
    assert (2,) in kernels  # diagonal
    assert (1, 2, 3, 4) in kernels  # collapse of [b0, a0]
    assert tuple(range(5)) in kernels  # full


def test_congruences_match_brute_interval_scan():
    for chain in small_pool():
        got = {c.blocks for c in congruences(chain)}
        want = set(brute_congruence_blocks(chain))
        assert got == want


def interval_partitions(n: int):
    """Every partition of 0..n-1 into intervals, in chain order."""
    for cuts in range(1 << (n - 1)):
        blocks, start = [], 0
        for x in range(1, n):
            if cuts >> (x - 1) & 1:
                blocks.append(tuple(range(start, x)))
                start = x
        yield tuple(blocks) + (tuple(range(start, n)),)


def test_congruence_accepts_exactly_the_brute_force_congruences():
    # every interval partition, with the unit's block as its kernel
    chains = [c for n in range(1, 6) for c in enumerate_chains(n)]
    tried, accepted = 0, 0
    for chain in chains:
        want = set(brute_congruence_blocks(chain))
        for blocks in interval_partitions(chain.size):
            kernel = next(blk for blk in blocks if chain.unit in blk)
            try:
                Congruence(chain, blocks, kernel)
            except ValueError:
                assert blocks not in want, (chain.mult, blocks)
            else:
                assert blocks in want, (chain.mult, blocks)
                accepted += 1
            tried += 1
    assert (len(chains), tried, accepted) == (104, 1479, 265)


def test_congruence_refuses_a_kernel_that_is_not_normal():
    # {e, a0} in com(0, 0) is no subuniverse, since a0\e = b0; the quotient
    # of this partition would be go(1) with the projection (0, 1, 1), which
    # is no homomorphism
    with pytest.raises(ValueError, match="normal convex subuniverse"):
        Congruence(com(0, 0), ((0,), (1, 2)), (1, 2))
    # a kernel_class that is not the unit's whole block is refused first
    with pytest.raises(ValueError, match="kernel_class must be a block"):
        Congruence(com(0, 0), ((0,), (1, 2)), (1,))


def test_congruence_from_kernel_requires_a_full_interval():
    c = com(1, 1)
    with pytest.raises(ValueError):
        congruence_from_kernel(c, [1, 4])
    with pytest.raises(ValueError):
        congruence_from_kernel(c, [0, 1])  # misses the unit


# --- quotients --------------------------------------------------------


def test_quotient_com11_by_middle_interval_is_go1():
    c = com(1, 1)
    cong = congruence_from_kernel(c, range(1, 5))
    q, proj = quotient(c, cong)
    assert iso_equal(q, go(1))
    assert is_homomorphism(proj)
    assert set(proj.image) == set(q.elements())


def test_quotient_go2_by_top_pair_is_go1():
    g = go(2)
    cong = congruence_from_kernel(g, range(1, 3))
    q, _ = quotient(g, cong)
    assert iso_equal(q, go(1))


def test_quotient_by_diagonal_returns_the_chain():
    c = com(1, 0)
    diag = congruence_from_kernel(c, [c.unit])
    q, proj = quotient(c, diag)
    assert iso_equal(q, c)
    assert proj.image == tuple(c.elements())


def test_every_small_quotient_is_a_chain_and_its_projection_a_homomorphism():
    # quotient interns its table without a check of its own; oracles that
    # share no code with it read the table and the projection back
    checked = 0
    for n in range(1, 7):
        for chain in enumerate_chains(n):
            for cong in congruences(chain):
                q, proj = quotient(chain, cong)
                assert brute_is_chain(q.size, q.unit, q.mult), (chain.mult, cong.blocks)
                assert definitional_homomorphism(chain, q, proj.image), (chain.mult, cong.blocks)
                checked += 1
    assert checked == 1794


def test_projection_kernel_round_trips():
    for chain in (com(1, 1), go(3), com(2, 0)):
        for cong in congruences(chain):
            _, proj = quotient(chain, cong)
            kernel = tuple(
                tuple(x for x in chain.elements() if proj.image[x] == v)
                for v in sorted(set(proj.image))
            )
            assert kernel == cong.blocks


def test_star_involutive_quotients_embed_back():
    # each quotient of a star-involutive chain sits inside the original
    for n in range(1, 8):
        for chain in enumerate_chains(
            n, ("commutative", "idempotent", "star_involutive")
        ):
            for cong in congruences(chain):
                q, _ = quotient(chain, cong)
                assert enumerate_embeddings(q, chain)


# --- homomorphism enumeration -----------------------------------------


def test_hom_count_go2_to_go1():
    maps = enumerate_homomorphisms(go(2), go(1))
    assert len(maps) == 2
    assert sorted(m.image for m in maps) == [(0, 1, 1), (1, 1, 1)]


def test_homs_match_definitional_scan():
    from itertools import product

    pairs = [(go(2), go(2)), (com(0, 0), com(1, 0)), (com(1, 1), go(1)), (go(1), com(0, 1))]
    for a, b in pairs:
        found = {m.image for m in enumerate_homomorphisms(a, b)}
        ta, tb = residual_tables(a), residual_tables(b)
        expected = {
            image
            for image in product(range(b.size), repeat=a.size)
            if definitional_homomorphism(a, b, image, ta, tb)
        }
        assert found == expected


def test_each_domain_is_quotiented_once_for_every_codomain(monkeypatch):
    # a domain's quotients do not depend on the codomain, so only the
    # first codomain pays for them
    a = nested_sum([com(1, 1), go(2)])
    codomains = [go(k) for k in range(5)] + [com(1, 1), com(0, 2), a]
    want = [morphisms.homomorphism_images(a, b) for b in codomains]
    calls = []
    real = morphisms.quotient

    def counted(chain, cong):
        calls.append(chain)
        return real(chain, cong)

    monkeypatch.setattr(morphisms, "quotient", counted)
    morphisms._quotients.memo.clear()
    morphisms._HOMOMORPHISMS.clear()
    for _ in range(3):
        assert [morphisms.homomorphism_images(a, b) for b in codomains] == want
    assert len(calls) == len(congruences(a)) > 1


# --- subcover criterion -----------------------------------------------


def separates_subcover(h):
    """A homomorphism is injective iff it keeps the unit apart from the
    element directly below it."""
    u = h.domain.unit
    return h.image[u - 1] < h.image[u]


def test_subcover_injectivity_detects_collapse():
    c = com(1, 1)
    cong = congruence_from_kernel(c, range(1, 5))
    _, proj = quotient(c, cong)
    assert separates_subcover(proj) is False
    assert len(set(proj.image)) < c.size


def test_subcover_criterion_equals_actual_injectivity():
    for a, b in ((go(2), go(2)), (com(1, 1), go(1)), (com(1, 0), com(1, 1))):
        for h in enumerate_homomorphisms(a, b):
            assert separates_subcover(h) == (len(set(h.image)) == a.size)


# --- embeddings between nested sums ------------------------------------


def by_labels(a, b):
    """The map sending each element of a to the element of b with the
    same label."""
    return ChainMap(a, b, tuple(lab(b, a.label(x)) for x in a.elements()))


def test_componentwise_inclusions_lift_to_an_embedding():
    # com(0, 0) sits in com(1, 1) and go(1) in go(2) by label, and so do
    # their nested sums
    da = nested_sum([com(0, 0), go(1)])
    db = nested_sum([com(1, 1), go(2)])
    assert is_embedding(by_labels(da, db))


def test_go_part_must_stay_innermost():
    # a Goedel tail embeds into the tail of another sum, never into a
    # two-sided summand
    da = nested_sum([com(0, 0), go(1)])
    assert not enumerate_embeddings(da, nested_sum([com(0, 0), com(0, 0), com(0, 0)]))
    assert enumerate_embeddings(da, nested_sum([com(0, 0), com(0, 0), go(1)]))


def test_admissible_top_part_may_land_below_the_top():
    da = nested_sum([com(1, 0), com(0, 0)])
    db = nested_sum([com(1, 0), com(0, 0), go(1)])
    assert is_embedding(by_labels(da, db))
