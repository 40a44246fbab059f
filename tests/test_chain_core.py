"""Cayley-table validation, residuals, derived maps, predicates,
subuniverses, isomorphism, and bounded enumeration."""

import hashlib
import itertools

import pytest

from resichain import (
    ELL,
    LEFT,
    R,
    RIGHT,
    STAR,
    TRIVIAL,
    FiniteChain,
    InvalidChainError,
    SizeTooLarge,
    Violation,
    canonical_signature,
    chain_from_json,
    decompose,
    derived,
    enumerate_chains,
    enumeration_cap,
    iso_equal,
    predicates,
    residual,
    restrict_to,
    subalgebra_generated,
    validate,
)
from resichain.constructors import com, go, nested_sum
from resichain.selfcheck import (
    brute_chains,
    brute_ell,
    brute_r,
    brute_residual,
    brute_star,
    residual_tables,
)


def lab(chain, name):
    return chain.index_of_label(name)


# --- validate ---------------------------------------------------------


def test_validate_accepts_go2():
    g = go(2)
    again = validate(g.size, g.unit, g.mult, labels=g.labels)
    assert again.mult == g.mult
    assert again.unit == 2


def test_validate_rejects_broken_row_monotonicity():
    # 0*0 = 1 > 0 = 0*1 breaks monotonicity in row 0
    with pytest.raises(InvalidChainError) as exc:
        validate(2, 1, [[1, 0], [0, 1]])
    hits = [v for v in exc.value.violations if v.code == "NotMonotone"]
    assert hits and hits[0].witness[:2] == ("row", 0)


def test_validate_rejects_broken_bottom_absorption():
    with pytest.raises(InvalidChainError) as exc:
        validate(2, 1, [[0, 0], [1, 1]])
    assert "NotResiduated" in exc.value.codes


def test_validate_rejects_broken_unit_law():
    with pytest.raises(InvalidChainError) as exc:
        validate(2, 1, [[0, 1], [0, 1]])
    assert "NotAMonoid" in exc.value.codes


def test_validate_rejects_unit_out_of_range():
    with pytest.raises(InvalidChainError) as exc:
        validate(2, 5, [[0, 0], [0, 1]])
    assert "UnitOutOfRange" in exc.value.codes


def test_validate_rejects_ragged_table():
    with pytest.raises(ValueError):
        validate(2, 1, [[0, 0]])
    with pytest.raises(ValueError):
        validate(2, 1, [[0, 9], [0, 1]])


def test_invalid_chain_payload_lists_violations():
    with pytest.raises(InvalidChainError) as exc:
        validate(2, 1, [[0, 0], [1, 1]])
    payload = exc.value.payload()
    assert payload["error"] == "InvalidChain"
    assert any(v["error"] == "NotResiduated" for v in payload["violations"])


# --- residuals --------------------------------------------------------


def test_residual_go2_example():
    g = go(2)
    assert residual(g, lab(g, "c1"), lab(g, "c2"), LEFT) == lab(g, "c2")


def test_residual_com11_example():
    c = com(1, 1)
    assert residual(c, lab(c, "a1"), lab(c, "b1"), LEFT) == lab(c, "b1")


def test_residual_matches_brute_force_everywhere():
    pool = [com(m, n) for m in range(3) for n in range(3)] + [go(k) for k in range(5)]
    for n in range(1, 5):
        pool.extend(enumerate_chains(n))
    for chain in pool:
        for x in chain.elements():
            for y in chain.elements():
                for side in (LEFT, RIGHT):
                    assert residual(chain, x, y, side) == brute_residual(
                        chain, x, y, side
                    )


def test_residual_is_the_adjoint():
    # x*z <= y iff z <= x\y, on a mixed pool
    for chain in (com(2, 1), go(3), com(0, 2)):
        for x in chain.elements():
            for y in chain.elements():
                r = residual(chain, x, y, LEFT)
                for z in chain.elements():
                    assert (chain.mul(x, z) <= y) == (z <= r)


# --- derived unary maps -----------------------------------------------


def test_derived_star_com11_examples():
    c = com(1, 1)
    assert derived(c, lab(c, "a1"), STAR) == lab(c, "b0")
    assert derived(c, lab(c, "b1"), STAR) == lab(c, "a0")


def test_derived_star_is_unit_on_go():
    g = go(3)
    for x in g.elements():
        if x != g.unit:
            assert derived(g, x, STAR) == g.unit


def test_derived_matches_brute_force():
    for chain in [com(2, 2), go(4), com(0, 1)] + list(enumerate_chains(4)):
        for x in chain.elements():
            assert derived(chain, x, STAR) == brute_star(chain, x)
            assert derived(chain, x, ELL) == brute_residual(
                chain, x, chain.unit, RIGHT
            )
            assert derived(chain, x, R) == brute_residual(chain, x, chain.unit, LEFT)


# --- predicates -------------------------------------------------------


def test_predicates_go2():
    p = predicates(go(2))
    assert (p.commutative, p.idempotent, p.star_involutive, p.admissible) == (
        True,
        True,
        False,
        False,
    )


def test_predicates_com11():
    p = predicates(com(1, 1))
    assert (p.commutative, p.idempotent, p.star_involutive, p.admissible) == (
        True,
        True,
        False,
        True,
    )


def test_predicates_com00_is_star_involutive():
    p = predicates(com(0, 0))
    assert (p.commutative, p.idempotent, p.star_involutive, p.admissible) == (
        True,
        True,
        True,
        True,
    )


def test_predicates_dict_key_order():
    d = predicates(go(1)).as_dict()
    assert list(d) == ["commutative", "idempotent", "star_involutive", "admissible"]


def test_trivial_chain_predicates_all_hold():
    p = predicates(TRIVIAL)
    assert p.commutative and p.idempotent and p.star_involutive and p.admissible


# --- subuniverses -----------------------------------------------------


def test_seed_closure_in_com22():
    c = com(2, 2)
    got = subalgebra_generated(c, [lab(c, "a2")])
    assert got == {lab(c, name) for name in ("e", "a2", "b0", "a0")}


def test_seed_closure_in_go3():
    g = go(3)
    assert subalgebra_generated(g, [lab(g, "c2")]) == {lab(g, "c2"), g.unit}


def test_generated_set_is_a_subuniverse_and_restricts():
    c = com(2, 2)
    sub = subalgebra_generated(c, [lab(c, "a2")])
    small = restrict_to(c, sub)
    assert small.size == 4
    assert iso_equal(small, com(0, 1))


def test_non_closed_subset_is_not_a_subuniverse():
    c = com(2, 2)
    # a2's unit residuals land on b0, which is missing here
    with pytest.raises(InvalidChainError) as err:
        restrict_to(c, {c.unit, lab(c, "a2")})
    assert "NotResiduated" in err.value.codes


def test_restrict_to_refuses_a_product_closed_set_that_is_no_subuniverse():
    cases = [
        # {1, 2} is closed under the product but not under the residuals: the
        # residual of 1 by 2 is 0. On {1, 2} alone no z has 2 * z <= 1, so the
        # table left over is not residuated and must not come back as a chain
        (validate(3, 1, ((0, 0, 0), (0, 1, 2), (0, 2, 2))), {1, 2}),
        # the complement of b0 in com(1, 0): r(a0) = b0 lies outside, yet the
        # table left over is a valid chain, com(0, 0), so no check of that
        # table can tell
        (com(1, 0), {0, 2, 3}),
    ]
    for c, subset in cases:
        for _ in range(2):
            with pytest.raises(InvalidChainError) as err:
                restrict_to(c, subset)
            assert "NotResiduated" in err.value.codes


@pytest.mark.parametrize("c, subset", [
    (validate(3, 2, ((0, 0, 0), (0, 0, 1), (0, 1, 2))), {1, 2}),  # 1 * 1 = 0
    (com(1, 1), {0, 1}),  # no unit
    # -1 would read the top row, and the table left over breaks the unit law
    (go(2), {-1, 2}),
    (go(2), {2, 5}),
], ids=["product-leaves", "no-unit", "negative", "past-the-top"])
def test_restrict_to_refuses_a_set_that_is_not_a_submonoid(c, subset):
    with pytest.raises(ValueError):
        restrict_to(c, subset)


def test_restrict_to_accepts_exactly_the_closed_sets_up_to_size_five():
    # every set holding the unit, judged on the raw table and brute-force
    # residuals: a closed set gives its subalgebra, a product that escapes is
    # a ValueError even where a residual escapes too, and otherwise the
    # witness is the first pair in sorted order whose residual escapes
    seen = {"closed": 0, "product": 0, "both": 0, "residual": 0}
    for n in range(1, 6):
        for c in enumerate_chains(n):
            left, right = residual_tables(c)
            others = [x for x in c.elements() if x != c.unit]
            for mask in range(1 << len(others)):
                subset = sorted([c.unit] + [x for i, x in enumerate(others) if mask >> i & 1])
                inside = set(subset)
                product = any(c.mul(x, y) not in inside for x in subset for y in subset)
                escapes = [
                    (x, y) for x in subset for y in subset
                    if left[x][y] not in inside or right[x][y] not in inside
                ]
                if product:
                    seen["both" if escapes else "product"] += 1
                    with pytest.raises(ValueError, match="multiplication"):
                        restrict_to(c, reversed(subset))
                elif escapes:
                    seen["residual"] += 1
                    with pytest.raises(InvalidChainError) as err:
                        restrict_to(c, reversed(subset))
                    assert err.value.violations == (
                        Violation("NotResiduated", ("residual", *escapes[0])),
                    )
                else:
                    seen["closed"] += 1
                    sub = restrict_to(c, reversed(subset))
                    assert sub.unit == subset.index(c.unit)
                    assert sub.mult == tuple(
                        tuple(subset.index(c.mul(x, y)) for y in subset) for x in subset
                    )
    assert min(seen.values()) > 0, seen


# --- isomorphism ------------------------------------------------------


def test_com10_and_com01_are_not_isomorphic():
    assert not iso_equal(com(1, 0), com(0, 1))
    assert canonical_signature(com(1, 0)) != canonical_signature(com(0, 1))


def test_relabeling_preserves_isomorphism():
    c = com(1, 0)
    relabeled = FiniteChain(c.size, c.unit, c.mult, ("w", "x", "y", "z"))
    assert iso_equal(c, relabeled)


# --- interning ------------------------------------------------------


def test_identical_data_gives_back_the_same_chain():
    c = com(1, 1)
    assert com(1, 1) is c
    assert validate(c.size, c.unit, [list(r) for r in c.mult], labels=c.labels) is c
    assert chain_from_json(c.to_json()) is c
    assert go(0) is TRIVIAL


def test_other_labels_give_an_equal_but_distinct_chain():
    c = com(1, 0)
    renamed = validate(c.size, c.unit, c.mult, labels=("w", "x", "y", "z"))
    unlabeled = validate(c.size, c.unit, c.mult)
    for other in (renamed, unlabeled):
        assert other is not c
        assert other == c and hash(other) == hash(c)
        assert canonical_signature(other) == canonical_signature(c)
        assert other.mult is c.mult
    assert renamed.labels == ("w", "x", "y", "z") and unlabeled.labels is None
    assert validate(c.size, c.unit, c.mult, labels=("w", "x", "y", "z")) is renamed


def test_the_hash_reads_the_table_only():
    c = com(2, 1)
    assert hash(c) == hash((c.size, c.unit, c.mult))
    assert c != go(5) and c.size == go(5).size


def test_an_invalid_table_raises_every_time():
    broken = [[0, 0, 0], [0, 2, 1], [0, 1, 2]]
    for _ in range(2):
        with pytest.raises(InvalidChainError) as err:
            validate(3, 2, broken)
        assert "NotMonotone" in err.value.codes


def test_derived_tables_are_built_once():
    c = com(2, 2)
    assert c.tables is c.tables
    assert predicates(c) is c.tables.predicates


# A version that kept the decomposition in an attribute the class does not
# declare, set through object.__setattr__, ran the closure benchmark about
# 12% slower (327-353 against 366-415 ops/s over 4 runs); declared as a
# field, it ran faster than before. A chain has slots and no __dict__, so
# what it works out about itself has nowhere to go but a declared slot.
def test_a_chain_holds_only_its_declared_fields():
    chain = nested_sum([com(1, 1), go(2)])
    chain.tables
    decompose(chain)
    assert not hasattr(chain, "__dict__")
    assert chain._tables is not None and chain._decomposition is not None
    assert all(hasattr(chain, name) for name in FiniteChain.__slots__)
    with pytest.raises(AttributeError):
        object.__setattr__(chain, "_undeclared", None)


def test_constructors_build_each_chain_once():
    assert go(3) is go(3)
    assert com(1, 2) is com(1, 2)
    for bad in (lambda: go(-1), lambda: com(-1, 0)):
        for _ in range(2):
            with pytest.raises(ValueError):
                bad()


# --- enumeration ------------------------------------------------------


def test_enumerate_counts_commutative_idempotent():
    assert len(list(enumerate_chains(3, ("commutative", "idempotent")))) == 2
    assert len(list(enumerate_chains(5, ("commutative", "idempotent")))) == 8


def test_enumerate_output_is_deduplicated_and_valid():
    chains = list(enumerate_chains(4))
    sigs = {canonical_signature(c) for c in chains}
    assert len(sigs) == len(chains)
    for c in chains:
        validate(c.size, c.unit, c.mult)


def oracle_predicates(chain):
    """The four filters, decided from the raw table and the brute residuals."""
    n, e = chain.size, chain.unit
    star = [brute_star(chain, x) for x in range(n)]
    return {
        "commutative": all(chain.mul(x, y) == chain.mul(y, x) for x in range(n) for y in range(n)),
        "idempotent": all(chain.mul(x, x) == x for x in range(n)),
        "star_involutive": all(star[star[x]] == x for x in range(n)),
        "admissible": all(
            brute_ell(chain, x) != e and brute_r(chain, x) != e for x in range(n) if x != e
        ),
    }


@pytest.mark.parametrize("n,idempotent", [(1, False), (2, False), (3, False), (4, False), (5, True)])
def test_enumerate_matches_the_brute_force_oracle(n, idempotent):
    # the oracle tries every value in every free cell; at n = 5 only the
    # diagonal-fixed tables are small enough, so only filter sets with idempotent
    oracle = [(c.signature, oracle_predicates(c)) for c in brute_chains(n, idempotent)]
    names = ("commutative", "idempotent", "star_involutive", "admissible")
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            if idempotent and "idempotent" not in subset:
                continue
            want = [sig for sig, holds in oracle if all(holds[f] for f in subset)]
            assert [c.signature for c in enumerate_chains(n, subset)] == want, subset


@pytest.mark.parametrize("n,filters,count,digest", [
    (6, (), 575, "836e3c243b1b1aeb86b05e975fe4c4b62d1c9e97c43cb54a14cb77bfce15bf05"),
    (7, (), 4687, "3d1ea8cee7cec05bf22316504ccc022de762eea6936d13bc20d03f3de20571b1"),
    (6, ("commutative",), 213,
     "3932880befbf2c394b41bbcf236fce6853f1758b305c7a10e50afc3190c14d84"),
    (7, ("commutative",), 1073,
     "503e67c69a40e08b634bcda35c55c418ff9fc35994e182defb0727b8a20b62ed"),
    (7, ("idempotent",), 120,
     "f3ba273455fdf42ec6719b6938351a0debc6832b47cb502a307025a88086762f"),
    (8, ("idempotent",), 328,
     "f53a8fd32d69e7012c3cee787bea74fabdfdef6f4da507fb300ce4540e5d2636"),
    (9, ("commutative", "idempotent"), 128,
     "017be18d5cc969e3f6cfa1dd1b142f662df0b2008a29b274d498765567ab143c"),
])
def test_enumerate_is_pinned_past_the_oracle(monkeypatch, n, filters, count, digest):
    # count and SHA-256 over the concatenated signatures, recorded with the
    # search that tried every value in every cell and checked associativity
    # once per largest coordinate
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", str(max(n, 7)))
    chains = enumerate_chains(n, filters)
    assert len(chains) == count
    assert hashlib.sha256(b"".join(c.signature for c in chains)).hexdigest() == digest


def test_enumerate_rejects_unknown_filter():
    with pytest.raises(ValueError):
        list(enumerate_chains(3, ("shiny",)))


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "3")
    assert enumeration_cap() == 3
    with pytest.raises(SizeTooLarge):
        list(enumerate_chains(4))
    monkeypatch.delenv("RESICHAIN_MAX_SIZE")
    assert enumeration_cap() == 7


# --- json -------------------------------------------------------------


def test_json_round_trip_keeps_table_and_labels():
    c = com(1, 2)
    data = c.to_json()
    assert data["labels"] == list(c.labels)
    back = chain_from_json(data)
    assert back.mult == c.mult and back.unit == c.unit and back.labels == c.labels
