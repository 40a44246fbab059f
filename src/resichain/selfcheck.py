"""Self-checks: brute-force oracles and the lemma suites built on them.

The oracles recompute facts from the raw Cayley table (``size``, ``unit``
and ``mult`` only) so the code under test never certifies itself. Slow is
fine; they only run at test sizes. Each suite replays one structural lemma
the library leans on and returns ``(checked, failures)``; the test suite
and ``resichain verify`` share both.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, partial
from typing import Callable, Iterator

from . import zchain
from .amalgamation import (
    AmalgamResult,
    BoundExhausted,
    Refuted,
    _construct,
    spans_over,
    verify_amalgam,
)
from .chain import (
    ELL,
    LEFT,
    R,
    RIGHT,
    STAR,
    FiniteChain,
    derived,
    enumerate_chains,
    iso_equal,
    residual,
    restrict_to,
    signature_hex,
)
from .classification import (
    _AUDIT_SIZE_CAP,
    ChainClass,
    RuleViolation,
    _hs_images,
    classify,
    find_refuting_span,
)
from .constructors import com, go
from .decomposition import DecompositionSignature, count_chains, decompose, recompose
from .errors import ResichainError
from .morphisms import (
    ChainMap,
    _embedding_verdict,
    congruence_from_kernel,
    congruences,
    enumerate_embeddings,
    enumerate_homomorphisms,
    quotient,
)
from .words import Periodic, parse_word
from .zchain import as_unary, parse_element

# ---------------------------------------------------------------------------
# oracles


def brute_residual(chain, x, y, side):
    # max z with x*z <= y (left) or z*x <= y (right); z=0 always works
    # because the bottom absorbs, so the max exists
    best = 0
    for z in chain.elements():
        prod = chain.mul(x, z) if side == LEFT else chain.mul(z, x)
        if prod <= y:
            best = z
    return best


def brute_ell(chain, x):
    # e/x
    return brute_residual(chain, x, chain.unit, RIGHT)


def brute_r(chain, x):
    # x\e
    return brute_residual(chain, x, chain.unit, LEFT)


def brute_star(chain, x):
    return min(brute_ell(chain, x), brute_r(chain, x))


def residual_tables(chain):
    n = chain.size
    left = [[brute_residual(chain, x, y, LEFT) for y in range(n)] for x in range(n)]
    right = [[brute_residual(chain, x, y, RIGHT) for y in range(n)] for x in range(n)]
    return left, right


def definitional_homomorphism(a, b, image, tables_a=None, tables_b=None):
    """Pointwise preservation of every operation: unit, meet, join,
    product, both residuals. No shortcuts."""
    la, ra = tables_a if tables_a else residual_tables(a)
    lb, rb = tables_b if tables_b else residual_tables(b)
    if image[a.unit] != b.unit:
        return False
    for x in range(a.size):
        for y in range(a.size):
            if image[a.mul(x, y)] != b.mul(image[x], image[y]):
                return False
            if image[min(x, y)] != min(image[x], image[y]):
                return False
            if image[max(x, y)] != max(image[x], image[y]):
                return False
            if image[la[x][y]] != lb[image[x]][image[y]]:
                return False
            if image[ra[x][y]] != rb[image[x]][image[y]]:
                return False
    return True


def definitional_embedding(a, b, image, tables_a=None, tables_b=None):
    if len(set(image)) != a.size:
        return False
    return definitional_homomorphism(a, b, image, tables_a, tables_b)


def brute_congruence_blocks(chain):
    """All interval partitions compatible with product and residuals.

    Classes of a chain congruence are order-convex, so scanning the
    2^(n-1) cut patterns is exhaustive. Meet and join are automatically
    compatible with any interval partition.
    """
    n = chain.size
    left, right = residual_tables(chain)
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        block = [0] * n
        b = 0
        for i in range(1, n):
            if cuts[i - 1]:
                b += 1
            block[i] = b
        ok = True
        for x in range(n):
            for y in range(n):
                for u in range(n):
                    if block[x] != block[u]:
                        continue
                    for v in range(n):
                        if block[y] != block[v]:
                            continue
                        if block[chain.mul(x, y)] != block[chain.mul(u, v)]:
                            ok = False
                        elif block[left[x][y]] != block[left[u][v]]:
                            ok = False
                        elif block[right[x][y]] != block[right[u][v]]:
                            ok = False
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            blocks = []
            for i in range(n):
                if i == 0 or block[i] != block[i - 1]:
                    blocks.append([i])
                else:
                    blocks[-1].append(i)
            out.append(tuple(tuple(blk) for blk in blocks))
    return out


def brute_is_chain(size, unit, rows) -> bool:
    """Whether a raw table is a residuated chain: the unit law, an absorbing
    bottom, monotone in each argument, and associative, each read from the
    table by its definition; chain.validate is not called."""
    n, t = size, rows
    return (
        all(t[unit][x] == x == t[x][unit] for x in range(n))
        and all(t[0][x] == 0 == t[x][0] for x in range(n))
        and all(
            t[x][y] <= t[x][y + 1] and t[y][x] <= t[y + 1][x]
            for x in range(n) for y in range(n - 1)
        )
        and all(
            t[t[x][y]][z] == t[x][t[y][z]]
            for x in range(n) for y in range(n) for z in range(n)
        )
    )


def brute_chains(n, idempotent=False):
    """Every residuated chain of size n, by trying every table.

    The bottom absorbs, so it is the unit of the one-element chain only.
    For each other unit the unit and bottom rows and columns are fixed
    (with idempotent, the diagonal too) and every other cell takes every
    value in 0..n-1. A table is kept when brute_is_chain holds.
    Sorted by signature.
    """
    found = []
    for unit in range(1, n) if n > 1 else (0,):
        base = [[None] * n for _ in range(n)]
        for x in range(n):
            base[unit][x] = base[x][unit] = x
            base[0][x] = base[x][0] = 0
            if idempotent:
                base[x][x] = x
        free = [(x, y) for x in range(n) for y in range(n) if base[x][y] is None]
        for values in itertools.product(range(n), repeat=len(free)):
            t = [row[:] for row in base]
            for (x, y), v in zip(free, values):
                t[x][y] = v
            if brute_is_chain(n, unit, t):
                found.append(FiniteChain(n, unit, tuple(map(tuple, t))))
    return sorted(found, key=lambda c: c.signature)


def _word_width(word) -> int:
    """A periodic word's period, or the width of a finite support (1 when
    there is no one)."""
    if isinstance(word, Periodic):
        return len(word.bits)
    return max(word.support, default=0) - min(word.support, default=0) + 1


def _word_window(word, reach: int) -> str:
    """The bits of a word on a stretch that shows every factor of length
    up to reach: one period repeated past reach bits, or the stretch from
    the first one to the last with reach zeros on either side."""
    if isinstance(word, Periodic):
        period = "".join(str(word.bit_at(i)) for i in range(len(word.bits)))
        return period * (reach // len(period) + 2)
    lo, hi = min(word.support, default=0), max(word.support, default=0)
    ones = "".join(str(word.bit_at(i)) for i in range(lo, hi + 1))
    return "0" * reach + ones + "0" * reach


def brute_preorder_leq(w1, w2) -> bool:
    """Whether every factor of w1 is a factor of w2, compared as factor
    sets at every length up to 2(p1 + p2) + 12, where p is a word's
    _word_width. Reads only bit_at."""
    bound = 2 * (_word_width(w1) + _word_width(w2)) + 12
    s1, s2 = _word_window(w1, bound), _word_window(w2, bound)
    return all(
        {s1[k : k + n] for k in range(len(s1) - n + 1)}
        <= {s2[k : k + n] for k in range(len(s2) - n + 1)}
        for n in range(1, bound + 1)
    )


def _window(elements, pad: int) -> list:
    """All symbolic elements whose index lies within pad of the inputs'
    index range; the unit is always included."""
    indices = [x.index for x in elements if x.kind != zchain.E]
    lo = (min(indices) if indices else 0) - pad
    hi = (max(indices) if indices else 0) + pad
    out = [zchain.UNIT]
    for i in range(lo, hi + 1):
        out.append(zchain.a(i))
        out.append(zchain.b(i))
    return out


def window_residual_oracle(spec, x, y, side, pad: int = 2):
    """Brute-force max{z : x·z ≤ y} (left) or max{z : z·x ≤ y} (right)
    over the padded index window; agrees with zchain.as_residual because
    the true residual's index stays within the window."""
    best = None
    for z in _window((x, y), pad):
        prod = zchain.as_mult(spec, x, z) if side == LEFT else zchain.as_mult(spec, z, x)
        if zchain.as_leq(prod, y):
            if best is None or zchain.as_compare(z, best) > 0:
                best = z
    assert best is not None, "window too small for a witness"
    return best


def reference_find_amalgam(
    span, class_membership, size_bound, one_sided=False, *, complete=False, candidates
):
    """find_amalgam's contract, searched the plain way: filter the whole
    pool, drop repeated signatures, sort, then filter every C-leg against
    every B-leg. Unlike the oracles above it calls the library's embedding
    and homomorphism enumeration; it checks the scan around them. Only the
    tests call it."""
    pool = _reference_pool(candidates, class_membership, size_bound)
    return _reference_scan(span, pool, size_bound, one_sided, complete)


def _reference_pool(candidates, class_membership, size_bound) -> list:
    """The candidates a reference search scans: those within the bound
    that the class admits, the first of each signature, sorted by size,
    then signature."""
    seen = set()
    filtered = []
    for d in candidates:
        if d.size > size_bound or not class_membership(d):
            continue
        key = d.signature
        if key in seen:
            continue
        seen.add(key)
        filtered.append(d)
    filtered.sort(key=lambda d: (d.size, d.signature))
    return filtered


def _reference_scan(span, filtered, size_bound, one_sided, complete):
    """reference_find_amalgam's scan over a pool from _reference_pool."""
    checked = 0
    for d in filtered:
        checked += 1
        if d.size < span.B.size or (not one_sided and d.size < span.C.size):
            continue
        jbs = enumerate_embeddings(span.B, d)
        if not jbs:
            continue
        legs = (enumerate_homomorphisms if one_sided else enumerate_embeddings)(span.C, d)
        for jb in jbs:
            forced = {
                span.i_C.image[x]: jb.image[span.i_B.image[x]]
                for x in range(span.A.size)
            }
            for jc in legs:
                if all(jc.image[k] == v for k, v in forced.items()):
                    return AmalgamResult(D=d, j_B=jb, j_C=jc, one_sided=one_sided)
    if complete:
        return Refuted(checked=checked)
    return BoundExhausted(size_bound=size_bound)


def reference_find_refuting_span(K):
    """find_refuting_span's contract, searched the plain way: build every
    span over K with spans_over and give each a complete one-sided
    reference_find_amalgam search over K itself, so no answer comes from
    the completion table the two library searches share. It skips no span,
    not even those that find_refuting_span knows a member completes. Only
    the tests call it."""
    members = list(K.members)
    bound = max(c.size for c in members)
    # every span scans the same pool, so it is filtered and sorted once
    pool = _reference_pool(members, lambda d: True, bound)
    for span in spans_over(members):
        res = _reference_scan(span, pool, bound, one_sided=True, complete=True)
        if isinstance(res, Refuted):
            return span, res
    return None, None


def reference_closure_rule_violations(K):
    """closure_rule_violations' contract, worked out the plain way from
    its own statement of the seven rules: each member signature, in
    K.signatures() order, lists the rule instances it is the first premise
    of, with a member of K as the second premise where the rule takes one;
    an instance whose conclusion has at most _AUDIT_SIZE_CAP elements and
    is not a member is a violation, and the first member to report a rule
    and conclusion names the premises. No index and no memo. Only the
    tests call it."""
    cap = _AUDIT_SIZE_CAP
    rules = ("i", "ii", "iii", "iv", "v", "vi", "vii")
    sigs = K.signatures()
    components = [o for o in sigs if len(o.pairs) == 1 and o.p == 0]
    tails = [o for o in sigs if not o.pairs]
    found = {}
    for sig in sigs:
        pairs, p = sig.pairs, sig.p
        instances = []  # (rule, second premise or None, conclusion's pairs and tail)
        if p == 2:
            instances += [("i", None, pairs, q) for q in range(1, cap)]
        if pairs[:2] == ((0, 0), (0, 0)):
            instances += [("ii", None, ((0, 0),) * k + pairs[2:], p) for k in range(1, cap)]
        if len(pairs) == 1 and p == 0:
            ((r, s),) = pairs
            if r == 2:
                instances += [("iii", None, ((m, s),), 0) for m in range(cap)]
                instances += [("iii", None, (), m) for m in range(cap)]
            if s == 2:
                instances += [("iv", None, ((r, n),), 0) for n in range(cap)]
            if s == 0:
                instances += [("v", o, ((r, o.pairs[0][1]),), 0) for o in components
                              if o.pairs[0][0] == 0]
        for i, pair in enumerate(pairs):
            if pair == (0, 0):
                instances += [("vi", o, pairs[:i] + o.pairs + pairs[i + 1 :], p) for o in components]
        if p == 1:
            instances += [("vii", o, pairs, o.p) for o in tails]
        for rule, other, missing_pairs, q in instances:
            missing = DecompositionSignature(missing_pairs, q)
            if missing.size <= cap and missing not in sigs:
                key = (rules.index(rule), missing.size, missing_pairs, q)
                premises = (sig,) if other is None else (sig, other)
                found.setdefault(key, RuleViolation(rule, tuple(x.text() for x in premises), missing))
    return tuple(found[key] for key in sorted(found))


def reference_hs_images(chain) -> tuple:
    """Every subalgebra, then every quotient, of one chain, in the order
    reference_hs_closure walks them. The subalgebras are those of
    _subuniverse_scan; the quotients come from the library's congruences,
    smallest kernel first. validate interns chains, so an image equal to
    the library's, labels and all, is the very same object."""
    return _reference_hs_images(chain, chain.labels)


@lru_cache(maxsize=None)
def _reference_hs_images(chain, labels) -> tuple:
    # remembered for the tests' repeated walks; label variants compare
    # equal, so the key keeps their images apart
    subalgebras = tuple(restrict_to(chain, subset) for subset in _subuniverse_scan(chain))
    return subalgebras + _reference_quotients(chain)


def reference_hs_step(chain) -> tuple:
    """_hs_images's contract on an idempotent chain, worked out the plain
    way: the maximal proper subuniverses among those of _subuniverse_scan,
    in its order, each as a subalgebra, then every quotient as in
    reference_hs_images. Only the tests call it."""
    proper = [s for s in _subuniverse_scan(chain) if len(s) < chain.size]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    return tuple(restrict_to(chain, s) for s in maximal) + _reference_quotients(chain)


def _subuniverse_scan(chain) -> list:
    """Every subuniverse of one chain, as a set, from a scan of every
    subset of the non-unit elements in mask order, each checked for closure
    against the raw table and brute-force residuals. Each holds the unit,
    so this is also the order of their element bitmasks."""
    left, right = residual_tables(chain)
    others = [x for x in chain.elements() if x != chain.unit]
    found = []
    for mask in range(1 << len(others)):
        subset = {chain.unit} | {x for i, x in enumerate(others) if mask >> i & 1}
        if all(
            chain.mul(x, y) in subset and left[x][y] in subset and right[x][y] in subset
            for x in subset
            for y in subset
        ):
            found.append(subset)
    return found


def _reference_quotients(chain) -> tuple:
    return tuple(quotient(chain, cong)[0] for cong in congruences(chain))


def reference_hs_closure(generators):
    """hs_closure's contract, built the plain way: one last-in first-out
    walk of reference_hs_images from all the generators, keeping the first
    chain reached for each signature. Only the tests call it."""
    pool = {}
    work = list(generators)
    while work:
        c = work.pop()
        key = c.signature
        if key in pool:
            continue
        pool[key] = c
        work.extend(reference_hs_images(c))
    return ChainClass(pool.values())


# ---------------------------------------------------------------------------
# lemma suites: each takes (max_size, seed, jobs)


def _idempotent_pool(max_size: int) -> list:
    out = []
    for n in range(1, max_size + 1):
        out.extend(enumerate_chains(n, filters=("idempotent",)))
    return out


def _emb_criterion_worker(na: int, max_size: int):
    checked, failures = 0, []
    pool = _idempotent_pool(max_size)
    tables = [residual_tables(c) for c in pool]
    for a, tables_a in zip(pool, tables):
        if a.size != na:
            continue
        for b, tables_b in zip(pool, tables):
            if b.size < a.size:
                continue
            for image in itertools.permutations(b.elements(), a.size):
                checked += 1
                # the criterion itself: each map is checked once, so going
                # through is_embedding would only churn its verdict table
                if _embedding_verdict(ChainMap(a, b, image)) != definitional_embedding(
                    a, b, image, tables_a, tables_b
                ):
                    failures.append(
                        f"criterion mismatch: {signature_hex(a)}->{signature_hex(b)} {image}"
                    )
    return checked, failures


def suite_embedding_criterion(max_size: int, seed: int, jobs: int):
    worker = partial(_emb_criterion_worker, max_size=max_size)
    return _merge(_pmap(worker, list(range(1, max_size + 1)), jobs))


def _closed_forms_worker(n: int):
    checked, failures = 0, []
    for c in enumerate_chains(n, filters=("commutative", "idempotent")):
        for x in c.elements():
            xr = derived(c, x, R)
            xl = derived(c, x, ELL)
            for y in c.elements():
                expect_l = max(xr, y) if x <= y else min(xr, y)
                expect_r = max(xl, y) if x <= y else min(xl, y)
                checked += 2
                if residual(c, x, y, LEFT) != expect_l:
                    failures.append(f"left residual {signature_hex(c)} x={x} y={y}")
                if residual(c, x, y, RIGHT) != expect_r:
                    failures.append(f"right residual {signature_hex(c)} x={x} y={y}")
    return checked, failures


def suite_closed_forms(max_size: int, seed: int, jobs: int):
    return _merge(_pmap(_closed_forms_worker, list(range(1, max_size + 1)), jobs))


def _decomposition_worker(n: int):
    checked, failures = 0, []
    sigs = set()
    chains = list(enumerate_chains(n, filters=("commutative", "idempotent")))
    for c in chains:
        sig = decompose(c)
        rc = recompose(sig)
        checked += 1
        if not iso_equal(rc, c):
            failures.append(f"round trip failed for {signature_hex(c)}")
        if sig.size != n:
            failures.append(f"size bookkeeping failed for {signature_hex(c)}")
        sigs.add(sig)
    if len(sigs) != len(chains):
        failures.append(f"signatures not unique at size {n}")
    return checked, failures


def suite_decomposition(max_size: int, seed: int, jobs: int):
    return _merge(_pmap(_decomposition_worker, list(range(1, max_size + 1)), jobs))


def suite_skeleton_contraction(max_size: int, seed: int, jobs: int):
    # com(0, 0), the smallest case, has size 3
    checked, failures = 0, []
    hi = max_size - 3
    for m in range(0, hi + 1):
        for n in range(0, hi + 1):
            c = com(m, n)
            lo = c.index_of_label("b0")
            cong = congruence_from_kernel(c, range(lo, c.size))
            q, _ = quotient(c, cong)
            checked += 1
            if not iso_equal(q, go(m)):
                failures.append(f"contraction of com({m},{n}) is not go({m})")
    return checked, failures


def _congruence_worker(n: int):
    checked, failures = 0, []
    for c in enumerate_chains(n, filters=("idempotent",)):
        checked += 1
        if {g.blocks for g in congruences(c)} != set(brute_congruence_blocks(c)):
            failures.append(f"congruences differ from brute force on {signature_hex(c)}")
    return checked, failures


def suite_congruences(max_size: int, seed: int, jobs: int):
    return _merge(_pmap(_congruence_worker, list(range(1, max_size + 1)), jobs))


def suite_star_involution(max_size: int, seed: int, jobs: int):
    checked, failures = 0, []
    if max_size < 1:
        return checked, failures
    rnd = random.Random(seed)
    for _ in range(1000):
        bits = tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, 8)))
        spec = parse_word(f"per:{''.join(map(str, bits))}@{rnd.randint(-3, 3)}")
        kind = rnd.choice(("a", "b"))
        el = parse_element(f"{kind}:{rnd.randint(-10**6, 10**6)}")
        checked += 1
        if as_unary(spec, as_unary(spec, el, STAR), STAR) != el:
            failures.append(f"star not involutive at {el.text()} over {spec.text()}")
    for _ in range(100):
        bits = tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, 6)))
        spec = parse_word(f"per:{''.join(map(str, bits))}@0")
        for i in range(-6, 7):
            for kind in ("a", "b"):
                el = parse_element(f"{kind}:{i}")
                ell = window_residual_oracle(spec, el, zchain.UNIT, RIGHT)
                rr = window_residual_oracle(spec, el, zchain.UNIT, LEFT)
                checked += 3
                if as_unary(spec, el, ELL) != ell:
                    failures.append(f"ell mismatch at {el.text()} over {spec.text()}")
                if as_unary(spec, el, R) != rr:
                    failures.append(f"r mismatch at {el.text()} over {spec.text()}")
                star = min((ell, rr), key=zchain._order_key)
                if as_unary(spec, el, STAR) != star:
                    failures.append(f"star mismatch at {el.text()} over {spec.text()}")
    return checked, failures


def _counting_worker(n: int):
    got = sum(1 for _ in enumerate_chains(n, filters=("commutative", "idempotent")))
    want = count_chains(n)
    if got != want:
        return 1, [f"size {n}: enumerated {got}, signature count {want}"]
    return 1, []


def suite_counting(max_size: int, seed: int, jobs: int):
    return _merge(_pmap(_counting_worker, list(range(1, max_size + 1)), jobs))


def _component_pool(max_size: int) -> list:
    """The Gödel and two-sided chains up to max_size."""
    pool = [go(q) for q in range(0, max_size)]
    pool += [
        com(m, n)
        for m in range(0, max_size)
        for n in range(0, max_size)
        if m + n + 3 <= max_size
    ]
    return pool


def suite_component_amalgams(max_size: int, seed: int, jobs: int):
    checked, failures = 0, []
    for span in spans_over(_component_pool(max_size)):
        try:
            # the construction itself: every span here is a one-off, so going
            # through amalgamate_components would only churn its memo
            res = _construct(span.A, span.B, span.C, span.i_B.image, span.i_C.image)
        except ResichainError:
            continue
        checked += 1
        if not verify_amalgam(span, res):
            failures.append(f"bad certificate for span over {span.A!r}")
        if res.D.size > span.B.size + span.C.size - span.A.size:
            failures.append(f"oversized amalgam for span over {span.A!r}")
    return checked, failures


def _closed_sets(n: int, close: Callable, start: int) -> Iterator[int]:
    """Every set over 0..n-1 that a closure operator fixes, as a bitmask,
    each once: start is the least fixed set, close(mask, x) the least one
    holding mask and x. Depth first over the elements in order, leaving x
    out before adding it; a branch ends where adding x brings back one left out."""
    stack = [(0, start, 0)]
    while stack:
        x, chosen, out = stack.pop()
        while x < n and chosen >> x & 1:
            x += 1
        if x == n:
            yield chosen
            continue
        grown = close(chosen, x)
        if not grown & out:
            stack.append((x + 1, grown, out))
        stack.append((x + 1, chosen, out | 1 << x))


def _hs_closed_sets(chains: list):
    """Every non-empty HS-closed subset of ``chains``, which lists chains
    in size order and holds the HS-images of each: the unions of reaches
    that _closed_sets lists. A chain's reach is itself and its images'
    reaches, known by its turn, since its other images are smaller."""
    index = {c.signature: i for i, c in enumerate(chains)}
    reach = []
    for i, c in enumerate(chains):
        reach.append(1 << i)
        for d in _hs_images(c):
            reach[i] |= reach[index[d.signature]]
    # one lookup per eight chains turns a set's mask into its list
    blocks = [[[c for k, c in enumerate(chains[b : b + 8]) if v >> k & 1] for v in range(256)]
              for b in range(0, len(chains), 8)]
    for mask in _closed_sets(len(chains), lambda m, i: m | reach[i], 0):
        if mask:
            yield [c for j, block in enumerate(blocks) for c in block[mask >> 8 * j & 255]]


def suite_ap_verdict(max_size: int, seed: int, jobs: int):
    # the classifier accepts a set exactly when no span over it lacks a
    # one-sided completion inside it
    checked, failures = 0, []
    chains = []
    for n in range(1, max_size + 1):
        chains.extend(enumerate_chains(n, filters=("commutative", "idempotent")))
    for members in _hs_closed_sets(chains):
        K = ChainClass(members)
        checked += 1
        has_ap = classify(K) is not None
        refuted = find_refuting_span(K)[0] is not None
        if has_ap == refuted:
            sigs = ", ".join(sorted(sig.text() for sig in K.signatures()))
            failures.append(f"classify and the span search disagree on {{{sigs}}}")
    return checked, failures


# the largest --max-size of each suite that has a limit, which verify
# enforces before any suite runs, naming the first limit here that a run
# passes. lemma:ap-verdict visits every HS-closed set: 267,195 at size 6,
# about 3.8e10 at 7. lemma:embedding-criterion checks every injective map
# between idempotent chains: 2,053,839 at size 6, about 1.07e8 at 7.
SUITE_MAX_SIZE = {"lemma:ap-verdict": 6, "lemma:embedding-criterion": 6}

SUITES = {
    "lemma:embedding-criterion": suite_embedding_criterion,
    "lemma:residual-closed-forms": suite_closed_forms,
    "lemma:decomposition-unique": suite_decomposition,
    "lemma:skeleton-contraction": suite_skeleton_contraction,
    "lemma:congruence-correspondence": suite_congruences,
    "lemma:star-involution": suite_star_involution,
    "lemma:counting": suite_counting,
    "lemma:component-amalgams": suite_component_amalgams,
    "lemma:ap-verdict": suite_ap_verdict,
}


def _pmap(fn, items, jobs):
    if jobs and jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def _merge(results):
    checked = sum(r[0] for r in results)
    failures = [f for r in results for f in r[1]]
    return checked, failures
