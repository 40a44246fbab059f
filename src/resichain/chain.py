"""Finite residuated chains as multiplication tables over 0..n-1.

A chain of size n lives on the universe {0 < 1 < ... < n-1} with 0 the bottom
and n-1 the top. The data is the monoid unit and the full multiplication
table. Meet and join are min and max. On a finite chain both residuals exist
exactly when multiplication is monotone in each argument and the bottom
element is absorbing, so validation checks unit, associativity, monotonicity
and bottom-absorption and nothing else.

A chain is compiled once. Its canonical signature and its hash are computed
when it is built; its residual tables, unary tables and predicates on first
use, and then kept on the chain (``FiniteChain.tables``), as is the
decomposition signature of a commutative idempotent chain
(``decomposition.decompose``). Every chain is interned on (size, unit, mult,
labels): the same data returns the same object, and label variants of one
table share its rows. Equality and hashing read the table only, so label
variants of one table are equal and hash alike.

A table is checked once, where it enters. validate() is for tables from
outside (chain_from_json, and TRIVIAL below): it runs the invariant check on
a table not seen before. Every chain the library builds is a chain by
construction and is interned directly (_intern): go, com and nested_sum
(whose one check is that every summand but the last is admissible),
quotient() (a Congruence is always a congruence), the table search
(_search, which prunes on every invariant as it fills the table) and
_restrict (the subalgebras that the HS step and generated_pointed_subalgebra
find); restrict_to() checks a set from outside, then calls _restrict.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from ._record import Record
from .errors import InvalidChainError, SizeTooLarge, Violation

LEFT = "left"
RIGHT = "right"
ELL = "ell"
R = "r"
STAR = "star"

DEFAULT_MAX_SIZE = 7
_ENV_MAX_SIZE = "RESICHAIN_MAX_SIZE"


def enumeration_cap() -> int:
    raw = os.environ.get(_ENV_MAX_SIZE)
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_MAX_SIZE} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{_ENV_MAX_SIZE} must be positive")
    return cap


def check_cap(n: int, what: str = "size") -> None:
    """Refuse n above the enumeration cap with SizeTooLarge."""
    cap = enumeration_cap()
    if n > cap:
        raise SizeTooLarge(f"{what} {n} exceeds the enumeration cap {cap}")


def _encode_signature(size: int, unit: int, mult: tuple) -> bytes:
    flat = [size, unit]
    for row in mult:
        flat.extend(row)
    if size < 256:
        return b"\x01" + bytes(flat)
    return b"\x04" + b"".join(v.to_bytes(4, "big") for v in flat)


class FiniteChain(Record):
    """Immutable residuated chain. Build through validate() or a constructor.

    Two chains are equal when their tables are; labels do not count.
    """

    __slots__ = ("size", "unit", "mult", "labels", "signature", "_hash", "_tables",
                 "_decomposition")

    def __init__(self, size: int, unit: int, mult: tuple, labels: Optional[tuple] = None):
        init = object.__setattr__
        init(self, "size", size)
        init(self, "unit", unit)
        init(self, "mult", mult)
        init(self, "labels", labels)
        init(self, "_tables", None)
        # filled by decomposition.decompose on first use
        init(self, "_decomposition", None)
        init(self, "signature", _encode_signature(size, unit, mult))
        init(self, "_hash", hash((size, unit, mult)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteChain):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return self._hash

    @property
    def tables(self) -> "ChainTables":
        """Residual tables, unary tables and predicates, built on first use."""
        tables = self._tables
        if tables is None:
            tables = _build_tables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    def mul(self, x: int, y: int) -> int:
        return self.mult[x][y]

    @property
    def top(self) -> int:
        return self.size - 1

    def elements(self) -> range:
        return range(self.size)

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        if x == self.unit:
            return "e"
        return f"x{x}"

    def index_of_label(self, name: str) -> int:
        if self.labels is not None and name in self.labels:
            return self.labels.index(name)
        if name == "e":
            return self.unit
        if name.startswith("x"):
            try:
                idx = int(name[1:])
            except ValueError:
                raise KeyError(name)
            if 0 <= idx < self.size:
                return idx
        raise KeyError(name)

    def to_json(self) -> dict:
        out = {"size": self.size, "unit": self.unit, "mult": [list(r) for r in self.mult]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def __repr__(self) -> str:
        return f"FiniteChain(size={self.size}, unit={self.unit})"

    def __reduce__(self):
        return FiniteChain, (self.size, self.unit, self.mult, self.labels)


def chain_from_json(data: dict) -> FiniteChain:
    if not isinstance(data, dict):
        raise TypeError(f"a chain is a JSON object, not {type(data).__name__}")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise TypeError(f"labels must be a list, got {type(labels).__name__}")
    chain = validate(data["size"], data["unit"], data["mult"], labels=labels)
    # an element named by a repeated label could not be told apart. Labels
    # from outside enter only here: validate's other caller is TRIVIAL, and
    # the library interns the chains it builds through _intern
    if labels is not None and len(set(chain.labels)) < chain.size:
        names = chain.labels
        repeated = next(s for i, s in enumerate(names) if s in names[:i])
        raise ValueError(f"labels must be distinct, {repeated!r} repeats")
    return chain


# (size, unit, mult) of every chain's table -> {labels: chain}
_INTERNED: dict = {}


def validate(size: int, unit: int, mult: Sequence[Sequence[int]],
             labels: Optional[Sequence[str]] = None) -> FiniteChain:
    """Check a table from outside against the four chain invariants; raise
    InvalidChainError listing all failures. Library constructors intern
    what they build with _intern instead.

    Unit law and associativity report as NotAMonoid, order-preservation as
    NotMonotone, bottom-absorption as NotResiduated (it is exactly what
    residuation needs on top of the rest), a bad unit index as UnitOutOfRange.
    The shape of the table, its entries and the labels are checked on every
    call (a label must be a str); the invariants only on a table not interned
    before. Valid chains are interned: equal data gives back the same object,
    and label variants of one table share its rows.
    """
    # exactly int: 1.9, "0" and True would otherwise be read as integers
    if type(size) is not int or type(unit) is not int:
        raise TypeError("size and unit must be integers")
    if size < 1:
        raise ValueError("size must be at least 1")
    rows = tuple(map(tuple, mult))
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError("mult must be a size x size table")
    for x in range(size):
        for y in range(size):
            v = rows[x][y]
            if type(v) is not int:
                raise ValueError(f"table entry mult[{x}][{y}] must be an integer, got {v!r}")
            if not 0 <= v < size:
                raise ValueError(f"table entry mult[{x}][{y}] out of range")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != size:
            raise ValueError("labels must match size")
        for s in labels:
            if not isinstance(s, str):
                raise TypeError(f"labels must be strings, got {s!r}")

    if (size, unit, rows) not in _INTERNED:
        _check_invariants(size, unit, rows)
    return _intern(size, unit, rows, labels)


def _intern(size: int, unit: int, rows: tuple, labels: Optional[tuple]) -> FiniteChain:
    """The one chain kept for this table and these labels.

    rows is a tuple of tuples that is already known to be a chain's table:
    nothing here checks it.
    """
    variants = _INTERNED.get((size, unit, rows))
    if variants is None:
        variants = _INTERNED[(size, unit, rows)] = {}
    chain = variants.get(labels)
    if chain is None:
        if variants:
            rows = next(iter(variants.values())).mult
        chain = variants[labels] = FiniteChain(size, unit, rows, labels)
    return chain


def _check_invariants(size: int, unit: int, rows: tuple) -> None:
    violations = []
    if not 0 <= unit < size:
        violations.append(Violation("UnitOutOfRange", (unit,)))
    else:
        unit_bad = next(
            ((x,) for x in range(size) if rows[unit][x] != x or rows[x][unit] != x),
            None,
        )
        assoc_bad = None
        if unit_bad is None:
            for x in range(size):
                rx = rows[x]
                for y in range(size):
                    rxy = rows[rx[y]]
                    ry = rows[y]
                    for z in range(size):
                        if rxy[z] != rx[ry[z]]:
                            assoc_bad = (x, y, z)
                            break
                    if assoc_bad:
                        break
                if assoc_bad:
                    break
        if unit_bad is not None:
            violations.append(Violation("NotAMonoid", ("unit",) + unit_bad))
        elif assoc_bad is not None:
            violations.append(Violation("NotAMonoid", ("assoc",) + assoc_bad))

    mono_bad = None
    for x in range(size):
        for y in range(size - 1):
            if rows[x][y] > rows[x][y + 1]:
                mono_bad = ("row", x, y, y + 1)
                break
            if rows[y][x] > rows[y + 1][x]:
                mono_bad = ("col", x, y, y + 1)
                break
        if mono_bad:
            break
    if mono_bad:
        violations.append(Violation("NotMonotone", mono_bad))

    absorb_bad = next(
        (("bottom", x) for x in range(size) if rows[x][0] != 0 or rows[0][x] != 0),
        None,
    )
    if absorb_bad:
        violations.append(Violation("NotResiduated", absorb_bad))

    if violations:
        raise InvalidChainError(violations)


class ChainPredicates(Record):
    __slots__ = ("commutative", "idempotent", "star_involutive", "admissible")

    def __init__(self, commutative: bool, idempotent: bool, star_involutive: bool,
                 admissible: bool):
        super().__init__(commutative, idempotent, star_involutive, admissible)

    def as_dict(self) -> dict:
        return {
            "commutative": self.commutative,
            "idempotent": self.idempotent,
            "star_involutive": self.star_involutive,
            "admissible": self.admissible,
        }


KNOWN_FILTERS = frozenset(ChainPredicates._fields)


class ChainTables(NamedTuple):
    """What a chain derives from its table, built once per chain.

    lres[x][y] = x\\y = max{z : x*z <= y}; rres[x][y] = y/x = max{z : z*x <= y};
    ell(x) = e/x, r(x) = x\\e, star their meet.
    """

    lres: tuple
    rres: tuple
    ell: tuple
    r: tuple
    star: tuple
    predicates: ChainPredicates


def _build_tables(chain: FiniteChain) -> ChainTables:
    n = chain.size
    mult = chain.mult
    cols = tuple(zip(*mult))
    lres = tuple(_residual_rows(mult, n))
    rres = tuple(_residual_rows(cols, n))
    e = chain.unit
    ell = tuple(row[e] for row in rres)
    r = tuple(row[e] for row in lres)
    star = tuple(min(a, b) for a, b in zip(ell, r))
    preds = ChainPredicates(
        commutative=mult == cols,
        idempotent=all(mult[x][x] == x for x in range(n)),
        star_involutive=all(star[star[x]] == x for x in range(n)),
        admissible=all(ell[x] != e and r[x] != e for x in range(n) if x != e),
    )
    return ChainTables(lres, rres, ell, r, star, preds)


def _residual_rows(lines: tuple, n: int):
    """For each monotone line, the largest z with line[z] <= y, per y."""
    for line in lines:
        row = []
        z = 0
        for y in range(n):
            while z + 1 < n and line[z + 1] <= y:
                z += 1
            row.append(z)
        yield tuple(row)


def residual(chain: FiniteChain, x: int, y: int, side: str) -> int:
    """left: x\\y. right: y/x. Always defined on a valid chain."""
    if side == LEFT:
        return chain.tables.lres[x][y]
    if side == RIGHT:
        return chain.tables.rres[x][y]
    raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")


def derived(chain: FiniteChain, x: int, which: str) -> int:
    if which == ELL:
        return chain.tables.ell[x]
    if which == R:
        return chain.tables.r[x]
    if which == STAR:
        return chain.tables.star[x]
    raise ValueError(f"which must be one of {ELL!r}, {R!r}, {STAR!r}")


def predicates(chain: FiniteChain) -> ChainPredicates:
    return chain.tables.predicates


def subalgebra_generated(chain: FiniteChain, seed: Iterable[int]) -> frozenset:
    """Smallest subuniverse containing the seed.

    Idempotent chains only need closure under the two unary residual maps;
    otherwise close under multiplication and both residuals. Meet and join
    never add elements on a chain.
    """
    elems = set(int(x) for x in seed)
    for x in elems:
        if not 0 <= x < chain.size:
            raise ValueError(f"seed element {x} out of range")
    elems.add(chain.unit)
    tables = chain.tables
    if tables.predicates.idempotent:
        ell, r = tables.ell, tables.r
        frontier = list(elems)
        while frontier:
            x = frontier.pop()
            for nxt in (ell[x], r[x]):
                if nxt not in elems:
                    elems.add(nxt)
                    frontier.append(nxt)
    else:
        mult, lres, rres = chain.mult, tables.lres, tables.rres
        changed = True
        while changed:
            changed = False
            snapshot = list(elems)
            for x in snapshot:
                for y in snapshot:
                    for nxt in (mult[x][y], lres[x][y], rres[x][y]):
                        if nxt not in elems:
                            elems.add(nxt)
                            changed = True
    return frozenset(elems)


def restrict_to(chain: FiniteChain, subuniverse: Iterable[int]) -> FiniteChain:
    """The subalgebra on a subuniverse, reindexed onto 0..k-1.

    Raises ValueError when the set holds an element outside 0..n-1, misses
    the unit or is not closed under the product, and InvalidChainError with a NotResiduated violation
    ("residual", x, y) when it is closed under the product but x\\y or y/x
    lies outside it; (x, y) is the first such pair in sorted order.
    """
    inside = set(subuniverse)
    if not inside <= set(chain.elements()):
        raise ValueError("subuniverse elements must lie in the chain")
    if chain.unit not in inside:
        raise ValueError("subuniverse must contain the unit")
    order = sorted(inside)
    mult, lres, rres = chain.mult, chain.tables.lres, chain.tables.rres
    if any(mult[x][y] not in inside for x in order for y in order):
        raise ValueError("not closed under multiplication")
    for x in order:
        for y in order:
            if lres[x][y] not in inside or rres[x][y] not in inside:
                raise InvalidChainError([Violation("NotResiduated", ("residual", x, y))])
    return _restrict(chain, order)


def _restrict(chain: FiniteChain, order: list) -> FiniteChain:
    """The subalgebra on order, a sorted list that is already known to be a
    subuniverse: nothing here checks it. A subalgebra of a chain is a
    chain, so its table is interned without a check of its own."""
    pos = {x: i for i, x in enumerate(order)}
    mult = chain.mult
    rows = tuple(tuple(pos[mult[x][y]] for y in order) for x in order)
    labels = tuple(chain.label(x) for x in order) if chain.labels is not None else None
    return _intern(len(order), pos[chain.unit], rows, labels)


def canonical_signature(chain: FiniteChain) -> bytes:
    """Injective encoding of (size, unit, table).

    Any order isomorphism between chains on 0..n-1 is the identity, so equal
    signatures mean equal algebras and distinct signatures mean no isomorphism.
    """
    return chain.signature


def signature_hex(chain: FiniteChain) -> str:
    return chain.signature.hex()


def iso_equal(a: FiniteChain, b: FiniteChain) -> bool:
    return a.signature == b.signature


TRIVIAL = validate(1, 0, ((0,),), labels=("e",))


def enumerate_chains(n: int, filters: Iterable[str] = ()):
    """All residuated chains of size n meeting the filters, one per iso class.

    A filter is a field name of ChainPredicates; a chain is kept when every
    requested predicate holds. One backtracking search fills the table,
    pruning cell by cell on monotonicity and associativity (see _search);
    commutative and idempotent also narrow it. Results are sorted by
    canonical signature.
    """
    filters = frozenset(filters)
    unknown = filters - KNOWN_FILTERS
    if unknown:
        raise ValueError(f"unknown filters: {sorted(unknown)}")
    if n < 1:
        raise ValueError("size must be at least 1")
    check_cap(n)

    results = [TRIVIAL] if n == 1 else []
    for unit in range(1, n):
        _search(n, unit, "idempotent" in filters, "commutative" in filters, results)
    # the search itself keeps only commutative or idempotent tables when asked
    rest = filters - {"commutative", "idempotent"}
    results = [c for c in results if all(getattr(predicates(c), f) for f in rest)]
    results.sort(key=attrgetter("signature"))
    return results


def _search(n: int, unit: int, idempotent: bool, commutative: bool, results: list) -> None:
    """Append to results every chain of size n with this unit.

    The bottom and unit rows and columns are fixed; the free cells are placed
    in order of their larger coordinate, then row, then column. With
    idempotent the diagonal is fixed too and x*y is drawn from {x, y};
    otherwise from 0..n-1. With commutative only the cells with x <= y are
    placed, each mirrored. A cell takes only values between its nearest
    filled neighbours in its row and column, so rows and columns stay
    monotone, and each placement checks (ab)c = a(bc) on every triple that
    reads the new cell and whose other entries are set, so each partial
    table associates wherever it is defined. A symmetric table associates on
    (a, b, c) exactly when it does on (c, b, a), so the triples that read a
    mirrored cell need no check of their own. Each complete table is then a
    chain (the unit law and bottom absorption hold by the fixed rows and
    columns), so it is interned without a check of its own.
    """
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[x][0] = t[0][x] = 0
        t[unit][x] = t[x][unit] = x
        if idempotent:
            t[x][x] = x
    free = [x for x in range(1, n) if x != unit]
    cells = sorted(
        ((x, y) for x in free for y in free
         if not (idempotent and x == y) and not (commutative and x > y)),
        key=lambda c: (max(c), c),
    )
    # A triple with the bottom or the unit in it always associates, so the
    # check reads only free elements. where[v] lists the free cells (a, b)
    # that hold v: the triples that read a new x*y through ab = x or bc = y.
    where = [[] for _ in range(n)]
    if idempotent:
        for x in free:
            where[x].append((x, x))
    steps = []
    filled = {(x, y) for x in range(n) for y in range(n) if t[x][y] is not None}
    for x, y in cells:
        row = [b for b in range(n) if (x, b) in filled]
        col = [a for a in range(n) if (a, y) in filled]
        lo = ((x, max(b for b in row if b < y)), (max(a for a in col if a < x), y))
        hi = [(x, b) for b in row if b > y][:1] + [(a, y) for a in col if a > x][:1]
        steps.append((x, y, lo, hi, commutative and x != y))
        filled.update(((x, y), (y, x)) if commutative else ((x, y),))

    def associates(x: int, y: int, v: int) -> bool:
        """(ab)c = a(bc) wherever set, on the triples that read t[x][y] = v."""
        tx, ty, tv = t[x], t[y], t[v]
        for c in free:  # a, b = x, y
            yc, vc = ty[c], tv[c]
            if yc is not None and vc is not None:
                xyc = tx[yc]
                if xyc is not None and xyc != vc:
                    return False
        for a in free:  # b, c = x, y
            ta = t[a]
            ax, av = ta[x], ta[v]
            if ax is not None and av is not None:
                axy = t[ax][y]
                if axy is not None and axy != av:
                    return False
        for a, b in where[x]:  # ab = x, c = y
            by = t[b][y]
            if by is not None:
                aby = t[a][by]
                if aby is not None and aby != v:
                    return False
        for b, c in where[y]:  # a = x, bc = y
            xb = tx[b]
            if xb is not None:
                xbc = t[xb][c]
                if xbc is not None and xbc != v:
                    return False
        return True

    def place(i: int) -> None:
        if i == len(steps):
            results.append(_intern(n, unit, tuple(map(tuple, t)), None))
            return
        x, y, ((a, b), (c, d)), hi, mirror = steps[i]
        low = max(t[a][b], t[c][d])
        high = min([t[p][q] for p, q in hi], default=n - 1)
        values = [v for v in (x, y) if low <= v <= high] if idempotent else range(low, high + 1)
        tx, ty = t[x], t[y]
        for v in values:
            tx[y] = v
            where[v].append((x, y))
            if mirror:
                ty[x] = v
                where[v].append((y, x))
            if associates(x, y, v):
                place(i + 1)
            where[v].pop()
            if mirror:
                where[v].pop()
        tx[y] = None
        if mirror:
            ty[x] = None

    place(0)
