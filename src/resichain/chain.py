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
(``decomposition.decompose``). validate() interns
chains on (size, unit, mult, labels): the same data returns the same object
without checking it again, and a table already validated under other labels
is not checked again either. Equality and hashing read the table only, so
label variants of one table are equal and hash alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _encode_signature(size: int, unit: int, mult: tuple) -> bytes:
    flat = [size, unit]
    for row in mult:
        flat.extend(row)
    if size < 256:
        return b"\x01" + bytes(flat)
    return b"\x04" + b"".join(v.to_bytes(4, "big") for v in flat)


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Immutable residuated chain. Build through validate() or a constructor.

    Two chains are equal when their tables are; labels do not count.
    """

    size: int
    unit: int
    mult: tuple
    labels: Optional[tuple] = None
    signature: bytes = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _tables: Optional["ChainTables"] = field(init=False, repr=False, default=None)
    # filled by decomposition.decompose on first use
    _decomposition: Optional["DecompositionSignature"] = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(self, "signature", _encode_signature(self.size, self.unit, self.mult))
        object.__setattr__(self, "_hash", hash((self.size, self.unit, self.mult)))

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


def chain_from_json(data: dict) -> FiniteChain:
    if not isinstance(data, dict):
        raise TypeError(f"a chain is a JSON object, not {type(data).__name__}")
    labels = data.get("labels")
    return validate(
        data["size"],
        data["unit"],
        data["mult"],
        labels=tuple(labels) if labels is not None else None,
    )


# (size, unit, mult) of every validated table -> {labels: chain}
_INTERNED: dict = {}


def validate(size: int, unit: int, mult: Sequence[Sequence[int]],
             labels: Optional[Sequence[str]] = None) -> FiniteChain:
    """Check the four chain invariants; raise InvalidChainError listing all failures.

    Unit law and associativity report as NotAMonoid, order-preservation as
    NotMonotone, bottom-absorption as NotResiduated (it is exactly what
    residuation needs on top of the rest), a bad unit index as UnitOutOfRange.
    Valid chains are interned: equal data gives back the same object, and
    label variants of one table share its rows.
    """
    if not isinstance(size, int) or not isinstance(unit, int):
        raise TypeError("size and unit must be integers")
    if size < 1:
        raise ValueError("size must be at least 1")
    rows = tuple(tuple(int(v) for v in row) for row in mult)
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError("mult must be a size x size table")
    for x in range(size):
        for y in range(size):
            if not 0 <= rows[x][y] < size:
                raise ValueError(f"table entry mult[{x}][{y}] out of range")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != size:
            raise ValueError("labels must match size")

    variants = _INTERNED.get((size, unit, rows))
    if variants is None:
        _check_invariants(size, unit, rows)
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


@dataclass(frozen=True)
class ChainPredicates:
    commutative: bool
    idempotent: bool
    star_involutive: bool
    admissible: bool

    def as_dict(self) -> dict:
        return {
            "commutative": self.commutative,
            "idempotent": self.idempotent,
            "star_involutive": self.star_involutive,
            "admissible": self.admissible,
        }


KNOWN_FILTERS = frozenset(f.name for f in fields(ChainPredicates))


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
    """The subalgebra on a subuniverse, reindexed onto 0..k-1."""
    order = sorted(set(subuniverse))
    if chain.unit not in order:
        raise ValueError("subuniverse must contain the unit")
    pos = {x: i for i, x in enumerate(order)}
    k = len(order)
    table = [[0] * k for _ in range(k)]
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            v = chain.mult[x][y]
            if v not in pos:
                raise ValueError("not closed under multiplication")
            table[i][j] = pos[v]
    labels = tuple(chain.label(x) for x in order) if chain.labels is not None else None
    return validate(k, pos[chain.unit], table, labels=labels)


def is_subuniverse(chain: FiniteChain, subset: Iterable[int]) -> bool:
    s = set(subset)
    if chain.unit not in s:
        return False
    mult, lres, rres = chain.mult, chain.tables.lres, chain.tables.rres
    for x in s:
        for y in s:
            if mult[x][y] not in s or lres[x][y] not in s or rres[x][y] not in s:
                return False
    return True


def canonical_signature(chain: FiniteChain) -> bytes:
    """Injective encoding of (size, unit, table).

    Any order isomorphism between chains on 0..n-1 is the identity, so equal
    signatures mean equal algebras and distinct signatures mean no isomorphism.
    """
    return chain.signature


def signature_hex(chain: FiniteChain) -> str:
    return canonical_signature(chain).hex()


def iso_equal(a: FiniteChain, b: FiniteChain) -> bool:
    return a.signature == b.signature


TRIVIAL = validate(1, 0, ((0,),), labels=("e",))


def enumerate_chains(n: int, filters: Iterable[str] = ()):
    """All residuated chains of size n meeting the filters, one per iso class.

    A filter is a field name of ChainPredicates; a chain is kept when every
    requested predicate holds. One backtracking search fills the table;
    commutative and idempotent also narrow it (see _search), which is what
    makes idempotent sizes past 7 practical. Without idempotent the search
    ranges over full tables and is only practical for small n. Results are
    sorted by canonical signature.
    """
    filters = frozenset(filters)
    unknown = filters - KNOWN_FILTERS
    if unknown:
        raise ValueError(f"unknown filters: {sorted(unknown)}")
    if n < 1:
        raise ValueError("size must be at least 1")
    cap = enumeration_cap()
    if n > cap:
        raise SizeTooLarge(f"size {n} exceeds the enumeration cap {cap}")

    results = [TRIVIAL] if n == 1 else []
    for unit in range(1, n):
        _search(n, unit, "idempotent" in filters, "commutative" in filters, results)
    results = [c for c in results if all(getattr(predicates(c), f) for f in filters)]
    results.sort(key=canonical_signature)
    return results


def _search(n: int, unit: int, idempotent: bool, commutative: bool, results: list) -> None:
    """Append to results every chain of size n with this unit.

    The bottom and unit rows and columns are fixed; the free cells are placed
    in order of their larger coordinate k. With idempotent the diagonal is
    fixed too and x*y is drawn from {x, y}; otherwise from 0..n-1. With
    commutative only the cells with x <= y are placed, each mirrored. Every
    value must keep its row and column monotone, and once the last cell of k
    is placed, the triples involving k must associate wherever their entries
    are set. validate() alone judges each complete table.
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

    def assoc_ok(k: int) -> bool:
        members = [x for x in range(n) if x <= k or x == unit]
        for a in members:
            for b in members:
                ab = t[a][b]
                for c in members if k in (a, b) else (k,):
                    bc = t[b][c]
                    if ab is None or bc is None:
                        continue
                    left, right = t[ab][c], t[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def place(i: int) -> None:
        if i == len(cells):
            try:
                results.append(validate(n, unit, t))
            except InvalidChainError:
                pass
            return
        x, y = cells[i]
        k = max(x, y)
        last_for_k = i + 1 == len(cells) or max(cells[i + 1]) != k
        for v in (x, y) if idempotent else range(n):
            t[x][y] = v
            if commutative:
                t[y][x] = v
            if _row_col_ok(t, x, y, n) and (not last_for_k or assoc_ok(k)):
                place(i + 1)
        t[x][y] = None
        if commutative:
            t[y][x] = None

    place(0)


def _row_col_ok(t, x: int, y: int, n: int) -> bool:
    """Monotonicity around a fresh entry against already filled neighbours."""
    v = t[x][y]
    for yy in range(y - 1, -1, -1):
        if t[x][yy] is not None:
            if t[x][yy] > v:
                return False
            break
    for yy in range(y + 1, n):
        if t[x][yy] is not None:
            if v > t[x][yy]:
                return False
            break
    for xx in range(x - 1, -1, -1):
        if t[xx][y] is not None:
            if t[xx][y] > v:
                return False
            break
    for xx in range(x + 1, n):
        if t[xx][y] is not None:
            if v > t[xx][y]:
                return False
            break
    return True
