"""Canonical chain constructors and the nested ordinal-style sum.

go(n) is the (n+1)-element chain below the unit where multiplication is min.
com(m, n) is the chain b_m < ... < b_0 < e < a_n < ... < a_0 where products of
upper elements take the larger, products of lower elements take the smaller,
and mixed products fall to the lower factor. nested_sum glues summands at a
shared unit, each later summand strictly inside the previous one, and
returns the glued chain alone. Its elements keep their summands' labels;
a label that occurs in more than one summand gets the summand's position
as a suffix (b0.1, b0.2), so each element's origin can be read back from
the chain.

Each table is a chain by construction, so it is interned (chain._intern)
without a check of its own; the only checks are on the arguments, and
nested_sum's that every summand but the last is admissible.
"""

from __future__ import annotations

from typing import Sequence

from ._memo import remembered
from .chain import FiniteChain, _intern, predicates
from .errors import NotAdmissible


@remembered
def go(n: int) -> FiniteChain:
    """Goedel chain with n elements strictly below the unit; built once
    per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = n + 1
    table = [[min(x, y) for y in range(size)] for x in range(size)]
    labels = tuple(f"c{n - i}" for i in range(n)) + ("e",)
    return _intern(size, n, tuple(map(tuple, table)), labels)


@remembered
def com(m: int, n: int) -> FiniteChain:
    """Two-sided chain with m+1 elements below the unit and n+1 above;
    built once per (m, n)."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    size = m + n + 3
    u = m + 1
    table = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            if x == u:
                table[x][y] = y
            elif y == u:
                table[x][y] = x
            elif x < u or y < u:
                table[x][y] = min(x, y)
            else:
                table[x][y] = max(x, y)
    labels = (
        tuple(f"b{m - i}" for i in range(m + 1))
        + ("e",)
        + tuple(f"a{n - i}" for i in range(n + 1))
    )
    return _intern(size, u, tuple(map(tuple, table)), labels)


def nested_sum(parts: Sequence[FiniteChain]) -> FiniteChain:
    """Glue chains at a shared unit, each later summand strictly inside
    the previous one.

    Every summand except the last must be admissible, otherwise the result
    would not be residuated; the offending index is reported. An empty part
    list yields the one-element chain.
    """
    parts = tuple(parts)
    for i, part in enumerate(parts[:-1] if parts else ()):
        if not predicates(part).admissible:
            raise NotAdmissible(i)

    negs = [tuple(x for x in p.elements() if x < p.unit) for p in parts]
    poss = [tuple(x for x in p.elements() if x > p.unit) for p in parts]
    k = len(parts)

    order = []  # (part index, local element), unit handled separately
    for i in range(k):
        order.extend((i, x) for x in negs[i])
    unit_pos = len(order)
    order.append(None)
    for i in range(k - 1, -1, -1):
        order.extend((i, x) for x in poss[i])
    size = len(order)

    element_maps = [[unit_pos] * part.size for part in parts]
    for g, slot in enumerate(order):
        if slot is not None:
            i, x = slot
            element_maps[i][x] = g

    base_owner = {}  # base label -> set of part indices using it
    for slot in order:
        if slot is not None:
            i, x = slot
            base_owner.setdefault(parts[i].label(x), set()).add(i)
    out_labels = []
    for g, slot in enumerate(order):
        if slot is None:
            out_labels.append("e")
        else:
            i, x = slot
            base = parts[i].label(x)
            # qualify by summand position only when the same label occurs
            # in more than one summand
            if len(base_owner[base]) > 1:
                out_labels.append(f"{base}.{i + 1}")
            else:
                out_labels.append(base)

    table = [[0] * size for _ in range(size)]
    for gx, sx in enumerate(order):
        for gy, sy in enumerate(order):
            if sx is None:
                table[gx][gy] = gy
            elif sy is None:
                table[gx][gy] = gx
            else:
                i, x = sx
                j, y = sy
                if i == j:
                    table[gx][gy] = element_maps[i][parts[i].mult[x][y]]
                elif i < j:
                    table[gx][gy] = gx  # outer summand absorbs across summands
                else:
                    table[gx][gy] = gy
    return _intern(size, unit_pos, tuple(map(tuple, table)), tuple(out_labels))
