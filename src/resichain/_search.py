"""The general table search behind chain.enumerate_chains.

Only enumerate_chains imports this module, when it is called, so the other
users of chain do not compile it.
"""

from __future__ import annotations

from .chain import _intern


def search(n: int, unit: int, idempotent: bool, commutative: bool, results: list) -> None:
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
