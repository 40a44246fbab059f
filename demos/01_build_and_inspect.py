#!/usr/bin/env python3
"""Build the basic chains, poke at their operations, round-trip JSON.

Covers: go / com constructors, Cayley tables, residuals, the three
unit-derived unary maps, predicate flags, nested sums.
"""

import json

from resichain import ELL, LEFT, R, STAR, chain_from_json, decompose, derived, predicates, residual
from resichain.constructors import com, go, nested_sum


def dump_table(chain):
    labels = [chain.label(x) for x in chain.elements()]
    width = max(len(s) for s in labels)
    head = " " * (width + 1) + " ".join(f"{s:>{width}}" for s in labels)
    print(head)
    for x in chain.elements():
        row = " ".join(
            f"{chain.label(chain.mul(x, y)):>{width}}" for y in chain.elements()
        )
        print(f"{chain.label(x):>{width}} {row}")


def main():
    print("relative Stone chain go(2): three elements below nothing above")
    g = go(2)
    dump_table(g)
    print()

    print("two-sided chain com(1,1): one extra element on each side of e")
    c = com(1, 1)
    dump_table(c)
    print()

    a1 = c.index_of_label("a1")
    b1 = c.index_of_label("b1")
    print("left residual a1 \\ b1 =", c.label(residual(c, a1, b1, LEFT)))
    for which in (ELL, R, STAR):
        print(f"  a1^{which} =", c.label(derived(c, a1, which)))
    print()

    flags = predicates(c)
    print("predicates of com(1,1):", flags.as_dict())
    print("(star fails to be involutive: a1^** climbs back to a different spot)")
    print()

    glued = nested_sum([com(0, 0), go(1)])
    print("nested sum com(0,0) + go(1):", [glued.label(x) for x in glued.elements()])
    print("normal form:", decompose(glued).text())
    print()

    blob = json.dumps(c.to_json())
    again = chain_from_json(json.loads(blob))
    print("JSON round trip exact:", again == c)


if __name__ == "__main__":
    main()
