"""Command line front end.

One binary, subcommand style. Chain data flows as JSON on stdin/stdout
so commands pipe: `resichain make com:1,1 | resichain check`. Exit codes:
0 success, 1 domain error (structured JSON on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chain import (
    ELL,
    KNOWN_FILTERS,
    LEFT,
    R,
    RIGHT,
    STAR,
    FiniteChain,
    chain_from_json,
    check_cap,
    enumerate_chains,
    enumeration_cap,
    predicates,
    residual,
    signature_hex,
)
from .errors import MalformedInput, ResichainError, SizeTooLarge

# Only chain and errors load with the CLI. Each handler imports the rest of
# what it uses, so a light verb does not load the classification,
# amalgamation and self-check modules.

# the largest chain `make` builds; its table and its output grow with the
# square of the size, and nothing checks it again (a fresh-interpreter
# go:127 takes 0.15-0.23 s on a 2-core machine, about what go:0 takes)
MAKE_MAX_SIZE = 128

# operand count of each as-op operation
ASOP_ARITY = {"mul": 2, "residual": 2, "unary": 1, "leq": 2, "reach": 1}


def _read_json(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise MalformedInput(f"not JSON: {exc}") from None
    except OSError as exc:
        _usage_error(str(exc))


def _decode(from_json, data):
    """Run a from_json reader; data it cannot read is a domain error."""
    try:
        return from_json(data)
    except KeyError as exc:
        raise MalformedInput(f"missing field {exc}") from None
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from None


def _parsed(parse, text: str):
    """Run a parser over argument text; text it rejects is a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        _usage_error(str(exc))


def _usage_error(msg: str):
    """Argument-level mistakes exit 2, like argparse does."""
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def _emit(obj, args) -> None:
    if getattr(args, "format", "json") == "table":
        _emit_table(obj)
    else:
        print(json.dumps(obj))


def _emit_table(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_table(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            _emit_table(v, indent)
    else:
        print(f"{indent}{obj}")


def _load_chain(path) -> FiniteChain:
    return _decode(chain_from_json, _read_json(path))


def _element(chain: FiniteChain, name: str) -> int:
    try:
        return chain.index_of_label(name)
    except (KeyError, ValueError):
        pass
    try:
        idx = int(name)
    except ValueError:
        _usage_error(f"unknown element {name!r}")
    if not 0 <= idx < chain.size:
        _usage_error(f"element index {idx} out of range")
    return idx


def parse_make_spec(spec: str) -> FiniteChain:
    """go:N, com:M,N, or sum:PART+PART+... with parts in the same syntax.
    The size is read off the whole spec before any table is built."""
    size, build = _make_plan(spec)
    if size > MAKE_MAX_SIZE:
        raise SizeTooLarge(f"size {size} exceeds the make limit {MAKE_MAX_SIZE}")
    return build()


def _make_plan(spec: str) -> tuple:
    """(size, build) for one spec: the chain's size, and a function that
    builds the chain."""
    from .constructors import com, go, nested_sum

    if spec.startswith("sum:"):
        plans = [_make_plan(p) for p in spec[4:].split("+")]
        # the parts share one unit
        size = 1 + sum(part_size - 1 for part_size, _ in plans)
        return size, lambda: nested_sum([build() for _, build in plans])
    try:
        if spec.startswith("go:"):
            n = int(spec[3:])
            if n < 0:
                raise ValueError(n)
            return n + 1, lambda: go(n)
        if spec.startswith("com:"):
            m, n = (int(v) for v in spec[4:].split(","))
            if min(m, n) < 0:
                raise ValueError(m, n)
            return m + n + 3, lambda: com(m, n)
    except ValueError:
        _usage_error(f"malformed constructor spec {spec!r}")
    _usage_error(f"unrecognized constructor spec {spec!r}")


def cmd_make(args) -> int:
    _emit(parse_make_spec(args.spec).to_json(), args)
    return 0


def cmd_show(args) -> int:
    c = _load_chain(args.file)
    if args.json or args.format == "json":
        print(json.dumps(c.to_json()))
        return 0
    print(" < ".join(c.label(x) for x in c.elements()))
    print(f"size {c.size}, unit {c.label(c.unit)}, signature {signature_hex(c)}")
    width = max(len(c.label(x)) for x in c.elements()) + 1
    header = " " * width + "".join(c.label(y).rjust(width) for y in c.elements())
    print(header)
    for x in c.elements():
        row = c.label(x).rjust(width)
        row += "".join(c.label(c.mul(x, y)).rjust(width) for y in c.elements())
        print(row)
    return 0


def cmd_check(args) -> int:
    c = _load_chain(args.file)
    _emit(predicates(c).as_dict(), args)
    return 0


def cmd_residual(args) -> int:
    c = _load_chain(args.file)
    x, y = _element(c, args.x), _element(c, args.y)
    z = residual(c, x, y, args.side)
    _emit({"x": c.label(x), "y": c.label(y), "side": args.side, "result": c.label(z)}, args)
    return 0


def cmd_decompose(args) -> int:
    from .decomposition import decompose

    c = _load_chain(args.file)
    sig = decompose(c)
    out = sig.to_json()
    out["text"] = sig.text()
    if args.format == "table":
        print(sig.text())
    else:
        _emit(out, args)
    return 0


def cmd_embed(args) -> int:
    from .morphisms import enumerate_embeddings

    a, b = _load_chain(args.a), _load_chain(args.b)
    maps = enumerate_embeddings(a, b)
    _emit({"count": len(maps), "maps": [m.to_json() for m in maps]}, args)
    return 0


def cmd_homs(args) -> int:
    from .morphisms import enumerate_homomorphisms

    a, b = _load_chain(args.a), _load_chain(args.b)
    maps = enumerate_homomorphisms(a, b)
    _emit({"count": len(maps), "maps": [m.to_json() for m in maps]}, args)
    return 0


def cmd_congruences(args) -> int:
    from .morphisms import congruences

    c = _load_chain(args.file)
    out = []
    for cong in congruences(c):
        out.append(
            {
                "kernel": [c.label(cong.kernel_class[0]), c.label(cong.kernel_class[-1])],
                "blocks": [[c.label(x) for x in blk] for blk in cong.blocks],
            }
        )
    _emit({"count": len(out), "congruences": out}, args)
    return 0


def cmd_quotient(args) -> int:
    from .morphisms import congruence_from_kernel, quotient

    c = _load_chain(args.file)
    try:
        lo_name, hi_name = args.kernel.split(",")
    except ValueError:
        _usage_error(f"--kernel takes LO,HI, got {args.kernel!r}")
    lo, hi = _element(c, lo_name), _element(c, hi_name)
    if lo > hi:
        lo, hi = hi, lo
    try:
        cong = congruence_from_kernel(c, range(lo, hi + 1))
    except ValueError as exc:
        print(json.dumps({"error": "InvalidKernel", "detail": str(exc)}))
        return 1
    q, _ = quotient(c, cong)
    _emit(q.to_json(), args)
    return 0


def cmd_enumerate(args) -> int:
    if args.size < 1:
        _usage_error("size must be at least 1")
    chains = enumerate_chains(args.size, [f for f in KNOWN_FILTERS if getattr(args, f)])
    if args.format == "table":
        print(f"count: {len(chains)}")
    else:
        _emit(
            {"size": args.size, "count": len(chains), "chains": [c.to_json() for c in chains]},
            args,
        )
    return 0


def cmd_amalgamate(args) -> int:
    from .amalgamation import (
        AmalgamResult,
        Refuted,
        amalgamate_components,
        find_amalgam,
        span_from_json,
        verify_amalgam,
    )

    if args.construct:
        # the zipper builds one amalgam and searches no pool
        search = {"--bound": args.bound is not None, "--class": args.cls,
                  "--one-sided": args.one_sided}
        given = [name for name, value in search.items() if value]
        if given:
            _usage_error(f"--construct does not take {', '.join(given)}")
    span = _decode(span_from_json, _read_json(args.span))
    bound = span.B.size + span.C.size if args.bound is None else args.bound
    if args.construct:
        res = amalgamate_components(span)
        ok = verify_amalgam(span, res)
        out = res.to_json()
        out["verified"] = ok
        _emit({"found": True, **out}, args)
        return 0
    if bound < max(span.B.size, span.C.size):
        _usage_error(f"--bound {bound} is below the span's own chains")
    if args.cls:
        from .classification import class_members, parse_class

        # class_members generates exactly the class, so no membership test.
        # The scan goes by size, so the first certificate among the members
        # up to some size is the first of all, and only the last pool is whole.
        cls = _parsed(parse_class, args.cls)
        complete = cls.is_finite and bound >= cls.max_member_size
        sizes = range(max(span.B.size, span.C.size), bound + 1)
        pools = ((n, class_members(cls, max_size=n)) for n in sizes)
    else:
        complete = False
        pools = [(bound, None)]
    for size, candidates in pools:
        res = find_amalgam(span, lambda d: True, size, one_sided=args.one_sided,
                           complete=complete and size == bound, candidates=candidates)
        if isinstance(res, AmalgamResult):
            break
    if isinstance(res, AmalgamResult):
        _emit({"found": True, **res.to_json()}, args)
    elif isinstance(res, Refuted):
        _emit({"found": False, "refuted": True, "checked": res.checked}, args)
    else:
        _emit({"found": False, "refuted": False, "size_bound": res.size_bound}, args)
    return 0


def _load_generators(path):
    """A list of chains, or an object with a "generators" list. A chain
    over the enumeration cap is refused before its closure is built: the
    closure's member count grows fast with the generator's size (265 for a
    16-element nested sum, 9,865 for a 26-element one)."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("generators")
    if not isinstance(data, list):
        raise MalformedInput('expected a list of chains or {"generators": [...]}')
    chains = [_decode(chain_from_json, d) for d in data]
    for c in chains:
        check_cap(c.size)
    return chains


def cmd_classify(args) -> int:
    from .classification import ap_verdict, hs_closure

    K = hs_closure(_load_generators(args.generators))
    _emit({"class": None, **ap_verdict(K).as_dict()}, args)
    return 0


def cmd_ap(args) -> int:
    from .classification import ap_verdict, hs_closure, parse_class

    if bool(args.cls) == bool(args.generators):
        _usage_error("ap needs exactly one of a generators file and --class")
    if args.cls:
        cls = _parsed(parse_class, args.cls)
        _emit({"ap": True, "class": cls.text()}, args)
        return 0
    K = hs_closure(_load_generators(args.generators))
    _emit(ap_verdict(K).as_dict(), args)
    return 0


def cmd_words(args) -> int:
    from .words import is_minimal, parse_word, preorder_leq

    if args.op == "leq":
        if args.w2 is None:
            _usage_error("words leq needs two words")
        w1, w2 = _parsed(parse_word, args.w1), _parsed(parse_word, args.w2)
        _emit(
            {"op": "leq", "w1": w1.text(), "w2": w2.text(), "holds": preorder_leq(w1, w2)},
            args,
        )
        return 0
    w = _parsed(parse_word, args.w1)
    out = {"op": "minimal", "word": w.text()}
    out.update(is_minimal(w).to_json())
    _emit(out, args)
    return 0


def cmd_asop(args) -> int:
    from . import zchain
    from .words import parse_word
    from .zchain import as_leq, as_mult, as_residual, as_unary, generated_reach, parse_element

    spec = _parsed(parse_word, args.set)
    op = args.op
    operands = [_parsed(parse_element, t) for t in args.elements]
    if len(operands) != ASOP_ARITY[op]:
        _usage_error(f"as-op {op} takes {ASOP_ARITY[op]} element(s), got {len(operands)}")
    if op == "mul":
        result = as_mult(spec, operands[0], operands[1]).text()
    elif op == "residual":
        result = as_residual(spec, operands[0], operands[1], args.side).text()
    elif op == "unary":
        result = as_unary(spec, operands[0], args.which).text()
    elif op == "leq":
        result = as_leq(operands[0], operands[1])
    else:
        if args.depth < 0:
            _usage_error("--depth must be a natural number")
        check_cap(args.depth, "depth")
        reach = generated_reach(spec, operands[0], args.depth)
        result = [el.text() for el in sorted(reach, key=zchain._order_key)]
    _emit({"result": result}, args)
    return 0


def cmd_pcondition(args) -> int:
    from .pointed import condition_of, pointed_from_json

    p = _decode(pointed_from_json, _read_json(args.file))
    _emit({"condition": condition_of(p)}, args)
    return 0


def cmd_ppartition(args) -> int:
    from .pointed import CONDITIONS, condition_of, cross_embedding_count, pointed_from_json

    try:
        names = sorted(n for n in os.listdir(args.dir) if n.endswith(".json"))
    except OSError as exc:
        _usage_error(str(exc))
    pool = [
        (name, _decode(pointed_from_json, _read_json(os.path.join(args.dir, name))))
        for name in names
    ]
    buckets = {c: [] for c in CONDITIONS}
    for name, p in pool:
        buckets[condition_of(p)].append(name)
    crossings = cross_embedding_count([p for _, p in pool])
    _emit({"buckets": buckets, "cross_embeddings": crossings}, args)
    return 0


def cmd_verify(args) -> int:
    from .selfcheck import SUITE_MAX_SIZE, SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            _usage_error(
                f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
            )
    if args.max_size < 1:
        _usage_error("--max-size must be at least 1")
    if args.jobs < 1:
        _usage_error("--jobs must be at least 1")
    check_cap(args.max_size)
    for name, limit in SUITE_MAX_SIZE.items():
        if name in names and args.max_size > limit:
            raise SizeTooLarge(f"{name} size {args.max_size} exceeds its limit {limit}")
    ok = True
    for name in names:
        checked, failures = SUITES[name](args.max_size, args.seed, args.jobs)
        # a suite that checked nothing proves nothing
        ok = ok and checked > 0 and not failures
        _emit(
            {
                "suite": name,
                "checked": checked,
                "passed": checked - len(failures),
                "failed": len(failures),
                "failures": failures[:10],
            },
            args,
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resichain",
        description="Finite idempotent residuated chains: build, check, decompose, amalgamate, classify.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("make", help="construct go:N, com:M,N, or sum:...")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(handler=cmd_make)

    p = subs.add_parser("show", help="render a chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_show)

    p = subs.add_parser("check", help="predicate report")
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("residual", help="x\\y or y/x by element label")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--side", choices=(LEFT, RIGHT), default=LEFT)
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_residual)

    p = subs.add_parser("decompose", help="nested-sum normal form")
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_decompose)

    p = subs.add_parser("embed", help="list embeddings A -> B")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(handler=cmd_embed)

    p = subs.add_parser("homs", help="list homomorphisms A -> B")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(handler=cmd_homs)

    p = subs.add_parser("congruences", help="list congruences")
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_congruences)

    p = subs.add_parser("quotient", help="quotient by kernel interval LO,HI")
    p.add_argument("--kernel", required=True)
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_quotient)

    p = subs.add_parser("enumerate", help="all chains of a size, up to isomorphism")
    p.add_argument("size", type=int)
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--idempotent", action="store_true")
    p.add_argument("--star-involutive", dest="star_involutive", action="store_true")
    p.add_argument("--admissible", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = subs.add_parser("amalgamate", help="complete a span from SPAN.json")
    p.add_argument("span")
    p.add_argument("--one-sided", dest="one_sided", action="store_true")
    p.add_argument("--bound", type=int)
    p.add_argument("--class", dest="cls")
    p.add_argument("--construct", action="store_true", help="use the component zipper")
    _add_common(p)
    p.set_defaults(handler=cmd_amalgamate)

    p = subs.add_parser("classify", help="classify the HS-closure of generators")
    p.add_argument("generators")
    _add_common(p)
    p.set_defaults(handler=cmd_classify)

    p = subs.add_parser("ap", help="amalgamation verdict")
    p.add_argument("generators", nargs="?")
    p.add_argument("--class", dest="cls")
    _add_common(p)
    p.set_defaults(handler=cmd_ap)

    p = subs.add_parser("words", help="bi-infinite word preorder and minimality")
    p.add_argument("op", choices=("leq", "minimal"))
    p.add_argument("w1")
    p.add_argument("w2", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_words)

    p = subs.add_parser("as-op", help="operate in the symbolic chain over a 0/1 word")
    p.add_argument("--set", required=True, help="word naming S, e.g. per:01")
    p.add_argument("op", choices=tuple(ASOP_ARITY))
    p.add_argument("elements", nargs="+")
    p.add_argument("--side", choices=(LEFT, RIGHT), default=LEFT)
    p.add_argument("--which", choices=(ELL, R, STAR), default=STAR)
    p.add_argument("--depth", type=int, default=3)
    _add_common(p)
    p.set_defaults(handler=cmd_asop)

    p = subs.add_parser("pcondition", help="condition of a pointed chain")
    p.add_argument("file", nargs="?")
    _add_common(p)
    p.set_defaults(handler=cmd_pcondition)

    p = subs.add_parser("ppartition", help="partition a directory of pointed chains")
    p.add_argument("dir")
    _add_common(p)
    p.set_defaults(handler=cmd_ppartition)

    p = subs.add_parser("verify", help="run a lemma verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--max-size", dest="max_size", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        enumeration_cap()
    except ValueError as exc:  # a bad RESICHAIN_MAX_SIZE
        _usage_error(str(exc))
    try:
        return args.handler(args)
    except ResichainError as exc:
        print(json.dumps(exc.payload()))
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
