"""Command line front end.

One binary, subcommand style. Chain data flows as JSON on stdin/stdout
so commands pipe: `resichain make com:1,1 | resichain check`. Exit codes:
0 success, 1 domain error (structured JSON on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._cli_io import _decode, _element, _emit, _load_chain, _parsed, _read_json, _usage_error
from ._common import ELL, LEFT, R, RIGHT, STAR, check_cap, enumeration_cap
from .errors import ResichainError, SizeTooLarge

# Only errors and the names in _common load with the CLI. Each handler
# imports the rest of what it uses: the light verbs load chain and the
# module they query, words and as-op not even chain, and the verbs that
# search or classify live in _cli_heavy, which only they import.

# the largest chain `make` builds; its table and its output grow with the
# square of the size, and nothing checks it again (a fresh-interpreter
# go:127 takes 0.15-0.23 s on a 2-core machine, about what go:0 takes)
MAKE_MAX_SIZE = 128

# operand count of each as-op operation
ASOP_ARITY = {"mul": 2, "residual": 2, "unary": 1, "leq": 2, "reach": 1}


def parse_make_spec(spec: str):
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
    from .chain import signature_hex

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
    from .chain import predicates

    c = _load_chain(args.file)
    _emit(predicates(c).as_dict(), args)
    return 0


def cmd_residual(args) -> int:
    from .chain import residual

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


def _arg(*flags, **options) -> tuple:
    return flags, options


_FILE = _arg("file", nargs="?")

# One declaration per verb, from which build_parser makes both the full
# parser and a one-verb parser: verb -> (help, handler, arguments). Every
# verb takes --format as well. A handler given by name is in _cli_heavy.
_VERBS = {
    "make": ("construct go:N, com:M,N, or sum:...", cmd_make, [_arg("spec")]),
    "show": ("render a chain", cmd_show, [_FILE, _arg("--json", action="store_true")]),
    "check": ("predicate report", cmd_check, [_FILE]),
    "residual": ("x\\y or y/x by element label", cmd_residual, [
        _arg("x"), _arg("y"), _arg("--side", choices=(LEFT, RIGHT), default=LEFT), _FILE,
    ]),
    "decompose": ("nested-sum normal form", cmd_decompose, [_FILE]),
    "embed": ("list embeddings A -> B", cmd_embed, [_arg("a"), _arg("b")]),
    "homs": ("list homomorphisms A -> B", cmd_homs, [_arg("a"), _arg("b")]),
    "congruences": ("list congruences", cmd_congruences, [_FILE]),
    "quotient": ("quotient by kernel interval LO,HI", cmd_quotient, [
        _arg("--kernel", required=True), _FILE,
    ]),
    "enumerate": ("all chains of a size, up to isomorphism", "cmd_enumerate", [
        _arg("size", type=int),
        _arg("--commutative", action="store_true"),
        _arg("--idempotent", action="store_true"),
        _arg("--star-involutive", dest="star_involutive", action="store_true"),
        _arg("--admissible", action="store_true"),
    ]),
    "amalgamate": ("complete a span from SPAN.json", "cmd_amalgamate", [
        _arg("span"),
        _arg("--one-sided", dest="one_sided", action="store_true"),
        _arg("--bound", type=int),
        _arg("--class", dest="cls"),
        _arg("--construct", action="store_true", help="use the component zipper"),
    ]),
    "classify": ("classify the HS-closure of generators", "cmd_classify", [_arg("generators")]),
    "ap": ("amalgamation verdict", "cmd_ap", [
        _arg("generators", nargs="?"), _arg("--class", dest="cls"),
    ]),
    "words": ("bi-infinite word preorder and minimality", cmd_words, [
        _arg("op", choices=("leq", "minimal")), _arg("w1"), _arg("w2", nargs="?"),
    ]),
    "as-op": ("operate in the symbolic chain over a 0/1 word", cmd_asop, [
        _arg("--set", required=True, help="word naming S, e.g. per:01"),
        _arg("op", choices=tuple(ASOP_ARITY)),
        _arg("elements", nargs="+"),
        _arg("--side", choices=(LEFT, RIGHT), default=LEFT),
        _arg("--which", choices=(ELL, R, STAR), default=STAR),
        _arg("--depth", type=int, default=3),
    ]),
    "pcondition": ("condition of a pointed chain", cmd_pcondition, [_FILE]),
    "ppartition": ("partition a directory of pointed chains", "cmd_ppartition", [_arg("dir")]),
    "verify": ("run a lemma verification suite", "cmd_verify", [
        _arg("suite", help="suite name or 'all'"),
        _arg("--max-size", dest="max_size", type=int, default=4),
        _arg("--jobs", type=int, default=1),
        _arg("--seed", type=int, default=0),
    ]),
}


class _Reparse(Exception):
    """A one-verb parser met an argument it rejects."""


class _OneVerbParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Reparse


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The full parser; with a verb, a parser that holds only that verb and
    raises _Reparse wherever the full one would print a usage error."""
    parser = (argparse.ArgumentParser if verb is None else _OneVerbParser)(
        prog="resichain",
        description="Finite idempotent residuated chains: build, check, decompose, amalgamate, classify.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, (text, _, arguments) in _VERBS.items():
        if verb in (None, name):
            sub = subs.add_parser(name, help=text)
            for flags, options in arguments:
                sub.add_argument(*flags, **options)
            sub.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    # building one verb's parser is most of argparse's cost; an argv it
    # rejects is parsed again in full, so the usage error reads the same
    if argv and argv[0] in _VERBS:
        try:
            args = build_parser(argv[0]).parse_args(argv)
        except _Reparse:
            pass
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        enumeration_cap()
    except ValueError as exc:  # a bad RESICHAIN_MAX_SIZE
        _usage_error(str(exc))
    handler = _VERBS[args.verb][1]
    if isinstance(handler, str):
        from . import _cli_heavy

        handler = getattr(_cli_heavy, handler)
    try:
        return handler(args)
    except ResichainError as exc:
        print(json.dumps(exc.payload()))
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
