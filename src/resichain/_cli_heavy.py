"""The CLI verbs that search or classify: enumerate, amalgamate, classify,
ap, ppartition and verify.

cli imports this module only when one of these verbs runs, so the light
verbs do not compile it.
"""

from __future__ import annotations

import os

from ._cli_io import _decode, _emit, _parsed, _read_json, _usage_error
from ._common import check_cap
from .chain import KNOWN_FILTERS, chain_from_json, enumerate_chains
from .errors import MalformedInput, SizeTooLarge


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
