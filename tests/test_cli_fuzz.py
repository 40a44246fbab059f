"""Fuzzing the CLI contract in-process through main(): whatever the argv
and the JSON payloads, the CLI exits 0, 1 or 2 without an uncaught
exception, and prints one JSON line on stdout when it exits 0 or 1
(``verify all`` prints one per suite).

The search is derandomized and bounded so the suite stays deterministic.
Each argv is a well-formed call of one verb, built from every option and
value kind the verb takes, and one in five gets a token dropped or a stray
one inserted. Numbers stay small and RESICHAIN_MAX_SIZE is 4, so every
call is quick. ``--help`` and ``--format table`` are left out, because
both print text by design. ``--jobs`` is left out, because it starts
worker processes."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resichain.amalgamation import Span
from resichain.cli import build_parser, main
from resichain.constructors import com, go, nested_sum
from resichain.morphisms import enumerate_embeddings
from resichain.pointed import PointedChain
from resichain.selfcheck import SUITES

FILE = st.sampled_from(("P0", "P1", "-"))  # payload files and stdin
SPEC = st.sampled_from(
    ("go:2", "com:1,1", "sum:com:0,0+go:1", "sum:go:1+com:0,0", "go:x", "com:1", "bogus")
)
ELEMENT = st.sampled_from(("e", "a0", "b0", "b1", "c1", "x1", "0", "3", "-1", "[b0 e]"))
CLASS = st.sampled_from(
    ("inf:w,w,w", "e:1", "fin:1,0,1", "fin:1,0,1+e:1", "inf:0,0,1+e:w", "fin:2,0,1", "e:3")
)
WORD = st.sampled_from(("per:01", "per:0110@-1", "fin:{0,3}", "fin:{}", "fin:{a}", "per:"))
SYMBOL = st.sampled_from(("a:0", "b:-2", "e", "a:x", "b:7"))
NUMBER = st.sampled_from(("-3", "-1", "0", "1", "2", "3", "4", "x"))
SUITE = st.sampled_from(("all", *sorted(SUITES), "lemma:nope"))
NOISE = st.sampled_from(
    ("P0", "-", "e", "inf:w,w,w", "per:01", "a:0", "3", "--one-sided", "--bound",
     "--class", "--side", "--kernel", "--json", "--set", "--idempotent", "--format",
     "json", "extra")
)


def seq(*parts):
    """Concatenate argument lists: a string is one fixed argument, a
    strategy of strings one drawn argument, a list strategy drawn as is."""
    parts = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*parts).map(lambda lists: [a for lst in lists for a in lst])


def one(values):
    return values.map(lambda v: [v])


def opt(flag, values=None):
    """An option that is absent or present, with a drawn value if it takes one."""
    present = st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    return st.just([]) | present


SIDE = st.sampled_from(("left", "right", "up"))
KERNEL = st.sampled_from(("b0,a0", "e,a0", "e,e", "e", "c1,e", "q,e"))
OP = st.sampled_from(("mul", "residual", "unary", "leq", "reach"))
WHICH = st.sampled_from(("ell", "r", "star"))
FILTERS = [opt(f) for f in ("--commutative", "--idempotent", "--star-involutive", "--admissible")]

ARGV = {
    "make": one(SPEC),
    "show": seq(one(FILE), opt("--json")),
    "check": one(FILE),
    "residual": seq(one(ELEMENT), one(ELEMENT), one(FILE), opt("--side", SIDE)),
    "decompose": one(FILE),
    "embed": seq(one(FILE), one(FILE)),
    "homs": seq(one(FILE), one(FILE)),
    "congruences": one(FILE),
    "quotient": seq("--kernel", one(KERNEL), one(FILE)),
    "enumerate": seq(one(NUMBER), *FILTERS),
    "amalgamate": seq(
        one(FILE), opt("--one-sided"), opt("--construct"), opt("--bound", NUMBER),
        opt("--class", CLASS),
    ),
    "classify": one(FILE),
    "ap": one(FILE) | seq("--class", one(CLASS)),
    "words": seq("leq", one(WORD), one(WORD)) | seq("minimal", one(WORD)),
    "as-op": seq(
        "--set", one(WORD), one(OP), st.lists(SYMBOL, min_size=1, max_size=2),
        opt("--side", SIDE), opt("--which", WHICH), opt("--depth", NUMBER),
    ),
    "pcondition": one(FILE),
    "ppartition": st.just(["DIR"]),
    "verify": seq(one(SUITE), opt("--max-size", NUMBER), opt("--seed", NUMBER)),
}


@st.composite
def argv_strategy(draw):
    """A well-formed call of some verb, now and then with one token
    dropped or one stray token inserted."""
    verb = draw(st.sampled_from(sorted(ARGV)))
    args = list(draw(ARGV[verb]))
    how = draw(st.sampled_from(("keep", "keep", "keep", "drop", "insert")))
    if how == "drop" and args:
        del args[draw(st.integers(0, len(args) - 1))]
    elif how == "insert":
        args.insert(draw(st.integers(0, len(args))), draw(NOISE))
    return [verb] + args


def _span(a, b, c, k):
    legs_b, legs_c = enumerate_embeddings(a, b), enumerate_embeddings(a, c)
    return Span(a, b, c, legs_b[k % len(legs_b)], legs_c[-1 - k % len(legs_c)]).to_json()


CHAINS = [go(0).to_json(), go(2).to_json(), com(1, 1).to_json(), com(0, 2).to_json(),
          nested_sum([com(0, 0), go(1)]).to_json()]
SPANS = [_span(go(1), go(2), go(2), 1), _span(com(0, 0), com(1, 0), com(0, 1), 0)]
POINTED = [PointedChain(com(1, 0), 0).to_json(), PointedChain(go(2), 1).to_json()]

json_leaf = (
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
    | st.sampled_from((float("inf"), float("nan"), 10**30)) | st.text(max_size=4)
)
any_json = st.recursive(
    json_leaf,
    lambda kids: (
        st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def mutated(draw, base):
    """A well-formed payload with one field dropped or replaced, or with
    one entry of its table replaced."""
    data = dict(draw(st.sampled_from(base)))
    key = draw(st.sampled_from(sorted(data) + ["generators", "f", "extra"]))
    how = draw(st.sampled_from(("drop", "replace", "cell")))
    if how == "drop":
        data.pop(key, None)
    elif how == "replace" or "mult" not in data:
        data[key] = draw(any_json)
    else:
        rows = [list(row) for row in data["mult"]]
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, len(rows) - 1))] = draw(json_leaf)
        data["mult"] = rows
    return data


payload = st.one_of(
    st.sampled_from(CHAINS + SPANS + POINTED),
    st.lists(st.sampled_from(CHAINS), min_size=1, max_size=2),
    st.builds(lambda gens: {"generators": gens}, st.lists(st.sampled_from(CHAINS), max_size=2)),
    mutated(CHAINS), mutated(SPANS), mutated(POINTED),
    st.lists(mutated(CHAINS), min_size=1, max_size=2),
    any_json,
).map(lambda data: json.dumps(data, allow_nan=True)) | st.sampled_from(("not json", "", "[1,"))


def run_cli(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argv_strategy(), payloads=st.lists(payload, min_size=3, max_size=3))
def test_cli_contract_holds_for_any_argv_and_payload(argv, payloads):
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(
        os.environ, {"RESICHAIN_MAX_SIZE": "4"}
    ):
        paths = {"DIR": work}  # ppartition reads the payload files as pointed chains
        for name, text in zip(("P0", "P1"), payloads):
            paths[name] = os.path.join(work, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [paths.get(arg, arg) for arg in argv]
        code, stdout = run_cli(argv, payloads[2])
    assert code in (0, 1, 2), (argv, code)
    if code in (0, 1):
        lines = stdout.splitlines()
        every_suite = argv[0] == "verify" and build_parser().parse_args(argv).suite == "all"
        assert len(lines) == (len(SUITES) if every_suite else 1), (argv, stdout[:300])
        for line in lines:
            json.loads(line)
