"""Command line behavior: output shapes, exit codes, piping, and
determinism. Runs in-process through main(argv); the pipe test and the
malformed-input contract drive the real interpreter, which is where a
traceback would show."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import resichain
from resichain import amalgamation, canonical_signature, chain_from_json, classification, cli
from resichain.cli import build_parser, main
from resichain.constructors import com, go, nested_sum
from resichain.pointed import PointedChain
from resichain.selfcheck import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def chain_file(tmp_path, chain, name="chain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(chain.to_json()))
    return str(path)


# --- construction and inspection ------------------------------------------


def test_make_emits_the_chain_as_json(capsys):
    code, got = run_json(capsys, "make", "go:1")
    assert code == 0
    assert got == {"size": 2, "unit": 1, "mult": [[0, 0], [0, 1]], "labels": ["c1", "e"]}
    assert list(got) == ["size", "unit", "mult", "labels"]


def test_make_glues_sum_specs(capsys):
    code, got = run_json(capsys, "make", "sum:com:0,0+go:1")
    assert code == 0
    assert got["labels"] == ["b0", "c1", "e", "a0"]


def test_make_rejects_unknown_spec(capsys):
    with pytest.raises(SystemExit) as err:
        main(["make", "bogus:1"])
    assert err.value.code == 2


def test_make_reports_domain_errors_as_payload(capsys):
    code, got = run_json(capsys, "make", "sum:go:1+com:0,0")
    assert code == 1
    assert got["error"] == "NotAdmissible"
    assert got["witness"] == 0


def test_check_reports_the_predicate_quadruple(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    code, got = run_json(capsys, "check", path)
    assert code == 0
    assert got == {
        "commutative": True,
        "idempotent": True,
        "star_involutive": False,
        "admissible": True,
    }
    assert list(got) == ["commutative", "idempotent", "star_involutive", "admissible"]


def test_show_renders_a_table(capsys, tmp_path):
    path = chain_file(tmp_path, com(0, 0))
    code, out = run(capsys, "show", "--format", "table", path)
    assert code == 0
    assert out.splitlines()[0] == "b0 < e < a0"
    assert "size 3" in out


def test_unknown_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# --- per-module verbs ------------------------------------------------------


def test_residual_by_label(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    code, got = run_json(capsys, "residual", "a1", "b1", path)
    assert code == 0
    assert got == {"x": "a1", "y": "b1", "side": "left", "result": "b1"}


def test_residual_rejects_unknown_labels(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    with pytest.raises(SystemExit) as err:
        main(["residual", "zz", "b1", path])
    assert err.value.code == 2


def test_decompose_prints_the_signature(capsys, tmp_path):
    base = nested_sum([com(1, 1), go(2)])
    path = chain_file(tmp_path, base)
    code, got = run_json(capsys, "decompose", path)
    assert code == 0
    assert got["text"] == "C(1,1) ⊞ Go_2"
    assert got["pairs"] == [[1, 1]] and got["p"] == 2


def test_embed_counts_placements(capsys, tmp_path):
    a = chain_file(tmp_path, go(1), "a.json")
    b = chain_file(tmp_path, go(3), "b.json")
    code, got = run_json(capsys, "embed", a, b)
    assert code == 0
    assert got["count"] == 3
    assert sorted(m["image"] for m in got["maps"]) == [[0, 3], [1, 3], [2, 3]]


def test_homs_lists_both_collapses(capsys, tmp_path):
    a = chain_file(tmp_path, go(2), "a.json")
    b = chain_file(tmp_path, go(1), "b.json")
    code, got = run_json(capsys, "homs", a, b)
    assert code == 0
    assert got["count"] == 2
    assert sorted(m["image"] for m in got["maps"]) == [[0, 1, 1], [1, 1, 1]]


def test_congruence_listing(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    code, got = run_json(capsys, "congruences", path)
    assert code == 0
    assert got["count"] == 3
    kernels = [c["kernel"] for c in got["congruences"]]
    assert ["b0", "a0"] in kernels


def test_quotient_collapses_the_inner_interval(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    code, got = run_json(capsys, "quotient", "--kernel", "b0,a0", path)
    assert code == 0
    assert canonical_signature(chain_from_json(got)) == canonical_signature(go(1))


def test_quotient_rejects_a_non_kernel_interval(capsys, tmp_path):
    path = chain_file(tmp_path, com(1, 1))
    code, got = run_json(capsys, "quotient", "--kernel", "b0,a1", path)
    assert code == 1
    assert got["error"] == "InvalidKernel"


def test_a_quotient_label_that_would_repeat_gets_a_suffix(capsys, tmp_path):
    # the merged block's bracketed label equals the first element's label
    blob = dict(com(1, 1).to_json(), labels=["[b0 e x a1]", "b0", "e", "x", "a1"])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "quotient", "--kernel", "b0,a1", str(path))
    assert code == 0
    assert json.loads(out)["labels"] == ["[b0 e x a1]", "[b0 e x a1].2"]
    path.write_text(out)
    code, _ = run(capsys, "show", str(path))
    assert code == 0


def test_enumerate_with_filters(capsys):
    code, got = run_json(capsys, "enumerate", "3", "--commutative", "--idempotent")
    assert code == 0
    assert got["count"] == 2 and len(got["chains"]) == 2


def test_enumeration_cap_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "3")
    code, got = run_json(capsys, "enumerate", "4")
    assert code == 1
    assert got["error"] == "SizeTooLarge"


# the table of a four-element chain with unit 3 that is neither idempotent
# nor commutative
NONIDEMPOTENT = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]]

# CHAIN, NO_UNIT, LIST, INFINITE and MISSING stand for paths the test makes;
# want is 2 for a usage error, else the error code of the one exit-1 line
CONTRACT_CASES = [
    (["make", "go:x"], None, 2),
    (["make", "com:1"], None, 2),
    (["quotient", "--kernel", "e", "CHAIN"], None, 2),
    (["as-op", "--set", "per:01", "mul", "a:0"], None, 2),
    (["words", "leq", "per:01", "fin:{a}"], None, 2),
    (["check", "NO_UNIT"], None, "MalformedInput"),
    (["check", "-"], "not json", "MalformedInput"),
    (["make", "go:2", "--jobs", "2"], None, 2),
    (["enumerate", "0"], None, 2),
    (["as-op", "--set", "per:01", "reach", "a:0", "--depth", "-1"], None, 2),
    # each step of the reach adds two elements, so a typo would print gigabytes
    (["as-op", "--set", "per:0@0", "reach", "a:0", "--depth", "1000000000"], None, "SizeTooLarge"),
    (["ppartition", "MISSING"], None, 2),
    (["classify", "CHAIN"], None, "MalformedInput"),
    (["ap", "CHAIN"], None, "MalformedInput"),
    (["ap", "CHAIN", "--class", "e:w"], None, 2),
    (["check", "LIST"], None, "MalformedInput"),
    (["check", "INFINITE"], None, "MalformedInput"),
    (["make", "go:99999999999"], None, "SizeTooLarge"),
    # a 25-element generator, over the default cap
    (["classify", "GO24"], None, "SizeTooLarge"),
    (["ap", "GO24"], None, "SizeTooLarge"),
    # the closure takes idempotent chains only, and refuses before it walks
    (["classify", "NONIDEM"], None, "NotIdempotent"),
    (["ap", "NONIDEM"], None, "NotIdempotent"),
    (["verify", "lemma:counting", "--max-size", "0"], None, 2),
    (["verify", "lemma:embedding-criterion", "--max-size", "-3"], None, 2),
    (["verify", "lemma:star-involution", "--max-size", "0"], None, 2),
    (["verify", "lemma:ap-verdict", "--max-size", "0"], None, 2),
    # size 7 has about 3.8e10 HS-closed sets, so the suite would never end
    (["verify", "lemma:ap-verdict", "--max-size", "7"], None, "SizeTooLarge"),
    (["verify", "all", "--max-size", "7"], None, "SizeTooLarge"),
    # size 7 has about 1.07e8 injective maps to check
    (["verify", "lemma:embedding-criterion", "--max-size", "7"], None, "SizeTooLarge"),
    (["verify", "lemma:counting", "--jobs", "0"], None, 2),
    (["verify", "lemma:counting", "--jobs", "-1"], None, 2),
    # 0 is a bound like any other, not "no bound"
    (["amalgamate", "SPAN", "--bound", "0"], None, 2),
    # the zipper builds one amalgam and searches no pool
    (["amalgamate", "SPAN", "--construct", "--bound", "5"], None, 2),
    (["amalgamate", "SPAN", "--construct", "--class", "e:0"], None, 2),
    (["amalgamate", "SPAN", "--construct", "--class", "e:0", "--one-sided"], None, 2),
]


@pytest.mark.parametrize(
    "argv,stdin,want", CONTRACT_CASES, ids=[" ".join(c[0]) for c in CONTRACT_CASES]
)
def test_malformed_input_keeps_the_cli_contract(tmp_path, argv, stdin, want):
    data = com(1, 1).to_json()
    no_unit = tmp_path / "no_unit.json"
    no_unit.write_text(json.dumps({k: v for k, v in data.items() if k != "unit"}))
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([data]))
    infinite = tmp_path / "infinite.json"
    infinite.write_text(json.dumps({**data, "mult": [[float("inf")] * 5] * 5}))
    go24 = tmp_path / "go24.json"
    go24.write_text(json.dumps([go(24).to_json()]))
    nonidem = tmp_path / "nonidem.json"
    nonidem.write_text(json.dumps([{"size": 4, "unit": 3, "mult": NONIDEMPOTENT}]))
    files = {
        "CHAIN": chain_file(tmp_path, com(1, 1)),
        "NO_UNIT": str(no_unit),
        "LIST": str(listed),
        "INFINITE": str(infinite),
        "GO24": str(go24),
        "NONIDEM": str(nonidem),
        "SPAN": span_file(tmp_path, crossing_span_dict()),
        "MISSING": str(tmp_path / "missing"),
    }
    proc = run_interpreter(["-m", "resichain.cli", *[files.get(a, a) for a in argv]], stdin)
    assert "Traceback" not in proc.stderr
    if want == 2:
        assert proc.returncode == 2 and proc.stdout == ""
        if not proc.stderr.startswith("usage:"):
            # argparse prints its usage too; our own usage errors are one line
            assert len(proc.stderr.splitlines()) == 1
    else:
        lines = proc.stdout.splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and json.loads(lines[0])["error"] == want


def run_interpreter(args, stdin=None, **env):
    """Run a fresh interpreter that imports resichain from this checkout; a
    call that has not ended after 120 s fails the test instead of hanging it."""
    env = dict(os.environ, PYTHONPATH=str(Path(resichain.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "cap,argv",
    [("abc", ["enumerate", "3"]), ("0", ["verify", "lemma:star-involution", "--max-size", "1"])],
)
def test_a_bad_enumeration_cap_is_a_usage_error(cap, argv):
    proc = run_interpreter(["-m", "resichain.cli", *argv], RESICHAIN_MAX_SIZE=cap)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "RESICHAIN_MAX_SIZE" in proc.stderr
    assert proc.stdout == ""


# main(argv) in a fresh interpreter; prints the exit code and the resichain
# modules the call loaded
LOADED_MODULES = """
import contextlib, io, json, sys
from resichain.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("resichain"))]))
"""


def test_light_verbs_load_only_the_modules_they_use(tmp_path):
    light = [
        ["check", chain_file(tmp_path, com(1, 1))],
        ["make", "com:1,1"],
        ["words", "leq", "per:01", "per:0"],
        ["as-op", "--set", "per:01", "mul", "a:0", "b:1"],
    ]
    heavy = {
        f"resichain.{m}"
        for m in ("classification", "amalgamation", "selfcheck", "pointed", "_cli_heavy", "_search")
    }
    for argv in light:
        proc = run_interpreter(["-c", LOADED_MODULES, *argv])
        code, loaded = json.loads(proc.stdout)
        assert code == 0, (argv, proc.stderr)
        assert not heavy & set(loaded), (argv, loaded)
        if argv[0] in ("words", "as-op"):
            assert "resichain.chain" not in loaded, (argv, loaded)
        if argv[0] == "check":
            assert loaded == [
                "resichain", "resichain._cli_io", "resichain._common", "resichain._record",
                "resichain.chain", "resichain.cli", "resichain.errors",
            ]


@pytest.mark.parametrize("argv", [["enumerate", "3"], ["ap", "--class", "e:w"]])
def test_a_heavy_verb_run_as_a_module_imports_no_second_cli(argv):
    # under -m the CLI runs as __main__; a handler module that imported
    # resichain.cli would compile all of it a second time
    proc = run_interpreter(["-X", "importtime", "-m", "resichain.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "resichain._cli_heavy" in imported
    assert "resichain.cli" not in imported


# --- argument parsing -------------------------------------------------------

VERBS = [
    "make", "show", "check", "residual", "decompose", "embed", "homs", "congruences",
    "quotient", "enumerate", "amalgamate", "classify", "ap", "words", "as-op",
    "pcondition", "ppartition", "verify",
]
# the verbs that exit 2 when given nothing; the others read stdin
NEED_AN_ARGUMENT = {
    "make", "residual", "embed", "homs", "quotient", "enumerate", "amalgamate", "classify",
    "words", "as-op", "ppartition", "verify",
}


def parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that must end the call."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


def test_the_parity_cases_cover_every_verb():
    assert list(cli._VERBS) == VERBS


@pytest.mark.parametrize("verb", VERBS)
def test_one_verb_parsing_prints_what_the_full_parser_prints(capsys, verb):
    # main builds a parser for argv[0] alone and hands anything that parser
    # rejects to the full one; help and usage errors must read the same
    cases = [([verb, "--help"], 0), ([verb, "--no-such-flag"], 2)]
    if verb in NEED_AN_ARGUMENT:
        cases.append(([verb], 2))
    for argv, code in cases:
        want = parse_outcome(capsys, build_parser().parse_args, argv)
        assert want[0] == code
        assert parse_outcome(capsys, main, argv) == want


def test_a_valid_call_builds_only_its_verbs_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: built.append(verb) or build(verb))
    assert main(["words", "leq", "per:01", "per:0"]) == 0
    assert built == ["words"]
    with pytest.raises(SystemExit):
        main(["words", "--no-such-flag"])
    assert built == ["words", "words", None]


def test_one_verb_parsing_reads_sys_argv_in_a_fresh_interpreter():
    # only a fresh `python -m resichain.cli` reaches main(argv=None)
    full = "import sys; from resichain.cli import build_parser; build_parser().parse_args(sys.argv[1:])"
    for argv in (["amalgamate", "--no-such-flag"], ["words", "--help"], ["verify"]):
        got = run_interpreter(["-m", "resichain.cli", *argv])
        want = run_interpreter(["-c", full, *argv])
        assert want.returncode in (0, 2) and want.stdout + want.stderr
        assert (got.returncode, got.stdout, got.stderr) == (
            want.returncode, want.stdout, want.stderr,
        )


# --- amalgamation and classification ---------------------------------------


def span_file(tmp_path, span_dict, name="span.json"):
    path = tmp_path / name
    path.write_text(json.dumps(span_dict))
    return str(path)


def crossing_span_dict():
    return {
        "A": go(1).to_json(),
        "B": go(2).to_json(),
        "C": go(2).to_json(),
        "iB": [0, 2],
        "iC": [1, 2],
    }


def test_amalgamate_searches_within_a_class(capsys, tmp_path):
    path = span_file(tmp_path, crossing_span_dict())
    code, got = run_json(capsys, "amalgamate", path, "--class", "e:w")
    assert code == 0
    assert got["found"] is True
    assert canonical_signature(chain_from_json(got["D"])) == canonical_signature(go(3))
    assert got["one_sided"] is False


def test_amalgamate_refutes_in_a_complete_finite_class(capsys, tmp_path):
    path = span_file(tmp_path, crossing_span_dict())
    code, got = run_json(
        capsys, "amalgamate", path, "--class", "e:1", "--one-sided"
    )
    assert code == 0
    assert got == {"found": False, "refuted": True, "checked": 2}


def test_a_class_pool_grows_only_to_the_certificate_size(capsys, tmp_path, monkeypatch):
    # the members up to size 15 are 2^15 - 1 chains; the certificate has 4 elements
    requested = []
    build = classification.class_members

    def spy(cls, max_size=None):
        requested.append(max_size)
        return build(cls, max_size=max_size)

    monkeypatch.setattr(classification, "class_members", spy)
    path = span_file(tmp_path, crossing_span_dict())
    code, got = run_json(
        capsys, "amalgamate", path, "--class", "inf:w,w,w", "--one-sided", "--bound", "15"
    )
    assert code == 0 and got["found"] is True
    assert max(requested) == chain_from_json(got["D"]).size == 4


def test_amalgamate_constructive_zipper(capsys, tmp_path):
    a, b, c = com(0, 0), com(1, 0), com(0, 1)
    span = {
        "A": a.to_json(),
        "B": b.to_json(),
        "C": c.to_json(),
        "iB": [1, 2, 3],
        "iC": [0, 1, 3],
    }
    path = span_file(tmp_path, span)
    code, got = run_json(capsys, "amalgamate", path, "--construct")
    assert code == 0
    assert got["found"] is True and got["verified"] is True
    assert canonical_signature(chain_from_json(got["D"])) == canonical_signature(
        com(1, 1)
    )


def test_default_amalgam_pool_respects_the_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "3")

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated chains before checking the cap")

    monkeypatch.setattr(amalgamation, "enumerate_chains", refuse)
    span = {"A": go(0).to_json(), "B": go(1).to_json(), "C": go(1).to_json(), "iB": [1], "iC": [1]}
    code, got = run_json(capsys, "amalgamate", span_file(tmp_path, span))
    assert code == 1
    assert got["error"] == "SizeTooLarge"


def test_amalgamate_rejects_a_broken_span(capsys, tmp_path):
    bad = crossing_span_dict()
    bad["iB"] = [2, 2]
    path = span_file(tmp_path, bad)
    code, got = run_json(capsys, "amalgamate", path)
    assert code == 1
    assert got["error"] == "InvalidSpan"


@pytest.mark.parametrize("bad", [0.0, False, "0"])
def test_amalgamate_rejects_legs_that_are_not_integers(capsys, tmp_path, bad):
    # False used to be read as 0, and 0.0 and "0" ended in a TypeError's text
    span = {"A": go(1).to_json(), "B": go(3).to_json(), "C": go(3).to_json(),
            "iB": [bad, 3], "iC": [1, 3]}
    code, out = run(capsys, "amalgamate", span_file(tmp_path, span), "--one-sided")
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {
        "error": "MalformedInput",
        "witness": f"image entries must be integers, got {bad!r}",
    }


def two_element_blob(**changes) -> dict:
    blob = {"size": 2, "unit": 1, "mult": [[0, 0], [0, 1]], "f": 0}
    blob.update(changes)
    return blob


@pytest.mark.parametrize(
    "verb, blob, witness",
    [
        ("check", two_element_blob(mult=[[0, 0], [0, 1.9]]),
         "table entry mult[1][1] must be an integer, got 1.9"),
        ("check", two_element_blob(mult=[["0", 0], [0, 1]]),
         "table entry mult[0][0] must be an integer, got '0'"),
        ("check", two_element_blob(mult=[[0, 0], [0, True]]),
         "table entry mult[1][1] must be an integer, got True"),
        ("check", two_element_blob(size=True), "size and unit must be integers"),
        ("check", two_element_blob(labels="ab"), "labels must be a list, got str"),
        ("show", two_element_blob(labels=[1, None]), "labels must be strings, got 1"),
        ("show", two_element_blob(labels=["a", "a"]), "labels must be distinct, 'a' repeats"),
        ("pcondition", two_element_blob(f=2.7), "f must be an integer, got 2.7"),
        ("pcondition", two_element_blob(f="0"), "f must be an integer, got '0'"),
    ],
    ids=["float-entry", "string-entry", "bool-entry", "bool-size", "string-labels",
         "number-labels", "repeated-labels", "float-f", "string-f"],
)
def test_chain_json_rejects_numbers_that_are_not_integers(capsys, tmp_path, verb, blob, witness):
    # 1.9 used to be read as 1, "0" and True as 0 and 1, "ab" as two labels,
    # [1, null] as the labels "1" and "None", and ["a", "a"] was accepted
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, verb, str(path))
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "MalformedInput", "witness": witness}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["ap", "--class", "nope"], "nope"),
        (["amalgamate", "SPAN", "--class", "inf:a,b,c"], "inf:a,b,c"),
    ],
)
def test_a_malformed_class_text_is_one_usage_line(capsys, tmp_path, argv, text):
    files = {"SPAN": span_file(tmp_path, crossing_span_dict())}
    with pytest.raises(SystemExit) as err:
        main([files.get(a, a) for a in argv])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"unrecognized class syntax: {text!r}\n")


def generators_file(tmp_path, chains, name="gens.json"):
    path = tmp_path / name
    path.write_text(json.dumps([c.to_json() for c in chains]))
    return str(path)


def test_classify_names_the_generated_class(capsys, tmp_path):
    path = generators_file(tmp_path, [com(0, 0)])
    code, got = run_json(capsys, "classify", path)
    assert code == 0
    assert got == {"class": "fin:0,0,0", "ap": True}


def test_classify_reports_no_ap_with_audit_and_witness(capsys, tmp_path):
    path = generators_file(tmp_path, [go(2)])
    code, got = run_json(capsys, "classify", path)
    assert code == 0
    assert got["class"] is None and got["ap"] is False
    assert any(v["rule"] == "i" for v in got["audit"])
    assert got["witness"]["iB"] == [0, 2] and got["witness"]["iC"] == [1, 2]
    assert got["witness_complete"] is True


def test_classify_accepts_a_wrapped_generators_object(capsys, tmp_path):
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps({"generators": [com(0, 0).to_json()]}))
    code, got = run_json(capsys, "classify", str(path))
    assert code == 0
    assert got["class"] == "fin:0,0,0"


def test_ap_echoes_a_named_class(capsys):
    code, got = run_json(capsys, "ap", "--class", "fin:1,0,1+e:1")
    assert code == 0
    assert got == {"ap": True, "class": "fin:1,0,1+e:1"}


def test_ap_needs_generators_or_a_class(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ap"])
    assert err.value.code == 2


def test_ap_verdict_from_generators(capsys, tmp_path):
    path = generators_file(tmp_path, [go(2)])
    code, got = run_json(capsys, "ap", path)
    assert code == 0
    assert got["ap"] is False and got["witness_complete"] is True


# --- words, symbolic chain, pointed ----------------------------------------


def test_words_leq(capsys):
    code, got = run_json(capsys, "words", "leq", "per:0@0", "fin:{0}")
    assert code == 0
    assert got == {"op": "leq", "w1": "per:0@0", "w2": "fin:{0}", "holds": True}
    code, got = run_json(capsys, "words", "leq", "fin:{0}", "per:0@0")
    assert got["holds"] is False


def test_words_leq_needs_two_words(capsys):
    with pytest.raises(SystemExit) as err:
        main(["words", "leq", "per:0@0"])
    assert err.value.code == 2


def test_words_minimality_report(capsys):
    code, got = run_json(capsys, "words", "minimal", "fin:{}")
    assert code == 0
    assert got["op"] == "minimal" and got["minimal"] is True
    assert got["recurrence_offset"] == 1


def test_asop_frozen_product(capsys):
    code, got = run_json(capsys, "as-op", "--set", "per:01", "mul", "a:0", "b:0")
    assert code == 0
    assert got == {"result": "b:0"}


def test_asop_star_and_reach(capsys):
    code, got = run_json(
        capsys, "as-op", "--set", "per:01", "unary", "a:0", "--which", "star"
    )
    assert got == {"result": "b:-1"}
    code, got = run_json(
        capsys, "as-op", "--set", "per:01", "reach", "a:0", "--depth", "1"
    )
    assert got == {"result": ["b:-1", "b:0", "a:0"]}


def test_pcondition(capsys, tmp_path):
    blob = PointedChain(com(1, 0), 0).to_json()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(blob))
    code, got = run_json(capsys, "pcondition", str(path))
    assert code == 0
    assert got == {"condition": "2b"}


def test_ppartition_buckets_a_directory(capsys, tmp_path):
    pdir = tmp_path / "pool"
    pdir.mkdir()
    entries = {
        "seed1b.json": PointedChain(com(0, 0), 0),
        "seed2a.json": PointedChain(go(1), 0),
        "unit.json": PointedChain(com(0, 0), 1),
    }
    for name, p in entries.items():
        (pdir / name).write_text(json.dumps(p.to_json()))
    code, got = run_json(capsys, "ppartition", str(pdir))
    assert code == 0
    assert got["cross_embeddings"] == 0
    assert got["buckets"]["1b"] == ["seed1b.json"]
    assert got["buckets"]["2a"] == ["seed2a.json"]
    assert got["buckets"]["1a"] == ["unit.json"]
    assert got["buckets"]["2c"] == []


# --- verification suites ----------------------------------------------------


def test_verify_counting_suite_passes(capsys):
    code, got = run_json(capsys, "verify", "lemma:counting", "--max-size", "5")
    assert code == 0
    assert got["suite"] == "lemma:counting"
    assert got["failed"] == 0 and got["failures"] == []
    assert got["passed"] == got["checked"] > 0


VERIFY_CASES = [(suite, "4", 0) for suite in sorted(SUITES)] + [
    ("lemma:skeleton-contraction", "2", 1),
]


@pytest.mark.parametrize("suite,max_size,want", VERIFY_CASES)
def test_verify_passes_only_a_suite_that_checked_something(capsys, suite, max_size, want):
    code, got = run_json(capsys, "verify", suite, "--max-size", max_size)
    assert code == want
    assert got["suite"] == suite and got["failed"] == 0
    assert (got["checked"] > 0) == (want == 0)


@pytest.mark.parametrize("suite", sorted(SUITES) + ["all"])
def test_verify_refuses_a_max_size_above_the_cap(capsys, monkeypatch, suite):
    monkeypatch.setenv("RESICHAIN_MAX_SIZE", "3")
    code, out = run(capsys, "verify", suite, "--max-size", "4")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"error": "SizeTooLarge", "witness": "size 4 exceeds the enumeration cap 3"}
    ]


@pytest.mark.parametrize("flag", ["--max-size", "--jobs"])
def test_verify_limits_below_one_are_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", flag, "0"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == "" and captured.err == f"{flag} must be at least 1\n"


def test_verify_rejects_unknown_suites(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nope"])
    assert err.value.code == 2


def test_verify_jobs_flag_does_not_change_output(capsys):
    _, first = run(capsys, "verify", "lemma:counting", "--max-size", "4", "--jobs", "1")
    _, second = run(capsys, "verify", "lemma:counting", "--max-size", "4", "--jobs", "2")
    assert first == second


def test_verify_jobs_asks_for_at_most_one_worker_per_size(capsys, monkeypatch):
    import concurrent.futures

    requested = []

    class SerialPool:
        """Records the worker count it is asked for and maps in this
        process, so the test starts no process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, pooled = run(capsys, "verify", "lemma:counting", "--max-size", "3", "--jobs", "64")
    _, serial = run(capsys, "verify", "lemma:counting", "--max-size", "3", "--jobs", "1")
    assert code == 0 and pooled == serial
    assert requested == [3]


# --- determinism and piping --------------------------------------------------


def test_output_is_deterministic(capsys, tmp_path):
    path = generators_file(tmp_path, [go(2)])
    _, first = run(capsys, "classify", path)
    _, second = run(capsys, "classify", path)
    assert first == second


def test_pipe_round_trip_through_the_interpreter():
    pipeline = (
        f"{sys.executable} -m resichain.cli make com:1,1 | "
        f"{sys.executable} -m resichain.cli show --json"
    )
    out = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, check=True
    )
    reparsed = chain_from_json(json.loads(out.stdout))
    assert canonical_signature(reparsed) == canonical_signature(com(1, 1))


def readme_commands():
    """Each `$ resichain ...` line in the README's fenced blocks, with the
    output lines shown under it (up to a blank line or the next command)."""
    readme = Path(resichain.__file__).parents[2] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    out = []
    for block in blocks:
        for chunk in block.split("\n$ ")[1:]:
            command, *shown = chunk.split("\n\n")[0].splitlines()
            if command.startswith("resichain "):
                out.append((command, shown))
    return out


README_COMMANDS = readme_commands()


def test_the_readme_examples_are_found():
    assert any(" | " in command for command, _ in README_COMMANDS)
    assert any(not shown for _, shown in README_COMMANDS)


@pytest.mark.parametrize("command,shown", README_COMMANDS, ids=[c for c, _ in README_COMMANDS])
def test_readme_cli_examples_print_what_they_show(command, shown):
    stdout = None
    for stage in command.split(" | "):
        verb, *argv = shlex.split(stage)
        assert verb == "resichain"
        proc = run_interpreter(["-m", "resichain.cli", *argv], stdout)
        assert proc.returncode == 0, proc.stderr
        stdout = proc.stdout
    lines = stdout.splitlines()
    assert all(line in lines for line in shown), (shown, lines)
