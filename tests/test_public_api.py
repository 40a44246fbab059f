"""The package's public names: each is reachable from `resichain` as the very
object its submodule defines, although `import resichain` loads none of
the submodules until a name is first used."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resichain

# every name `resichain` exports, by the submodule that defines it
PUBLIC = {
    "chain": [
        "ELL", "LEFT", "R", "RIGHT", "STAR", "TRIVIAL", "ChainPredicates", "FiniteChain",
        "canonical_signature", "chain_from_json", "derived", "enumerate_chains",
        "enumeration_cap", "iso_equal", "predicates", "residual",
        "restrict_to", "signature_hex", "subalgebra_generated", "validate",
    ],
    "constructors": ["com", "go", "nested_sum"],
    "morphisms": [
        "ChainMap", "Congruence", "congruence_from_kernel", "congruences",
        "enumerate_embeddings", "enumerate_homomorphisms", "is_embedding",
        "is_homomorphism", "quotient",
    ],
    "decomposition": [
        "DecompositionSignature", "count_chains", "decompose", "recompose",
        "skeleton_blocks", "sugihara_skeleton",
    ],
    "words": [
        "FiniteSupport", "FiniteWord", "MinimalityVerdict", "Periodic", "is_minimal",
        "is_subword", "parse_word", "preorder_leq",
    ],
    "zchain": [
        "ASElement", "UNIT", "as_leq", "as_mult", "as_residual", "as_unary",
        "generated_reach", "parse_element",
    ],
    "amalgamation": [
        "AmalgamResult", "BoundExhausted", "Refuted", "Span", "amalgamate_components",
        "canonical_order", "find_amalgam", "span_from_json", "spans_over", "verify_amalgam",
    ],
    "classification": [
        "CanonicalClass", "ChainClass", "HasAP", "NoAP", "OMEGA", "RuleViolation",
        "all_sixty", "ap_verdict", "class_members", "class_signatures", "classify",
        "closure_rule_violations", "find_refuting_span", "hs_closure", "member_of",
        "parse_class", "sig_in_class",
    ],
    "pointed": [
        "CONDITIONS", "PointedChain", "condition_of", "cross_embedding_count",
        "enumerate_pointed_embeddings", "generated_pointed_subalgebra", "partition",
        "pointed_from_json", "pointed_pool", "seed_algebra",
    ],
    "errors": [
        "errors", "InvalidChainError", "InvalidSpan", "MalformedInput", "NotAdmissible",
        "NotCommutative", "NotHSClosed", "NotIdempotent", "ResichainError",
        "ShapeMismatch", "SizeTooLarge", "StartIsUnit", "Violation",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_the_pinned_list_has_every_public_name():
    assert len(NAMES) == len({name for _, name in NAMES}) == 104


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_the_submodules_object(module, name):
    defining = importlib.import_module(f"resichain.{module}")
    want = defining if name == module else getattr(defining, name)
    assert getattr(resichain, name) is want
    assert name in dir(resichain)


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from resichain import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in NAMES}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        resichain.no_such_name
    with pytest.raises(ImportError):
        from resichain import no_such_name  # noqa: F401


def test_submodules_import_by_name():
    from resichain import amalgamation, errors

    assert amalgamation.find_amalgam is resichain.find_amalgam
    assert errors.ResichainError is resichain.ResichainError


def test_importing_the_package_loads_no_submodule():
    code = "import sys, resichain; print(sorted(m for m in sys.modules if 'resichain' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(resichain.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["['resichain']"]


# Importing dataclasses loads inspect, ast, dis and tokenize: about 8 ms of
# every CLI call. pytest loads both modules itself, so a fresh interpreter
# imports the package; the submodules are listed from their files, since
# pkgutil.iter_modules imports inspect.
def test_no_submodule_imports_dataclasses_or_inspect():
    package = Path(resichain.__file__).parent
    names = sorted(f"resichain.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    assert "resichain.cli" in names and len(names) >= 13
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["[]"]
