"""Finite idempotent residuated chains: construction, decomposition,
morphism search, amalgamation, and the sixty-class catalogue.

The public names below are loaded lazily (PEP 562): `import resichain` loads
no submodule, and the first access to a name imports the submodule that
defines it, so a CLI call pays only for the modules its verb uses.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it ("errors" is the module itself)
_EXPORTS = {
    name: module
    for module, names in {
        "chain": """ELL LEFT R RIGHT STAR TRIVIAL ChainPredicates FiniteChain
            canonical_signature chain_from_json derived enumerate_chains
            enumeration_cap iso_equal predicates residual restrict_to
            signature_hex subalgebra_generated validate""",
        "constructors": "com go nested_sum",
        "morphisms": """ChainMap Congruence congruence_from_kernel congruences
            enumerate_embeddings enumerate_homomorphisms is_embedding
            is_homomorphism quotient""",
        "decomposition": """DecompositionSignature count_chains decompose recompose
            skeleton_blocks sugihara_skeleton""",
        "words": """FiniteSupport FiniteWord MinimalityVerdict Periodic is_minimal
            is_subword parse_word preorder_leq""",
        "zchain": """ASElement UNIT as_leq as_mult as_residual as_unary generated_reach
            parse_element""",
        "amalgamation": """AmalgamResult BoundExhausted Refuted Span amalgamate_components
            canonical_order find_amalgam span_from_json spans_over verify_amalgam""",
        "classification": """CanonicalClass ChainClass HasAP NoAP OMEGA RuleViolation
            all_sixty ap_verdict class_members class_signatures classify
            closure_rule_violations find_refuting_span hs_closure member_of
            parse_class sig_in_class""",
        "pointed": """CONDITIONS PointedChain condition_of cross_embedding_count
            enumerate_pointed_embeddings generated_pointed_subalgebra partition
            pointed_from_json pointed_pool seed_algebra""",
        "errors": """errors InvalidChainError InvalidSpan MalformedInput NotAdmissible
            NotCommutative NotHSClosed NotIdempotent ResichainError ShapeMismatch
            SizeTooLarge StartIsUnit Violation""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
