"""The public names of the gkod package, which it loads on first use."""

import importlib

import pytest

import gkod

# every name that `gkod` exports, by the module that defines it
PUBLIC = {
    "arith": ["Factorization", "divisor_closure", "factorize", "is_smooth",
              "maximal_under_divisibility", "parse_factorization"],
    "catalog": ["GroupId", "ParameterError", "canonicalize", "enumerate_S_p",
                "order_of", "order_value", "out_primes", "parse_label",
                "s37_reference", "sporadic_order"],
    "graph": ["CauchyConsistencyError", "DegreePattern", "OrderComponents",
              "PrimeGraph", "build_gk", "components", "degree_pattern",
              "independence", "independence_at", "suzuki_decomposition",
              "to_dot"],
    "spectra": ["Spectrum", "SpectrumNotImplementedError",
                "UnsupportedParameterError", "mu_G2", "mu_L2", "mu_S4", "mu_U3",
                "mu_U4", "mu_alternating", "spectrum_of"],
    "verifier": ["CaseReport", "GraphFamily", "candidate_filter",
                 "enumerate_with_pattern", "vasiliev_applicable", "verify_case"],
}
_NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_public_names_are_pinned_and_resolve():
    """Each name works as gkod.X and as `from gkod import X`, and is the
    object its module defines."""
    assert len(_NAMES) == 43
    assert sorted(gkod.__all__) == sorted(name for _, name in _NAMES)
    assert set(gkod.__all__) <= set(dir(gkod))
    for module, name in _NAMES:
        want = getattr(importlib.import_module(f"gkod.{module}"), name)
        assert getattr(gkod, name) is want, name
        namespace = {}
        exec(f"from gkod import {name}", namespace)
        assert namespace[name] is want, name


def test_submodules_and_unknown_names():
    namespace = {}
    exec("from gkod import graph, oracle", namespace)
    assert namespace["graph"] is importlib.import_module("gkod.graph")
    assert namespace["oracle"].run_target
    assert gkod.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        gkod.nosuch
    with pytest.raises(ImportError):
        exec("from gkod import nosuch", {})
