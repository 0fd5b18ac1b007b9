"""Spectra, prime graphs, degree patterns and order components of finite
simple groups, plus a mechanized checker for the order/degree-pattern
uniqueness case analysis of S4(31), U3(27), G2(11) and U4(31).

The public names below are loaded on first use (PEP 562): `import gkod`
imports no submodule, and `gkod.X` or `from gkod import X` imports only
the module that defines X.
"""

import importlib

_EXPORTS = {
    "arith": (
        "Factorization",
        "divisor_closure",
        "factorize",
        "is_smooth",
        "maximal_under_divisibility",
        "parse_factorization",
    ),
    "catalog": (
        "GroupId",
        "ParameterError",
        "canonicalize",
        "enumerate_S_p",
        "order_of",
        "order_value",
        "out_primes",
        "parse_label",
        "s37_reference",
        "sporadic_order",
    ),
    "graph": (
        "CauchyConsistencyError",
        "DegreePattern",
        "OrderComponents",
        "PrimeGraph",
        "build_gk",
        "components",
        "degree_pattern",
        "independence",
        "independence_at",
        "suzuki_decomposition",
        "to_dot",
    ),
    "spectra": (
        "Spectrum",
        "SpectrumNotImplementedError",
        "UnsupportedParameterError",
        "mu_G2",
        "mu_L2",
        "mu_S4",
        "mu_U3",
        "mu_U4",
        "mu_alternating",
        "spectrum_of",
    ),
    "verifier": (
        "CaseReport",
        "GraphFamily",
        "candidate_filter",
        "enumerate_with_pattern",
        "vasiliev_applicable",
        "verify_case",
    ),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
