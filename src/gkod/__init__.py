"""Spectra, prime graphs, degree patterns and order components of finite
simple groups, plus a mechanized checker for the order/degree-pattern
uniqueness case analysis of S4(31), U3(27), G2(11) and U4(31)."""

from .arith import (
    Factorization,
    divisor_closure,
    factorize,
    is_smooth,
    maximal_under_divisibility,
    parse_factorization,
)
from .catalog import (
    GroupId,
    ParameterError,
    ScopeError,
    canonicalize,
    enumerate_S_p,
    order_of,
    order_value,
    out_primes_bounded,
    parse_label,
    s37_reference,
    sporadic_order,
)
from .graph import (
    CauchyConsistencyError,
    DegreePattern,
    OrderComponents,
    PrimeGraph,
    build_gk,
    components,
    degree_pattern,
    independence,
    independence_at,
    suzuki_decomposition,
    to_dot,
)
from .spectra import (
    Spectrum,
    SpectrumNotImplementedError,
    UnsupportedParameterError,
    mu_G2,
    mu_L2,
    mu_S4,
    mu_U3,
    mu_U4,
    mu_alternating,
    spectrum_of,
)
from .verifier import (
    CaseReport,
    GraphFamily,
    candidate_filter,
    enumerate_with_pattern,
    vasiliev_applicable,
    verify_case,
)

__version__ = "0.1.0"
