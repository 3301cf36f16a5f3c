"""Exact 2-variable link invariants from Markov traces on the algebras
Y_{d,n}(u), with E-system solutions and divisor-chain (adelic) extensions."""

from .braid import (
    BraidParseError,
    BraidWord,
    closure_component_count,
    exponent_sum,
    format_braid,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
)
from .exactnum import (
    Cyclotomic,
    DenominatorFamilyError,
    IrrationalTraceError,
    LaurentU,
    OrderMismatchError,
    PolyUZ,
    RatFunc,
    TracePolynomial,
    cyclotomic_polynomial,
    euler_phi,
    trace_poly_substitute,
)
from .yokonuma import (
    AlgebraElement,
    BasisWord,
    canonical_reduced_word,
    generator,
    generator_inverse,
    idempotent_e,
    multiply,
    power_formula,
    represent_braid,
)
from .trace import markov_trace, trace_of_braid
from .esystem import (
    ESolution,
    ESystemError,
    e_polynomial,
    enumerate_subsets,
    lift_subset,
    reduce_subset,
    render_subset,
    solution_from_subset,
    verify_solution,
    zeta_value,
)
from .invariant import (
    InvariantValue,
    delta_invariant,
    homflypt_specialize,
    lambda_param,
    mirror_value,
    skein_check,
)
from .adelic import (
    CoherenceError,
    CoherentElement,
    CoherentTrace,
    DivisibilityError,
    DivisorChain,
    adelic_delta,
    adelic_trace,
    coherent_represent,
    rho,
    theta,
    xi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
