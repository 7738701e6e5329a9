"""Numerical verification toolkit for weak-type admissibility.

Lorentz quasi-norms through exact decreasing rearrangement, controlled
quadrature for singular oscillatory integrals, diagonal semigroup
observation systems with certified truncation, and the explicit endpoint
witness whose orbit is weak-L2 admissible but escapes every stronger
Lorentz norm.
"""
from .errors import (BoundViolated, DivergentSum, DomainError,
                     ToleranceNotMet, TruncationOverflow, WeissbenchError)
from .lorentz import (LorentzIndex, StepFunction, decreasing_rearrangement,
                      distribution_function, holder_pairing, lorentz_norm,
                      sample_steps)
from .quadrature import (DEFAULT_SPEC, QuadratureSpec, laplace_quadrature,
                         singular_oscillatory_integral)
from .semigroup import (CoefficientVector, DiagonalSystem, decay_profile,
                        orbit_observation, resolvent_observation,
                        weiss_norm_orthonormal, weiss_quotient)
from .counterexample import (BasisIndexMap, CounterexampleParams, GramCache,
                             XiTable, bessel_failure_witness,
                             divergence_profile, hilbertian_constant_estimate,
                             orbit_lower_bound_check, state_norm,
                             witness_system, xi_asymptotic, xi_coefficient)

__version__ = "0.1.0"

__all__ = [
    "__version__", "WeissbenchError", "DomainError", "ToleranceNotMet",
    "TruncationOverflow", "DivergentSum", "BoundViolated",
    "LorentzIndex", "StepFunction", "distribution_function",
    "decreasing_rearrangement", "lorentz_norm", "holder_pairing",
    "sample_steps",
    "QuadratureSpec", "DEFAULT_SPEC",
    "singular_oscillatory_integral", "laplace_quadrature",
    "DiagonalSystem", "CoefficientVector", "orbit_observation",
    "resolvent_observation", "weiss_quotient", "weiss_norm_orthonormal",
    "decay_profile",
    "CounterexampleParams", "BasisIndexMap", "XiTable", "GramCache",
    "xi_coefficient", "xi_asymptotic", "state_norm",
    "witness_system", "divergence_profile", "orbit_lower_bound_check",
    "bessel_failure_witness", "hilbertian_constant_estimate",
]
