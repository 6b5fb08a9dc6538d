"""Quantum-illumination target detection: states, bounds, receivers, CLI.

The package models the binary decision between "background only" and
"weakly reflected signal plus background" for an entangled signal-idler
transmitter and its coherent-state benchmark, at desk scale.  Chernoff
overlaps come in closed form from the Gaussian states and the OPA receiver
from exact photon-count tails; only the per-pair Helstrom measurement, and
the Fock overlaps that cross-check the closed form, build the states in a
truncated Fock space.
"""

from .bounds import (
    BoundTriple,
    ExponentReport,
    asymptotic_exponents,
    error_prob_bounds,
    gaussian_chernoff,
    q_s,
    qcb,
)
from .errors import (
    DomainError,
    ParseError,
    QIError,
    TruncationError,
)
from .fockspace import (
    JointState,
    TruncationSpec,
    build_displaced_thermal,
    build_rho0,
    build_rho1,
    thermal_cutoff,
    thermal_state,
)
from .receivers import (
    HelstromResult,
    half_erfc_sqrt,
    helstrom_single_shot,
    homodyne_error,
    majority_vote_error,
    opa_bhattacharyya,
    opa_error_exact,
    opa_error_gaussian,
    opa_output_means,
    optimize_gain,
    resolve_gain,
)
from .scenario import (
    CountModel,
    ReceiverConfig,
    ScenarioParams,
    ThresholdPolicy,
    parse_config,
    parse_value,
    render_config,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QIError",
    "DomainError",
    "ParseError",
    "TruncationError",
    # scenario
    "ScenarioParams",
    "ReceiverConfig",
    "ThresholdPolicy",
    "CountModel",
    "parse_config",
    "parse_value",
    "render_config",
    # fockspace
    "TruncationSpec",
    "JointState",
    "thermal_cutoff",
    "build_rho0",
    "build_rho1",
    "thermal_state",
    "build_displaced_thermal",
    # bounds
    "ExponentReport",
    "BoundTriple",
    "gaussian_chernoff",
    "q_s",
    "qcb",
    "error_prob_bounds",
    "asymptotic_exponents",
    # receivers
    "HelstromResult",
    "half_erfc_sqrt",
    "homodyne_error",
    "opa_output_means",
    "opa_error_exact",
    "opa_error_gaussian",
    "optimize_gain",
    "opa_bhattacharyya",
    "helstrom_single_shot",
    "majority_vote_error",
    "resolve_gain",
]
