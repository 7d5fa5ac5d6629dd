"""Closed-form open-subsystem dynamics of a single-excitation qubit network.

The package evaluates, validates, and explores the reduced dynamics of any
K-qubit subsystem of an N-qubit all-to-all network carrying one conserved
excitation: transition amplitudes, reduced states and their entanglement
entropy, two-time propagators with their positivity structure, single-qubit
Bloch geometry, quantum Fisher information for the global coupling and
size, and observer-side inference of those globals. A brute-force oracle
(dense exponentials by eigendecomposition, partial traces, map tomography)
cross-checks every closed form. numpy is the only numerical dependency.
"""

from .amplitudes import (
    Amplitudes,
    NetworkParams,
    amplitudes,
    global_state,
    q1_unitary_oracle,
    unitarity_residuals,
)
from .bloch import (
    BlochAffineMap,
    affine_map,
    axial_positivity_band,
    ball_membership,
    evolve_bloch,
    physical_bloch_z,
)
from .errors import (
    DegenerateStateError,
    DivergenceError,
    IndeterminateFlowError,
    InconsistentObservationError,
    OpenQNetError,
    OracleFailureError,
    ParameterError,
    PoleError,
    SingularIntervalError,
    SizeLimitError,
    UnsupportedOracleError,
)
from .fisher import (
    FisherBreakdown,
    GlobalParameter,
    ProcessStateSplit,
    process_state_split,
    qfi_closed_form,
    qfi_numeric_oracle,
)
from .inference import (
    FlowObservation,
    SizeEstimate,
    conservation_residual,
    estimate_period,
    infer_coupling,
    infer_network_size,
    two_qubit_consistency,
)
from .oracle import (
    GlobalVector,
    bilinear_partial_trace,
    dynamical_map_oracle,
    propagator_oracle,
    reduced_density_oracle,
    subsystem_sites,
)
from .positivity import (
    PositivityVerdict,
    Verdict,
    choi_matrix,
    choi_spectrum,
    classify,
    positivity_transition_time,
)
from .propagator import (
    PropagatorOps,
    apply,
    build_propagator,
    completeness_residual,
    compose_residual,
    flow_amplitude,
    is_singular,
    propagator_matrix,
)
from .states import (
    DynClass,
    ReducedState,
    SubsystemSelector,
    entanglement_entropy,
    excitation_probability,
    materialize_density,
    reduced_state,
    trace_distance_to_fixed,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BlochAffineMap",
    "DegenerateStateError",
    "DivergenceError",
    "DynClass",
    "FisherBreakdown",
    "FlowObservation",
    "GlobalParameter",
    "GlobalVector",
    "IndeterminateFlowError",
    "InconsistentObservationError",
    "NetworkParams",
    "OpenQNetError",
    "OracleFailureError",
    "ParameterError",
    "PoleError",
    "PositivityVerdict",
    "ProcessStateSplit",
    "PropagatorOps",
    "ReducedState",
    "SingularIntervalError",
    "SizeEstimate",
    "SizeLimitError",
    "SubsystemSelector",
    "UnsupportedOracleError",
    "Verdict",
    "affine_map",
    "amplitudes",
    "apply",
    "axial_positivity_band",
    "ball_membership",
    "bilinear_partial_trace",
    "build_propagator",
    "choi_matrix",
    "choi_spectrum",
    "classify",
    "completeness_residual",
    "compose_residual",
    "conservation_residual",
    "dynamical_map_oracle",
    "entanglement_entropy",
    "estimate_period",
    "evolve_bloch",
    "excitation_probability",
    "flow_amplitude",
    "global_state",
    "infer_coupling",
    "infer_network_size",
    "is_singular",
    "materialize_density",
    "physical_bloch_z",
    "positivity_transition_time",
    "process_state_split",
    "propagator_matrix",
    "propagator_oracle",
    "q1_unitary_oracle",
    "qfi_closed_form",
    "qfi_numeric_oracle",
    "reduced_density_oracle",
    "reduced_state",
    "subsystem_sites",
    "trace_distance_to_fixed",
    "two_qubit_consistency",
    "unitarity_residuals",
]
