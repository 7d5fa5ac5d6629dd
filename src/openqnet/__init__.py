"""Closed-form open-subsystem dynamics of a single-excitation qubit network.

The package evaluates, validates, and explores the reduced dynamics of any
K-qubit subsystem of an N-qubit all-to-all network carrying one conserved
excitation: transition amplitudes, reduced states and their entanglement
entropy, two-time propagators with their positivity structure, single-qubit
Bloch geometry, quantum Fisher information for the global coupling and
size, and observer-side inference of those globals. A brute-force oracle
(dense exponentials by eigendecomposition, partial traces, map tomography)
cross-checks every closed form. numpy is the only numerical dependency.

``import openqnet`` loads only ``openqnet.amplitudes`` and ``openqnet.errors``.
Every other public name, and every public submodule, loads its home module
on first use (PEP 562) and is then cached here. ``openqnet.amplitudes`` is
the function, which shadows its module's name; import names from the module
with ``from openqnet.amplitudes import ...``.
"""

import sys

from .amplitudes import amplitudes

__version__ = "0.1.0"

# The home module of every public name but ``amplitudes``. With ``amplitudes``,
# this table is the public surface: ``__all__`` is read off it.
_EXPORTS = {
    "amplitudes": (
        "Amplitudes", "NetworkParams", "global_state", "q1_unitary_oracle", "unitarity_residuals",
    ),
    "bloch": (
        "BlochAffineMap", "affine_map", "axial_positivity_band", "evolve_bloch", "physical_bloch_z",
    ),
    "errors": (
        "DegenerateStateError", "DivergenceError", "IndeterminateFlowError",
        "InconsistentObservationError", "OpenQNetError", "OracleFailureError", "ParameterError",
        "PoleError", "SingularIntervalError", "SizeLimitError", "UnsupportedOracleError",
    ),
    "fisher": (
        "FisherBreakdown", "GlobalParameter", "ProcessStateSplit", "process_state_split",
        "qfi_closed_form", "qfi_numeric_oracle",
    ),
    "inference": (
        "FlowObservation", "SizeEstimate", "conservation_residual", "estimate_period",
        "infer_coupling", "infer_network_size", "two_qubit_consistency",
    ),
    "oracle": ("dynamical_map_oracle", "propagator_oracle", "reduced_density_oracle"),
    "positivity": (
        "PositivityVerdict", "Verdict", "choi_matrix", "choi_spectrum", "classify",
        "positivity_transition_time",
    ),
    "propagator": (
        "PropagatorOps", "apply", "build_propagator", "completeness_residual", "compose_residual",
        "flow_amplitude", "is_singular", "propagator_matrix",
    ),
    "states": (
        "DynClass", "ReducedState", "SubsystemSelector", "entanglement_entropy",
        "excitation_probability", "materialize_density", "reduced_state", "trace_distance_to_fixed",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(["amplitudes", *_HOME])
# Public submodules, reachable as ``openqnet.<name>`` without an import.
_SUBMODULES = (
    "bloch", "cli", "errors", "fisher", "inference", "oracle", "positivity", "propagator", "states",
    "verification",
)


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, which ``python -X importtime`` times;
    # importlib.import_module would load the module untimed.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})

