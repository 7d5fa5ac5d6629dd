"""Cross-route verification suites aggregating the module invariants.

Every check compares an analytic closed form against an independent route
(matrix exponential, partial trace, map tomography, finite-difference SLD,
or an exact algebraic identity) and reports the worst residual seen. All
sampling uses a fixed seed so repeated runs are byte-identical.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

# The oracles import scipy lazily, so the closed forms and the CLI never load
# it. The verification suites run the oracles, so they load it up front: at
# set-up rather than inside the first check's time.
import scipy.linalg  # noqa: F401

from . import bloch, fisher, inference, oracle, positivity, propagator, states
from .amplitudes import NetworkParams, amplitudes, q1_unitary_oracle, unitarity_residuals
from .errors import DegenerateStateError, IndeterminateFlowError
from .fisher import GlobalParameter, _p_dp_single_qubit
from .states import DynClass, SubsystemSelector

RNG_SEED = 0


class CheckResult(NamedTuple):
    name: str
    value: float
    tolerance: float
    passed: bool
    seconds: float = 0.0  # wall time of the check, set by run_all_checks


def _result(name: str, value: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(value), tolerance, bool(value <= tolerance))


def _selectors(params: NetworkParams):
    for k in range(1, params.n_qubits + 1):
        yield SubsystemSelector(k, DynClass.CONTAINS_EXCITED)
    for k in range(1, params.n_qubits):
        yield SubsystemSelector(k, DynClass.EXCLUDES_EXCITED)


def _random_interval(rng, params: NetworkParams, k: int) -> tuple[float, float]:
    # Uniform over one period, avoiding singular anchors for K = N/2.
    while True:
        t1, t2 = rng.uniform(0.0, params.period, size=2)
        if not propagator.is_singular(params, k, t1):
            return float(t1), float(t2)


def check_amplitude_unitarity(params: NetworkParams, points: int = 400) -> CheckResult:
    worst = 0.0
    for tau in np.linspace(0.0, 1.0, points):
        amps = amplitudes(params, tau * params.period)
        worst = max(worst, *unitarity_residuals(amps, params.n_qubits))
    return _result("amplitude_unitarity", worst, 1e-12)


def check_amplitude_oracle(params: NetworkParams, points: int = 100) -> CheckResult:
    n = params.n_qubits
    worst = 0.0
    for tau in np.linspace(0.0, 1.0, points):
        t = tau * params.period
        amps = amplitudes(params, t)
        closed = np.full((n, n), amps.cross_site, dtype=complex)
        np.fill_diagonal(closed, amps.same_site)
        worst = max(worst, float(np.abs(closed - q1_unitary_oracle(params, t)).max()))
    return _result("amplitude_oracle", worst, 1e-9)


def check_reduced_state_oracle(params: NetworkParams, points: int = 25) -> CheckResult:
    worst = 0.0
    for sel in _selectors(params):
        for tau in np.linspace(0.0, 1.0, points):
            t = tau * params.period
            try:
                state = states.reduced_state(params, sel, t)
            except DegenerateStateError as exc:  # N=2: compare the documented limit state
                state = states.ReducedState(0.0, exc.limit_direction, sel.k_qubits, sel.dyn_class)
            dense = states.materialize_density(state)
            brute = oracle.reduced_density_oracle(params, sel, t)
            worst = max(worst, float(np.abs(dense - brute).max()))
    return _result("reduced_state_oracle", worst, 1e-9)


def check_propagator_completeness(params: NetworkParams, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    sels = list(_selectors(params))
    worst = 0.0
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        t1, t2 = _random_interval(rng, params, sel.k_qubits)
        ops = propagator.build_propagator(params, sel, t1, t2)
        worst = max(worst, propagator.completeness_residual(ops))
    return _result("propagator_completeness", worst, 1e-10)


def check_propagator_orbit(params: NetworkParams, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    sels = list(_selectors(params))
    worst = 0.0
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        t1, t2 = _random_interval(rng, params, sel.k_qubits)
        ops = propagator.build_propagator(params, sel, t1, t2)
        moved = propagator.apply(
            ops, states.materialize_density(states.reduced_state(params, sel, t1))
        )
        target = states.materialize_density(states.reduced_state(params, sel, t2))
        worst = max(worst, float(np.abs(moved - target).max()))
    return _result("propagator_orbit", worst, 1e-9)


def check_tomography_containing(params: NetworkParams, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(1, params.n_qubits + 1))
        sel = SubsystemSelector(k, DynClass.CONTAINS_EXCITED)
        t1, t2 = _random_interval(rng, params, k)
        closed = propagator.propagator_matrix(
            propagator.build_propagator(params, sel, t1, t2)
        )
        brute = oracle.propagator_oracle(params, sel, t1, t2)
        worst = max(worst, float(np.abs(closed - brute).max()))
    return _result("tomography_containing", worst, 1e-8)


def check_orbit_oracle_excluding(params: NetworkParams, samples: int = 60) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(1, params.n_qubits))
        sel = SubsystemSelector(k, DynClass.EXCLUDES_EXCITED)
        t1, t2 = _random_interval(rng, params, k)
        ops = propagator.build_propagator(params, sel, t1, t2)
        moved = propagator.apply(ops, oracle.reduced_density_oracle(params, sel, t1))
        target = oracle.reduced_density_oracle(params, sel, t2)
        worst = max(worst, float(np.abs(moved - target).max()))
    return _result("orbit_oracle_excluding", worst, 1e-9)


def check_composition(params: NetworkParams, samples: int = 40) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    sels = list(_selectors(params))
    worst = 0.0
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        t1, t2 = _random_interval(rng, params, sel.k_qubits)
        rho = states.materialize_density(states.reduced_state(params, sel, t1))
        worst = max(worst, propagator.compose_residual(params, sel, t1, t2, rho))
    return _result("composition_residual", worst, 1e-8)


def check_pcp_agreement(params: NetworkParams, samples: int = 2000) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    sels = list(_selectors(params))
    disagreements = 0
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        t1, t2 = _random_interval(rng, params, sel.k_qubits)
        verdict = positivity.classify(params, sel, t1, t2)
        flow_cp = verdict.flow_sign >= -positivity.VERDICT_TOL
        choi_cp = verdict.choi_min_eig >= -positivity.VERDICT_TOL
        trace_cp = verdict.trace_dist_delta <= positivity.VERDICT_TOL
        dense = positivity.choi_matrix(propagator.build_propagator(params, sel, t1, t2))
        dense_cp = np.linalg.eigvalsh(dense).min() >= -positivity.VERDICT_TOL
        if not (flow_cp == choi_cp == trace_cp == dense_cp):
            disagreements += 1
    return _result("pcp_agreement_disagreements", float(disagreements), 0.0)


def check_trace_distance(params: NetworkParams, points: int = 40) -> CheckResult:
    worst = 0.0
    for sel in _selectors(params):
        for tau in np.linspace(0.0, 1.0, points):
            state = states.reduced_state(params, sel, tau * params.period)
            rho = states.materialize_density(state)
            fixed = np.zeros_like(rho)
            fixed[0, 0] = 1.0
            eig_route = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - fixed)).sum())
            worst = max(worst, abs(states.trace_distance_to_fixed(state) - eig_route))
    return _result("trace_distance_eigenroute", worst, 1e-12)


def check_entropy_symmetry(params: NetworkParams, points: int = 200) -> CheckResult:
    worst = 0.0
    n = params.n_qubits
    for k in range(1, n):
        sel0 = SubsystemSelector(k, DynClass.EXCLUDES_EXCITED)
        sel1 = SubsystemSelector(n - k, DynClass.CONTAINS_EXCITED)
        for tau in np.linspace(0.0, 1.0, points):
            t = tau * params.period
            worst = max(
                worst,
                abs(
                    states.entanglement_entropy(params, sel0, t)
                    - states.entanglement_entropy(params, sel1, t)
                ),
            )
    return _result("entropy_symmetry", worst, 1e-12)


def check_conservation_relation(params: NetworkParams, samples: int = 60) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(1, params.n_qubits))
        t1, t2 = _random_interval(rng, params, k)
        try:
            worst = max(worst, inference.conservation_residual(params, k, t1, t2))
        except IndeterminateFlowError:
            continue  # mirrored window, no flow; relation says nothing there
    return _result("conservation_relation", worst, 1e-10)


def check_fisher_oracle(params: NetworkParams, points: int = 8) -> CheckResult:
    worst = 0.0
    taus = np.linspace(0.07, 0.93, points)
    for sel in _selectors(params):
        for theta in GlobalParameter:
            if (
                theta is GlobalParameter.SIZE_N
                and sel.dyn_class is DynClass.CONTAINS_EXCITED
                and sel.k_qubits == params.n_qubits
            ):
                continue  # diverges there by design
            for tau in taus:
                t = tau * params.period
                closed = fisher.qfi_closed_form(params, sel, theta, t).total
                numeric = fisher.qfi_numeric_oracle(params, sel, theta, t)
                scale = max(abs(closed), 1e-4)  # relative, with an absolute floor near zero
                worst = max(worst, abs(closed - numeric) / scale)
    return _result("fisher_oracle_relative", worst, 1e-4)


def check_fisher_split(params: NetworkParams, points: int = 60) -> CheckResult:
    worst = 0.0
    period = params.period
    t2_grid = np.linspace(0.05, 1.95, points) * period
    for dyn_class in DynClass:
        totals = []
        for anchor in (0.25, 0.4):
            row = []
            for t2 in t2_grid:
                split = fisher.process_state_split(
                    params, dyn_class, anchor * period, float(t2), rescaled=True
                )
                _, dp2 = _p_dp_single_qubit(
                    params, dyn_class, GlobalParameter.COUPLING_J, float(t2)
                )
                worst = max(worst, abs(split.total - dp2 * dp2))
                worst = max(
                    worst, abs(split.process + split.cross + split.state - split.total)
                )
                row.append(split.total)
            totals.append(row)
        worst = max(worst, float(np.abs(np.array(totals[0]) - totals[1]).max()))
    return _result("fisher_split_identity", worst, 1e-10)


def check_inference_roundtrip(params: NetworkParams, samples: int = 20) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    sel1 = SubsystemSelector(1, DynClass.CONTAINS_EXCITED)
    sel0 = SubsystemSelector(1, DynClass.EXCLUDES_EXCITED)
    worst = 0.0
    done = 0
    while done < samples:
        t1, t2 = _random_interval(rng, params, 1)
        flow1 = propagator.flow_amplitude(params, sel1, t1, t2)
        flow0 = propagator.flow_amplitude(params, sel0, t1, t2)
        if min(abs(flow0), abs(flow1)) < 1e-6:
            continue  # degenerate window, resample
        obs = inference.FlowObservation(
            flow1, flow0, states.excitation_probability(params, sel0, t1)
        )
        estimate = inference.infer_network_size(obs)
        worst = max(worst, abs(estimate.estimate - params.n_qubits))
        done += 1
    return _result("inference_roundtrip", worst, 1e-8)


def check_bloch_fixed_points(params: NetworkParams, samples: int = 60) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(samples):
        t1, t2 = _random_interval(rng, params, 1)
        for dyn_class, pole in (
            (DynClass.CONTAINS_EXCITED, 1.0),
            (DynClass.EXCLUDES_EXCITED, -1.0),
        ):
            bmap = bloch.affine_map(params, dyn_class, t1, t2)
            image = bloch.evolve_bloch(bmap, np.array([0.0, 0.0, pole]))
            worst = max(worst, float(np.abs(image - np.array([0.0, 0.0, pole])).max()))
    return _result("bloch_fixed_points", worst, 1e-12)


ALL_CHECKS: tuple[Callable[[NetworkParams], CheckResult], ...] = (
    check_amplitude_unitarity,
    check_amplitude_oracle,
    check_reduced_state_oracle,
    check_propagator_completeness,
    check_propagator_orbit,
    check_tomography_containing,
    check_orbit_oracle_excluding,
    check_composition,
    check_pcp_agreement,
    check_trace_distance,
    check_entropy_symmetry,
    check_conservation_relation,
    check_fisher_oracle,
    check_fisher_split,
    check_inference_roundtrip,
    check_bloch_fixed_points,
)


def run_all_checks(params: NetworkParams) -> list[CheckResult]:
    """Run every verification suite for the given network, timing each."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(params)
        results.append(result._replace(seconds=time.perf_counter() - start))
    return results
