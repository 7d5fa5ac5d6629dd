"""Cross-route verification suites aggregating the module invariants.

Every check compares an analytic closed form against an independent route
(dense exponential, partial trace, map tomography, finite-difference SLD,
or an exact algebraic identity) and reports the worst residual seen. The
checks share one engine: a public per-case residual for each comparison,
one seeded stream of windows, and one worst-case fold (``worst_case``) that
keeps the case where the worst residual sits and fails on a NaN residual.
The four-route positivity comparison is one grouped routine,
``pcp_disagreements``, which evaluates the windows in stacks per selector.
The acceptance suite calls the same residuals, fold and routine over its
own seeded cases. All sampling uses a fixed seed so repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
import time
from itertools import product
from typing import Callable, Iterable, NamedTuple

import numpy as np

# Loaded here, at set-up, rather than lazily inside the first sampled check.
import numpy.random

from . import bloch, fisher, inference, oracle, positivity, propagator, states
from .amplitudes import NetworkParams, amplitudes, q1_unitary_oracle, unitarity_residuals
from .errors import DegenerateStateError, IndeterminateFlowError
from .fisher import GlobalParameter, _p_dp_single_qubit
from .states import DynClass, SubsystemSelector

RNG_SEED = 0
# Bytes of Choi stack that pcp_disagreements builds at once. With it the
# peak RSS of check_pcp_agreement at N=8 rises 2.5 MB over the per-case
# loop; 4 MiB adds 10 MB, whole unchunked groups 32 MB, at the same speed.
_CHOI_STACK_BYTES = 1 << 20
C1, C0 = DynClass.CONTAINS_EXCITED, DynClass.EXCLUDES_EXCITED


class CheckResult(NamedTuple):
    name: str
    value: float
    tolerance: float
    passed: bool
    seconds: float = 0.0  # wall time of the check, set by run_all_checks
    worst_at: tuple | None = None  # the residual's arguments at the worst case


def _result(name: str, value: float, tolerance: float, worst_at: tuple | None) -> CheckResult:
    return CheckResult(name, float(value), tolerance, bool(value <= tolerance), worst_at=worst_at)


def worst_case(
    name: str, tolerance: float, residual: Callable, cases: Iterable[tuple]
) -> CheckResult:
    """The largest ``residual(*case)`` over the cases, and the case where it sits.

    Each case starts with the ``NetworkParams``. A residual of None says the
    comparison has nothing to say at that case and is skipped. A NaN
    residual ends the fold and is reported, so the check fails.
    """
    worst, at = 0.0, None
    for case in cases:
        value = residual(*case)
        if value is not None and (at is None or not value <= worst):  # larger, or NaN
            worst, at = value, case
            if math.isnan(value):
                break
    return _result(name, worst, tolerance, at)


def selectors(params: NetworkParams, dyn_classes=(C1, C0)) -> list[SubsystemSelector]:
    """K = 1..N containing the excited qubit, then K = 1..N-1 excluding it."""
    n = params.n_qubits
    return [
        SubsystemSelector(k, c) for c in dyn_classes for k in range(1, n + 1 if c is C1 else n)
    ]


def random_interval(rng, params: NetworkParams, k: int) -> tuple[float, float]:
    """(t1, t2) uniform over one period, redrawn while t1 is a singular anchor for K."""
    while True:
        t1, t2 = rng.uniform(0.0, params.period, size=2)
        if not propagator.is_singular(params, k, t1):
            return float(t1), float(t2)


def _windows(params: NetworkParams, sels: list[SubsystemSelector], samples: int):
    # The seeded (params, selector, t1, t2) stream that the sampled checks draw.
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        yield (params, sel, *random_interval(rng, params, sel.k_qubits))


def _grid(params: NetworkParams, points: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, points) * params.period


def describe_case(case: tuple) -> str:
    """A check's case as selector K and class, parameter, and times in periods."""
    parts, period = [], case[0].period
    for x in case:
        if isinstance(x, SubsystemSelector):
            parts += [f"K={x.k_qubits}", f"class={x.dyn_class.value}"]
        elif isinstance(x, DynClass):
            parts.append(f"class={x.value}")
        elif isinstance(x, GlobalParameter):
            parts.append(f"theta={x.value}")
    times = [x for x in case if isinstance(x, float)]
    names = ("t",) if len(times) == 1 else ("t1", "t2")
    parts += [f"{name}={t / period:.6g}" for name, t in zip(names, times)]
    return " ".join(parts) + " periods"


def _closed_density(params: NetworkParams, sel: SubsystemSelector, t) -> np.ndarray:
    return states.materialize_density(states.reduced_state(params, sel, t))


def unitarity_residual(params: NetworkParams, t) -> float:
    """The larger of the two unitarity constraint residuals of u_s, u_d at t."""
    return max(unitarity_residuals(amplitudes(params, t), params.n_qubits))


def amplitude_oracle_residual(params: NetworkParams, t) -> float:
    """Closed-form single-excitation block against the dense exponential at t."""
    n = params.n_qubits
    amps = amplitudes(params, t)
    closed = np.full((n, n), amps.cross_site, dtype=complex)
    np.fill_diagonal(closed, amps.same_site)
    return float(np.abs(closed - q1_unitary_oracle(params, t)).max())


def reduced_state_residual(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """Closed-form reduced density against the partial-trace oracle at t."""
    try:
        state = states.reduced_state(params, sel, t)
    except DegenerateStateError as exc:  # N=2: compare the documented limit state
        state = states.ReducedState(0.0, exc.limit_direction, sel.k_qubits, sel.dyn_class)
    dense = states.materialize_density(state)
    return float(np.abs(dense - oracle.reduced_density_oracle(params, sel, t)).max())


def completeness_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Trace-preservation residual of the propagator over [t1, t2]."""
    return propagator.completeness_residual(propagator.build_propagator(params, sel, t1, t2))


def orbit_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The propagator moves the closed-form state at t1 onto the one at t2."""
    ops = propagator.build_propagator(params, sel, t1, t2)
    moved = propagator.apply(ops, _closed_density(params, sel, t1))
    return float(np.abs(moved - _closed_density(params, sel, t2)).max())


def tomography_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Closed-form propagator matrix against map tomography over [t1, t2]."""
    closed = propagator.propagator_matrix(propagator.build_propagator(params, sel, t1, t2))
    return float(np.abs(closed - oracle.propagator_oracle(params, sel, t1, t2)).max())


def orbit_oracle_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The propagator moves the oracle's state at t1 onto the oracle's state at t2."""
    ops = propagator.build_propagator(params, sel, t1, t2)
    moved = propagator.apply(ops, oracle.reduced_density_oracle(params, sel, t1))
    return float(np.abs(moved - oracle.reduced_density_oracle(params, sel, t2)).max())


def composition_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Propagator composition residual, acting on the closed-form state at t1."""
    return propagator.compose_residual(params, sel, t1, t2, _closed_density(params, sel, t1))


def pcp_disagreements(cases: Iterable[tuple]) -> list[tuple]:
    """The (params, selector, t1, t2) cases on which the four positivity
    routes disagree, in the order the cases come.

    The routes are the flow sign, the closed-form Choi spectrum, the trace
    distance and the dense Choi matrix, each decided at ``VERDICT_TOL``.
    The cases are grouped by network and selector and evaluated in stacks:
    one stacked propagator, one stacked dense Choi matrix and one Cholesky
    PSD test per matrix (:func:`choi_psd`). A stack holds at most
    ``_CHOI_STACK_BYTES`` (1 MiB) of Choi matrices, and at least one.
    """
    cases = list(cases)
    groups: dict[tuple, list[int]] = {}
    for i, (params, sel, _, _) in enumerate(cases):
        groups.setdefault((params, sel), []).append(i)
    bad = []
    for (params, sel), members in groups.items():
        size = max(1, _CHOI_STACK_BYTES // (16 * (sel.k_qubits + 1) ** 4))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            t1, t2 = (np.array([cases[i][j] for i in chunk]) for j in (2, 3))
            agree = _pcp_agree(params, sel, t1, t2)
            bad += [i for i, ok in zip(chunk, agree) if not ok]
    return [cases[i] for i in sorted(bad)]


def _pcp_agree(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> np.ndarray:
    # Whether the four routes agree, for each window of the t1, t2 arrays.
    tol = positivity.VERDICT_TOL
    ops = propagator.build_propagator(params, sel, t1, t2)
    flow_cp = ops.flow_weight >= -tol
    choi_cp = np.minimum.reduce(positivity.choi_spectrum(ops)) >= -tol
    p1, p2 = (states.excitation_probability(params, sel, t) for t in (t1, t2))
    dense_cp = choi_psd(positivity.choi_matrix(ops), tol)
    return (flow_cp == choi_cp) & (choi_cp == (p2 - p1 <= tol)) & (choi_cp == dense_cp)


def choi_psd(choi: np.ndarray, tol: float) -> np.ndarray:
    """Whether each Hermitian matrix of a ``(..., D, D)`` stack has its
    smallest eigenvalue at or above ``-tol``.

    Decided by a Cholesky factorisation of C + tol*I per matrix
    (``np.linalg.cholesky``, LAPACK's ``potrf``), which reads the lower
    triangle, as ``eigvalsh`` does; a failed factorisation means not PSD. A
    matrix with a non-finite entry counts as not PSD.
    """
    dim = choi.shape[-1]
    flat = choi.reshape(-1, dim, dim)
    shift = tol * np.eye(dim)
    # Each pivot is its diagonal entry less a sum of squares, so a shifted
    # diagonal entry <= 0 fails the factorisation at or before its own pivot.
    psd = (np.diagonal(flat, axis1=-2, axis2=-1).real + tol > 0.0).all(axis=-1)
    for i in np.flatnonzero(psd):
        if not np.isfinite(flat[i]).all():  # OpenBLAS factorises a NaN matrix
            psd[i] = False
            continue
        try:
            np.linalg.cholesky(flat[i] + shift)
        except np.linalg.LinAlgError:
            psd[i] = False
    return psd.reshape(choi.shape[:-2])


def trace_distance_residual(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """Closed-form trace distance to |0><0| against the eigenvalue route at t."""
    state = states.reduced_state(params, sel, t)
    rho = states.materialize_density(state)
    fixed = np.zeros_like(rho)
    fixed[0, 0] = 1.0
    eig_route = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - fixed)).sum())
    return abs(states.trace_distance_to_fixed(state) - eig_route)


def entropy_symmetry_residual(
    params: NetworkParams, sel: SubsystemSelector, complement: SubsystemSelector, t
) -> float:
    """Entropy of a subsystem against that of its complement at t."""
    entropy = states.entanglement_entropy(params, sel, t)
    return abs(entropy - states.entanglement_entropy(params, complement, t))


def complement_pairs(params: NetworkParams) -> list[tuple[SubsystemSelector, SubsystemSelector]]:
    """(K qubits excluding the excited one, the other N-K qubits) for K = 1..N-1."""
    n = params.n_qubits
    return [(SubsystemSelector(k, C0), SubsystemSelector(n - k, C1)) for k in range(1, n)]


def conservation_relation_residual(
    params: NetworkParams, sel: SubsystemSelector, t1, t2
) -> float | None:
    """Excitation-balance residual for the pair of K-qubit subsystems; None
    where the window carries no flow."""
    try:
        return inference.conservation_residual(params, sel.k_qubits, t1, t2)
    except IndeterminateFlowError:
        return None  # mirrored window, no flow; relation says nothing there


def fisher_cases(params: NetworkParams, taus) -> Iterable[tuple]:
    """(params, selector, parameter, t) at t = tau periods, skipping the
    size parameter of the whole network, which diverges by design."""
    times = np.asarray(taus) * params.period
    for sel in selectors(params):
        for theta in GlobalParameter:
            if theta is GlobalParameter.SIZE_N and sel == SubsystemSelector(params.n_qubits, C1):
                continue
            for t in times:
                yield params, sel, theta, t


def fisher_routes(params: NetworkParams, sel: SubsystemSelector, theta, t) -> tuple[float, float]:
    """Total QFI at t by the closed form and by the SLD oracle."""
    closed = fisher.qfi_closed_form(params, sel, theta, t).total
    return closed, fisher.qfi_numeric_oracle(params, sel, theta, t)


def fisher_oracle_residual(params: NetworkParams, sel: SubsystemSelector, theta, t) -> float:
    """Relative gap between the two QFI routes, with an absolute floor near zero."""
    closed, numeric = fisher_routes(params, sel, theta, t)
    return abs(closed - numeric) / max(abs(closed), 1e-4)


def fisher_split_residual(params: NetworkParams, dyn_class: DynClass, t2) -> float:
    """Process/state/cross split at t2 from anchors 0.25 and 0.4 periods.

    Each split's total must be (d_J p)^2 at t2 and the sum of its parts, and
    the two anchors must give the same total. (d_J p)^2 scales as 1/J^2, so
    the residual is taken in the dimensionless J^2 (d_J p)^2, multiplied by
    J twice: J^2 alone overflows from J ~ 1.3e154.
    """
    _, dp2 = _p_dp_single_qubit(params, dyn_class, GlobalParameter.COUPLING_J, t2)
    worst, totals = 0.0, []
    for anchor in (0.25, 0.4):
        t1 = anchor * params.period
        split = fisher.process_state_split(params, dyn_class, t1, t2, rescaled=True)
        parts = split.process + split.cross + split.state
        worst = max(worst, abs(split.total - dp2 * dp2), abs(parts - split.total))
        totals.append(split.total)
    return max(worst, abs(totals[0] - totals[1])) * params.coupling * params.coupling


def roundtrip_residual(params: NetworkParams, t1, t2) -> float | None:
    """|N estimate - N| from the single-qubit flows over [t1, t2]; None
    where either flow is below 1e-6."""
    flow1 = propagator.flow_amplitude(params, SubsystemSelector(1, C1), t1, t2)
    flow0 = propagator.flow_amplitude(params, SubsystemSelector(1, C0), t1, t2)
    if min(abs(flow0), abs(flow1)) < 1e-6:
        return None
    ground = states.excitation_probability(params, SubsystemSelector(1, C0), t1)
    estimate = inference.infer_network_size(inference.FlowObservation(flow1, flow0, ground))
    return abs(estimate.estimate - params.n_qubits)


def roundtrip_windows(rng, params: NetworkParams, samples: int):
    """``samples`` (params, t1, t2) cases, t1 and t2 from ``random_interval``
    for K = 1, on which ``roundtrip_residual`` gives an estimate."""
    while samples:
        case = (params, *random_interval(rng, params, 1))
        if roundtrip_residual(*case) is not None:
            samples -= 1
            yield case


def bloch_fixed_point_residual(params: NetworkParams, t1, t2) -> float:
    """How far the K = 1 Bloch maps over [t1, t2] move their fixed poles."""
    worst = 0.0
    for dyn_class, pole in ((C1, 1.0), (C0, -1.0)):
        fixed = np.array([0.0, 0.0, pole])
        image = bloch.evolve_bloch(bloch.affine_map(params, dyn_class, t1, t2), fixed)
        worst = max(worst, float(np.abs(image - fixed).max()))
    return worst


def check_amplitude_unitarity(params: NetworkParams, points: int = 400) -> CheckResult:
    cases = product([params], _grid(params, points))
    return worst_case("amplitude_unitarity", 1e-12, unitarity_residual, cases)


def check_amplitude_oracle(params: NetworkParams, points: int = 100) -> CheckResult:
    cases = product([params], _grid(params, points))
    return worst_case("amplitude_oracle", 1e-9, amplitude_oracle_residual, cases)


def check_reduced_state_oracle(params: NetworkParams, points: int = 25) -> CheckResult:
    cases = product([params], selectors(params), _grid(params, points))
    return worst_case("reduced_state_oracle", 1e-9, reduced_state_residual, cases)


def check_propagator_completeness(params: NetworkParams, samples: int = 100) -> CheckResult:
    cases = _windows(params, selectors(params), samples)
    return worst_case("propagator_completeness", 1e-10, completeness_residual, cases)


def check_propagator_orbit(params: NetworkParams, samples: int = 100) -> CheckResult:
    cases = _windows(params, selectors(params), samples)
    return worst_case("propagator_orbit", 1e-9, orbit_residual, cases)


def check_tomography_containing(params: NetworkParams, samples: int = 100) -> CheckResult:
    cases = _windows(params, selectors(params, (C1,)), samples)
    return worst_case("tomography_containing", 1e-8, tomography_residual, cases)


def check_orbit_oracle_excluding(params: NetworkParams, samples: int = 60) -> CheckResult:
    cases = _windows(params, selectors(params, (C0,)), samples)
    return worst_case("orbit_oracle_excluding", 1e-9, orbit_oracle_residual, cases)


def check_composition(params: NetworkParams, samples: int = 40) -> CheckResult:
    cases = _windows(params, selectors(params), samples)
    return worst_case("composition_residual", 1e-8, composition_residual, cases)


def check_pcp_agreement(params: NetworkParams, samples: int = 2000) -> CheckResult:
    # A count, not a fold: the case reported is the first disagreement.
    bad = pcp_disagreements(_windows(params, selectors(params), samples))
    return _result("pcp_agreement_disagreements", len(bad), 0.0, bad[0] if bad else None)


def check_trace_distance(params: NetworkParams, points: int = 40) -> CheckResult:
    cases = product([params], selectors(params), _grid(params, points))
    return worst_case("trace_distance_eigenroute", 1e-12, trace_distance_residual, cases)


def check_entropy_symmetry(params: NetworkParams, points: int = 200) -> CheckResult:
    grid = _grid(params, points)
    cases = ((params, *pair, t) for pair in complement_pairs(params) for t in grid)
    return worst_case("entropy_symmetry", 1e-12, entropy_symmetry_residual, cases)


def check_conservation_relation(params: NetworkParams, samples: int = 60) -> CheckResult:
    cases = _windows(params, selectors(params, (C0,)), samples)
    return worst_case("conservation_relation", 1e-10, conservation_relation_residual, cases)


def check_fisher_oracle(params: NetworkParams, points: int = 8) -> CheckResult:
    cases = fisher_cases(params, np.linspace(0.07, 0.93, points))
    return worst_case("fisher_oracle_relative", 1e-4, fisher_oracle_residual, cases)


def check_fisher_split(params: NetworkParams, points: int = 60) -> CheckResult:
    cases = product([params], DynClass, (np.linspace(0.05, 1.95, points) * params.period).tolist())
    return worst_case("fisher_split_identity", 1e-10, fisher_split_residual, cases)


def check_inference_roundtrip(params: NetworkParams, samples: int = 20) -> CheckResult:
    cases = roundtrip_windows(np.random.default_rng(RNG_SEED), params, samples)
    return worst_case("inference_roundtrip", 1e-8, roundtrip_residual, cases)


def check_bloch_fixed_points(params: NetworkParams, samples: int = 60) -> CheckResult:
    rng = np.random.default_rng(RNG_SEED)
    cases = ((params, *random_interval(rng, params, 1)) for _ in range(samples))
    return worst_case("bloch_fixed_points", 1e-12, bloch_fixed_point_residual, cases)


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
