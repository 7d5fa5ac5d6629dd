"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).

Criteria 01-05a, the symmetry part of 09, 10 and 13 share ``verify``'s
check engine: they call the per-case residuals and the worst-case fold of
``openqnet.verification`` (so a NaN residual fails here too), over their
own seeded cases, network sizes and sample counts.

Criterion 5 is split: 5a is the three-route positive/CP agreement over ten
thousand random cases (the Choi route in closed form, checked against the
dense Choi matrix as a fourth route) and passes. 5b additionally asserts
that whenever the flow weight is negative the minimum Choi eigenvalue
equals it and is the unique negative eigenvalue; that is exactly true only
for single-qubit containing-class maps (the flow direction of a K-qubit containing-class map
carries K times the flow weight, and excluding-class backflow adds a second
negative eigenvalue from the ground-sector operator), so over the general
ensemble this assertion cannot hold and the test is marked strict-xfail.
The refined true spectral statements are covered in test_positivity.py.
"""

import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    GlobalParameter,
    NetworkParams,
    SingularIntervalError,
    SubsystemSelector,
    Verdict,
    affine_map,
    axial_positivity_band,
    build_propagator,
    choi_matrix,
    classify,
    entanglement_entropy,
    estimate_period,
    flow_amplitude,
    infer_coupling,
    is_singular,
    physical_bloch_z,
    positivity_transition_time,
    process_state_split,
    qfi_closed_form,
    conservation_residual,
)
from openqnet._choi import dense_cp
from openqnet.positivity import VERDICT_TOL
from openqnet.verification import (
    _fold,
    amplitude_oracle_residual,
    bloch_fixed_point_residual,
    complement_pairs,
    completeness_residual,
    composition_residual,
    entropy_symmetry_residual,
    fisher_cases,
    fisher_routes,
    orbit_oracle_residual,
    orbit_residual,
    pcp_disagreements,
    random_interval,
    reduced_state_residual,
    roundtrip_windows,
    selectors,
    tomography_residual,
    unitarity_residual,
    worst_case,
)

C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
NETWORKS = [NetworkParams(n, 1.0) for n in range(2, 9)]


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name} {detail}".rstrip())
    return ok


def test_criterion_01_unitarity():
    cases = [(p, t) for p in NETWORKS for t in np.linspace(0.0, 1.0, 400) * p.period]
    r = worst_case("unitarity", 1e-12, unitarity_residual, cases)
    assert report(1, "unitarity constraints", r.passed, f"max={r.value:.2e} tol=1e-12")


def test_criterion_02_amplitude_oracle():
    cases = [(p, t) for p in NETWORKS for t in np.linspace(0.0, 1.0, 400) * p.period]
    r = worst_case("amplitude_oracle", 1e-9, amplitude_oracle_residual, cases)
    assert report(2, "amplitude eigendecomposition oracle", r.passed, f"max={r.value:.2e} tol=1e-9")


def test_criterion_03_reduced_state_oracle():
    cases = [
        (p, sel, t)
        for p in NETWORKS
        for sel in selectors(p)
        for t in np.linspace(0.0, 1.0, 80) * p.period
    ]
    r = worst_case("reduced_state", 1e-9, reduced_state_residual, cases)
    assert report(3, "reduced-state partial-trace oracle", r.passed, f"max={r.value:.2e} tol=1e-9")


def _draws(rng, count, dyn_class):
    for _ in range(count):
        params = NetworkParams(int(rng.integers(3, 8)), 1.0)
        k = int(rng.integers(1, params.n_qubits))
        yield (params, SubsystemSelector(k, dyn_class), *random_interval(rng, params, k))


def test_criterion_04_propagator_tomography():
    rng = np.random.default_rng(2024)
    c1_cases = list(_draws(rng, 500, C1))
    non_cp = sum(flow_amplitude(*case) < -1e-9 for case in c1_cases)
    c1 = worst_case("tomography", 1e-8, tomography_residual, c1_cases)
    c0 = worst_case("c0_orbit", 1e-9, orbit_oracle_residual, _draws(rng, 200, C0))
    ok = c1.passed and c0.passed and non_cp >= 100
    assert report(
        4,
        "propagator tomography",
        ok,
        f"c1_max={c1.value:.2e} (tol 1e-8), c0_orbit_max={c0.value:.2e} (tol 1e-9), non_cp={non_cp}",
    )


def _random_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        params = NetworkParams(n, 1.0)
        if rng.random() < 0.5:
            sel = SubsystemSelector(int(rng.integers(1, n + 1)), C1)
        else:
            sel = SubsystemSelector(int(rng.integers(1, n)), C0)
        yield (params, sel, *random_interval(rng, params, sel.k_qubits))


def test_criterion_05a_three_route_agreement():
    disagreements = len(pcp_disagreements(_random_cases(10_000, 555)))
    assert report(
        "5a", "P<->CP three-route agreement, dense Choi oracle too (10^4 cases)",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_05a_cholesky_verdict_matches_eigvalsh():
    # The dense route's Cholesky verdict (_choi.dense_cp, as pcp_agreement
    # runs it) against the minimum eigenvalue of the full Choi matrix, kept
    # here as the reference, on every case of criterion 5a.
    groups = {}
    for params, sel, t1, t2 in _random_cases(10_000, 555):
        groups.setdefault((params, sel), []).append((t1, t2))
    cases = 0
    for (params, sel), windows in groups.items():
        ops = build_propagator(params, sel, *np.array(windows).T)
        reference = np.linalg.eigvalsh(choi_matrix(ops)).min(axis=-1) >= -VERDICT_TOL
        dense = dense_cp(ops, VERDICT_TOL)
        assert np.array_equal(dense, reference), (params, sel)
        cases += len(windows)
    assert cases == 10_000


@pytest.mark.xfail(
    strict=True,
    reason=(
        "not a property of this map family beyond K=1 in the containing class: "
        "the unique negative Choi eigenvalue of a containing-class map is "
        "K*flow, and excluding-class backflow carries a second negative "
        "eigenvalue from the ground-sector operator; the refined spectral "
        "facts are asserted in test_positivity.py"
    ),
)
def test_criterion_05b_choi_minimum_matches_flow_as_stated():
    worst_gap = 0.0
    worst_count = 0
    for params, sel, t1, t2 in _random_cases(2_000, 555):
        ops = build_propagator(params, sel, t1, t2)
        if ops.flow_weight >= -1e-6:
            continue
        evals = np.linalg.eigvalsh(choi_matrix(ops))
        worst_gap = max(worst_gap, abs(float(evals.min()) - ops.flow_weight))
        worst_count = max(worst_count, int((evals < -1e-9).sum()))
    ok = worst_gap <= 1e-8 and worst_count == 1
    report("5b", "min Choi eigenvalue equals flow weight (as stated)", ok,
           f"max|min_eig - flow|={worst_gap:.2e}, max_negative_count={worst_count}")
    assert ok


def test_criterion_06_transition_time():
    params = NetworkParams(5, 1.0)
    dt = 0.05 * params.period
    worst = 0.0
    for k in range(1, 5):
        for cls in (C0, C1):
            t_star = positivity_transition_time(params, SubsystemSelector(k, cls), dt)
            worst = max(worst, abs(t_star / params.period - 0.475))
    assert report(6, "positivity transition at 0.475 periods", worst <= 1e-10, f"max={worst:.2e} tol=1e-10")


def test_criterion_07_bloch_geometry():
    params = NetworkParams(5, 1.0)
    rng = np.random.default_rng(77)
    cases = [(params, *rng.uniform(0, params.period, size=2)) for _ in range(200)]
    fixed = worst_case("fixed", 1e-12, bloch_fixed_point_residual, cases)
    lo, hi = axial_positivity_band(
        affine_map(params, C1, math.pi / 5, 2 * math.pi / 5)
    )
    band_dev = max(abs(lo - 0.28), abs(hi - 1.0))
    worst_contracting = 0.0
    for tau1, tau2 in [(0.0, 0.3), (0.1, 0.5), (0.2, 0.45)]:
        for cls in (C0, C1):
            blo, bhi = axial_positivity_band(
                affine_map(params, cls, tau1 * params.period, tau2 * params.period)
            )
            worst_contracting = max(worst_contracting, abs(blo + 1.0), abs(bhi - 1.0))
    ok = fixed.passed and band_dev <= 1e-12 and worst_contracting <= 1e-12
    assert report(
        7, "Bloch fixed points and axial bands", ok,
        f"fixed={fixed.value:.2e}, band=[{lo:.17g},{hi:.17g}], contracting={worst_contracting:.2e}",
    )


def test_criterion_08_never_visited_band():
    params = NetworkParams(5, 1.0)
    taus = np.linspace(0.0, 1.0, 100)
    lo_max, hi_min = -1.0, 1.0
    for tau1 in taus:
        for tau2 in taus:
            lo, hi = axial_positivity_band(
                affine_map(params, C1, tau1 * params.period, tau2 * params.period)
            )
            lo_max = max(lo_max, lo)
            hi_min = min(hi_min, hi)
    orbit_max = max(
        physical_bloch_z(params, C1, tau * params.period)
        for tau in np.linspace(0.0, 1.0, 2000)
    )
    ok = lo_max <= 0.29 and hi_min >= 1.0 - 1e-12 and orbit_max <= 0.28 + 1e-12
    assert report(
        8, "never-visited band", ok,
        f"band_intersection=[{lo_max:.6f},{hi_min:.6f}] contains [0.29,1], orbit_max={orbit_max:.6f}",
    )


def test_criterion_09_entropy():
    params = NetworkParams(5, 1.0)
    cases = [
        (params, *pair, t)
        for pair in complement_pairs(params)
        for t in np.linspace(0.0, 1.0, 400) * params.period
    ]
    sym = worst_case("symmetry", 1e-12, entropy_symmetry_residual, cases)
    zero_at_start = entanglement_entropy(params, SubsystemSelector(2, C1), 0.0)
    # K=1 containing class reaches x = 1/2 (x_max = 0.64): the entropy peak
    # hits ln 2 exactly there; for K >= 2 (x_max <= 0.48) it stays short.
    n = 5
    t_half = (2.0 / n) * math.asin(math.sqrt(n * n / (8.0 * (n - 1))))
    peak = entanglement_entropy(params, SubsystemSelector(1, C1), t_half)
    peak_dev = abs(peak - math.log(2))
    short = 0.0
    for k in (2, 3, 4):
        short = max(
            short,
            max(
                entanglement_entropy(params, SubsystemSelector(k, C1), tau * params.period)
                for tau in np.linspace(0, 1, 801)
            ),
        )
    ok = (
        sym.passed
        and zero_at_start == 0.0
        and peak_dev <= 1e-12
        and short <= math.log(2) - 1e-4
    )
    assert report(
        9, "entropy symmetry and peak", ok,
        f"sym={sym.value:.2e}, S(0)={zero_at_start}, peak_dev={peak_dev:.2e}, max_S(K>=2)={short:.6f}",
    )


def test_criterion_10_fisher_oracle():
    worst = 0.0
    exact_dev = 0.0
    quantum_dev = 0.0
    for n in range(3, 7):
        params = NetworkParams(n, 1.0)
        for case in fisher_cases(params, np.linspace(0.06, 0.94, 12)):
            closed, numeric = fisher_routes(*case)
            gap = abs(closed - numeric)
            if gap > 1e-8:
                worst = max(worst, gap / max(abs(closed), 1e-300))
        for t in (0.2, 0.9, 2.7):
            full = qfi_closed_form(params, SubsystemSelector(n, C1), GlobalParameter.COUPLING_J, t)
            exact_dev = max(exact_dev, abs(full.total - 4 * t * t * (n - 1)))
            exact_dev = max(exact_dev, abs(full.classical))
        for k in range(1, n):
            for tau in np.linspace(0.05, 0.95, 9):
                quantum_dev = max(
                    quantum_dev,
                    qfi_closed_form(
                        params, SubsystemSelector(k, C0), GlobalParameter.COUPLING_J,
                        tau * params.period,
                    ).quantum,
                )
    ok = worst <= 1e-4 and exact_dev <= 1e-9 and quantum_dev == 0.0
    assert report(
        10, "Fisher closed forms vs SLD oracle", ok,
        f"rel={worst:.2e} (tol 1e-4), full-network dev={exact_dev:.2e}, excluding-class quantum={quantum_dev}",
    )


def test_criterion_11_process_state_identity():
    params = NetworkParams(5, 1.0)
    period = params.period
    n = 5
    t2_grid = np.linspace(0.02, 1.98, 50) * period

    def dp_dj(t):
        # Independent derivative of p1(t; K=1) with respect to the coupling.
        return -2.0 * (n - 1) * t * math.sin(n * t) / n

    worst_sum = 0.0
    totals = []
    for anchor in (0.25, 0.4, 0.5, 0.75):
        row = []
        for t2 in t2_grid:
            split = process_state_split(params, C1, anchor * period, float(t2), rescaled=True)
            worst_sum = max(worst_sum, abs(split.total - dp_dj(float(t2)) ** 2))
            worst_sum = max(
                worst_sum, abs(split.process + split.cross + split.state - split.total)
            )
            row.append(split.total)
        totals.append(row)
    totals = np.asarray(totals)
    anchor_dev = float(np.abs(totals - totals[0]).max())
    at_anchor = process_state_split(params, C1, 0.3 * period, 0.3 * period, rescaled=True)
    from_zero = process_state_split(params, C1, 0.0, 0.7 * period, rescaled=True)
    ok = (
        worst_sum <= 1e-10
        and anchor_dev <= 1e-10
        and at_anchor.process == 0.0
        and from_zero.state == 0.0
    )
    assert report(
        11, "process/state/cross identity", ok,
        f"sum_dev={worst_sum:.2e}, anchor_dev={anchor_dev:.2e}",
    )


def test_criterion_12_fisher_dips_and_backflow():
    params = NetworkParams(5, 1.0)
    period = params.period
    worst_dip = 0.0
    all_noncp = True
    for cls in (C0, C1):
        sel = SubsystemSelector(1, cls)
        for half_multiple in (0.5, 1.5, 2.5):
            t_star = half_multiple * period
            worst_dip = max(
                worst_dip, qfi_closed_form(params, sel, GlobalParameter.COUPLING_J, t_star).total
            )
            for frac in np.linspace(0.02, 0.5, 13):
                verdict = classify(params, sel, t_star, t_star + frac * period)
                all_noncp &= verdict.verdict is Verdict.NON_POSITIVE_NON_CP
    ok = worst_dip <= 1e-10 and all_noncp
    assert report(
        12, "Fisher dips align with backflow windows", ok,
        f"max_dip={worst_dip:.2e}, forward_windows_noncp={all_noncp}",
    )


def test_criterion_13_inference_roundtrip():
    rng = np.random.default_rng(999)
    values = [
        pair
        for n in range(3, 13)
        for j in (0.5, 1.0, 2.0)
        for pair in roundtrip_windows(rng, NetworkParams(n, j), 20)
    ]
    roundtrip = _fold("n_dev", 1e-8, values)
    rng2 = np.random.default_rng(1001)
    cons_cases = []
    while len(cons_cases) < 100:
        n = int(rng2.integers(3, 9))
        params = NetworkParams(n, 1.0)
        k = int(rng2.integers(1, n))
        t1, t2 = rng2.uniform(0, params.period, size=2)
        if is_singular(params, k, t1):
            continue
        x1 = math.sin(n * t1 / 2) ** 2
        x2 = math.sin(n * t2 / 2) ** 2
        if abs(x2 - x1) < 1e-6:
            continue
        cons_cases.append((params, k, t1, t2))
    cons = worst_case("conservation", 1e-10, conservation_residual, cons_cases)
    worst_j = 0.0
    for n in (4, 6, 9):
        for j in (0.5, 0.7, 2.0):
            params = NetworkParams(n, j)
            sel1 = SubsystemSelector(1, C1)
            dt = 0.04 * params.period

            def observed(t, params=params, sel1=sel1, dt=dt):
                return flow_amplitude(params, sel1, t, t + dt)

            period_est = estimate_period(observed, dt, 1.4 * params.period)
            worst_j = max(worst_j, abs(infer_coupling(period_est, n) - j))
    ok = roundtrip.passed and cons.passed and worst_j <= 1e-6
    assert report(
        13, "inference round trip", ok,
        f"n_dev={roundtrip.value:.2e} (tol 1e-8), conservation={cons.value:.2e} (tol 1e-10), j_dev={worst_j:.2e} (tol 1e-6)",
    )


def test_criterion_14_singularity_handling():
    # K = N/2 at odd half-periods: the containing class is refused, naming
    # t1; the excluding class's one-time map stays invertible, so it builds.
    flagged_ok = True
    excluding = 0.0
    params6 = NetworkParams(6, 1.0)
    for m in range(3):
        t_half = (m + 0.5) * params6.period
        flagged_ok &= is_singular(params6, 3, t_half)
        try:
            build_propagator(params6, SubsystemSelector(3, C1), t_half, 0.9)
            flagged_ok = False
        except SingularIntervalError as exc:
            flagged_ok &= exc.t1 == t_half and f"t1={t_half!r}" in str(exc)
        case = (params6, SubsystemSelector(3, C0), t_half, 0.9)
        for residual in (orbit_residual, completeness_residual, composition_residual):
            excluding = max(excluding, residual(*case))
    built_ok = True
    for n in range(2, 9):
        params = NetworkParams(n, 1.0)
        for sel in selectors(params):
            for tau in np.linspace(0.0, 0.96, 17):
                t1 = tau * params.period
                if is_singular(params, sel.k_qubits, t1):
                    continue
                try:
                    build_propagator(params, sel, t1, 0.3 * params.period)
                except SingularIntervalError:
                    built_ok = False
    ok = flagged_ok and built_ok and excluding <= 1e-14
    assert report(
        14, "singularity handling", ok,
        f"flagged={flagged_ok}, others_build={built_ok}, excluding_max={excluding:.1e} (tol 1e-14)",
    )
