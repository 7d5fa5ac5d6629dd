"""The check engine of ``openqnet verify``: the worst-case fold and its case,
the grouped rows and their memory, the grouped positivity comparison and
its dense Cholesky verdict."""

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from openqnet import NetworkParams, SubsystemSelector, _choi, oracle, positivity, propagator, states
from openqnet import verification as v
from openqnet.cli import main
from openqnet.errors import OpenQNetError, SizeLimitError

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
TOL = positivity.VERDICT_TOL

N5 = NetworkParams(5, 1.0)

# The table's rows by name, and every check that folds a per-case residual,
# with that residual: the rows, and the round trip, which folds the cases
# its own residual keeps.
ROWS = {row.name: row for row in v.ALL_CHECKS if isinstance(row, v.Row)}
FOLDS = [(row, row.residual) for row in ROWS.values()]
FOLDS.append((v.check_inference_roundtrip, v.roundtrip_residual))


def _check_id(check) -> str:
    # A row's id is "check_" and its name without the word naming its measure.
    if not isinstance(check, v.Row):
        return check.__name__
    return "check_" + re.sub("_(residual|eigenroute|relative|identity)$", "", check.name)


def test_worst_case_reports_the_largest_residual_and_its_case():
    values = {1: 0.5, 2: None, 3: 2.0, 4: 1.0}
    result = v.worst_case("x", 1.0, lambda params, i: values[i], [(N5, i) for i in values])
    assert (result.value, result.passed, result.worst_at) == (2.0, False, (N5, 3))


def test_worst_case_fails_on_nan():
    # Builtin max(worst, nan) keeps worst; the fold must not.
    values = {1: 0.5, 2: math.nan, 3: 2.0}
    result = v.worst_case("x", 1.0, lambda params, i: values[i], [(N5, i) for i in values])
    assert math.isnan(result.value) and not result.passed and result.worst_at == (N5, 2)


def test_nan_bloch_image_fails(monkeypatch):
    # The per-class maximum keeps a NaN, as the fold does.
    real = v.bloch.evolve_bloch
    monkeypatch.setattr(v.bloch, "evolve_bloch", lambda bmap, b: real(bmap, b) * np.nan)
    result = ROWS["bloch_fixed_points"](N5)
    assert math.isnan(result.value) and not result.passed


def test_nan_completeness_residual_fails(monkeypatch):
    monkeypatch.setattr(propagator, "completeness_residual", lambda ops: math.nan)
    result = ROWS["propagator_completeness"](N5)
    assert math.isnan(result.value) and not result.passed


def test_nan_tomography_oracle_fails(monkeypatch):
    real = oracle.propagator_oracle
    monkeypatch.setattr(oracle, "propagator_oracle", lambda *args: real(*args) + np.nan)
    result = ROWS["tomography_containing"](N5)
    assert math.isnan(result.value) and not result.passed


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
def test_every_row_fails_on_a_nan_residual(row):
    # A NaN residual at every case, stacked or not: the row reads NaN, fails
    # and reports the first case.
    result = row._replace(residual=lambda *args: np.full(np.shape(args[-1]), np.nan))(N5)
    assert math.isnan(result.value) and not result.passed
    assert result.worst_at == next(iter(row.cases(N5)))


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
@pytest.mark.parametrize("n", [5, 8])
def test_every_row_folds_as_the_per_case_fold(row, n):
    # The columns' grouped stacks and fold against one residual call per
    # case tuple, folded by worst_case: the value bit for bit, the verdict
    # and the case.
    params = NetworkParams(n, 1.0)
    got = row(params)
    want = v.worst_case(row.name, row.tolerance, row.residual, list(row.cases(params)))
    assert got.value.hex() == want.value.hex()
    assert (got.passed, got.worst_at) == (want.passed, want.worst_at)


def _planted_row(values):
    # A grouped row whose cases alternate between two selectors' keys in
    # stream order, case i at t1 = i, and whose residual reads values[t1].
    sels = v.selectors(N5)[:2]
    cases = [(N5, sels[i % 2], float(i), 0.0) for i in range(len(values))]

    def residual(params, sel, t1, t2):
        return np.array(values)[np.asarray(t1, dtype=int)]

    row = v.Row("planted", 1.0, residual, lambda params: v.columns(cases), lambda n, d: 2)
    return row, cases


@pytest.mark.parametrize(
    "values, first",
    [
        ([1.0, 5.0, 5.0, 2.0], 1),  # a tie across keys: the earlier case in stream order
        ([1.0, math.nan, math.nan, 9.0], 1),  # a NaN of the later key, earlier in the stream
        ([math.nan, 9.0, math.nan, 9.0], 0),
    ],
)
def test_planted_values_fold_in_stream_order(values, first):
    # The first key's group is evaluated first, so its case 2 is met before
    # case 1 of the second key; the fold still reports stream order.
    row, cases = _planted_row(values)
    result = row(N5)
    want = v.worst_case("planted", 1.0, row.residual, cases)
    assert result.worst_at == want.worst_at == cases[first]
    assert result.value.hex() == want.value.hex() == float(values[first]).hex()


def test_pcp_agreement_counts_as_the_tuple_stream(monkeypatch):
    # The count and first case of check_pcp_agreement's columns are those of
    # pcp_disagreements on the same windows as case tuples, with none and
    # with disagreements planted in three groups.
    cases = list(v._windows(N5, v.selectors(N5), 2000))
    result = v.check_pcp_agreement(N5)
    assert (result.value, result.worst_at) == (0.0, None) and v.pcp_disagreements(cases) == []
    cp = [c for c in cases if propagator.flow_amplitude(*c) >= -TOL]
    groups = list(dict.fromkeys(c[1] for c in cp))[:3]
    picks = [next(c for c in reversed(cp) if c[1] == sel) for sel in groups]
    _inject(monkeypatch, [c[2] for c in picks])
    bad = v.pcp_disagreements(cases)
    result = v.check_pcp_agreement(N5)
    assert len(bad) == len(picks) and (result.value, result.worst_at) == (len(bad), bad[0])


@pytest.mark.parametrize("check, residual", FOLDS, ids=[_check_id(c) for c, _ in FOLDS])
@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_reported_case_reproduces_the_value(check, residual, n):
    # At N = 12 the stack cap cuts the tomography and composition groups
    # into chunks; the grouped fold must still report the per-case value.
    result = check(NetworkParams(n, 1.0))
    assert result.worst_at[0] == NetworkParams(n, 1.0)
    assert residual(*result.worst_at) == result.value  # bit for bit


@pytest.mark.xfail(
    strict=True,
    reason=(
        "accepted anchors near K = N/2 lose accuracy in the flow weight: "
        "3.8e-7 completeness and 3.0e-7 tomography here (ROADMAP item 4)"
    ),
)
def test_residuals_at_an_accepted_anchor_meet_the_verify_tolerances():
    # N = 8, K = 4 in the containing class, t1 = 0.499 periods: d(t1) =
    # 9.9e-6, which the anchor test accepts, so verify may draw this window.
    params, sel = NetworkParams(8, 1.0), SubsystemSelector(4, v.C1)
    t1, t2 = 0.499 * params.period, 0.88 * params.period
    assert not propagator.is_singular(params, 4, t1)
    completeness = v.completeness_residual(params, sel, t1, t2)
    tomography = v.tomography_residual(params, sel, t1, t2)
    # propagator_completeness's and tomography_containing's tolerances
    assert completeness <= 1e-10 and tomography <= 1e-8, (completeness, tomography)


def _outcome(call):
    # call()'s value, or the type and message of the error it raises.
    try:
        return call()
    except OpenQNetError as exc:
        return type(exc), str(exc)


def _same_outcome(got, want) -> bool:
    if isinstance(got[0], type) or isinstance(want[0], type):
        return got == want
    return all(_same_bits(np.asarray(g), np.asarray(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 50])
def test_stacked_states_are_the_scalar_calls(n):
    # Over an array of times at +-0, at odd half-periods and 1e-8 of a
    # period past one (the N = 2 degenerate state) and at seeded points, the
    # stacked reduced_state, its densities and trace distances, and the
    # reduced-state residual, whose limit state stands in at N = 2, and the
    # trace-distance residual built on them are their scalar calls byte for
    # byte, or refused as their loop is.
    rng = np.random.default_rng(n)
    refused = []
    for j in (1.0, 0.7, 1e-300, 1e300 / (10 * n)):
        params = NetworkParams(n, j)
        taus = np.concatenate([[0.0, -0.0, 0.5, -0.5, 1.5, 0.5 + 1e-8], rng.uniform(-3.0, 3.0, 6)])
        t = rng.permutation(taus).reshape(3, 4) * params.period
        times = t.ravel().tolist()
        for sel in v.selectors(params):
            d = sel.k_qubits + 1

            def stacked(state):
                return (
                    state.excited_weight,
                    state.internal_vector,
                    states.materialize_density(state),
                    states.trace_distance_to_fixed(state),
                )

            def scalar_calls():
                closed = [stacked(states.reduced_state(params, sel, s)) for s in times]
                shapes = (t.shape, t.shape + (d - 1,), t.shape + (d, d), t.shape)
                return tuple(np.array(part).reshape(shape) for part, shape in zip(zip(*closed), shapes))

            got = _outcome(lambda: stacked(states.reduced_state(params, sel, t)))
            want = _outcome(scalar_calls)
            assert _same_outcome(got, want), (params, sel)
            refused.append(isinstance(want[0], type))
            for residual in (v.reduced_state_residual, v.trace_distance_residual):
                got = _outcome(lambda: (residual(params, sel, t),))
                loop = lambda: (np.reshape([residual(params, sel, s) for s in times], t.shape),)
                assert _same_outcome(got, _outcome(loop)), (params, sel, residual.__name__)
    assert any(refused) == (n == 2)  # the degenerate state of K = 1, class 1
    if n == 2:  # where it vanishes, the limit state |0><0| meets the oracle
        params, sel = NetworkParams(2, 1.0), SubsystemSelector(1, v.C1)
        half = 0.5 * params.period
        limit = np.abs(np.diag([1.0, 0.0]) - oracle.reduced_density_oracle(params, sel, half)).max()
        assert v.reduced_state_residual(params, sel, half) == limit
        assert v.reduced_state_residual(params, sel, np.array([0.1, half]))[1] == limit


def test_describe_case():
    sel = v.selectors(N5, (v.C1,))[2]
    assert v.describe_case((N5, sel, 0.25 * N5.period, N5.period)) == "K=3 class=1 t1=0.25 t2=1 periods"
    case = (N5, sel, v.GlobalParameter.SIZE_N, 0.5 * N5.period)
    assert v.describe_case(case) == "K=3 class=1 theta=N t=0.5 periods"


def _per_draw_windows(params, sels, samples):
    # The window stream as one generator call per draw takes it: the
    # selector's integers, then random_interval's uniform pairs.
    rng = np.random.default_rng(v.RNG_SEED)
    for _ in range(samples):
        sel = sels[rng.integers(len(sels))]
        yield (params, sel, *v.random_interval(rng, params, sel.k_qubits))


def _stream(cases):
    return [(sel, t1.hex(), t2.hex()) for _, sel, t1, t2 in cases]


STREAM_COUNTS = (1, 2, 3, 40, 60, 100, 2000)
CLASS_SETS = ((v.C1, v.C0), (v.C1,), (v.C0,))  # (C0,) at N = 2: a single selector


@pytest.mark.parametrize("n", [*range(2, 18), 32, 50])
def test_bulk_window_stream_is_the_per_draw_stream(n):
    # Every window bit for bit, against numpy's own calls: a numpy whose
    # Generator used its raw words otherwise would fail here, naming the
    # window stream, and not only at the pinned CSVs.
    for j in (1.0, 0.7, 1e-300, 1e300 / (10 * n)):
        params = NetworkParams(n, j)
        for classes in CLASS_SETS:
            sels = v.selectors(params, classes)
            want = _stream(_per_draw_windows(params, sels, max(STREAM_COUNTS)))
            for count in STREAM_COUNTS:
                assert _stream(v._windows(params, sels, count)) == want[:count], (j, classes, count)


def test_bulk_window_stream_redraws_and_continues_as_the_per_draw_stream(monkeypatch):
    # With anchors refused up to d = 0.3, many t1 are redrawn, each window
    # from the generator state where the bulk draw stopped; a continuation
    # one raw word or one 32-bit half off changes the windows that follow.
    monkeypatch.setattr(propagator, "ANCHOR_RTOL", 0.3)
    refusals, real = [], propagator.is_singular

    def counted(params, k, t1):
        refusals.append(real(params, k, t1))
        return refusals[-1]

    for n in (2, 3, 4, 6, 9):
        params = NetworkParams(n, 0.7)
        for classes in CLASS_SETS:
            sels = v.selectors(params, classes)
            monkeypatch.setattr(propagator, "is_singular", counted)
            del refusals[:]
            want = _stream(_per_draw_windows(params, sels, 600))
            assert sum(refusals) >= 20, (n, classes)
            monkeypatch.setattr(propagator, "is_singular", real)
            for count in (1, 3, 600):
                assert _stream(v._windows(params, sels, count)) == want[:count], (n, classes, count)


def test_bulk_window_stream_decides_anchors_at_the_threshold_by_is_singular(monkeypatch):
    # ANCHOR_RTOL set to a window's own anchor denominator d, in
    # is_singular's scalar arithmetic, so that d <= ANCHOR_RTOL holds with
    # equality: that t1 is redrawn, whatever the array sine rounds it to.
    params = NetworkParams(8, 0.7)
    sels = v.selectors(params)
    at_edge = 0
    for _, sel, t1, _ in _per_draw_windows(params, sels, 200):
        x1 = propagator._hop(params.n_qubits, params.coupling, t1)[0]
        d = propagator._anchor_denominator(params, sel.k_qubits, True, x1)
        if d > 0.8 or at_edge == 10:  # a threshold near 1 refuses nearly every anchor
            continue
        monkeypatch.setattr(propagator, "ANCHOR_RTOL", d)
        assert propagator.is_singular(params, sel.k_qubits, t1)
        want = _stream(_per_draw_windows(params, sels, 100))
        assert _stream(v._windows(params, sels, 100)) == want, t1
        at_edge += 1
    assert at_edge >= 5


class _ManySelectors:
    # 2^31 + 1 selectors, of K = 1..N cyclically: integers rejects about half
    # of its 32-bit draws, as 2^32 mod (2^31 + 1) = 2^31 - 1.
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return 2**31 + 1

    def __getitem__(self, i):
        return SubsystemSelector(1 + i % self.n, v.C1)


def test_bulk_window_stream_draws_rejected_selectors_as_the_per_draw_stream():
    params = NetworkParams(6, 1.0)
    sels = _ManySelectors(6)
    want = _stream(_per_draw_windows(params, sels, 300))
    for count in (1, 2, 5, 300):
        assert _stream(v._windows(params, sels, count)) == want[:count], count


def _edge_ops(n, k, dyn_class, target):
    # Ops whose smallest Choi eigenvalue is ``target``, from K*flow in the
    # containing class and from the 2x2 block's lower eigenvalue in the
    # excluding class.
    params, sel = NetworkParams(n, 1.0), SubsystemSelector(k, dyn_class)
    ops = propagator.build_propagator(params, sel, 0.1 * params.period, 0.3 * params.period)
    if dyn_class is v.C1:
        return dataclasses.replace(ops, flow_weight=target / k)
    assert ops.flow_weight > 0.0  # so K*flow is not the smallest
    a = abs(ops.block_diag[0, 0]) ** 2
    return dataclasses.replace(ops, ground_extra=target * (1.0 + a / (k - target)))


@pytest.mark.parametrize("dyn_class", [v.C1, v.C0])
@pytest.mark.parametrize("margin", [1e-3, -1e-3])
def test_dense_route_at_the_tolerance_edge_factorises_each_block_alone(
    dyn_class, margin, monkeypatch
):
    # _dense_cp itself at -VERDICT_TOL * (1 + margin), alone and in a stack
    # with a CP window. In the containing class at K >= 2 every diagonal entry
    # passes the pre-test (flow = target / K > -VERDICT_TOL) while the K x K
    # flow block is not PSD for margin > 0: a route that drops that block
    # calls the window CP. Each block that a flow term joins is factorised
    # as its own stack, the block of B first in the excluding class, and a
    # window that fails it gets no flow block factorised; the rank-one block
    # of B in the containing class never is.
    target = -TOL * (1.0 + margin)
    shapes, real = [], _choi._choi_psd
    record = lambda blocks, tol: shapes.append(blocks.shape) or real(blocks, tol)
    monkeypatch.setattr(_choi, "_choi_psd", record)
    for n, k in ((3, 1), (5, 2), (8, 4), (8, 7)):
        ops = _edge_ops(n, k, dyn_class, target)
        assert min(positivity.choi_spectrum(ops)) == pytest.approx(target, rel=1e-9)
        reference = np.linalg.eigvalsh(positivity.choi_matrix(ops)).min() >= -TOL
        assert reference == (margin < 0)
        _, b, blocks = _blocks_of(ops)
        built = [_choi._block_stack(b, block) for block in blocks if block.terms]
        diagonals = [np.diagonal(b, axis1=-2, axis2=-1).real + TOL for b in built]
        diagonal_passes = all((diagonal > 0.0).all() for diagonal in diagonals)
        assert diagonal_passes == (dyn_class is v.C0 or k > 1 or margin < 0), (n, k)
        del shapes[:]
        assert bool(_choi.dense_cp(ops, TOL)) == reference, (n, k)
        sizes = ([k] if dyn_class is v.C1 else [k + 1, k]) if diagonal_passes else []
        if dyn_class is v.C0 and margin > 0:
            sizes = sizes[:1]  # the block of B fails, so the flow block is not built
        assert shapes == [(1, r, r) for r in sizes], (n, k)
        # In a stack after a CP window: the same ops with a flow of |flow|.
        sel = SubsystemSelector(k, dyn_class)
        stack = propagator.build_propagator(NetworkParams(n, 1.0), sel, np.full(2, ops.t1), ops.t2)
        weights = {"flow_weight": np.array([abs(ops.flow_weight), ops.flow_weight])}
        if dyn_class is v.C0:
            weights["ground_extra"] = np.array([stack.ground_extra[0], ops.ground_extra])
        stack = dataclasses.replace(stack, **weights)
        assert _choi.dense_cp(stack, TOL).tolist() == [True, reference], (n, k)


def _near_zero_flow_windows(params, sel, rng, count):
    # Seeded windows whose flow weight is within 10 VERDICT_TOL of zero: t1
    # as the stream draws it, t2 = t1 + delta with delta scaled from a probe
    # step to a flow drawn uniformly from [-10, 10] VERDICT_TOL.
    windows = []
    while len(windows) < count:
        t1 = v.random_interval(rng, params, sel.k_qubits)[0]
        probe = 1e-6 * params.period
        flow = propagator.flow_amplitude(params, sel, t1, t1 + probe)
        step = probe * rng.uniform(-10.0, 10.0) * TOL / flow if flow else probe
        if abs(propagator.flow_amplitude(params, sel, t1, t1 + step)) <= 10.0 * TOL:
            windows.append((t1, t1 + step))
    return windows


@pytest.mark.parametrize("n", [3, 5, 8])
def test_dense_route_near_zero_flow_is_the_eigenvalue_verdict(n):
    # Five seeded windows with |flow| <= 10 VERDICT_TOL for every selector,
    # as a stack and one by one: the dense route's verdict is that of eigvalsh
    # on the full Choi matrix, and both verdicts occur.
    params, rng = NetworkParams(n, 1.0), np.random.default_rng(11)
    verdicts = []
    for sel in v.selectors(params):
        windows = _near_zero_flow_windows(params, sel, rng, 5)
        stack = propagator.build_propagator(params, sel, *np.array(windows).T)
        want = np.linalg.eigvalsh(positivity.choi_matrix(stack)).min(axis=-1) >= -TOL
        assert _choi.dense_cp(stack, TOL).tolist() == want.tolist(), sel
        for i, expected in enumerate(want):
            one = propagator.build_propagator(params, sel, float(stack.t1[i]), float(stack.t2[i]))
            assert bool(_choi.dense_cp(one, TOL)) == expected, (sel, i)
        verdicts.extend(want.tolist())
    assert 0 < sum(verdicts) < len(verdicts)


def test_non_finite_choi_matrix_is_not_psd():
    # _choi_psd on full Choi matrices, whose zero rows pass at tol > 0.
    t1 = np.array([0.1, 0.2, 0.3])
    ops = propagator.build_propagator(N5, SubsystemSelector(2, v.C1), t1, 0.3)
    choi = positivity.choi_matrix(ops)
    assert _choi._choi_psd(choi.copy(), TOL).tolist() == [True, True, True]
    choi[1, 0, -1] = np.nan  # upper triangle, which LAPACK does not read
    choi[2, -1, 0] = np.inf
    assert _choi._choi_psd(choi, TOL).tolist() == [True, False, False]


def test_non_positive_diagonal_is_not_psd_whatever_lies_above_it(monkeypatch):
    # A shifted diagonal entry <= 0 fails Cholesky at or before its pivot, so
    # dense_cp's pre-test decides the window: its flow block is built, and
    # nothing is factorised.
    ops = propagator.build_propagator(N5, SubsystemSelector(2, v.C1), 0.1, 0.3)
    ops = dataclasses.replace(ops, flow_weight=-0.1)
    choi = positivity.choi_matrix(ops)
    assert (np.diagonal(choi).real + TOL <= 0.0).any()
    assert np.linalg.eigvalsh(choi).min() < -TOL

    def refuse(*args):
        raise AssertionError("the pre-test left a block to factorise")

    built, real = [], _choi._block_stack
    monkeypatch.setattr(_choi, "_block_stack", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert not _choi.dense_cp(ops, TOL)
    stack = propagator.build_propagator(N5, SubsystemSelector(2, v.C1), np.array([0.1, 0.2]), 0.3)
    stack = dataclasses.replace(stack, flow_weight=np.full(2, -0.1))
    assert _choi.dense_cp(stack, TOL).tolist() == [False, False]
    assert [block.rows.size for _, block in built] == [2, 2]  # the K flow rows


def test_dense_route_calls_the_rank_one_choi_block_psd_where_b_is_finite(monkeypatch):
    # N = 8, K = 4, containing class, flow 0.211 > 0, phi_s and phi_d (so
    # B's q = 1 block) scaled by 1e4: the exact Choi matrix is
    # |v><v| (+) f J_K, PSD, yet eigvalsh reads about -1.6e-7 on the
    # round-off of the rank-one block, and a Cholesky factorisation of that
    # block shifted by VERDICT_TOL fails. The dense route decides it by the
    # finiteness of phi_s and phi_d, so the window is CP; a NaN phi_d or an
    # inf phi_s makes it not CP. No Cholesky call ever takes a block of
    # 1 + K^2 rows.
    params, sel = NetworkParams(8, 1.0), SubsystemSelector(4, v.C1)
    ops = propagator.build_propagator(params, sel, 0.1, 0.3)
    assert ops.flow_weight == pytest.approx(0.2113, abs=1e-4)
    ops = dataclasses.replace(ops, phi_s=ops.phi_s * 1e4, phi_d=ops.phi_d * 1e4)
    assert min(positivity.choi_spectrum(ops)) == pytest.approx(4 * ops.flow_weight)
    assert np.linalg.eigvalsh(positivity.choi_matrix(ops)).min() < -TOL
    _, b, blocks = _blocks_of(ops)
    assert [(block.rows.size, len(block.terms)) for block in blocks] == [(17, 0), (4, 1)]
    assert _choi._choi_psd(_choi._block_stack(b, blocks[0]), TOL).tolist() == [False]

    factorised, real = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factorised.append(m.shape) or real(m))
    assert _choi.dense_cp(ops, TOL)
    phi_s, phi_d = np.full(3, ops.phi_s), np.full(3, ops.phi_d)
    phi_d[1], phi_s[2] = np.nan, np.inf
    planted = [dataclasses.replace(ops, phi_s=phi_s[i], phi_d=phi_d[i]) for i in (1, 2)]
    for one in planted:
        assert not _choi.dense_cp(one, TOL)
    got = _choi.dense_cp(dataclasses.replace(ops, phi_s=phi_s, phi_d=phi_d), TOL)
    assert got.tolist() == [True, False, False]
    assert factorised == [(1, 4, 4), (1, 4, 4)]


def test_dense_route_refuses_the_choi_guard_before_any_block(monkeypatch):
    # The guard counts the rows of the largest block that dense_cp builds,
    # K + 1, not choi_matrix's (K+1)^2. At N = 64, K = 64, choi_matrix
    # refuses 4225 rows and dense_cp decides the window. With the guard set
    # to 63 rows, the 64-row blocks of K = 64 in the containing class and of
    # K = 63 in the excluding class are refused before any block is built,
    # and the 63-row block of K = 62 is not.
    params = NetworkParams(64, 1.0)
    ops = propagator.build_propagator(params, SubsystemSelector(64, v.C1), 0.1, 0.3)
    with pytest.raises(SizeLimitError) as full:
        positivity.choi_matrix(ops)
    assert str(full.value) == "Choi dimension 4225^2 exceeds guard 4096^2"
    assert bool(_choi.dense_cp(ops, TOL)) == (ops.flow_weight >= -TOL)

    def refuse(*args):
        raise AssertionError("the dense route built a block past the guard")

    monkeypatch.setattr(positivity, "CHOI_MAX_DIM", 63)
    below = propagator.build_propagator(params, SubsystemSelector(62, v.C0), 0.1, 0.3)
    _choi.dense_cp(below, TOL)
    monkeypatch.setattr(_choi, "_block_stack", refuse)
    for sel in (SubsystemSelector(64, v.C1), SubsystemSelector(63, v.C0)):
        with pytest.raises(SizeLimitError) as got:
            _choi.dense_cp(propagator.build_propagator(params, sel, 0.1, 0.3), TOL)
        assert str(got.value) == "Choi block dimension 64^2 exceeds guard 63^2", sel
        with pytest.raises(SizeLimitError):
            v.pcp_disagreements([(params, sel, 0.1, 0.3)])


def test_pcp_agreement_runs_at_n_64():
    # Past choi_matrix's guard: every block the dense route builds is within it.
    result = v.check_pcp_agreement(NetworkParams(64))
    assert result.passed and result.value == 0 and result.worst_at is None


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _selector_stacks(params, samples):
    # (selector, its stream windows as one stack, its first window alone).
    groups = {}
    for _, sel, t1, t2 in v._windows(params, v.selectors(params), samples):
        groups.setdefault(sel, []).append((t1, t2))
    for sel, windows in groups.items():
        stack = propagator.build_propagator(params, sel, *np.array(windows).T)
        yield sel, stack, propagator.build_propagator(params, sel, *windows[0])


# The dense route's blocks differ from the full Choi matrix's entries only by
# the rounding of v_r conj(v_s): numpy's complex product against the matrix
# product's, which rounds unlike it in about three entries of four. Measured
# over the stacks and single windows of test_choi_blocks_are_the_full_choi_matrix_on_its_support:
# at most 1.01 eps |v_r| |v_s|; the flow entries are exact.
BLOCK_ULPS = 2.0


def _support_cases(n):
    # (ops of a stack, ops of its first window alone) for every selector at
    # N = n, K = N (flow weight 0) included: seven seeded windows each.
    params, rng = NetworkParams(n, 1.0), np.random.default_rng(23)
    for sel in v.selectors(params):
        windows = [v.random_interval(rng, params, sel.k_qubits) for _ in range(7)]
        stack = propagator.build_propagator(params, sel, *np.array(windows).T)
        yield sel, stack, propagator.build_propagator(params, sel, *windows[0])


def _blocks_of(ops):
    # The 1-d stack of ops, its B and its Choi support blocks, as the dense
    # route takes them.
    ops = _choi._flatten(ops)
    b = ops.block_diag
    return ops, b, _choi._choi_blocks(ops, b)


@pytest.mark.parametrize("n", [2, 5, 8, 17])
def test_choi_blocks_are_the_full_choi_matrix_on_its_support(n):
    # The full choi_matrix is exactly zero off the support and between its
    # blocks; on each block it is what the route factorises, within
    # BLOCK_ULPS eps |v_r| |v_s| (v the block's rows of B), and bit for bit
    # where v_r v_s = 0. The blocks: 1 + K^2 rows of B and K flow rows in the
    # containing class, K + 1 and K in the excluding class.
    eps = np.finfo(float).eps
    for sel, *ops_pair in _support_cases(n):
        k = sel.k_qubits
        want_sizes = [1 + k * k if sel.dyn_class is v.C1 else k + 1, k]
        for ops in ops_pair:
            ops, b, blocks = _blocks_of(ops)
            assert [block.rows.size for block in blocks] == want_sizes, (n, sel)
            full = positivity.choi_matrix(ops)
            covered = np.zeros(full.shape[1:], dtype=bool)
            flat = np.abs(b.reshape(len(full), -1))
            for block in blocks:
                square = np.ix_(block.rows, block.rows)
                assert not covered[square].any()
                covered[square] = True
                got = _choi._block_stack(b, block)
                want = full[(slice(None), *square)]
                scale = flat[:, block.rows, None] * flat[:, None, block.rows]
                assert (np.abs(got - want) <= BLOCK_ULPS * eps * scale).all(), (n, sel)
                assert np.array_equal(got[scale == 0], want[scale == 0]), (n, sel)
            assert not full[:, ~covered].any(), (n, sel)


@pytest.mark.parametrize("n", range(2, 10))
def test_dense_verdict_is_the_eigenvalue_verdict_on_every_window(n):
    params = NetworkParams(n, 1.0)
    cases = list(v._windows(params, v.selectors(params), 2000))
    verdicts = []

    def dense_is_eigvalsh(params, sel, t1, t2):
        ops = propagator.build_propagator(params, sel, t1, t2)
        dense = _choi.dense_cp(ops, TOL)
        verdicts.extend(np.atleast_1d(dense).tolist())
        return dense == (np.linalg.eigvalsh(positivity.choi_matrix(ops)).min(axis=-1) >= -TOL)

    assert all(v.grouped_values(v.columns(cases), dense_is_eigvalsh, lambda n, d: d**4))
    assert len(verdicts) == len(cases) and 0 < sum(verdicts) < len(cases)


def test_dense_verdict_reads_neither_the_spectrum_nor_the_flow_sign(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense route read another route")

    monkeypatch.setattr(positivity, "choi_spectrum", refuse)
    monkeypatch.setattr(propagator, "flow_amplitude", refuse)
    for sel, stack, one in _selector_stacks(N5, 300):
        for ops in (stack, one):
            want = np.linalg.eigvalsh(positivity.choi_matrix(ops)).min(axis=-1) >= -TOL
            assert _same_bits(_choi.dense_cp(ops, TOL), want), sel


def test_choi_psd_factorises_a_stack_once_and_each_matrix_only_if_it_fails(monkeypatch):
    # _choi_psd on PSD Choi matrices, permuted, and in the middle one at
    # -VERDICT_TOL * (1 + 1e-3), built as at the tolerance edge.
    params, sel = NetworkParams(5, 1.0), SubsystemSelector(2, v.C0)
    ops = propagator.build_propagator(params, sel, 0.1 * params.period, 0.3 * params.period)
    psd = positivity.choi_matrix(ops)
    orders = np.random.default_rng(1).permutation(9), np.arange(9)[::-1]
    one, two = (np.ix_(order, order) for order in orders)
    edge = positivity.choi_matrix(_edge_ops(5, 2, v.C0, -TOL * (1.0 + 1e-3)))
    stack = np.array([psd, psd[one], edge[two], psd[two], psd])
    want = np.linalg.eigvalsh(stack).min(axis=-1) >= -TOL
    assert want.tolist() == [True, True, False, True, True]
    calls, real = [], np.linalg.cholesky

    def counted(matrix):
        calls.append(matrix.ndim)
        return real(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert _choi._choi_psd(stack.copy(), TOL).tolist() == want.tolist()
    assert calls == [3] + [2] * 5  # the stack, then the fallback per matrix
    del calls[:]
    assert _choi._choi_psd(stack[[0, 1, 3]], TOL).tolist() == [True] * 3 and calls == [3]
    # Matrices given by their lower triangle, as LAPACK reads them: the
    # second's [[tol, 0.5], [0.5, 1 + tol]] is not PSD.
    lower = np.array([[[0, 0, 0], [0, 1.0, 0], [0, 0, 1]], [[0, 0, 0], [0.5, 1, 0], [0, 0, 1]]])
    assert _choi._choi_psd(lower, TOL).tolist() == [True, False]
    empty = _choi._choi_psd(np.zeros((0, 9, 9), dtype=complex), TOL)
    assert empty.shape == (0,) and empty.dtype == bool


def test_pcp_builds_choi_matrices_past_the_diagonal_and_factorises_each_stack_once(
    monkeypatch,
):
    # At N = 8: one stack of the cheap routes per selector, and each block of
    # a window's Choi support that a flow term joins built once for every
    # window of the stack, never the full Choi matrix nor the rank-one block
    # of B. Each built block takes one 3-D Cholesky call on exactly the
    # windows whose diagonal passes the pre-test, shifted by VERDICT_TOL,
    # none failing: 22 calls.
    params = NetworkParams(8, 1.0)
    cases = list(v._windows(params, v.selectors(params), 2000))
    windows, passing = {}, {}
    for sel, stack, _ in _selector_stacks(params, 2000):
        diag = np.diagonal(positivity.choi_matrix(stack), axis1=-2, axis2=-1).real
        windows[sel] = list(zip(stack.t1.tolist(), stack.t2.tolist()))
        passing[sel] = (diag + TOL > 0.0).all(axis=-1)
    built, factorised, stacks, current = [], [], [], []
    real_block, real_cholesky, real_agree = _choi._block_stack, np.linalg.cholesky, v._pcp_agree
    real_blocks = _choi._choi_blocks

    def choi_blocks(ops, b):
        # The selector and windows of the stack whose blocks are built next.
        sel = SubsystemSelector(ops.k_qubits, ops.dyn_class)
        current[:] = [sel, list(zip(ops.t1.tolist(), ops.t2.tolist()))]
        return real_blocks(ops, b)

    def block_stack(b, block):
        blocks = real_block(b, block)
        built.append((*current, blocks.copy()))
        return blocks

    def refuse(ops):
        raise AssertionError("the dense route built a full Choi matrix")

    monkeypatch.setattr(_choi, "_choi_blocks", choi_blocks)
    monkeypatch.setattr(_choi, "_block_stack", block_stack)
    monkeypatch.setattr(positivity, "choi_matrix", refuse)
    record = lambda m: factorised.append(m.copy()) or real_cholesky(m)
    monkeypatch.setattr(np.linalg, "cholesky", record)
    monkeypatch.setattr(v, "_pcp_agree", lambda *case: stacks.append(case) or real_agree(*case))
    assert v.pcp_disagreements(cases) == []
    assert len(stacks) == len(v.selectors(params)) == 15
    assert sum(map(np.count_nonzero, passing.values())) == 1062
    assert len(built) == len(factorised) == 8 + 2 * 7 == 22
    sizes = {}
    for (sel, stack, blocks), matrices in zip(built, factorised):
        sizes.setdefault(sel, []).append(blocks.shape[-1])
        assert stack == windows[sel], sel
        want = blocks[passing[sel]]
        np.einsum("...ii->...i", want)[...] += TOL
        assert _same_bits(matrices, want), sel
    for sel in windows:
        k = sel.k_qubits
        assert sizes[sel] == ([k] if sel.dyn_class is v.C1 else [k + 1, k]), sel


def test_nan_choi_matrix_makes_the_routes_disagree(monkeypatch):
    # A NaN in every block that the dense route factorises, above the
    # diagonal, where LAPACK does not read.
    real = _choi._block_stack

    def with_nan(*args):
        blocks = real(*args)
        blocks[..., 0, -1] = np.nan
        return blocks

    monkeypatch.setattr(_choi, "_block_stack", with_nan)
    cases = list(v._windows(N5, v.selectors(N5), 200))
    cp = [c for c in cases if propagator.flow_amplitude(*c) >= -TOL]
    assert cp and v.pcp_disagreements(cases) == cp


def _inject(monkeypatch, targets):
    # The dense route calls the windows anchored at the target t1 not CP: a
    # NaN fills their blocks. The anchors are those of the stack whose
    # support blocks were found last.
    real_blocks, real_stack, anchors = _choi._choi_blocks, _choi._block_stack, []

    def choi_blocks(ops, b):
        anchors[:] = [ops.t1]
        return real_blocks(ops, b)

    def patched(b, block):
        blocks = real_stack(b, block)
        blocks[np.isin(anchors[0], targets)] = np.nan
        return blocks

    monkeypatch.setattr(_choi, "_choi_blocks", choi_blocks)
    monkeypatch.setattr(_choi, "_block_stack", patched)


def test_pcp_reports_the_first_disagreement_in_stream_order(monkeypatch):
    cases = list(v._windows(N5, v.selectors(N5), 2000))
    cp = [c for c in cases if propagator.flow_amplitude(*c) >= -TOL]
    # The last CP case of the first group, and an earlier CP case of
    # another group: grouped evaluation meets them in the other order.
    late = [c for c in cp if c[1] == cases[0][1]][-1]
    early = next(c for c in cp if c[1] != late[1])
    assert cases.index(early) < cases.index(late)

    _inject(monkeypatch, [late[2]])
    result = v.check_pcp_agreement(N5)
    assert (result.value, result.worst_at) == (1.0, late)

    _inject(monkeypatch, [late[2], early[2]])
    result = v.check_pcp_agreement(N5)
    assert (result.value, result.passed, result.worst_at) == (2.0, False, early)


def test_run_all_checks_reads_the_rebound_checks(monkeypatch):
    # Benchmarks time each check by rebinding ALL_CHECKS before the call.
    seen = []

    def slow_check(params):
        seen.append(params)
        time.sleep(0.01)
        return v.CheckResult("slow", 0.0, 1.0, True)

    monkeypatch.setattr(v, "ALL_CHECKS", (slow_check, slow_check))
    results = v.run_all_checks(N5)
    assert seen == [N5, N5] and [r.name for r in results] == ["slow", "slow"]
    assert all(r.seconds >= 0.01 for r in results)


# The rows whose values depend on LAPACK rounding: those that read exp(-itH)
# from the dense oracle (numpy's eigh), pinned since it replaced scipy's expm,
# and the two that invert a one-time map (tomography and composition), pinned
# since an LU solve replaced the SVD pseudo-inverse. The other rows are pinned
# since before the grouped positivity check replaced the per-case one.
ORACLE_ROWS = (
    "amplitude_oracle",
    "reduced_state_oracle",
    "tomography_containing",
    "orbit_oracle_excluding",
    "composition_residual",
)


# From N = 12 on, the composition row rounds differently when OpenBLAS uses
# two threads than with one (composition_residual reads
# 6.2279991702836333e-16 at N = 12, not 4.4408920985006262e-16), so those
# pins are recorded and checked with one BLAS thread, in a child process
# where the setting takes effect. Smaller pins hold for one or two threads
# and are checked in this process with the default count, as verify runs
# from the shell.
ONE_BLAS_THREAD_FROM = 12


def _verify(n: int, out: pathlib.Path) -> int:
    argv = ["verify", "--n", str(n), "--out", str(out)]
    if n < ONE_BLAS_THREAD_FROM:
        return main(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "openqnet.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True).returncode


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16])
def test_verify_csv_is_unchanged(n, tmp_path):
    # Every value is pinned to the last digit printed, so the files hold for
    # the build they were recorded with: numpy 2.4.6 and its OpenBLAS 0.3.31.
    out = tmp_path / "verify.csv"
    assert _verify(n, out) == 0
    pinned = (DATA / f"verify_n{n}.csv").read_text().splitlines()
    closed = [line for line in pinned if line.split(",")[0] not in ORACLE_ROWS]
    assert len(pinned) - len(closed) == len(ORACLE_ROWS)
    assert [line for line in out.read_text().splitlines() if line in closed] == closed
    assert out.read_bytes() == (DATA / f"verify_n{n}.csv").read_bytes()


# check_pcp_agreement's traced peak, bounded: the 2000 windows, one stack's
# B and cheap routes, its built flow-carrying Choi blocks, the copy of one
# block's passing windows and its Cholesky factor. Measured after the other
# tests of this module: 0.86 MB at N = 8 and 1.29 MB at N = 16; as a fresh
# process's first call, 1.02 MB and 1.45 MB.
PCP_PEAK_BYTES = {8: 1.25e6, 16: 1.75e6}


@pytest.mark.parametrize("n", sorted(PCP_PEAK_BYTES))
def test_pcp_agreement_holds_its_workspace_for_the_call_only(n):
    # Nothing of the size of a stack stays allocated after the call (0.16 MB
    # as a fresh process's first call at N = 8 and 16).
    tracemalloc.start()
    try:
        v.check_pcp_agreement(NetworkParams(n, 1.0))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PCP_PEAK_BYTES[n], peak
    assert current <= v._STACK_BYTES // 2, current


def test_grouped_rows_hold_no_more_than_the_positivity_stacks():
    # At N = 8, no check's traced peak exceeds 1.5 MB, below the 3.02 MB that
    # check_pcp_agreement's Choi stacks held when the byte cap was set; so
    # grouping the oracle rows leaves verify's peak memory where it was. The
    # largest is composition_residual's, 1.10 MB.
    params = NetworkParams(8, 1.0)
    ROWS["amplitude_oracle"](params)  # the generator's eigh, cached once
    peaks = {}
    for check in v.ALL_CHECKS:
        tracemalloc.start()
        try:
            name = check(params).name
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1.5e6, peaks


def _grouped(cases, evaluate, entries) -> list:
    # grouped_values on a stream of case tuples, through the one converter.
    return v.grouped_values(v.columns(cases), evaluate, entries).tolist()


def test_a_time_past_the_float_range_reads_nan_where_pcp_refuses_it():
    # grouped_values leaves a case with a non-finite time unevaluated, as
    # NaN, which fails its verify row; pcp_disagreements, which takes its
    # cases from the caller, refuses such a time as the routes do.
    sel = v.selectors(N5)[0]
    cases = [(N5, sel, 0.1, 0.2), (N5, sel, 0.3, math.inf), (N5, sel, 0.4, 0.5)]
    calls = []

    def evaluate(params, sel, t1, t2):
        calls.append(np.size(t1))
        return t1 + t2

    values = _grouped(cases, evaluate, lambda n, d: 1)
    assert values[::2] == [0.1 + 0.2, 0.4 + 0.5] and math.isnan(values[1]) and calls == [2]
    with pytest.raises(OpenQNetError, match="t2 must be finite, got inf"):
        v.pcp_disagreements(cases)


def test_grouped_values_come_in_stream_order_and_chunks():
    # Chunks of at most _STACK_BYTES, at least one window each, values
    # returned where their cases stand; a one-window chunk comes as floats.
    sels = v.selectors(N5)
    cases = list(v._windows(N5, sels, 50))
    expected = [t1 + 2.0 * t2 for _, _, t1, t2 in cases]
    calls = []

    def evaluate(params, sel, t1, t2):
        calls.append(t1)
        return t1 + 2.0 * t2

    assert _grouped(cases, evaluate, lambda n, d: v._STACK_BYTES // 16 // 3) == expected
    assert max(np.size(t1) for t1 in calls) == 3
    del calls[:]
    assert _grouped(cases, evaluate, lambda n, d: v._STACK_BYTES) == expected
    assert len(calls) == len(cases) and all(type(t1) is float for t1 in calls)

    # The key is every argument before the times: (params, t) cases group
    # per network and (params, sel, complement, t) cases per pair, with d = 2
    # (K = 1) without a selector and K+1 of the first one.
    grid = v._grid(N5, 10)
    keys, ds = [], []

    def keyed(*args):
        keys.append(args[:-1])
        return 3.0 * args[-1] + args[0].coupling

    def entries(n, d):
        ds.append(d)
        return v._STACK_BYTES // 16 // 3

    cases = [(params, t) for t in grid for params in (N5, NetworkParams(5, 2.0))]
    assert _grouped(cases, keyed, entries) == [3.0 * t + p.coupling for p, t in cases]
    assert ds == [2, 2] and keys == [(N5,)] * 4 + [(NetworkParams(5, 2.0),)] * 4
    pairs = [v.complement_pairs(N5)[i] for i in (3, 0, 2)]
    cases = [(N5, *pair, t) for t in grid for pair in pairs]
    keys, ds = [], []
    assert _grouped(cases, keyed, entries) == [3.0 * t + 1.0 for *_, t in cases]
    assert ds == [pair[0].k_qubits + 1 for pair in pairs]
    assert keys == [(N5, *pair) for pair in pairs for _ in range(4)]

    # (params, sel, theta, t) cases group per selector and parameter, in
    # chunks of three and two, and (params, class, t) cases per class with
    # d = 2.
    cases = list(v.fisher_cases(N5, [0.1, 0.3, 0.7, 0.2, 0.9]))[-20:]
    keys, ds = [], []
    assert _grouped(cases, keyed, entries) == [3.0 * t + 1.0 for *_, t in cases]
    sels = [SubsystemSelector(k, v.C0) for k in (3, 4)]
    assert ds == [4, 4, 5, 5]
    thetas = list(v.GlobalParameter)
    assert keys == [(N5, sel, theta) for sel in sels for theta in thetas for _ in range(2)]
    cases = [(N5, cls, t) for t in grid[:3] for cls in (v.C0, v.C1)]
    keys, ds = [], []
    assert _grouped(cases, keyed, entries) == [3.0 * t + 1.0 for *_, t in cases]
    assert ds == [2, 2] and keys == [(N5, v.C0), (N5, v.C1)]


def test_columns_hash_each_key_object_once():
    # Equal keys merge, and each new tuple of key objects is hashed once:
    # 50 cases on one key object and one case on an equal new object.
    hashed = []

    class Key:
        def __hash__(self):
            hashed.append(self)
            return 0

        def __eq__(self, other):
            return isinstance(other, Key)

    one = Key()
    cases = v.columns([(N5, one, float(i)) for i in range(50)] + [(N5, Key(), 0.5)])
    assert len(hashed) == 2 and cases.keys == [(N5, one)]
    assert cases.index.tolist() == [0] * 51 and cases[50] == (N5, one, 0.5)


def test_only_the_rows_without_stacks_fold_per_case(monkeypatch):
    # The conservation row, whose residual returns None and which takes under
    # 2 ms at N = 8, has no stack size and folds per case; every other row
    # folds its cases in stacks. The table's two functions are pcp_agreement's
    # count and the round trip, which evaluates each of its cases once.
    assert [row.name for row in ROWS.values() if row.entries is None] == ["conservation_relation"]
    functions = [check for check in v.ALL_CHECKS if not isinstance(check, v.Row)]
    assert functions == [v.check_pcp_agreement, v.check_inference_roundtrip]
    calls, residual = [], v.roundtrip_residual
    record = lambda *case: calls.append(case) or residual(*case)
    monkeypatch.setattr(v, "roundtrip_residual", record)
    result = v.check_inference_roundtrip(NetworkParams(8, 1.0))
    assert len(calls) == 20 and result.worst_at in calls


def test_overflowing_fisher_split_fails():
    # At J = 1e-300, (d_J p)^2 and the split total are both inf at t2 = 0.3
    # periods: the NaN gap between them fails the row, stacked or not.
    params = NetworkParams(5, 1e-300)
    assert math.isnan(v.fisher_split_residual(params, v.C0, 0.3 * params.period))
    result = ROWS["fisher_split_identity"](params)
    assert math.isnan(result.value) and not result.passed
    assert math.isnan(v.fisher_split_residual(*result.worst_at))


def test_nan_in_a_grouped_row_without_a_selector_reports_the_first(monkeypatch):
    # NaN at two grid times of amplitude_oracle: the check fails at the
    # first of them in stream order, as the per-case fold does.
    grid = v._grid(N5, 100)
    real = v.q1_unitary_oracle

    def with_nan(params, t):
        unitary = real(params, t)
        unitary[np.isin(t, grid[[71, 38]])] = np.nan
        return unitary

    monkeypatch.setattr(v, "q1_unitary_oracle", with_nan)
    result = ROWS["amplitude_oracle"](N5)
    assert math.isnan(result.value) and not result.passed
    assert result.worst_at == (N5, grid[38])
    cases = [(N5, t) for t in grid]
    assert v.worst_case("x", 1e-9, v.amplitude_oracle_residual, cases).worst_at == result.worst_at
