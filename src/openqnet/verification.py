"""Cross-route verification suites aggregating the module invariants.

Every check compares an analytic closed form against an independent route
(dense exponential, partial trace, map tomography, finite-difference SLD,
or an exact algebraic identity) and reports the worst residual seen.

``verify``'s rows are one table, ``ALL_CHECKS``, in CSV order; a row that
folds one residual is a :class:`Row`. A row's cases are columns,
:class:`Cases`: the distinct keys (the network, then a selector, a pair of
them, a selector and a parameter, or a class), a key index per case in
stream order, and one float64 array per time argument. One engine runs
them. ``grouped_values`` evaluates each key's cases in stacks of at most
1 MiB; thirteen residuals take arrays of times, each value equal bit for
bit to its scalar call. The fold reports the first NaN in stream order,
otherwise the first largest value, and rebuilds only that case as a tuple.
Streams of case tuples (``worst_case``, the acceptance suite) reach the
engine through ``columns``. The conservation residual returns None where a
window carries no flow, so its row folds per case. ``pcp_agreement``
counts the windows where the four positivity routes disagree, the dense
one deciding each Choi matrix on its support (``_choi``); the inference
round trip keeps the windows on which its residual gives an estimate. The
residuals check the library's own code: ``states.reduced_state`` and the
routes ``classify`` reads.

All sampling uses a fixed seed so repeated runs are byte-identical. The
sampled checks share one stream of windows, drawn in bulk from the
generator's raw words exactly as one ``integers`` and one
``random_interval`` call per window would draw it; a window that needs a
redraw is drawn by those calls.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple

import numpy as np

# Loaded here, at set-up, rather than lazily inside the first sampled check.
import numpy.random

from . import bloch, fisher, inference, oracle, positivity, propagator, states
from ._choi import dense_cp
from .amplitudes import NetworkParams, _check_time, _hop, _refuse_as_loop, amplitudes
from .amplitudes import q1_unitary_oracle, unitarity_residuals
from .errors import DegenerateStateError, IndeterminateFlowError
from .fisher import GlobalParameter, _p_dp_single_qubit
from .propagator import _max_entry
from .states import DynClass, SubsystemSelector

RNG_SEED = 0
# Bytes of arrays that one stack of grouped_values holds at once, as each
# row counts them per window. Set for pcp_agreement's Choi stacks: 4 MiB
# adds 7.5 MB of peak RSS at N=8, whole unchunked groups 28 MB, at the same
# speed. Traced peaks of the rows at N=8 under this cap: composition_residual
# 1.10 MB, pcp_agreement 0.86 MB (one stack's B, its built flow-carrying
# Choi blocks, the copy of a block's passing windows and its Cholesky
# factor, and the windows), tomography_containing 0.87 MB, the other rows
# at most 0.45 MB (amplitude_oracle, its eigh cached). At N=16,
# pcp_agreement 1.29 MB.
_STACK_BYTES = 1 << 20
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
    residual is reported, so the check fails. The fold is the rows'.
    """
    return _fold(name, tolerance, ((case, residual(*case)) for case in cases))


def _fold(name: str, tolerance: float, values: Iterable[tuple]) -> CheckResult:
    # The fold of (case, value) pairs, a None value skipped.
    kept = [(case, value) for case, value in values if value is not None]
    return _worst(name, tolerance, [case for case, _ in kept], [value for _, value in kept])


def _worst(name: str, tolerance: float, cases, values) -> CheckResult:
    # values[i] is the value of cases[i]: the first NaN in stream order wins,
    # otherwise the first largest value, as np.argmax takes them.
    if not len(values):
        return _result(name, 0.0, tolerance, None)
    i = int(np.argmax(values))
    return _result(name, values[i], tolerance, cases[i])


class Cases:
    """A row's cases as columns, in stream order.

    A case is a key, the arguments before its times, then its times, as in
    (params, sel, t1, t2). ``keys`` lists the distinct keys, ``index``
    (intp) gives each case's key, and ``times`` holds one contiguous
    float64 array per time argument. Indexing and iteration give case
    tuples.
    """

    __slots__ = ("keys", "index", "times")

    def __init__(self, keys: list[tuple], index: np.ndarray, times: tuple):
        self.keys, self.index, self.times = keys, index, times

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> tuple:
        return (*self.keys[self.index[i]], *(float(t[i]) for t in self.times))

    def __iter__(self):
        rows = zip(self.index.tolist(), *(t.tolist() for t in self.times))
        return ((*self.keys[k], *times) for k, *times in rows)


def columns(cases: Iterable[tuple] | Cases) -> Cases:
    """The :class:`Cases` of a stream of case tuples laid out as the first.

    The key is every argument before the first float. Equal keys share one
    entry, in the order they first come; each distinct tuple of key objects
    is hashed once, found again by the objects' ids, never once per case.
    """
    if isinstance(cases, Cases):
        return cases
    cases = list(cases)  # held, so that no id is reused while it is looked up
    first = cases[0] if cases else ()
    lead = next((i for i, x in enumerate(first) if isinstance(x, float)), len(first))
    distinct, by_ids, index = {}, {}, []
    for case in cases:
        ids = tuple(map(id, case[:lead]))
        if ids not in by_ids:
            by_ids[ids] = distinct.setdefault(case[:lead], len(distinct))
        index.append(by_ids[ids])
    times = np.array([case[lead:] for case in cases], dtype=float)
    times = times.reshape(len(cases), len(first) - lead).T.copy()
    return Cases(list(distinct), np.array(index, dtype=np.intp), tuple(times))


def _grid_cases(keys: list[tuple], times: np.ndarray) -> Cases:
    # product(keys, times) as columns.
    index = np.repeat(np.arange(len(keys), dtype=np.intp), len(times))
    return Cases(keys, index, (np.tile(times, len(keys)),))


def grouped_values(cases: Cases, evaluate: Callable, entries: Callable) -> np.ndarray:
    """The values of ``evaluate`` on the cases, in one float64 array in stream
    order (a boolean reads 1.0 or 0.0; a case with a time past the float
    range is not evaluated and reads NaN, which fails its row).

    Each key's cases, in stream order from one stable argsort, are cut into
    chunks that ``evaluate(*key, *time_arrays)`` takes as one stack,
    returning one value per window. ``entries(N, d)`` counts the complex
    entries that the row holds per window, d = K+1 of the key's first
    selector (K = 1 without one); a chunk holds at most ``_STACK_BYTES``
    (1 MiB) of them, and at least one window. A chunk of one window is
    passed as floats: the scalar call, equal to a stack of one bit for bit
    without the stack's validation.
    """
    kept = np.isfinite(cases.times).all(axis=0)
    order = np.flatnonzero(kept)[np.argsort(cases.index[kept], kind="stable")]
    ends = np.cumsum(np.bincount(cases.index[kept], minlength=len(cases.keys))).tolist()
    values = np.full(len(cases), np.nan)
    start = 0
    for key, end in zip(cases.keys, ends):
        members, start = order[start:end], end
        d = next((x.k_qubits for x in key if isinstance(x, SubsystemSelector)), 1) + 1
        size = max(1, _STACK_BYTES // (16 * entries(key[0].n_qubits, d)))
        for first in range(0, len(members), size):
            chunk = members[first : first + size]
            if len(chunk) == 1:
                values[chunk] = evaluate(*key, *(float(t[chunk[0]]) for t in cases.times))
            else:
                values[chunk] = evaluate(*key, *(t[chunk] for t in cases.times))
    return values


class Row(NamedTuple):
    """A ``verify`` row that folds one residual over its cases.

    ``cases(params)`` gives the row's :class:`Cases`. ``entries(N, d)``
    sizes the stacks in which :func:`grouped_values` evaluates them; None
    folds them one call at a time, as :func:`worst_case` does. Calling the
    row with a network runs it.
    """

    name: str
    tolerance: float
    residual: Callable
    cases: Callable[[NetworkParams], Cases]
    entries: Callable[[int, int], int] | None

    def __call__(self, params: NetworkParams) -> CheckResult:
        cases = self.cases(params)
        if self.entries is None:
            return worst_case(self.name, self.tolerance, self.residual, cases)
        values = grouped_values(cases, self.residual, self.entries)
        return _worst(self.name, self.tolerance, cases, values)


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


def _windows(params: NetworkParams, sels: list[SubsystemSelector], samples: int) -> Cases:
    # The seeded (params, selector, t1, t2) stream that the sampled checks
    # draw, keyed by the distinct selectors of sels in the order they first
    # come: per window, sels[rng.integers(len(sels))] and then
    # random_interval for its K. Drawn in bulk by _regular_windows; a window
    # that needs a Lemire rejection or a redraw is drawn by those calls.
    rng = np.random.default_rng(RNG_SEED)
    runs, drawn = [], 0
    while drawn < samples:
        runs.append(_regular_windows(rng, params, sels, samples - drawn))
        drawn += len(runs[-1][0])
        if drawn < samples:
            i = int(rng.integers(len(sels)))
            runs.append(([i], *([t] for t in random_interval(rng, params, sels[i].k_qubits))))
            drawn += 1
    picks, t1, t2 = (np.concatenate(column) for column in zip(*runs))
    used, index = _first_come(picks)
    return Cases([(params, sels[i]) for i in used], index, (t1, t2))


def _first_come(values: np.ndarray) -> tuple[list, np.ndarray]:
    # The distinct ints of an array in the order they first come, and each
    # value's position among them; dict.fromkeys and the lookups run in C.
    values = values.tolist()
    distinct = list(dict.fromkeys(values))
    position = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), np.intp, len(values))


def _regular_windows(rng, params: NetworkParams, sels, count: int) -> tuple:
    # Up to ``count`` windows of the stream, as the selectors' positions in
    # sels and the t1 and t2 arrays, from one random_raw call on rng's PCG64
    # state, each raw word used as numpy's Generator calls use it.
    # integers(n) maps a 32-bit draw u to (u n) >> 32 and rejects it where
    # (u n) mod 2^32 < 2^32 mod n; its 32-bit draws are a word's low half,
    # then its high half, buffered between calls; integers(1) draws nothing.
    # uniform(0, period) takes a word w as period * ((w >> 11) 2^-53). The
    # windows end before the first that needs a rejection or whose t1
    # is_singular refuses, with the generator set where it starts.
    bits = rng.bit_generator
    start = bits.state
    n = len(sels)
    # Whether a window's selector takes a fresh word: where the buffer is empty.
    fresh = ((np.arange(count) + start["has_uint32"]) % 2 == 0) & (n > 1)
    first = np.concatenate(([0], np.cumsum(2 + fresh)))  # each window's first word
    words = bits.random_raw(int(first[-1]))
    lead = words[first[:-1]]
    draws = np.empty(count, dtype=np.uint64)  # each window's 32-bit draw
    draws[0] = start["uinteger"]
    draws[1:] = lead[:-1] >> 32  # the high half that a fresh word leaves
    np.copyto(draws, lead & 0xFFFFFFFF, where=fresh)
    scaled = draws * np.uint64(n)
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < (1 << 32) % n)
    stop = int(rejected[0]) if rejected.size else count
    picks = (scaled[:stop] >> 32).astype(np.intp)
    t1, t2 = params.period * ((words[first[:stop] + fresh[:stop] + [[0], [1]]] >> 11) * 2.0**-53)
    # The array sine may round unlike math.sin, so is_singular itself decides
    # every t1 whose anchor denominator lies near ANCHOR_RTOL.
    used, at = _first_come(picks)
    k = np.array([sels[i].k_qubits for i in used], dtype=np.intp)[at]
    x1 = _hop(params.n_qubits, params.coupling, t1)[0]
    near = propagator._anchor_denominator(params, k, True, x1) <= propagator.ANCHOR_RTOL + 1e-9
    for i in np.flatnonzero(near).tolist():
        if propagator.is_singular(params, int(k[i]), float(t1[i])):
            stop = i
            break
    if stop < count:
        bits.state = start
        bits.advance(int(first[stop]))  # which empties the buffer
        state = bits.state
        # integers(1) draws nothing, so with one selector the buffer is start's.
        buffer = (
            (not fresh[stop], draws[stop]) if n > 1 else (start["has_uint32"], start["uinteger"])
        )
        state["has_uint32"], state["uinteger"] = map(int, buffer)
        bits.state = state
    return picks[:stop], t1[:stop], t2[:stop]


def _network_windows(params: NetworkParams, samples: int) -> Cases:
    # The K = 1 containing-class stream as (params, t1, t2) cases.
    windows = _windows(params, [SubsystemSelector(1, C1)], samples)
    return Cases([(params,)], windows.index, windows.times)


def _grid(params: NetworkParams, points: int, first: float = 0.0, last: float = 1.0) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf past the float range, which reads NaN
        return np.linspace(first, last, points) * params.period


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


@_refuse_as_loop
def unitarity_residual(params: NetworkParams, t) -> float:
    """The larger of the two unitarity constraint residuals of u_s, u_d at
    t, or an array of them over an array t."""
    worst = np.maximum(*unitarity_residuals(amplitudes(params, t), params.n_qubits))
    return worst if worst.ndim else float(worst)


@_refuse_as_loop
def amplitude_oracle_residual(params: NetworkParams, t) -> float:
    """Closed-form single-excitation block against the dense exponential at
    t, or an array of them over an array t (one stacked oracle call)."""
    amps = amplitudes(params, t)
    same, cross = (np.asarray(u)[..., None, None] for u in (amps.same_site, amps.cross_site))
    closed = np.where(np.eye(params.n_qubits, dtype=bool), same, cross)
    return _max_entry(closed - q1_unitary_oracle(params, t))


@_refuse_as_loop
def reduced_state_residual(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """Closed-form reduced density against the partial-trace oracle at t,
    or an array of them over an array t. At N=2 the limit state |0><0|
    stands in where the excitation probability vanishes."""
    try:
        closed = states.materialize_density(states.reduced_state(params, sel, t))
    except DegenerateStateError:  # only at N=2, K=1, by odd half-periods
        limit = states.excitation_probability(params, sel, t) <= states._ZERO_WEIGHT
        closed = states.materialize_density(states.reduced_state(params, sel, np.where(limit, 0.0, t)))
        closed[limit] = 0.0
        closed[limit, 0, 0] = 1.0
    return _max_entry(closed - oracle.reduced_density_oracle(params, sel, t))


@_refuse_as_loop
def completeness_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Trace-preservation residual of the propagator over [t1, t2], or an
    array of them over arrays of times."""
    return propagator.completeness_residual(propagator.build_propagator(params, sel, t1, t2))


@_refuse_as_loop
def orbit_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The propagator moves the closed-form state at t1 onto the one at t2;
    an array of residuals over arrays of times."""
    ops = propagator.build_propagator(params, sel, t1, t2)
    moved = propagator.apply(ops, states.materialize_density(states.reduced_state(params, sel, t1)))
    return _max_entry(moved - states.materialize_density(states.reduced_state(params, sel, t2)))


@_refuse_as_loop
def tomography_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Closed-form propagator matrix against map tomography over [t1, t2],
    or an array of them over arrays of times."""
    closed = propagator.propagator_matrix(propagator.build_propagator(params, sel, t1, t2))
    return _max_entry(closed - oracle.propagator_oracle(params, sel, t1, t2))


@_refuse_as_loop
def orbit_oracle_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The propagator moves the oracle's state at t1 onto the oracle's state
    at t2; an array of residuals over arrays of times."""
    ops = propagator.build_propagator(params, sel, t1, t2)
    moved = propagator.apply(ops, oracle.reduced_density_oracle(params, sel, t1))
    return _max_entry(moved - oracle.reduced_density_oracle(params, sel, t2))


@_refuse_as_loop
def composition_residual(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """Propagator composition residual, acting on the closed-form state at
    t1; an array of residuals over an array t1 (and t2 of its shape)."""
    rho = states.materialize_density(states.reduced_state(params, sel, t1))
    return propagator.compose_residual(params, sel, t1, t2, rho)


def pcp_disagreements(cases: Iterable[tuple] | Cases) -> list[tuple]:
    """The (params, selector, t1, t2) cases on which the four positivity
    routes disagree, in the order the cases come.

    The routes are the flow sign, the closed-form Choi spectrum, the trace
    distance and the dense Choi matrix, each decided at ``VERDICT_TOL``.
    The cases are evaluated by :func:`grouped_values`, one stacked
    propagator per (network, selector) group in stacks of at most 1 MiB of
    blocks. The dense route, ``_choi.dense_cp``, decides each window on the
    support of its Choi matrix, split into the blocks that no entry
    couples: the rank-one block of B by the finiteness of B, and each block
    that a flow term joins by a Cholesky factorisation, built for the whole
    stack and factorised for the windows whose diagonals pass a pre-test.
    """
    cases = columns(cases)
    for name, t in zip(("t1", "t2"), cases.times):  # refused, where a row reads NaN
        _check_time(t, name, True)
    agree = grouped_values(cases, _pcp_agree, lambda n, d: 2 * d * d)  # B and the built blocks
    return [cases[i] for i in np.flatnonzero(agree == 0.0).tolist()]


@_refuse_as_loop
def _pcp_agree(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> np.ndarray:
    # Whether the four routes agree, for each window of the t1, t2 arrays:
    # classify's three closed-form routes, read from the function it reads
    # them from, and the dense Choi verdict.
    tol = positivity.VERDICT_TOL
    ops, spectrum, delta = positivity._routes(params, sel, t1, t2, True)
    flow_cp = ops.flow_weight >= -tol
    choi_cp = np.minimum.reduce(spectrum) >= -tol
    dense = dense_cp(ops, tol)
    return (flow_cp == choi_cp) & (choi_cp == (delta <= tol)) & (choi_cp == dense)


@_refuse_as_loop
def trace_distance_residual(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """Closed-form trace distance to |0><0| against the eigenvalue route at
    t, or an array of them over an array t (one batched ``eigvalsh``)."""
    state = states.reduced_state(params, sel, t)
    distance, rho = states.trace_distance_to_fixed(state), states.materialize_density(state)
    fixed = np.zeros(rho.shape[-2:], dtype=complex)
    fixed[0, 0] = 1.0
    eig_route = 0.5 * np.abs(np.linalg.eigvalsh(rho - fixed)).sum(axis=-1)
    residual = np.abs(distance - eig_route)
    return residual if residual.ndim else float(residual)


@_refuse_as_loop
def entropy_symmetry_residual(
    params: NetworkParams, sel: SubsystemSelector, complement: SubsystemSelector, t
) -> float:
    """Entropy of a subsystem against that of its complement at t, or an
    array of them over an array t."""
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


def fisher_cases(params: NetworkParams, taus) -> Cases:
    """The (params, selector, parameter, t) cases at t = tau periods, skipping
    the size parameter of the whole network, which diverges by design."""
    whole = SubsystemSelector(params.n_qubits, C1)
    keys = [
        (params, sel, theta)
        for sel in selectors(params)
        for theta in GlobalParameter
        if not (theta is GlobalParameter.SIZE_N and sel == whole)
    ]
    return _grid_cases(keys, np.asarray(taus) * params.period)


@_refuse_as_loop
def fisher_routes(params: NetworkParams, sel: SubsystemSelector, theta, t) -> tuple[float, float]:
    """Total QFI at t by the closed form and by the SLD oracle, or arrays of
    them over an array t."""
    closed = fisher.qfi_closed_form(params, sel, theta, t).total
    return closed, fisher.qfi_numeric_oracle(params, sel, theta, t)


@_refuse_as_loop
def fisher_oracle_residual(params: NetworkParams, sel: SubsystemSelector, theta, t) -> float:
    """Relative gap between the two QFI routes, with an absolute floor near
    zero; an array of them over an array t."""
    closed, numeric = fisher_routes(params, sel, theta, t)
    with np.errstate(invalid="ignore"):  # inf - inf reads NaN, as for a float
        return abs(closed - numeric) / np.maximum(abs(closed), 1e-4)


@_refuse_as_loop
def fisher_split_residual(params: NetworkParams, dyn_class: DynClass, t2) -> float:
    """Process/state/cross split at t2 from anchors 0.25 and 0.4 periods, or
    an array of them over an array t2.

    Each split's total must be (d_J p)^2 at t2 and the sum of its parts, and
    the two anchors must give the same total. (d_J p)^2 scales as 1/J^2, so
    the residual is taken in the dimensionless J^2 (d_J p)^2, multiplied by
    J twice: J^2 alone overflows from J ~ 1.3e154. A NaN gap, such as
    inf - inf where the split overflows, is the residual.
    """
    splits = [
        fisher.process_state_split(params, dyn_class, anchor * params.period, t2, rescaled=True)
        for anchor in (0.25, 0.4)
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        _, dp2 = _p_dp_single_qubit(params, dyn_class, GlobalParameter.COUPLING_J, splits[0].t2)
        worst = abs(splits[0].total - splits[1].total)
        for split in splits:
            parts = split.process + split.cross + split.state
            gaps = np.maximum(abs(split.total - dp2 * dp2), abs(parts - split.total))
            worst = np.maximum(worst, gaps)  # NaN wins
        worst = worst * params.coupling * params.coupling
    return worst if np.ndim(worst) else float(worst)


def roundtrip_residual(params: NetworkParams, t1, t2) -> float | None:
    """|N estimate - N| from the single-qubit flows over [t1, t2]; None
    where either flow is below 1e-6. Takes float times."""
    t1, t2 = _check_time(t1, "t1"), _check_time(t2, "t2")
    sels = SubsystemSelector(1, C1), SubsystemSelector(1, C0)
    flow1, flow0 = propagator._flows(params, sels, t1, t2)
    if min(abs(flow0), abs(flow1)) < 1e-6:
        return None
    ground = states.excitation_probability(params, sels[1], t1)
    estimate = inference.infer_network_size(inference.FlowObservation(flow1, flow0, ground))
    return abs(estimate.estimate - params.n_qubits)


def roundtrip_windows(rng, params: NetworkParams, samples: int):
    """``samples`` ((params, t1, t2), residual) pairs, t1 and t2 from
    ``random_interval`` for K = 1, on which ``roundtrip_residual`` gives an
    estimate; each case's residual is evaluated once."""
    while samples:
        case = (params, *random_interval(rng, params, 1))
        value = roundtrip_residual(*case)
        if value is not None:
            samples -= 1
            yield case, value


@_refuse_as_loop
def bloch_fixed_point_residual(params: NetworkParams, t1, t2) -> float:
    """How far the K = 1 Bloch maps over [t1, t2] move their fixed poles;
    an array of residuals over arrays of times."""
    worst = 0.0
    for dyn_class, pole in ((C1, 1.0), (C0, -1.0)):
        fixed = np.array([0.0, 0.0, pole])
        image = bloch.evolve_bloch(bloch.affine_map(params, dyn_class, t1, t2), fixed)
        worst = np.maximum(worst, np.abs(image - fixed).max(axis=-1))  # NaN wins
    return worst if worst.ndim else float(worst)


def check_pcp_agreement(params: NetworkParams) -> CheckResult:
    # A count, not a fold: the case reported is the first disagreement.
    bad = pcp_disagreements(_windows(params, selectors(params), 2000))
    return _result("pcp_agreement_disagreements", len(bad), 0.0, bad[0] if bad else None)


def check_inference_roundtrip(params: NetworkParams) -> CheckResult:
    # Its cases are the windows on which its own residual gives an estimate.
    values = roundtrip_windows(np.random.default_rng(RNG_SEED), params, 20)
    return _fold("inference_roundtrip", 1e-8, values)


# verify's rows in CSV order. Comments give what entries counts per window.
ALL_CHECKS: tuple[Callable[[NetworkParams], CheckResult], ...] = (
    Row("amplitude_unitarity", 1e-12, unitarity_residual,
        lambda p: _grid_cases([(p,)], _grid(p, 400)),
        lambda n, d: 2),  # u_s and u_d
    Row("amplitude_oracle", 1e-9, amplitude_oracle_residual,
        lambda p: _grid_cases([(p,)], _grid(p, 100)),
        lambda n, d: 5 * n * n),  # the oracle's operand and product, the block, the gap
    Row("reduced_state_oracle", 1e-9, reduced_state_residual,
        lambda p: _grid_cases([(p, sel) for sel in selectors(p)], _grid(p, 25)),
        lambda n, d: 2 * n * n + 3 * d * d),  # two N x N products, three densities
    Row("propagator_completeness", 1e-10, completeness_residual,
        lambda p: _windows(p, selectors(p), 100),
        lambda n, d: 12),  # both ends' amplitudes and half angles, the phases: no matrix
    Row("propagator_orbit", 1e-9, orbit_residual,
        lambda p: _windows(p, selectors(p), 100),
        lambda n, d: 8 * d * d),  # B, both densities, apply's products and the gap
    Row("tomography_containing", 1e-8, tomography_residual,
        lambda p: _windows(p, selectors(p, (C1,)), 100),
        # Closed form, two maps, the solve and the gap; the N x N unitary and
        # its operand, and the evolved rows with their conjugate and
        # environment parts.
        lambda n, d: 5 * d**4 + 2 * n * n + 4 * d * (n + 1)),
    Row("orbit_oracle_excluding", 1e-9, orbit_oracle_residual,
        lambda p: _windows(p, selectors(p, (C0,)), 60),
        lambda n, d: 2 * n * n + 5 * d * d),  # two N x N products, five densities
    Row("composition_residual", 1e-8, composition_residual,
        lambda p: _windows(p, selectors(p), 40),
        lambda n, d: 4 * d**4),  # both one-time maps, built as one stack
    check_pcp_agreement,
    Row("trace_distance_eigenroute", 1e-12, trace_distance_residual,
        lambda p: _grid_cases([(p, sel) for sel in selectors(p)], _grid(p, 40)),
        lambda n, d: 2 * d * d),  # the densities and eigvalsh's copy
    Row("entropy_symmetry", 1e-12, entropy_symmetry_residual,
        lambda p: _grid_cases([(p, *pair) for pair in complement_pairs(p)], _grid(p, 200)),
        lambda n, d: 2),  # both entropies
    Row("conservation_relation", 1e-10, conservation_relation_residual,
        lambda p: _windows(p, selectors(p, (C0,)), 60),
        None),  # None where a window carries no flow, which a stack cannot hold
    Row("fisher_oracle_relative", 1e-4, fisher_oracle_residual,
        lambda p: fisher_cases(p, np.linspace(0.07, 0.93, 8)),
        lambda n, d: 8 * d * d),  # three densities, the difference, eigh's, m and products
    Row("fisher_split_identity", 1e-10, fisher_split_residual,
        lambda p: _grid_cases([(p, c) for c in DynClass], _grid(p, 60, 0.05, 1.95)),
        lambda n, d: 16),  # both splits' fields and gaps
    check_inference_roundtrip,
    Row("bloch_fixed_points", 1e-12, bloch_fixed_point_residual,
        lambda p: _network_windows(p, 60),
        lambda n, d: 8),  # both maps' images and gaps
)


def run_all_checks(params: NetworkParams) -> list[CheckResult]:
    """Run every verification suite for the given network, timing each."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(params)
        results.append(result._replace(seconds=time.perf_counter() - start))
    return results
