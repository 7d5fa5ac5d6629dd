"""The check engine of ``openqnet verify``: the worst-case fold and its case."""

import math

import numpy as np
import pytest

from openqnet import NetworkParams, oracle, propagator
from openqnet import verification as v

N5 = NetworkParams(5, 1.0)

# Every check that folds a per-case residual, with that residual.
FOLDS = [
    (v.check_amplitude_unitarity, v.unitarity_residual),
    (v.check_amplitude_oracle, v.amplitude_oracle_residual),
    (v.check_reduced_state_oracle, v.reduced_state_residual),
    (v.check_propagator_completeness, v.completeness_residual),
    (v.check_propagator_orbit, v.orbit_residual),
    (v.check_tomography_containing, v.tomography_residual),
    (v.check_orbit_oracle_excluding, v.orbit_oracle_residual),
    (v.check_composition, v.composition_residual),
    (v.check_trace_distance, v.trace_distance_residual),
    (v.check_entropy_symmetry, v.entropy_symmetry_residual),
    (v.check_conservation_relation, v.conservation_relation_residual),
    (v.check_fisher_oracle, v.fisher_oracle_residual),
    (v.check_fisher_split, v.fisher_split_residual),
    (v.check_inference_roundtrip, v.roundtrip_residual),
    (v.check_bloch_fixed_points, v.bloch_fixed_point_residual),
]


def test_worst_case_reports_the_largest_residual_and_its_case():
    values = {1: 0.5, 2: None, 3: 2.0, 4: 1.0}
    result = v.worst_case("x", 1.0, lambda params, i: values[i], [(N5, i) for i in values])
    assert (result.value, result.passed, result.worst_at) == (2.0, False, (N5, 3))


def test_worst_case_fails_on_nan():
    # Builtin max(worst, nan) keeps worst; the fold must not.
    values = {1: 0.5, 2: math.nan, 3: 2.0}
    result = v.worst_case("x", 1.0, lambda params, i: values[i], [(N5, i) for i in values])
    assert math.isnan(result.value) and not result.passed and result.worst_at == (N5, 2)


def test_nan_completeness_residual_fails(monkeypatch):
    monkeypatch.setattr(propagator, "completeness_residual", lambda ops: math.nan)
    result = v.check_propagator_completeness(N5)
    assert math.isnan(result.value) and not result.passed


def test_nan_tomography_oracle_fails(monkeypatch):
    real = oracle.propagator_oracle
    monkeypatch.setattr(oracle, "propagator_oracle", lambda *args: real(*args) + np.nan)
    result = v.check_tomography_containing(N5)
    assert math.isnan(result.value) and not result.passed


@pytest.mark.parametrize("check, residual", FOLDS, ids=[c.__name__ for c, _ in FOLDS])
@pytest.mark.parametrize("n", [2, 5])
def test_reported_case_reproduces_the_value(check, residual, n):
    result = check(NetworkParams(n, 1.0))
    assert result.worst_at[0] == NetworkParams(n, 1.0)
    assert residual(*result.worst_at) == result.value  # bit for bit


def test_describe_case():
    sel = v.selectors(N5, (v.C1,))[2]
    assert v.describe_case((N5, sel, 0.25 * N5.period, N5.period)) == "K=3 class=1 t1=0.25 t2=1 periods"
    case = (N5, sel, v.GlobalParameter.SIZE_N, 0.5 * N5.period)
    assert v.describe_case(case) == "K=3 class=1 theta=N t=0.5 periods"
