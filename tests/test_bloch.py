import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqnet import (
    DynClass,
    NetworkParams,
    SingularIntervalError,
    SubsystemSelector,
    Verdict,
    affine_map,
    amplitudes,
    axial_positivity_band,
    classify,
    evolve_bloch,
    excitation_probability,
    is_singular,
    materialize_density,
    physical_bloch_z,
    reduced_state,
)

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
HALF = math.pi / 5
FULL = 2 * math.pi / 5


def test_identity_map():
    bmap = affine_map(N5, C1, 0.9, 0.9)
    assert bmap.transverse_scale == pytest.approx(1.0)
    assert bmap.rotation_angle == pytest.approx(0.0)
    assert bmap.z_scale == pytest.approx(1.0)
    assert bmap.z_shift == pytest.approx(0.0)


def test_contracting_map_elements():
    bmap = affine_map(N5, C1, 0.0, HALF)
    assert bmap.transverse_scale == pytest.approx(0.6, abs=1e-13)
    assert bmap.z_scale == pytest.approx(0.36, abs=1e-13)
    assert bmap.z_shift == pytest.approx(0.64, abs=1e-13)


def test_expanding_map_elements():
    bmap = affine_map(N5, C1, HALF, FULL)
    assert bmap.transverse_scale == pytest.approx(5 / 3, abs=1e-13)
    assert bmap.z_scale == pytest.approx(25 / 9, abs=1e-13)
    assert bmap.z_shift == pytest.approx(-16 / 9, abs=1e-13)


def test_evolve_examples():
    bmap = affine_map(N5, C1, HALF, FULL)
    image = evolve_bloch(bmap, np.array([0.0, 0.0, 0.28]))
    assert np.allclose(image, [0.0, 0.0, -1.0], atol=1e-12)

    bmap0 = affine_map(N5, C0, 0.0, HALF)
    image = evolve_bloch(bmap0, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(image, [0.0, 0.0, 0.68], atol=1e-13)


def test_fixed_points():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t1, t2 = rng.uniform(0, N5.period, size=2)
        north = evolve_bloch(affine_map(N5, C1, t1, t2), np.array([0.0, 0.0, 1.0]))
        assert np.abs(north - [0.0, 0.0, 1.0]).max() <= 1e-12
        south = evolve_bloch(affine_map(N5, C0, t1, t2), np.array([0.0, 0.0, -1.0]))
        assert np.abs(south - [0.0, 0.0, -1.0]).max() <= 1e-12


def test_axial_band_examples():
    identity = affine_map(N5, C1, 0.4, 0.4)
    assert axial_positivity_band(identity) == pytest.approx((-1.0, 1.0))

    expanding = affine_map(N5, C1, HALF, FULL)
    lo, hi = axial_positivity_band(expanding)
    assert lo == pytest.approx(0.28, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_contracting_maps_preserve_full_interval():
    # Forward-dispersal windows in the first half-period are contracting.
    for tau1, tau2 in [(0.0, 0.2), (0.1, 0.45), (0.3, 0.5)]:
        for cls in (C0, C1):
            bmap = affine_map(N5, cls, tau1 * N5.period, tau2 * N5.period)
            lo, hi = axial_positivity_band(bmap)
            assert lo == pytest.approx(-1.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)


def test_band_full_iff_cp():
    rng = np.random.default_rng(43)
    for _ in range(200):
        cls = C1 if rng.random() < 0.5 else C0
        t1, t2 = rng.uniform(0, N5.period, size=2)
        band = axial_positivity_band(affine_map(N5, cls, t1, t2))
        full = band is not None and abs(band[0] + 1) <= 1e-9 and abs(band[1] - 1) <= 1e-9
        verdict = classify(N5, SubsystemSelector(1, cls), t1, t2)
        assert full == (verdict.verdict is Verdict.POSITIVE_AND_CP)


def test_band_contains_fixed_point():
    rng = np.random.default_rng(47)
    for _ in range(100):
        cls = C1 if rng.random() < 0.5 else C0
        t1, t2 = rng.uniform(0, N5.period, size=2)
        lo, hi = axial_positivity_band(affine_map(N5, cls, t1, t2))
        pole = 1.0 if cls is C1 else -1.0
        assert lo - 1e-12 <= pole <= hi + 1e-12


def test_never_visited_band():
    # 61 points puts tau = 0.5 and 1.0 on the grid, where the band's lower
    # edge attains its supremum 0.28.
    taus = np.linspace(0.0, 1.0, 61)
    lo_max = -1.0
    for tau1 in taus:
        for tau2 in taus:
            lo, hi = axial_positivity_band(
                affine_map(N5, C1, tau1 * N5.period, tau2 * N5.period)
            )
            lo_max = max(lo_max, lo)
            assert hi == pytest.approx(1.0, abs=1e-12)
    orbit_max = max(
        physical_bloch_z(N5, C1, tau * N5.period) for tau in np.linspace(0, 1, 600)
    )
    # States with b_z in (0.28, 1] lie inside every propagator's positivity
    # domain, yet the physical orbit never climbs above 0.28.
    assert lo_max == pytest.approx(0.28, abs=1e-12)
    assert orbit_max <= 0.28 + 1e-12


def test_orbit_consistency_with_states():
    rng = np.random.default_rng(53)
    for cls in (C0, C1):
        sel = SubsystemSelector(1, cls)
        for _ in range(40):
            t1, t2 = rng.uniform(0, N5.period, size=2)
            bmap = affine_map(N5, cls, t1, t2)
            z1 = physical_bloch_z(N5, cls, t1)
            image = evolve_bloch(bmap, np.array([0.0, 0.0, z1]))
            rho2 = materialize_density(reduced_state(N5, sel, t2))
            z2 = float((rho2[0, 0] - rho2[1, 1]).real)
            assert abs(image[2] - z2) <= 1e-10
            assert abs(physical_bloch_z(N5, cls, t2) - z2) <= 1e-12


def test_two_qubit_anchor_singularity():
    params = NetworkParams(2, 1.0)
    with pytest.raises(SingularIntervalError):
        affine_map(params, C1, math.pi / 2, 2.0)
    # Away from odd half-periods the N=2 map is fine.
    bmap = affine_map(params, C1, 0.3, 1.1)
    assert math.isfinite(bmap.z_scale)


# In periods: 10^-8..10^-3 periods to either side of an odd half-period,
# where the N = 2 maps are ill-conditioned or refused.
near_anchors = st.builds(
    lambda half, sign, e: half + sign * 10.0**e,
    st.sampled_from((0.5, 1.5, -0.5)),
    st.sampled_from((1, -1)),
    st.floats(-8.0, -3.0),
)
taus = st.one_of(near_anchors, st.floats(-2.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(2), st.integers(2, 64)),
    st.sampled_from([1.0, 0.7, 2.3]),
    st.sampled_from(DynClass),
    taus,
    taus,
)
def test_map_equals_the_ratio_formulas(n, j, cls, tau1, tau2):
    # The reference: B's phase is u_s(t2)/u_s(t1) and the z-scale the ratio
    # p(t2)/p(t1) of the mixing probability. Both lose about u/p(t1) near an
    # anchor, where p(t1) = |u_s(t1)|^2 at N = 2, so the gaps are scaled by it.
    params = NetworkParams(n, j)
    t1, t2 = tau1 * params.period, tau2 * params.period
    try:
        bmap = affine_map(params, cls, t1, t2)
    except SingularIntervalError:
        assert is_singular(params, 1, t1)  # at K = 1 only N = 2 has anchors, alike in both classes
        return
    us1 = amplitudes(params, t1).same_site
    ratio = amplitudes(params, t2).same_site / us1
    sense = 1.0 if cls is C1 else -1.0
    rebuilt = bmap.transverse_scale * cmath.exp(1j * sense * bmap.rotation_angle)
    assert abs(rebuilt - ratio) * abs(us1) <= 1e-14 * (1.0 + abs(ratio))
    sel = SubsystemSelector(1, cls)
    p1 = excitation_probability(params, sel, t1)
    z_scale = excitation_probability(params, sel, t2) / p1
    assert abs(bmap.z_scale - z_scale) * p1 <= 1e-14 * max(1.0, abs(z_scale))
