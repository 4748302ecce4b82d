"""Initial data catalog, truncated flow levels, and singularity diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow.errors import ConfigurationError, PositivityError
from coneflow.initial_data import (
    DatumKind,
    InitialDatum,
    _chart_radii,
    flow_level_values,
    integrability_index,
    lelong_estimate,
    make_initial,
    psh_margins,
    smoothed_datum_values,
    softmax_pair,
)
from coneflow.surfaces import SurfaceKind, build_surface, divisor_section

LN2 = float(np.log(2.0))


@pytest.fixture(scope="module")
def sphere():
    return build_surface(SurfaceKind.SPHERE_P1, 64, 2.0)


@pytest.fixture(scope="module")
def divisor(sphere):
    return divisor_section(sphere, [(np.pi / 2, np.pi)])


@pytest.fixture(scope="module")
def zero_lelong(sphere, divisor):
    return make_initial(sphere, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                        {"c": 0.05, "alpha": 0.5})


@pytest.fixture(scope="module")
def log_pole(sphere, divisor):
    return make_initial(sphere, divisor, DatumKind.LOG_POLE, {"c": 0.2})


def test_flat_smooth_datum_is_reference_case(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.SMOOTH, {"c": 0.0})
    assert d.phi0.values.max() == 0.0 and d.phi0.values.min() == 0.0
    pt = divisor.points[0]
    assert d.lelong[pt] == 0.0
    assert d.integrability[pt] == np.inf
    # zero potential: margin is exactly the area-weight minimum
    assert d.psh_margin == pytest.approx(float(sphere.area_weight.min()), rel=0, abs=0)


def test_smooth_torus_mode(sphere):
    torus = build_surface(SurfaceKind.TORUS, 32, 0.5)
    d = make_initial(torus, None, DatumKind.SMOOTH, {"c": 0.01, "m1": 1})
    x, _ = torus.meshgrid()
    assert np.allclose(d.phi0.values, 0.01 * np.cos(2 * np.pi * x))
    assert d.lelong == {} and d.integrability == {}
    assert d.psh_margin_rel > 0.5


def test_smooth_sphere_longitudinal_mode(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.SMOOTH, {"c": 0.005, "m1": 1, "m2": 2})
    assert np.isfinite(d.phi0.values).all()
    assert d.psh_margin_rel > 0.0


def test_donaldson_cone_profile(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.DONALDSON_CONE,
                     {"c": 0.05, "gamma": 0.5})
    pt = divisor.points[0]
    assert d.phi0.values[pt] == 0.0
    assert d.phi0.values.max() == pytest.approx(0.05, rel=1e-12)
    assert d.psh_margin > 0.0
    # bounded Hoelder profile: no mass, locally integrable at every probe
    assert d.lelong[pt] <= 0.02
    assert d.integrability[pt] == np.inf


def test_zero_lelong_diagnostics(zero_lelong, divisor):
    pt = divisor.points[0]
    assert zero_lelong.lelong[pt] <= 0.02
    assert zero_lelong.integrability[pt] == np.inf
    assert zero_lelong.psh_margin_rel >= -1e-6
    # the pole node is flagged singular, everything else finite
    mask = zero_lelong.phi0.singular_mask
    assert mask[pt]
    assert np.isneginf(zero_lelong.phi0.values[pt])
    assert np.isfinite(zero_lelong.phi0.values[~mask]).all()


def test_zero_lelong_amplitude_autoshrink(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                     {"c": 5.0, "alpha": 0.5})
    assert d.params_used["c"] < 5.0
    assert d.psh_margin_rel >= -1e-6


def test_log_pole_lelong_matches_coefficient(log_pole, divisor):
    pt = divisor.points[0]
    assert 0.9 * 0.2 <= log_pole.lelong[pt] <= 1.1 * 0.2


def test_log_pole_skoda_reciprocal(log_pole, divisor):
    # complex dimension 1: integrability threshold is 1/(Lelong number)
    pt = divisor.points[0]
    index = log_pole.integrability[pt]
    assert np.isfinite(index)
    assert abs(index - 1.0 / 0.2) <= 0.15 * (1.0 / 0.2)


def test_log_pole_margin_outside_halo(log_pole):
    assert log_pole.psh_margin_rel >= -1e-6
    assert log_pole.psh_exclusion is not None
    assert log_pole.psh_exclusion.sum() > 0


def test_needs_divisor():
    torus = build_surface(SurfaceKind.TORUS, 32, 1.0)
    with pytest.raises(ConfigurationError, match="divisor"):
        make_initial(torus, None, DatumKind.LOG_POLE, {"c": 0.2})


def test_parameter_validation(sphere, divisor):
    with pytest.raises(ConfigurationError, match="alpha"):
        make_initial(sphere, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                     {"c": 0.05, "alpha": 1.5})
    with pytest.raises(ConfigurationError, match="gamma"):
        make_initial(sphere, divisor, DatumKind.DONALDSON_CONE,
                     {"c": 0.05, "gamma": 2.0})
    with pytest.raises(ConfigurationError, match="positive"):
        make_initial(sphere, divisor, DatumKind.LOG_POLE, {"c": -0.1})


def test_oversized_smooth_amplitude_rejected(sphere, divisor):
    with pytest.raises(PositivityError, match="margin"):
        make_initial(sphere, divisor, DatumKind.SMOOTH, {"c": 1.0})


# ---------------------------------------------------------------------------
# truncated flow levels

#: a flown regularization level (above the N=64 resolvability floor)
EPS = 0.1
#: small enough that the smoothed log pole lies far below every level
POLE_EPS = 1e-60


def test_ladder_monotone_and_bounded(zero_lelong):
    sigma = 0.25
    smoothed = smoothed_datum_values(zero_lelong, EPS)
    sup0 = smoothed.max()
    prev = None
    for j in (2.0, 4.0, 8.0, 16.0):
        vals = flow_level_values(zero_lelong, EPS, j, sigma).values
        assert np.isfinite(vals).all()
        # soft maximum dominates the hard maximum exactly...
        assert np.all(vals >= np.maximum(smoothed, -j) - 1e-12)
        # ...and exceeds it by at most sigma ln 2
        assert vals.max() <= max(sup0, -j) + sigma * LN2 + 1e-12
        assert vals.min() >= -j - 1e-12
        if prev is not None:
            assert np.all(vals <= prev + 1e-9)
        prev = vals


def test_ladder_clamps_singular_node(log_pole):
    pt = log_pole.divisor.points[0]
    for j in (2.0, 8.0):
        level = flow_level_values(log_pole, POLE_EPS, j, 0.25)
        assert level.values[pt] == pytest.approx(-j, abs=1e-12)


def test_ladder_gap_shrinks_with_j(log_pole):
    # off the pole the levels converge to the smoothed datum, so consecutive
    # gaps shrink; at the pole itself they must keep descending instead
    levels = [flow_level_values(log_pole, POLE_EPS, j, 0.25).values
              for j in (2.0, 4.0, 8.0)]
    finite = np.isfinite(log_pole.phi0.values)
    gaps = [float(np.abs(a - b)[finite].max())
            for a, b in zip(levels, levels[1:])]
    assert gaps[1] < gaps[0]
    pt = log_pole.divisor.points[0]
    assert [vals[pt] for vals in levels] == pytest.approx([-2.0, -4.0, -8.0],
                                                          abs=1e-12)


def test_ladder_level_lookup_and_validation(zero_lelong):
    level = flow_level_values(zero_lelong, EPS, 4.0)
    assert level.values.min() >= -4.0 - 1e-12
    with pytest.raises(ConfigurationError):
        flow_level_values(zero_lelong, EPS, 2.0, sigma=0.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-50.0, max_value=50.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
    sigma=st.floats(min_value=1e-3, max_value=2.0),
)
def test_softmax_pair_bracket(a, b, sigma):
    out = float(softmax_pair(np.array(a), b, sigma))
    hard = max(a, b)
    assert hard - 1e-12 <= out <= hard + sigma * LN2 + 1e-12


# ---------------------------------------------------------------------------
# diagnostics


def test_lelong_exact_log_slope(sphere):
    # c log|z| about a point away from any divisor: slope recovers c
    centre = (np.pi / 2, np.pi / 2)
    div = divisor_section(sphere, [centre])
    with np.errstate(divide="ignore"):
        values = 0.35 * 0.5 * np.log(div.s_h_sq)
    est = lelong_estimate(sphere, values, div.point_coords[0])
    assert est == pytest.approx(0.35, rel=0.05)


def test_lelong_clamped_at_zero(sphere):
    th, _ = sphere.meshgrid()
    values = -0.05 * np.cos(th)
    est = lelong_estimate(sphere, values, (np.pi / 2, np.pi))
    assert est == 0.0 or est < 0.01


def test_radii_window_needs_resolution():
    coarse = build_surface(SurfaceKind.SPHERE_P1, 32, 2.0)
    with pytest.raises(ConfigurationError, match="radii"):
        _chart_radii(coarse)
    fine = build_surface(SurfaceKind.SPHERE_P1, 64, 2.0)
    radii = _chart_radii(fine)
    assert len(radii) >= 3
    assert radii[0] == pytest.approx(4.0 / 64)
    assert radii[-1] <= 0.25 + 1e-12


def test_integrability_probe_validation(sphere):
    values = np.zeros(sphere.shape)
    with pytest.raises(ConfigurationError, match="probe"):
        integrability_index(sphere, values, (np.pi / 2, np.pi),
                            probe_c_grid=np.array([-1.0, 1.0]))


def test_psh_margin_excludes_singular_one_ring(sphere, divisor):
    values = np.zeros(sphere.shape)
    pt = divisor.points[0]
    values[pt] = -1e6
    # unmasked, the spike wrecks the margin through its neighbors
    _, rel_raw = psh_margins(sphere, values, None)
    assert rel_raw < -1.0
    # flagged singular, the one-ring is dropped and the spike is invisible
    mask = np.zeros(sphere.shape, dtype=bool)
    mask[pt] = True
    _, rel = psh_margins(sphere, values, mask)
    assert rel == pytest.approx(1.0, abs=1e-9)
    # the explicit exclusion set achieves the same without a singular flag
    wide = mask.copy()
    for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        wide |= np.roll(mask, shift, axis=ax)
    _, rel_wide = psh_margins(sphere, values, None, exclude=wide)
    assert rel_wide == pytest.approx(1.0, abs=1e-9)


def test_datum_exposes_lelong_max(zero_lelong, log_pole):
    assert isinstance(zero_lelong, InitialDatum)
    assert zero_lelong.lelong_max <= 0.02
    assert log_pole.lelong_max >= 0.18
