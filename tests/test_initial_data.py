"""Initial data catalog, truncated flow levels, and psh margins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow.errors import ConfigurationError, PositivityError
from coneflow.initial_data import (
    DatumKind,
    flow_level_values,
    make_initial,
    psh_margins,
    smoothed_datum_values,
    softmax_pair,
)
from coneflow.surfaces import SurfaceKind, build_surface, divisor_section

LN2 = float(np.log(2.0))


def margins(datum):
    """(absolute, relative) psh margin of a datum, as make_initial scans it."""
    return psh_margins(datum.surface, datum.phi0.values,
                       datum.phi0.singular_mask, datum.scan_exclude)


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
    # zero potential: margin is exactly the area-weight minimum
    absolute, _ = margins(d)
    assert absolute == pytest.approx(float(sphere.area_weight.min()), rel=0, abs=0)


def test_smooth_torus_mode(sphere):
    torus = build_surface(SurfaceKind.TORUS, 32, 0.5)
    d = make_initial(torus, None, DatumKind.SMOOTH, {"c": 0.01, "m1": 1})
    x, _ = torus.meshgrid()
    assert np.allclose(d.phi0.values, 0.01 * np.cos(2 * np.pi * x))
    assert margins(d)[1] > 0.5


def test_smooth_sphere_longitudinal_mode(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.SMOOTH, {"c": 0.005, "m1": 1, "m2": 2})
    assert np.isfinite(d.phi0.values).all()
    assert margins(d)[1] > 0.0


def test_donaldson_cone_profile(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.DONALDSON_CONE,
                     {"c": 0.05, "gamma": 0.5})
    # bounded data: the scans skip no node, the divisor's included
    assert d.scan_exclude.dtype == bool
    assert d.scan_exclude.shape == sphere.shape
    assert not d.scan_exclude.any()
    pt = divisor.points[0]
    assert d.phi0.values[pt] == 0.0
    assert d.phi0.values.max() == pytest.approx(0.05, rel=1e-12)
    assert margins(d)[0] > 0.0


def test_zero_lelong_diagnostics(zero_lelong, divisor):
    pt = divisor.points[0]
    assert margins(zero_lelong)[1] >= -1e-6
    # the pole node is flagged singular, everything else finite
    mask = zero_lelong.phi0.singular_mask
    assert mask[pt]
    assert np.isneginf(zero_lelong.phi0.values[pt])
    assert np.isfinite(zero_lelong.phi0.values[~mask]).all()
    # the scans skip exactly the singular node
    assert np.array_equal(zero_lelong.scan_exclude, mask)


def test_zero_lelong_amplitude_autoshrink(sphere, divisor):
    d = make_initial(sphere, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                     {"c": 5.0, "alpha": 0.5})
    assert d.params_used["c"] < 5.0
    assert margins(d)[1] >= -1e-6


def test_log_pole_margin_outside_halo(log_pole):
    assert margins(log_pole)[1] >= -1e-6
    # the halo is chart radius tan(d/2) < 1.5/sqrt(N) around the pole, d
    # from the written-out haversine
    th, ph = log_pole.surface.meshgrid()
    tp, pp = log_pole.divisor.point_coords[0]
    hav = (np.sin(0.5 * (th - tp)) ** 2
           + np.sin(th) * np.sin(tp) * np.sin(0.5 * (ph - pp)) ** 2)
    chart = np.tan(0.5 * (2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0)))))
    halo = chart < 1.5 / np.sqrt(log_pole.surface.resolution)
    # the scans skip the halo and the divisor node, which lies inside it
    node = log_pole.divisor.node_mask()
    assert halo[node].all()
    assert np.array_equal(log_pole.scan_exclude, halo | node)


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
    # a fractional mode number used to run as its integer part
    with pytest.raises(ConfigurationError, match="integers"):
        make_initial(sphere, divisor, DatumKind.SMOOTH, {"c": 0.01, "m1": 1.5})


def test_parameter_the_kind_does_not_take(sphere, divisor):
    with pytest.raises(ConfigurationError, match="mm2"):
        make_initial(sphere, divisor, DatumKind.SMOOTH,
                     {"c": 0.01, "m1": 1, "mm2": 3})
    with pytest.raises(ConfigurationError, match="gamma"):
        make_initial(sphere, divisor, DatumKind.LOG_POLE,
                     {"c": 0.2, "gamma": 0.5})


@pytest.mark.parametrize("kind", list(DatumKind))
def test_smoothed_datum_is_the_raw_formula(sphere, divisor, kind):
    # eps^2 = 1e-200 vanishes against |s|^2 at every node off the divisor,
    # so the smoothed values are the raw ones bit for bit there; they can
    # be only if both evaluate one formula
    datum = make_initial(sphere, divisor, kind, {})
    off = divisor.s_h_sq > 0.0
    smoothed = smoothed_datum_values(datum, 1e-100)
    assert smoothed[off].tobytes() == datum.phi0.values[off].tobytes()


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
# psh margins


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
