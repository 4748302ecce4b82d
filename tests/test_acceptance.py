"""Acceptance suite: one test per quantitative claim the package makes.

Each test prints a single pass line once its assertions hold, so a verbose
run reads as a per-criterion scoreboard.  Shared run families come from
conftest; everything else is built locally at desk scale.
"""
from fractions import Fraction

import numpy as np
import pytest

from coneflow.background import FlowParams, build_pack, compute_tmax
from coneflow.estimates import (check_comparison, check_density_ratio,
                                check_hstat, check_l1_convergence,
                                check_lower_barrier, check_lower_envelope,
                                check_monotone_eps, check_osc,
                                check_upper_barrier, divergence_signature)
from coneflow.flow import (Scheme, StepControl, run_flow, static_ma_solve)
from coneflow.surfaces import (ScalarField, SurfaceKind, build_surface,
                               ddbar_density_values, integrate, laplacian,
                               poisson_solve)

from conftest import EPS_FAMILY, J_FAMILY, SWEEP_EPS, SWEEP_J

FOUR_PI_SQ = 4.0 * np.pi**2


def passed(n, label):
    print(f"criterion {n:2d} ({label}): PASS")


@pytest.fixture(scope="module")
def heat_pack():
    surface = build_surface(SurfaceKind.TORUS, 32, 0.5)
    pack = build_pack(surface, None,
                      FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=0.2))
    return surface, pack


# --- 1 -------------------------------------------------------------------

def test_criterion_01_existence_time_oracle():
    """Exact rational volume budget on hand-derived class data."""
    half, quarter, threequarter = Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)
    # (V, c1, m, gamma, eta) -> slope = -c1 + (1-gamma)m + eta, T = V/(-slope)
    cases = [
        (Fraction(2), Fraction(2), 1, half, Fraction(0)),
        (Fraction(2), Fraction(2), 0, Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(2), 2, threequarter, Fraction(0)),
        (Fraction(3), Fraction(2), 1, quarter, Fraction(0)),
        (Fraction(2), Fraction(2), 1, half, half),
        (Fraction(1), Fraction(2), 4, half, Fraction(0)),
        (Fraction(1), Fraction(2), 1, half, Fraction(2)),
        (half, Fraction(0), 0, Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), 1, half, Fraction(-1)),
        (half, Fraction(0), 2, threequarter, -threequarter),
    ]
    for volume, c1, m, gamma, eta in cases:
        slope = -c1 + (1 - gamma) * m + eta
        expected = float("inf") if slope >= 0 else float(volume / -slope)
        got = compute_tmax(float(volume), float(c1), m, float(gamma),
                           float(eta))
        assert got == expected, (volume, c1, m, gamma, eta)
    # spot values of the derivation itself
    assert compute_tmax(2.0, 2.0, 1, 0.5, 0.0) == float(Fraction(4, 3))
    assert compute_tmax(0.5, 0.0, 2, 0.75, -0.75) == 2.0
    passed(1, "existence-time oracle")


# --- 2 -------------------------------------------------------------------

def test_criterion_02_heat_flow_regression(heat_pack):
    """Small data on the flat torus decays at the fundamental heat rate."""
    surface, pack = heat_pack
    x, _ = surface.meshgrid()
    cps = [0.01, 0.02, 0.03, 0.04, 0.05]
    traj = run_flow(pack, 0.0, 0.01 * np.cos(2 * np.pi * x),
                    StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-4,
                                dt_max=1e-3), cps)
    sups = []
    for state in traj.snapshots:
        mean = integrate(surface, state.phi.values,
                         against_area_weight=True) / surface.total_volume
        sups.append(np.abs(state.phi.values - mean).max())
    rate = -np.polyfit(cps, np.log(sups), 1)[0]
    assert rate == pytest.approx(FOUR_PI_SQ, rel=0.05)
    passed(2, "heat-flow regression")


# --- 3 / 4 ---------------------------------------------------------------

def test_criterion_03_barrier_suite(sphere_lab):
    for eps in SWEEP_EPS:
        for j in SWEEP_J:
            traj = sphere_lab["runs"][(eps, j)]
            for t0 in (0.1, 0.3):
                upper = check_upper_barrier(traj, t0)
                lower = check_lower_barrier(traj, t0)
                assert upper.margin >= -1e-6, (eps, j, t0)
                assert lower.margin >= -1e-6, (eps, j, t0)
    passed(3, "barrier suite")


def test_criterion_04_h_statistic(sphere_lab):
    for eps in SWEEP_EPS:
        for j in SWEEP_J:
            report = check_hstat(sphere_lab["runs"][(eps, j)])
            assert report.aux["max_H"] <= 1e-5, (eps, j)
            assert report.aux["derived_margin"] >= -1e-5, (eps, j)
    passed(4, "H-statistic")


# --- 5 / 6 ---------------------------------------------------------------

def test_criterion_05_j_uniform_oscillation(sphere_lab):
    family = [sphere_lab["runs"][(0.1, j)] for j in J_FAMILY]
    report = check_osc(family, times=[0.1, 0.2, 0.5], rel_tol=0.05)
    assert report.passed and report.margin >= -1e-6
    passed(5, "j-uniform oscillation")


def test_criterion_06_eps_monotonicity(sphere_lab):
    family = [sphere_lab["runs"][(eps, 8.0)] for eps in EPS_FAMILY]
    report = check_monotone_eps(family, 0.2)
    assert report.margin >= -1e-5
    passed(6, "eps-monotonicity")


# --- 7 -------------------------------------------------------------------

def test_criterion_07_comparison_principle(heat_pack):
    """Ordered initial data stay ordered; constant shifts ride along exactly."""
    surface, pack = heat_pack
    x, y = surface.meshgrid()
    rng = np.random.default_rng(7)
    cps = [0.00625, 0.0125, 0.025, 0.05, 0.1]
    control = StepControl()

    def random_pair():
        c = rng.uniform(-0.004, 0.004, size=4)
        u0 = (c[0] * np.cos(2 * np.pi * x) + c[1] * np.sin(2 * np.pi * x)
              + c[2] * np.cos(2 * np.pi * y)
              + c[3] * np.sin(2 * np.pi * (x + y)))
        bump, floor = rng.uniform(0.0, 0.008), rng.uniform(0.0, 0.005)
        phase = rng.uniform(0.0, 2 * np.pi)
        gap = bump * (1 + np.cos(2 * np.pi * x + phase)) / 2 + floor
        return u0, u0 + gap

    last = None
    for i in range(20):
        u0, v0 = random_pair()
        low = run_flow(pack, 0.0, u0, control, cps, run_id=f"cmp_u{i}")
        high = run_flow(pack, 0.0, v0, control, cps, run_id=f"cmp_v{i}")
        verdict = check_comparison(low, high)
        assert verdict.aux["initial_sup_gap"] <= 0.0
        assert verdict.passed, (i, -verdict.margin)
        assert -verdict.margin <= 1e-6 + verdict.tolerance
        last = low

    for shift in (0.1, 0.025):
        shifted = run_flow(pack, 0.0, last.initial_state.phi.values + shift,
                           control, cps, run_id=f"cmp_s{shift:g}")
        verdict = check_comparison(last, shifted)
        assert verdict.aux["initial_sup_gap"] == pytest.approx(-shift,
                                                               abs=1e-14)
        assert -verdict.margin <= 1e-10
    passed(7, "comparison principle")


# --- 8 -------------------------------------------------------------------

def test_criterion_08_lower_envelope(sphere_lab, torus_lab):
    smooth = check_lower_envelope(torus_lab["runs"]["heat"], 2.0)
    assert smooth.margin >= -1e-5
    envelopes = {eps: check_lower_envelope(sphere_lab["runs"][(eps, 8.0)], 2.0)
                 for eps in SWEEP_EPS}
    for eps, report in envelopes.items():
        assert report.margin >= -1e-5, eps
    # static-solve constant stays put while eps halves
    for coarse, fine in ((0.2, 0.1), (0.1, 0.05)):
        c0 = envelopes[coarse].parameters["C"]
        c1 = envelopes[fine].parameters["C"]
        assert max(c0, c1) <= 1.25 * min(c0, c1), (coarse, fine)
    passed(8, "lower envelope")


# --- 9 -------------------------------------------------------------------

def test_criterion_09_l1_convergence(l1_lab):
    for name in ("smooth", "donaldson", "zero_lelong"):
        report = check_l1_convergence(l1_lab["runs"][name],
                                      l1_lab["data"][name].phi0, t_top=0.2)
        distances = report.aux["distances"]
        assert len(distances) == 6
        assert np.all(np.diff(distances) < 0.0), name
        assert report.margin >= 0.0, name
    passed(9, "L1 convergence to the datum")


# --- 10 ------------------------------------------------------------------

def test_criterion_10_metric_equivalence(sphere_lab, doubled_lab):
    constants = {}
    for eps in SWEEP_EPS:
        for j in SWEEP_J:
            report = check_density_ratio(sphere_lab["runs"][(eps, j)], 0.1)
            assert report.passed and np.isfinite(report.parameters["C"])
            constants[(eps, j)] = report.parameters["C"]
    for coarse, fine in ((0.2, 0.1), (0.1, 0.05)):
        c0, c1 = constants[(coarse, 8.0)], constants[(fine, 8.0)]
        assert max(c0, c1) <= 1.25 * min(c0, c1), (coarse, fine)
    doubled = check_density_ratio(doubled_lab["run"], 0.1)
    c_64, c_128 = constants[(0.1, 8.0)], doubled.parameters["C"]
    assert max(c_64, c_128) <= 1.15 * min(c_64, c_128)
    passed(10, "metric equivalence")


# --- 11 ------------------------------------------------------------------

def test_criterion_11_negative_control(sphere_lab):
    """A positive Lelong number must announce itself; admissible data not."""
    pole = divergence_signature(sphere_lab["lp_runs"])
    assert pole["diverging"]
    admissible = divergence_signature(
        [sphere_lab["runs"][(eps, 8.0)] for eps in SWEEP_EPS])
    assert not admissible["diverging"]
    assert not admissible["positivity_loss"]
    passed(11, "negative control")


# --- 12 ------------------------------------------------------------------

def test_criterion_12_numerical_self_checks(heat_pack):
    surface, pack = heat_pack
    x, y = surface.meshgrid()

    # manufactured static solve
    quad = build_surface(SurfaceKind.TORUS, 32, 4.0)
    xq, _ = quad.meshgrid()
    u_star = 0.1 * np.cos(2 * np.pi * xq)
    dens = quad.area_weight + ddbar_density_values(quad, u_star)
    g = np.log(dens / quad.area_weight) - u_star
    solved = static_ma_solve(quad, quad.area_weight, g)
    assert np.abs(solved.values - u_star).max() <= 1e-8

    # poisson residual, in the density form the solver inverts
    sphere = build_surface(SurfaceKind.SPHERE_P1, 64, 2.0)
    theta, phi = sphere.meshgrid()
    for surf, f in ((surface, np.sin(2 * np.pi * x)
                     + 0.3 * np.cos(2 * np.pi * (x + 2 * y))),
                    (sphere, np.cos(theta)
                     + 0.2 * np.sin(theta) * np.cos(phi))):
        rhs = laplacian(ScalarField(surf, f))
        sol = poisson_solve(surf, rhs)
        target = rhs.values * surf.area_weight * 0.5
        residual = np.abs(ddbar_density_values(surf, sol.values) - target)
        assert residual.max() <= 1e-10

    # dt-refinement orders
    def dt_order(scheme, dts, nominal):
        fields = []
        for dt in dts:
            ctrl = StepControl(scheme=scheme, dt_init=dt, dt_max=dt,
                               dt_min=dt / 64, error_tol=1.0)
            traj = run_flow(pack, 0.0, 0.005 * np.cos(2 * np.pi * x), ctrl,
                            [0.048])
            fields.append(traj.snapshots[0].phi.values)
        e_coarse = np.abs(fields[0] - fields[1]).max()
        e_fine = np.abs(fields[1] - fields[2]).max()
        order = np.log2(e_coarse / e_fine)
        assert abs(order / nominal - 1.0) <= 0.2, (scheme, order)

    dt_order(Scheme.SEMI_IMPLICIT_NEWTON, (2e-3, 1e-3, 5e-4), 1.0)
    # explicit steps must stay inside the 2/lambda_max ~ 4.9e-4 cap
    dt_order(Scheme.EXPLICIT_RK2, (2.4e-4, 1.2e-4, 6e-5), 2.0)

    # N-refinement order of the spatial stencil through the full flow
    fields = {}
    for n in (16, 32, 64):
        surf = build_surface(SurfaceKind.TORUS, n, 0.5)
        pk = build_pack(surf, None,
                        FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=0.2))
        xn, _ = surf.meshgrid()
        ctrl = StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=6e-5,
                           dt_max=6e-5, dt_min=1e-6, error_tol=1.0)
        traj = run_flow(pk, 0.0, 0.01 * np.cos(2 * np.pi * xn), ctrl, [0.048])
        fields[n] = traj.snapshots[0].phi.values
    e_coarse = np.abs(fields[16] - fields[32][::2, ::2]).max()
    e_fine = np.abs(fields[32] - fields[64][::2, ::2]).max()
    order = np.log2(e_coarse / e_fine)
    assert abs(order / 2.0 - 1.0) <= 0.2, order
    passed(12, "numerical self-checks")
