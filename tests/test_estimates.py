"""Checker behavior on live runs, margins frozen against the shared corpus.

The frozen numbers were produced by the canonical fixture configurations in
conftest.py; they are regression pins, not derivations.  Structural facts
(exact zeros, closed forms, antisymmetry, witness reproducibility) are
asserted at much tighter tolerance than the pinned dynamics.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow import estimates as est
from coneflow.errors import ConfigurationError

REL = 1e-6


def shifted_copy(traj, offset, t_min=None):
    """Copy of a trajectory with recorded potentials shifted by offset.

    Only snapshots at t >= t_min are touched when t_min is given, which
    breaks time-coherence on purpose: corrupted runs must flip checkers
    to FAIL without perturbing the shared fixtures.
    """
    def shift(state):
        if t_min is not None and state.t < t_min:
            return state
        phi = dataclasses.replace(state.phi, values=state.phi.values + offset)
        return dataclasses.replace(state, phi=phi)

    return dataclasses.replace(traj, snapshots=[shift(s) for s in traj.snapshots])


def spiked_copy(traj, t, node, offset):
    """Copy of a trajectory with the potential moved at one node and one
    checkpoint only, so that a corrupted run fails at a known (t, node)."""
    def spike(state):
        if state.t != t:
            return state
        values = state.phi.values.copy()
        values[node] += offset
        return dataclasses.replace(
            state, phi=dataclasses.replace(state.phi, values=values))

    return dataclasses.replace(traj, snapshots=[spike(s) for s in traj.snapshots])


#: an interior node of the 64 x 64 sphere grid, away from the divisor
SPIKE_NODE = (40, 20)


# ---------------------------------------------------------------------------
# report semantics


def test_report_pass_threshold_and_summary():
    rep = est.EstimateReport(estimate_id="upper_barrier", run_ids=("r1",),
                             parameters={}, margin=-1e-6, witness=None,
                             tolerance=1e-6)
    assert rep.passed
    assert rep.summary().startswith("PASS upper_barrier:")
    rep.margin = -2e-6
    assert not rep.passed
    assert rep.summary().startswith("FAIL upper_barrier:")
    assert "r1" in rep.summary()


@given(margin=st.floats(-1.0, 1.0), tol=st.floats(1e-12, 1e-2))
def test_pass_is_margin_against_tolerance(margin, tol):
    rep = est.EstimateReport(estimate_id="hstat", run_ids=(), parameters={},
                             margin=margin, witness=None, tolerance=tol)
    assert rep.passed == (margin >= -tol)


# ---------------------------------------------------------------------------
# torus runs: exact zeros and small frozen margins


def test_stationary_certificates_are_exact(torus_lab):
    run = torus_lab["runs"]["stationary"]
    assert est.check_upper_barrier(run, 0.0125).margin == 0.0
    assert est.check_lower_barrier(run, 0.0125).margin == 0.0
    hs = est.check_hstat(run)
    # H = -n*t on a stationary run, tightest at the first checkpoint
    assert hs.margin == pytest.approx(0.00625, abs=1e-15)
    assert hs.aux["derived_margin"] == pytest.approx(1.0, abs=1e-12)
    pl = est.check_phidot_lower(run, 0.0125, 0.1)
    assert pl.margin == pytest.approx(float(-np.log(0.1 - 0.0125)), rel=1e-12)
    assert pl.parameters["C"] == 0.0


def test_heat_barriers_frozen(torus_lab):
    run = torus_lab["runs"]["heat"]
    ub = est.check_upper_barrier(run, 0.0125)
    lb = est.check_lower_barrier(run, 0.0125)
    # flat pack: path equals cone and F vanishes, so the slope constant is 0
    assert ub.parameters["C"] == 0.0
    assert ub.margin == pytest.approx(2.354596271790e-03, rel=REL)
    assert lb.margin == pytest.approx(2.239591675287e-03, rel=REL)
    assert ub.passed and lb.passed


def test_heat_hstat_frozen(torus_lab):
    hs = est.check_hstat(torus_lab["runs"]["heat"])
    assert hs.aux["max_H"] == pytest.approx(-5.893772192200e-03, rel=REL)
    assert hs.margin == -hs.aux["max_H"]
    assert hs.aux["derived_margin"] == pytest.approx(8.834027474410e-01, rel=REL)
    assert hs.aux["remark_margin"] == pytest.approx(1.080188784420e+00, rel=REL)


def test_heat_density_ratio_frozen(torus_lab):
    dr = est.check_density_ratio(torus_lab["runs"]["heat"], 0.0125)
    assert dr.parameters["C"] == pytest.approx(1.289739715542, rel=REL)
    assert dr.margin == pytest.approx(6.176912995733e-02, rel=REL)
    grid = dr.aux["C_of_t0"]
    assert grid == pytest.approx(
        [1.289740, 1.165432, 1.063665, 1.011606, 1.000418], rel=1e-5)
    # the two-sided constant relaxes toward 1 as the window start moves up
    assert all(a >= b for a, b in zip(grid, grid[1:]))
    # C(t0) is the maximum over the window from t0 on, kept as Python floats
    bounds = dr.aux["ratio_bounds"]
    assert grid == [max(max(h, 1.0 / lo) for _, lo, h in bounds[i:])
                    for i in range(len(bounds))]
    assert all(type(c) is float for c in grid)


def test_torus_l1_distances_contract(torus_lab):
    run = torus_lab["runs"]["heat_small"]
    rep = est.check_l1_convergence(run, run.initial_state.phi.values)
    d = rep.aux["distances"]
    assert all(a > b for a, b in zip(d, d[1:]))
    assert d[-1] == pytest.approx(3.425323968513e-04, rel=REL)
    assert rep.parameters["tol_l1"] == pytest.approx(5.158643287306e-04, rel=REL)
    assert rep.margin == pytest.approx(4.509803152015e-05, rel=REL)
    assert rep.passed


def test_torus_envelope_frozen(torus_lab):
    env = est.check_lower_envelope(torus_lab["runs"]["heat"], 2.0)
    assert env.parameters["C"] == pytest.approx(1.373916095484e-03, rel=REL)
    assert env.margin == pytest.approx(3.573588861787e-02, rel=REL)
    # the explicit subsolution sits below the certified lower curve
    assert env.aux["subsolution_margin"] == pytest.approx(
        3.572349980524e-02, rel=REL)
    assert env.margin >= env.aux["subsolution_margin"] - 1e-12


def test_envelope_rejects_small_twist(sphere_lab):
    with pytest.raises(ConfigurationError):
        est.check_lower_envelope(sphere_lab["runs"][(0.1, 8.0)], 0.5)


# ---------------------------------------------------------------------------
# comparison verdicts


def test_comparison_shift_pair(torus_lab):
    ver = est.check_comparison(torus_lab["runs"]["heat_shifted"],
                               torus_lab["runs"]["heat"])
    assert ver.aux["initial_sup_gap"] == pytest.approx(-0.3, abs=1e-12)
    assert -ver.margin <= 1e-10
    assert ver.passed


def test_comparison_is_antisymmetric(torus_lab):
    u, v = torus_lab["runs"]["heat_shifted"], torus_lab["runs"]["heat"]
    fwd = est.check_comparison(u, v)
    rev = est.check_comparison(v, u)
    assert np.array_equal(fwd.aux["sup_gap_series"],
                          -rev.aux["inf_gap_series"])
    assert np.array_equal(fwd.aux["inf_gap_series"],
                          -rev.aux["sup_gap_series"])


def test_comparison_rejects_mismatched_runs(torus_lab, sphere_lab):
    with pytest.raises(ConfigurationError):
        est.check_comparison(torus_lab["runs"]["heat"],
                             sphere_lab["runs"][(0.1, 8.0)])


def test_truncation_scale_counts_steps(torus_lab, control):
    run = torus_lab["runs"]["heat"]
    assert est.truncation_scale(run) == (
        run.snapshots[-1].step_count * control.newton_tol)


def test_ladder_comparison_within_truncation(sphere_lab):
    hi, lo = sphere_lab["runs"][(0.1, 8.0)], sphere_lab["runs"][(0.1, 2.0)]
    ver = est.check_comparison(hi, lo)
    expected_tol = 1e-8 + 2 * max(est.truncation_scale(hi),
                                  est.truncation_scale(lo))
    assert ver.tolerance == pytest.approx(expected_tol, rel=1e-12)
    assert -ver.margin == pytest.approx(-9.812156760713e-09, rel=1e-3,
                                        abs=1e-11)
    assert ver.passed


# ---------------------------------------------------------------------------
# conical sweep certificates


def test_sphere_barriers_frozen(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    ub = est.check_upper_barrier(run, 0.1)
    assert ub.margin == pytest.approx(2.380564538676e-02, rel=REL)
    assert ub.parameters["C"] == pytest.approx(-1.892442534338e-01, rel=REL)
    assert ub.parameters["constant_mode"] == "pack"
    lb = est.check_lower_barrier(run, 0.1)
    assert lb.margin == pytest.approx(1.529452608759e-01, rel=REL)
    assert lb.parameters["C"] == pytest.approx(2.524698150758e+00, rel=REL)
    assert ub.passed and lb.passed


def test_barrier_witness_reproducible(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    rep = est.check_upper_barrier(run, 0.1)
    t_w, node = rep.witness
    mask = est.scan_mask(run)
    tc_w = est.tc_potential_values(run, run.state_at(t_w))
    sup0 = est.tc_potential_values(run, run.state_at(0.1))[mask].max()
    replay = sup0 + rep.parameters["C"] * (t_w - 0.1) - tc_w[node]
    assert tc_w[node] == tc_w[mask].max()
    assert replay == pytest.approx(rep.margin, abs=1e-12)


def test_slope_constant_is_exact_on_endpoints(sphere_lab):
    # dense-grid oracle: the path density is affine in t, so interior times
    # never beat the endpoint scan
    pack = sphere_lab["packs"][0.1]
    c_up = est.barrier_slope_constant(pack, 0.1, 1.0, sign=1.0)
    cone = pack.omega_cone_eps.values
    dense = max(
        float((np.log(pack.omega_path_eps(t) / cone)
               + pack.F_eps.values).max())
        for t in np.linspace(0.1, 1.0, 97))
    assert c_up == pytest.approx(dense, abs=1e-12)
    assert c_up >= dense - 1e-12


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.1, 1.0))
def test_slope_constant_dominates_interior_times(sphere_lab, t):
    pack = sphere_lab["packs"][0.2]
    c_up = est.barrier_slope_constant(pack, 0.1, 1.0, sign=1.0)
    cone = pack.omega_cone_eps.values
    interior = float((np.log(pack.omega_path_eps(t) / cone)
                      + pack.F_eps.values).max())
    assert interior <= c_up + 1e-12


def test_sphere_hstat_frozen(sphere_lab):
    hs = est.check_hstat(sphere_lab["runs"][(0.1, 8.0)])
    assert hs.aux["max_H"] == pytest.approx(-6.010159386871e-03, rel=REL)
    assert hs.aux["max_H"] <= 1e-5
    assert hs.aux["derived_margin"] == pytest.approx(8.250709441692e-01, rel=REL)
    assert hs.aux["remark_margin"] == pytest.approx(2.546919439123e+00, rel=REL)


def test_hstat_witness_reproducible(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    hs = est.check_hstat(run)
    t_w, node = hs.witness
    state = run.state_at(t_w)
    tc = est.tc_potential_values(run, state)
    tc0 = est.tc_potential_values(run, run.initial_state)
    h_w = (t_w * state.phi_dot.values[node] - (tc[node] - tc0[node])
           - est.N_DIM * t_w)
    assert h_w == pytest.approx(hs.aux["max_H"], abs=1e-12)


def test_sphere_phidot_lower_frozen(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    pl = est.check_phidot_lower(run, 0.1, 0.9)
    assert pl.parameters["A"] == pytest.approx(20.0, rel=1e-12)
    assert pl.parameters["C"] == 0.0
    assert pl.parameters["constant_mode"] == "fitted"
    assert pl.margin == pytest.approx(1.809672658354e+00, rel=REL)
    assert pl.passed


def test_phidot_lower_window_validation(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    with pytest.raises(ConfigurationError):
        est.check_phidot_lower(run, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        est.check_phidot_lower(run, 0.1, 1.0)  # Tprime must sit below T
    with pytest.raises(ConfigurationError):
        est.check_phidot_lower(run, 0.15, 0.7)  # t0 must be a checkpoint


def test_sphere_density_ratio_stable_in_eps(sphere_lab):
    by_eps = {e: est.check_density_ratio(sphere_lab["runs"][(e, 8.0)], 0.1)
              for e in (0.2, 0.1, 0.05)}
    assert by_eps[0.1].parameters["C"] == pytest.approx(7.448571653063, rel=REL)
    assert by_eps[0.1].margin == pytest.approx(3.724285826531e-01, rel=REL)
    assert by_eps[0.2].parameters["C"] == pytest.approx(6.719670754700, rel=REL)
    assert by_eps[0.05].parameters["C"] == pytest.approx(7.915300243398, rel=REL)
    # eps-halving moves the constant by a few percent, not a factor
    assert by_eps[0.1].parameters["C"] <= 1.25 * by_eps[0.2].parameters["C"]
    assert by_eps[0.05].parameters["C"] <= 1.25 * by_eps[0.1].parameters["C"]


def test_monotone_eps_frozen(sphere_lab):
    family = [sphere_lab["runs"][(e, 8.0)] for e in (0.2, 0.1, 0.05, 0.025)]
    rep = est.check_monotone_eps(family, 0.2)
    assert rep.margin == pytest.approx(6.223949162669e-04, rel=REL)
    assert rep.passed


def test_monotone_eps_requires_sorted_family(sphere_lab):
    family = [sphere_lab["runs"][(e, 8.0)] for e in (0.05, 0.1, 0.2)]
    with pytest.raises(ConfigurationError):
        est.check_monotone_eps(family, 0.2)


def test_corrupted_run_flips_checkers(sphere_lab):
    run = sphere_lab["runs"][(0.1, 8.0)]
    high = shifted_copy(run, 0.5, t_min=0.4)
    assert not est.check_upper_barrier(high, 0.1).passed
    # the lower barrier grants C*(t - t0) of decay, so overshoot it
    low = shifted_copy(run, -3.0, t_min=0.4)
    assert not est.check_lower_barrier(low, 0.1).passed
    family = [sphere_lab["runs"][(0.2, 8.0)], run,
              shifted_copy(sphere_lab["runs"][(0.05, 8.0)], 0.1)]
    assert not est.check_monotone_eps(family, 0.2).passed


def test_corrupted_node_flips_hstat(sphere_lab):
    # phi lowered by 0.3 at one node raises H = t phi_dot - (psi(t) -
    # psi(0)) - n t there by 0.3, from -0.239 to about +0.061 at t = 0.2
    run = sphere_lab["runs"][(0.1, 8.0)]
    assert est.scan_mask(run)[SPIKE_NODE]
    assert est.check_hstat(run).passed
    rep = est.check_hstat(spiked_copy(run, 0.2, SPIKE_NODE, -0.3))
    assert not rep.passed
    assert rep.witness == (0.2, SPIKE_NODE)
    assert rep.aux["max_H"] > 0.05


def test_corrupted_node_flips_comparison(sphere_lab):
    # the upper level raised by 0.01 at one node opens its sup gap over the
    # deeper level by about 0.01 at that checkpoint, where the initial gap
    # and every honest later one agree to 1e-8
    hi, lo = sphere_lab["runs"][(0.1, 8.0)], sphere_lab["runs"][(0.1, 2.0)]
    assert est.check_comparison(hi, lo).passed
    rep = est.check_comparison(spiked_copy(hi, 0.2, SPIKE_NODE, 0.01), lo)
    assert not rep.passed
    assert rep.witness == (0.2, None)
    assert rep.margin < -0.009


def test_corrupted_node_flips_osc(sphere_lab):
    # one level's potential raised by 0.1 at one node lifts its oscillation
    # at that time by about 0.1, past 5% of the family's (about 7e-3)
    family = [sphere_lab["runs"][(0.1, j)] for j in (2.0, 4.0, 8.0, 16.0)]
    family[2] = spiked_copy(family[2], 0.2, SPIKE_NODE, 0.1)
    rep = est.check_osc(family, times=[0.1, 0.2, 0.5])
    assert not rep.passed
    assert rep.witness == (0.2, None)


def test_osc_family_frozen(sphere_lab):
    family = [sphere_lab["runs"][(0.1, j)] for j in (2.0, 4.0, 8.0, 16.0)]
    rep = est.check_osc(family, times=[0.1, 0.2, 0.5])
    assert rep.margin == pytest.approx(6.887725271752e-03, rel=REL)
    assert rep.passed
    with pytest.raises(ConfigurationError):
        est.check_osc(family[:2], times=[0.2])


def test_sphere_envelope_stable_in_eps(sphere_lab):
    env = est.check_lower_envelope(sphere_lab["runs"][(0.1, 8.0)], 2.0)
    assert env.parameters["C"] == pytest.approx(7.680472623465e-01, rel=REL)
    assert env.margin == pytest.approx(3.296013837278e-02, rel=REL)
    env_h = est.check_lower_envelope(sphere_lab["runs"][(0.05, 8.0)], 2.0)
    assert env_h.parameters["C"] == pytest.approx(8.501266387696e-01, rel=REL)
    assert env_h.parameters["C"] <= 1.25 * env.parameters["C"]


def test_reparam_ordering_frozen(sphere_lab):
    psi, phi = sphere_lab["runs"][(0.1, 8.0)], sphere_lab["runs"][(0.1, 2.0)]
    rep = est.check_reparam_ordering(psi, phi, 0.9)
    assert rep.margin == pytest.approx(7.613532578155e-05, rel=REL)
    assert rep.aux["coverage"] == pytest.approx(float(-np.log(0.1)), rel=1e-9)
    assert rep.passed
    # deeper truncation starts lower; the swapped order is not comparable
    with pytest.raises(ConfigurationError):
        est.check_reparam_ordering(phi, psi, 0.9)


def reference_transformed_margin(traj_psi, traj_phi, c_tilde):
    """The exponential-clock view written out, interpolation and all.

    u(tau) = C e^tau psi(s) with s = (1 - e^-tau)/C and psi linear between
    recorded states; the margin is the minimum of u_phi - u_psi over the scan
    mask at tau = -log(1 - C t) for the checkpoints t with 1 - C t > 1e-12.
    """
    mask = est.scan_mask(traj_psi) & est.scan_mask(traj_phi)

    def u_values(traj, tau):
        states = [traj.initial_state] + traj.snapshots
        times = [state.t for state in states]
        s = min(max((1.0 - np.exp(-tau)) / c_tilde, times[0]), times[-1])
        hi = int(np.searchsorted(times, s))
        if hi == 0:
            psi = states[0].phi.values
        elif hi == len(times):
            psi = states[-1].phi.values
        else:
            w = (s - times[hi - 1]) / (times[hi] - times[hi - 1])
            psi = (1.0 - w) * states[hi - 1].phi.values + w * states[hi].phi.values
        return c_tilde * np.exp(tau) * psi

    margin = np.inf
    for state in traj_psi.snapshots:
        arg = 1.0 - c_tilde * state.t
        if arg <= 1e-12:
            break
        tau = -np.log(arg)
        diff = u_values(traj_phi, tau) - u_values(traj_psi, tau)
        margin = min(margin, float(diff[mask].min()))
    return margin


@pytest.mark.parametrize("psi_key, phi_key", [((0.1, 8.0), (0.1, 2.0)),
                                              ((0.2, 8.0), (0.2, 4.0))],
                         ids=["eps0.1", "eps0.2"])
def test_reparam_transformed_margin_matches_view(sphere_lab, psi_key, phi_key):
    psi, phi = sphere_lab["runs"][psi_key], sphere_lab["runs"][phi_key]
    rep = est.check_reparam_ordering(psi, phi, 0.9)
    expect = reference_transformed_margin(psi, phi, 0.9)
    assert rep.aux["transformed_margin"] == pytest.approx(expect, rel=1e-9)


def test_reparam_ordering_validation(sphere_lab):
    psi, phi = sphere_lab["runs"][(0.1, 8.0)], sphere_lab["runs"][(0.1, 2.0)]
    with pytest.raises(ConfigurationError, match="exceed"):
        est.check_reparam_ordering(psi, phi, 0.5)  # 1/T_max = 0.75 here
    with pytest.raises(ConfigurationError, match="no snapshots"):
        est.check_reparam_ordering(dataclasses.replace(psi, snapshots=[]),
                                   dataclasses.replace(phi, snapshots=[]), 0.9)
    # C * t_end = 1.5 > 1: the clock covers all reparametrized time
    assert np.isinf(est.check_reparam_ordering(psi, phi, 1.5).aux["coverage"])


def _attains_masked_min(node, values, mask):
    return values[node] == values[mask].min()


def test_lower_bound_witnesses_frozen(sphere_lab):
    # each witness is the (t, node) where the margin is attained, and the
    # node attains the masked extremum of the certified quantity there
    run = sphere_lab["runs"][(0.1, 8.0)]
    mask = est.scan_mask(run)

    pl = est.check_phidot_lower(run, 0.1, 0.9)
    assert pl.witness == (0.7, (31, 32))
    t_w, node = pl.witness
    osc0 = pl.aux["osc_at_t0"]
    vals = (run.state_at(t_w).phi_dot.values - est.N_DIM * np.log(t_w - 0.1)
            + pl.parameters["A"] * osc0 + pl.parameters["C"])
    assert _attains_masked_min(node, vals, mask)
    assert vals[node] == pl.margin

    family = [sphere_lab["runs"][(e, 8.0)] for e in (0.2, 0.1, 0.05)]
    me = est.check_monotone_eps(family, 0.2)
    assert me.witness == (0.2, (31, 32))
    fam_mask = mask & est.scan_mask(family[0]) & est.scan_mask(family[2])
    fields = [est.tc_potential_values(tr, tr.state_at(0.2)) for tr in family]
    pair = int(np.argmin(me.aux["pair_margins"]))
    diff = fields[pair] - fields[pair + 1]
    assert _attains_masked_min(me.witness[1], diff, fam_mask)
    assert diff[me.witness[1]] == me.margin

    psi, phi = run, sphere_lab["runs"][(0.1, 2.0)]
    ro = est.check_reparam_ordering(psi, phi, 0.9)
    assert ro.witness == (0.00625, (31, 32))
    t_w, node = ro.witness
    pair_mask = est.scan_mask(psi) & est.scan_mask(phi)
    diff = phi.state_at(t_w).phi.values - psi.state_at(t_w).phi.values
    assert _attains_masked_min(node, diff, pair_mask)
    assert diff[node] == ro.aux["plain_margin"]

    env = est.check_lower_envelope(run, 2.0)
    assert env.witness == (0.00625, (28, 0))
    t_w, node = env.witness
    phi_init = est.tc_potential_values(run, run.initial_state)
    curve = ((1.0 - 4.0 * t_w) * phi_init - env.parameters["C"] * t_w
             + est.N_DIM * (t_w * np.log(t_w) - t_w))
    gap = est.tc_potential_values(run, run.state_at(t_w)) - curve
    assert _attains_masked_min(node, gap, mask)
    assert gap[node] == env.margin


def test_l1_trio_frozen(l1_lab):
    frozen = {
        "smooth": 5.722928495104e-04,
        "donaldson": 5.598068497821e-04,
        "zero_lelong": 5.721025014515e-04,
    }
    for name, run in l1_lab["runs"].items():
        rep = est.check_l1_convergence(run, l1_lab["data"][name].phi0)
        d = rep.aux["distances"]
        assert all(a > b for a, b in zip(d, d[1:])), name
        assert rep.margin == pytest.approx(frozen[name], rel=REL), name
        assert rep.passed, name


# ---------------------------------------------------------------------------
# divergence signature


def test_signature_separates_pole_from_admissible(sphere_lab):
    sig_lp = est.divergence_signature(sphere_lab["lp_runs"])
    assert sig_lp["diverging"]
    assert not sig_lp["positivity_loss"]
    assert sig_lp["ratio_constants"] == pytest.approx(
        [6.807539004, 19.54694158, 49.30994135], rel=REL)
    assert all(g >= 1.25 for g in sig_lp["growth_factors"])

    zl_family = [sphere_lab["runs"][(e, 8.0)] for e in (0.2, 0.1, 0.05)]
    sig_zl = est.divergence_signature(zl_family)
    assert not sig_zl["diverging"]
    assert sig_zl["ratio_constants"] == pytest.approx(
        [6.719670755, 7.448571653, 7.915300243], rel=REL)
    assert all(g < 1.25 for g in sig_zl["growth_factors"])


def test_signature_validation(sphere_lab):
    with pytest.raises(ConfigurationError):
        est.divergence_signature(sphere_lab["lp_runs"][:1])
    with pytest.raises(ConfigurationError):
        est.divergence_signature(sphere_lab["lp_runs"][:2])
    with pytest.raises(ConfigurationError):
        est.divergence_signature(list(reversed(sphere_lab["lp_runs"])))
