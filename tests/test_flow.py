"""Steppers, run_flow and the static solver."""

import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import coneflow.flow as flow
from coneflow.background import FlowParams, build_pack, path_constant, select_k
from coneflow.config import build_lab, parse_config
from coneflow.errors import ConfigurationError, PositivityError, SolverError
from coneflow.flow import (
    Rejection,
    Scheme,
    StepControl,
    Termination,
    flow_rhs_values,
    metric_density_values,
    run_family,
    run_flow,
    static_ma_solve,
)
from coneflow.initial_data import flow_level_values
from coneflow.surfaces import (
    ScalarField,
    SurfaceKind,
    build_surface,
    ddbar_density_values,
    divisor_section,
    integrate,
)

FOUR_PI_SQ = 4.0 * np.pi**2


@pytest.fixture(scope="module")
def torus():
    # volume 1/2 puts the fundamental heat rate at exactly 4 pi^2
    return build_surface(SurfaceKind.TORUS, 32, 0.5)


@pytest.fixture(scope="module")
def torus_pack(torus):
    return build_pack(torus, None, FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=0.2))


@pytest.fixture(scope="module")
def sphere():
    return build_surface(SurfaceKind.SPHERE_P1, 64, 2.0)


@pytest.fixture(scope="module")
def sphere_pack(sphere):
    divisor = divisor_section(sphere, [(np.pi / 2, np.pi)])
    c_path = path_constant(2.0, -1.5, 1.0)
    k = select_k(sphere, divisor, 0.5, [0.1], equivalence_C=c_path)
    params = FlowParams(gamma=0.5, epsilon=0.1, k=k, T=1.0)
    return build_pack(sphere, divisor, params)


SPHERE_CPS = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]


@pytest.fixture(scope="module")
def sphere_traj(sphere_pack):
    return run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                    StepControl(), SPHERE_CPS)


def omega_mean(surface, values):
    return integrate(surface, values, against_area_weight=True) / surface.total_volume


# ---------------------------------------------------------------------------
# right-hand side


def test_stationary_rhs_zero(torus, torus_pack):
    rhs = flow_rhs_values(torus_pack, 0.0, np.zeros(torus.shape))
    assert np.abs(rhs).max() == 0.0


def test_rhs_shift_invariance(sphere, sphere_pack):
    th, _ = sphere.meshgrid()
    phi = 0.01 * np.cos(th) ** 2
    a = flow_rhs_values(sphere_pack, 0.2, phi)
    b = flow_rhs_values(sphere_pack, 0.2, phi + 17.25)
    assert np.abs(a - b).max() <= 1e-10


def test_rhs_positivity_error_reports_nodes(torus, torus_pack):
    x, _ = torus.meshgrid()
    phi = 0.1 * np.cos(2 * np.pi * x)  # density 0.5 - 1.97 cos < 0 at the crest
    with pytest.raises(PositivityError) as err:
        flow_rhs_values(torus_pack, 0.0, phi)
    assert err.value.nodes


def flow_rhs_unreduced_values(pack, t, phi_values):
    """Velocity of ``flow_rhs_values`` through the untransformed equation.

    Shifting by k*chi moves the cone factor out of the background and into
    an explicit weight; agreement with ``flow_rhs_values`` to ~1e-12 is an
    identity, not a convergence statement.  Evaluated in extended precision
    so the comparison sees the algebraic identity, not the rounding of the
    second differences against the tiny pole-row densities.
    """
    params = pack.params
    ld = np.longdouble
    total = phi_values.astype(ld) + ld(params.k) * pack.chi.values.astype(ld)
    density = (pack.surface.area_weight.astype(ld)
               + ld(t) * pack.nu_gamma.values.astype(ld)
               + ddbar_density_values(pack.surface, total))
    if density.min() <= 0.0:
        raise PositivityError(f"unreduced density non-positive at t={t:.6g}")
    out = np.log(density / pack.surface.area_weight.astype(ld))
    out = out + pack.h_gamma.values.astype(ld)
    if pack.divisor is not None and params.gamma < 1.0:
        out = out + ld(1.0 - params.gamma) * np.log(
            ld(params.epsilon) ** 2 + pack.divisor.s_h_sq.astype(ld))
    return out.astype(float)


def test_unreduced_form_identity(sphere, sphere_pack):
    # the substitution phi_TC = phi + k*chi turns the reduced equation back
    # into the raw one; both evaluations must agree to rounding
    th, _ = sphere.meshgrid()
    for phi in (np.zeros(sphere.shape), 0.01 * np.cos(th) ** 2):
        for t in (0.0, 0.3, 0.9):
            a = flow_rhs_values(sphere_pack, t, phi)
            b = flow_rhs_unreduced_values(sphere_pack, t, phi)
            assert np.abs(a - b).max() <= 1e-12


# ---------------------------------------------------------------------------
# stepping


def test_stationary_step_exact(torus, torus_pack):
    traj = run_flow(torus_pack, 0.0, np.zeros(torus.shape), StepControl(),
                    [0.1, 0.2])
    assert traj.termination is Termination.REACHED_T
    for snap in traj.snapshots:
        assert np.abs(snap.phi.values).max() == 0.0
        assert np.abs(snap.phi_dot.values).max() == 0.0


def test_heat_decay_rate(torus, torus_pack):
    # linearized flow is the heat semigroup; the conserved omega-mean is
    # removed before fitting (the log nonlinearity shifts it at second order)
    x, _ = torus.meshgrid()
    phi0 = 0.01 * np.cos(2 * np.pi * x)
    ctrl = StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-4, dt_max=1e-3)
    cps = [0.01, 0.02, 0.03, 0.04, 0.05]
    traj = run_flow(torus_pack, 0.0, phi0, ctrl, cps)
    sups = [
        np.abs(s.phi.values - omega_mean(torus, s.phi.values)).max()
        for s in traj.snapshots
    ]
    rate = -np.polyfit(cps, np.log(sups), 1)[0]
    assert rate == pytest.approx(FOUR_PI_SQ, rel=0.05)


def test_scheme_cross_agreement(torus, torus_pack):
    x, _ = torus.meshgrid()
    phi0 = 0.01 * np.cos(2 * np.pi * x)
    cps = [0.05]
    rk = run_flow(torus_pack, 0.0, phi0,
                  StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-4,
                              dt_max=1e-3), cps)
    be = run_flow(torus_pack, 0.0, phi0,
                  StepControl(scheme=Scheme.SEMI_IMPLICIT_NEWTON, dt_init=1e-4,
                              dt_max=5e-4), cps)
    diff = np.abs(rk.snapshots[0].phi.values - be.snapshots[0].phi.values).max()
    assert diff <= 1e-4


@pytest.mark.parametrize("scheme,dts,expected,window", [
    # implicit: any dt; explicit: inside the 2/lambda_max ~ 4.9e-4 stability cap
    (Scheme.SEMI_IMPLICIT_NEWTON, (2e-3, 1e-3, 5e-4), 2.0, 0.5),
    (Scheme.EXPLICIT_RK2, (2.4e-4, 1.2e-4, 6e-5), 4.0, 1.2),
])
def test_dt_refinement_order(torus, torus_pack, scheme, dts, expected, window):
    x, _ = torus.meshgrid()
    phi0 = 0.005 * np.cos(2 * np.pi * x)
    sols = []
    for dt in dts:
        ctrl = StepControl(scheme=scheme, dt_init=dt, dt_max=dt, dt_min=dt / 64,
                           error_tol=1.0)
        traj = run_flow(torus_pack, 0.0, phi0, ctrl, [0.048])
        sols.append(traj.snapshots[0].phi.values)
    e_coarse = np.abs(sols[0] - sols[1]).max()
    e_fine = np.abs(sols[1] - sols[2]).max()
    factor = e_coarse / e_fine
    assert factor >= 1.8
    assert abs(factor - expected) <= window


def test_shift_equivariance(torus, torus_pack):
    x, _ = torus.meshgrid()
    phi0 = 0.005 * np.cos(2 * np.pi * x)
    cps = [0.02, 0.05]
    base = run_flow(torus_pack, 0.0, phi0, StepControl(), cps)
    lift = run_flow(torus_pack, 0.0, phi0 + 0.3, StepControl(), cps)
    for a, b in zip(base.snapshots, lift.snapshots):
        assert np.abs((b.phi.values - a.phi.values) - 0.3).max() <= 1e-10
    assert lift.series["sup_phi"][-1] - base.series["sup_phi"][-1] == pytest.approx(0.3, abs=1e-10)


def test_determinism(sphere_pack):
    cps = [0.05, 0.1]
    a = run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                 StepControl(), cps)
    b = run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                 StepControl(), cps)
    for key in a.series:
        assert np.array_equal(a.series[key], b.series[key])
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.phi.values, sb.phi.values)


def test_sphere_run_reaches_horizon(sphere_traj):
    assert sphere_traj.termination is Termination.REACHED_T
    assert sphere_traj.checkpoint_times[-1] == pytest.approx(1.0)
    # strict parabolicity along the whole run, uniformly on [0.1, 1]
    assert all(s.min_metric_density > 0 for s in sphere_traj.snapshots)
    ts = sphere_traj.series["t"]
    late = sphere_traj.series["min_ratio"][ts >= 0.1]
    assert late.min() > 0.05


def test_trajectory_series_alignment(sphere_traj):
    n = len(sphere_traj.series["t"])
    for key, arr in sphere_traj.series.items():
        assert len(arr) == n, key
    assert (np.diff(sphere_traj.series["t"]) > 0).all()
    assert sphere_traj.series["t"][0] == 0.0
    with pytest.raises(ConfigurationError):
        sphere_traj.state_at(0.123456)
    snap = sphere_traj.state_at(0.3)
    assert snap.t == pytest.approx(0.3)


def test_cached_phidot_consistency(sphere_traj, sphere_pack):
    for snap in sphere_traj.snapshots[::3]:
        fresh = flow_rhs_values(sphere_pack, snap.t, snap.phi.values)
        assert np.abs(fresh - snap.phi_dot.values).max() <= 1e-12


def test_run_flow_validation(torus, torus_pack):
    zeros = np.zeros(torus.shape)
    with pytest.raises(ConfigurationError, match="increasing"):
        run_flow(torus_pack, 0.0, zeros, StepControl(), [0.1, 0.05])
    with pytest.raises(ConfigurationError, match="increasing"):
        run_flow(torus_pack, 0.0, zeros, StepControl(), [])
    with pytest.raises(ConfigurationError, match="T="):
        run_flow(torus_pack, 0.0, zeros, StepControl(), [0.1, 5.0])
    with pytest.raises(PositivityError, match="initial"):
        x, _ = torus.meshgrid()
        run_flow(torus_pack, 0.0, 0.1 * np.cos(2 * np.pi * x), StepControl(),
                 [0.1])


def test_step_floor_termination(torus, torus_pack):
    # near-degenerate initial density plus an unreachable error tolerance:
    # every explicit step is rejected down to the floor
    x, _ = torus.meshgrid()
    phi0 = 0.02525 * np.cos(2 * np.pi * x)
    ctrl = StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-6, dt_min=1e-7,
                       dt_max=1e-5, error_tol=1e-14)
    traj = run_flow(torus_pack, 0.0, phi0, ctrl, [0.1])
    assert traj.termination is Termination.STEP_FLOOR
    assert not traj.snapshots
    assert traj.initial_state.rejected_steps == 0


def test_newton_positivity_loss_is_reported(torus, torus_pack):
    # the path density goes negative at one node for every t > 0, so each
    # implicit attempt starts from a non-positive density
    pack = dataclasses.replace(torus_pack)
    node = (5, 7)

    def dropped_path(t):
        path = torus_pack.omega_path_eps(t).copy()
        if t > 0.0:
            path[node] = -1.0
        return path

    pack.omega_path_eps = dropped_path
    traj = run_flow(pack, 0.0, np.zeros(torus.shape), StepControl(), [0.1])
    assert traj.termination is Termination.POSITIVITY_LOSS
    assert not traj.snapshots


def test_rk2_step_floor_after_recovered_positivity(torus, torus_pack,
                                                  monkeypatch):
    # a positivity rejection that a smaller step recovers from must not
    # label a later step-floor stop
    calls = []

    def scripted(pack, state, control, dt):
        calls.append(dt)
        if len(calls) == 1:
            raise PositivityError("stage density non-positive")
        if len(calls) == 2:
            return state.phi.values.copy(), 0.0
        return Rejection.ERROR_TOL

    monkeypatch.setattr(flow, "_attempt_rk2", scripted)
    ctrl = StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-4, dt_min=1e-6,
                       dt_max=1e-3)
    traj = run_flow(torus_pack, 0.0, np.zeros(torus.shape), ctrl, [0.1])
    assert len(calls) > 3
    assert traj.termination is Termination.STEP_FLOOR


class _CountedLU:
    """A factor from ``_LUCounter``: counts its solves, takes weak refs."""

    def __init__(self, lu, counter):
        self._lu, self._counter = lu, counter

    def solve(self, rhs):
        self._counter.solves += 1
        return self._lu.solve(rhs)


class _LUCounter:
    """Counts the factorizations and solves of ``flow.spla.splu``.

    Each factor goes out behind a proxy, because SuperLU objects take no
    weak references: ``alive_at_build`` lists, for every factorization, how
    many earlier factors were still alive when it started.
    """

    def __init__(self, monkeypatch):
        self.solves = 0
        self.fill = []              # nonzeros in L + U, per factorization
        self.alive_at_build = []
        self._refs = []
        real_splu = flow.spla.splu

        def splu(*args, **kwargs):
            self.alive_at_build.append(
                sum(ref() is not None for ref in self._refs))
            lu = real_splu(*args, **kwargs)
            self.fill.append(lu.L.nnz + lu.U.nnz)
            proxy = _CountedLU(lu, self)
            self._refs.append(weakref.ref(proxy))
            return proxy

        monkeypatch.setattr(flow.spla, "splu", splu)

    @property
    def factorizations(self):
        return len(self.fill)

    def reset(self):
        self.solves = 0
        self.fill.clear()
        self.alive_at_build.clear()
        self._refs.clear()


def _rounding_floor(pack, dt, phi, density):
    """Bound on what rounding moves the backward-Euler residual by when it
    is evaluated through the roll stencil on the uncentred phi: one unit of
    |phi| in every stencil term, over the density, times dt."""
    dd = pack.surface.ddbar_matrix()
    row = np.asarray(abs(dd).sum(axis=1)).reshape(phi.shape)
    return dt * np.finfo(float).eps * np.abs(phi).max() * (row / density).max()


def test_chord_solver_reuses_factors(sphere_pack, monkeypatch):
    # one LU factor serves many steps, and every accepted step solves the
    # backward-Euler equation to newton_tol in the solver's own centred
    # evaluation; the independent stencil evaluation of flow_rhs_values on
    # the uncentred phi agrees with it to its rounding floor.  The factor is
    # ordered for the symmetric pattern (fill 167,400 at N=64 under
    # MMD_AT_PLUS_A, 247,738 under the default COLAMD)
    lu = _LUCounter(monkeypatch)
    final = []
    real_chord = flow._chord

    def recording_chord(*args, **kwargs):
        u, history, cause = real_chord(*args, **kwargs)
        if cause is None:
            final.append(history[-1])
        return u, history, cause

    residuals = []
    real_finalize = flow._finalize

    def checked_finalize(pack, state, phi_new, t_new):
        dt = t_new - state.t
        density = metric_density_values(pack, t_new, phi_new)
        rhs = flow_rhs_values(pack, t_new, phi_new, density=density)
        residuals.append((float(np.abs(phi_new - state.phi.values
                                       - dt * rhs).max()),
                          _rounding_floor(pack, dt, phi_new, density)))
        return real_finalize(pack, state, phi_new, t_new)

    monkeypatch.setattr(flow, "_chord", recording_chord)
    monkeypatch.setattr(flow, "_finalize", checked_finalize)
    control = StepControl()
    traj = run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                    control, SPHERE_CPS)
    steps = traj.snapshots[-1].step_count
    assert traj.termination is Termination.REACHED_T
    assert len(final) == len(residuals) == steps
    assert max(final) <= control.newton_tol
    for res, floor in residuals:
        assert floor <= 0.5 * control.newton_tol
        assert res <= control.newton_tol + floor
    assert 4 * lu.factorizations <= steps
    assert max(lu.fill) <= 200_000


LEVEL_FAMILY_CFG = """\
[surface]
kind = sphere
n = 32
v = 2.0

[divisor]
points = 1.5707963267948966, 0.0

[flow]
gamma = 0.5
eps = 0.2
t = 0.5

[initial]
kind = zero_lelong(alpha=0.5, c=0.05)
j = 2, 4, 8

[checkpoints]
times = 0.0125, 0.025, 0.05, 0.1, 0.2, 0.5
"""


def _eps_family(text):
    """(config, pack, members) of the one eps of a config's level family."""
    config = parse_config(text)
    lab = build_lab(config)
    members = [(f"j{j:g}", j, flow_level_values(lab.datum, 0.2, j, config.sigma))
               for j in config.j_list]
    return config, lab.packs[0.2], members


@pytest.fixture(scope="module")
def level_family():
    """The truncation levels j = 2, 4, 8 of one zero-Lelong eps on the sphere."""
    return _eps_family(LEVEL_FAMILY_CFG)


def test_family_matches_solo_runs(level_family, monkeypatch):
    # one factor held across the levels: each member still solves its own
    # equation to newton_tol, so it takes the solo run's steps and lands
    # within rounding of its checkpoints, on far fewer factorizations
    config, pack, members = level_family
    lu = _LUCounter(monkeypatch)
    solo = [run_flow(pack, j, phi, config.control, config.checkpoints,
                     run_id=run_id) for run_id, j, phi in members]
    solo_calls = lu.factorizations
    lu.reset()
    family = run_family(pack, members, config.control, config.checkpoints)
    assert solo_calls >= 6
    assert 2 * lu.factorizations <= solo_calls
    for a, b in zip(solo, family, strict=True):
        assert b.run_id == a.run_id
        assert b.termination is a.termination is Termination.REACHED_T
        assert len(b.snapshots) == len(a.snapshots) == 6
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sb.t == sa.t
            assert sb.step_count == sa.step_count
            assert sb.rejected_steps == sa.rejected_steps
            assert np.abs(sb.phi.values - sa.phi.values).max() <= 1e-9


def test_explicit_family_is_bitwise_solo(torus, torus_pack):
    # the explicit scheme holds no factor, so a family is its solo runs
    x, _ = torus.meshgrid()
    members = [(f"a{a:g}", 0.0, a * np.cos(2 * np.pi * x))
               for a in (0.01, 0.005, 0.0025)]
    ctrl = StepControl(scheme=Scheme.EXPLICIT_RK2, dt_init=1e-4, dt_max=1e-3)
    cps = [0.01, 0.02]
    family = run_family(torus_pack, members, ctrl, cps)
    for (run_id, j, phi), b in zip(members, family, strict=True):
        a = run_flow(torus_pack, j, phi, ctrl, cps, run_id=run_id)
        assert b.termination is a.termination
        assert [s.step_count for s in b.snapshots] == \
            [s.step_count for s in a.snapshots]
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sb.phi.values.tobytes() == sa.phi.values.tobytes()
        for key in a.series:
            assert b.series[key].tobytes() == a.series[key].tobytes()


def test_family_member_error_ends_that_member_only(level_family):
    # a member whose data loses positivity at t=0 raises before its first
    # solve, so the other levels share the factor exactly as without it
    config, pack, members = level_family
    i, j = np.indices(pack.surface.shape)
    bad = ("bad", 4.0, members[1][2].values + (-1.0) ** (i + j))
    with_bad = run_family(pack, [members[0], bad, members[2]],
                          config.control, config.checkpoints)
    without = run_family(pack, [members[0], members[2]],
                         config.control, config.checkpoints)
    assert isinstance(with_bad[1], PositivityError)
    for a, b in zip(without, [with_bad[0], with_bad[2]], strict=True):
        assert b.run_id == a.run_id
        assert b.termination is a.termination is Termination.REACHED_T
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            assert sb.step_count == sa.step_count
            assert sb.phi.values.tobytes() == sa.phi.values.tobytes()


def test_one_factor_alive_at_a_time(sphere_pack, level_family, monkeypatch):
    # a stale factor is dropped before its replacement is built, so a solo
    # run and a family each hold one factor's memory at most
    config, pack, members = level_family
    lu = _LUCounter(monkeypatch)
    run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
             StepControl(), SPHERE_CPS)
    assert lu.factorizations >= 2
    assert lu.alive_at_build == [0] * lu.factorizations
    lu.reset()
    run_family(pack, members, config.control, config.checkpoints)
    assert lu.factorizations >= 2
    assert lu.alive_at_build == [0] * lu.factorizations


def _plain_chord(monkeypatch):
    """Make every chord step a plain one: ``_chord`` gets no weight."""
    real_chord = flow._chord

    def plain(*args, weight=None, **kwargs):
        return real_chord(*args, **kwargs)

    monkeypatch.setattr(flow, "_chord", plain)


def test_rescaled_steps_keep_the_trajectory(sphere_pack, level_family,
                                            monkeypatch):
    # the rescaled chord steps change how fast a solve converges, not what
    # it converges to: the same steps, rejections and terminations as plain
    # steps alone, and phi within 1e-9
    config, pack, members = level_family
    lu = _LUCounter(monkeypatch)

    def solo_and_family():
        solo = run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                        StepControl(), SPHERE_CPS)
        solo_solves = lu.solves
        family = run_family(pack, members, config.control, config.checkpoints)
        solves = (solo_solves, lu.solves - solo_solves)
        lu.reset()
        return [solo] + family, solves

    rescaled, rescaled_solves = solo_and_family()
    _plain_chord(monkeypatch)
    plain, plain_solves = solo_and_family()
    # fewer solves where the stiff modes carry the residual: 683 against
    # 774 on the N=64 sphere run, and 615 against 850 on the N=32 level
    # family (7 factorizations against 9), whose later levels start from
    # their sibling's correction and take the rescaled step first
    assert rescaled_solves[0] < plain_solves[0]
    assert rescaled_solves[1] < plain_solves[1]
    for a, b in zip(plain, rescaled, strict=True):
        assert b.termination is a.termination is Termination.REACHED_T
        assert len(b.snapshots) == len(a.snapshots)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sb.t == sa.t
            assert sb.step_count == sa.step_count
            assert sb.rejected_steps == sa.rejected_steps
            assert np.abs(sb.phi.values - sa.phi.values).max() <= 1e-9


def _no_sibling_starts(monkeypatch):
    """Make every holder a solo run's: no step starts from a sibling."""
    real_held = flow._Held
    monkeypatch.setattr(flow, "_Held", lambda siblings=False: real_held())


def test_sibling_start_keeps_the_trajectory(level_family, monkeypatch):
    # a later level that starts from its sibling's Newton correction still
    # solves its own equation to newton_tol: the same steps, rejections and
    # terminations as a cold start, phi within 1e-9, and on the level
    # family about half the solves (615 against 1,207, on 7 factorizations
    # against 8).  Levels that really differ (under sigma = 0.002, j =
    # 0.005, 0.01, 0.02 are 5e-3 and 1e-2 apart at t=0, where j = 2, 4, 8
    # are 1e-4 apart) keep the trajectory as well.  A solo run records no
    # correction, so it is bitwise the same either way
    config, pack, members = level_family
    biting = _eps_family(LEVEL_FAMILY_CFG.replace(
        "j = 2, 4, 8", "j = 0.005, 0.01, 0.02\nsigma = 0.002"))
    lu = _LUCounter(monkeypatch)

    def runs():
        out = []
        lu.reset()
        for cfg, fam_pack, fam_members in ((config, pack, members), biting):
            out.append((run_family(fam_pack, fam_members, cfg.control,
                                   cfg.checkpoints),
                        lu.solves, lu.factorizations))
            lu.reset()
        solo = run_flow(pack, members[2][1], members[2][2], config.control,
                        config.checkpoints)
        return out, solo

    (level_on, biting_on), solo_on = runs()
    _no_sibling_starts(monkeypatch)
    (level_off, biting_off), solo_off = runs()
    assert level_on[1] <= 0.6 * level_off[1]
    assert level_on[2] <= level_off[2]
    for (on, *_), (off, *_) in ((level_on, level_off),
                                (biting_on, biting_off)):
        for a, b in zip(off, on, strict=True):
            assert b.termination is a.termination is Termination.REACHED_T
            assert len(b.snapshots) == len(a.snapshots)
            for sa, sb in zip(a.snapshots, b.snapshots):
                assert sb.t == sa.t
                assert sb.step_count == sa.step_count
                assert sb.rejected_steps == sa.rejected_steps
                assert np.abs(sb.phi.values - sa.phi.values).max() <= 1e-9
    assert [s.step_count for s in solo_on.snapshots] == \
        [s.step_count for s in solo_off.snapshots]
    for sa, sb in zip(solo_off.snapshots, solo_on.snapshots, strict=True):
        assert sb.phi.values.tobytes() == sa.phi.values.tobytes()
    for key in solo_off.series:
        assert solo_on.series[key].tobytes() == solo_off.series[key].tobytes()


def test_chord_weight_relates_the_jacobians(sphere_pack, monkeypatch):
    # what the rescaled step rests on: with w = density/dt, the Jacobian
    # built at one (density, dt) is I + diag(w0/w)(J0 - I) against the one
    # built at another, to rounding
    builds = []
    real_chord = flow._chord

    def recording_chord(u, residual, jacobian, *args, weight=None, **kwargs):
        def recorded(aux):
            builds.append((jacobian(aux), weight(aux)))
            return builds[-1][0]
        return real_chord(u, residual, recorded, *args, weight=weight,
                          **kwargs)

    monkeypatch.setattr(flow, "_chord", recording_chord)
    run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
             StepControl(), SPHERE_CPS)
    assert len(builds) >= 2
    eye = sp.identity(sphere_pack.surface.shape[0] ** 2, format="csr")
    for (jac0, w0), (jac, w) in zip(builds, builds[1:]):
        ratio = w0 / w
        assert ratio.max() - ratio.min() > 1e-3
        predicted = eye + sp.diags(ratio) @ (jac0 - eye)
        assert abs(predicted - jac).max() <= 1e-14 * abs(jac).max()


def _force_colamd(monkeypatch):
    real_splu = flow.spla.splu

    def colamd_splu(a, **kwargs):
        return real_splu(a, **{**kwargs, "permc_spec": "COLAMD"})

    monkeypatch.setattr(flow.spla, "splu", colamd_splu)


def test_ordering_leaves_flow_unchanged(sphere_traj, sphere_pack, monkeypatch):
    # the fill-reducing ordering changes rounding only: the same run under
    # the default COLAMD takes the same steps to the same checkpoints
    _force_colamd(monkeypatch)
    ref = run_flow(sphere_pack, 0.0, np.zeros(sphere_pack.surface.shape),
                   StepControl(), sphere_traj.checkpoint_times)
    assert ref.termination is sphere_traj.termination is Termination.REACHED_T
    for a, b in zip(sphere_traj.snapshots, ref.snapshots):
        assert a.step_count == b.step_count
        assert a.rejected_steps == b.rejected_steps == 0
        assert np.abs(a.phi.values - b.phi.values).max() <= 1e-9


def test_doubled_grid_reaches_horizon_without_rejections(doubled_lab):
    # at N=128 the pole rows once stalled just above newton_tol from t~0.84
    run = doubled_lab["run"]
    assert run.termination is Termination.REACHED_T
    assert run.snapshots[-1].t == pytest.approx(1.0)
    assert run.snapshots[-1].rejected_steps == 0


def test_scan_exclusion_masks_extrema(torus, torus_pack):
    # spike small enough to keep the metric positive at the node
    phi0 = np.zeros(torus.shape)
    phi0[3, 4] = 1e-4
    mask = np.zeros(torus.shape, dtype=bool)
    mask[3, 4] = True
    traj = run_flow(torus_pack, 0.0, phi0, StepControl(), [0.01],
                    scan_exclude=mask)
    assert traj.series["sup_phi"][0] == 0.0


def test_control_validation():
    with pytest.raises(ConfigurationError):
        StepControl(dt_init=1e-2, dt_max=1e-3)
    with pytest.raises(ConfigurationError):
        StepControl(dt_min=1e-3, dt_init=1e-3)
    with pytest.raises(ConfigurationError):
        StepControl(safety=0.0)
    with pytest.raises(ConfigurationError):
        StepControl(max_newton_iters=0)


# ---------------------------------------------------------------------------
# static Monge-Ampere solve


def test_static_trivial_zero():
    torus = build_surface(SurfaceKind.TORUS, 32, 1.0)
    sol = static_ma_solve(torus, torus.area_weight, 0.0)
    assert np.abs(sol.values).max() == 0.0


def test_static_manufactured_solution():
    torus = build_surface(SurfaceKind.TORUS, 32, 4.0)
    x, _ = torus.meshgrid()
    u_star = 0.1 * np.cos(2 * np.pi * x)
    dens = torus.area_weight + ddbar_density_values(torus, u_star)
    g = np.log(dens / torus.area_weight) - u_star
    sol = static_ma_solve(torus, torus.area_weight, g)
    assert np.abs(sol.values - u_star).max() <= 1e-8


def test_static_sphere_cone_weight_stability(sphere):
    # conical volume data: solutions stay bounded and epsilon-stable
    divisor = divisor_section(sphere, [(np.pi / 2, np.pi)])
    sups = []
    for eps in (0.1, 0.05):
        data = sphere.area_weight / (eps**2 + divisor.s_h_sq) ** 0.5
        sol = static_ma_solve(sphere, data, 0.0)
        resid = (sphere.area_weight
                 + ddbar_density_values(sphere, sol.values)
                 - np.exp(sol.values) * data)
        assert np.abs(resid).max() <= 1e-9
        sups.append(float(np.abs(sol.values).max()))
    assert sups[0] < 5.0 and sups[1] < 5.0
    assert abs(sups[0] - sups[1]) <= 0.3 * max(sups)


def test_static_ordering_leaves_solution_unchanged(sphere, monkeypatch):
    divisor = divisor_section(sphere, [(np.pi / 2, np.pi)])
    data = sphere.area_weight / (0.1**2 + divisor.s_h_sq) ** 0.5
    sol = static_ma_solve(sphere, data, 0.0)
    _force_colamd(monkeypatch)
    ref = static_ma_solve(sphere, data, 0.0)
    assert np.abs(sol.values - ref.values).max() <= 1e-9


def test_static_validation_and_failure():
    torus = build_surface(SurfaceKind.TORUS, 32, 1.0)
    with pytest.raises(ConfigurationError, match="positive"):
        static_ma_solve(torus, -torus.area_weight, 0.0)
    x, _ = torus.meshgrid()
    u_star = 0.05 * np.cos(2 * np.pi * x)
    dens = torus.area_weight + ddbar_density_values(torus, u_star)
    g = np.log(dens / torus.area_weight) - u_star
    with pytest.raises(SolverError) as err:
        static_ma_solve(torus, torus.area_weight, g, max_iters=1)
    assert err.value.residual_history
