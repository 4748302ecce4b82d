"""Executable certificates for the flow's a-priori estimates.

Each checker turns one proved inequality into a margin over a trajectory
or a family of trajectories: margin >= 0 means the discrete run satisfies
the estimate, and ``passed`` allows each checker's fixed tolerance for
scheme truncation; scaling ``EstimateReport.tolerance`` loosens or tightens
it.  Constants that the proofs construct explicitly are recomputed
from the background pack ("pack" mode); constants the proofs only assert
to exist are fitted at one sample and then verified globally ("fitted"
mode).  Every report records which mode produced its constant.

Checkers are pure functions of recorded trajectories; nothing here
re-integrates the flow.  ``ESTIMATES`` maps each estimate id to the shape of
the run family it reads, its checker, whether it is in the default
battery and the selection parameters the checker reads; the docstring
after it says what each entry certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .background import BackgroundPack
from .errors import ConfigurationError
from .flow import (
    Scheme,
    Termination,
    Trajectory,
    at_checkpoint,
    metric_density_values,
    static_ma_solve,
)
from .surfaces import ScalarField, integrate

N_DIM = 1  # complex dimension of the model surfaces

DEFAULT_TOLERANCE = 1e-6
MONOTONE_EPS_TOLERANCE = 1e-5
L1_LEVELS = 6               # l1_convergence: dyadic times t_top 2^-m, m < 6
SIGNATURE_GROWTH = 1.25     # signature: ratio growth per eps-halving


@dataclass(eq=False)
class EstimateReport:
    """Outcome of one inequality check.

    ``margin`` is the minimum over all checked points of [bound - quantity],
    ``witness`` the (t, node) location where that minimum is attained.
    """

    estimate_id: str
    run_ids: tuple
    parameters: dict
    margin: float
    witness: tuple | None
    tolerance: float
    aux: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -self.tolerance)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.estimate_id}: margin={self.margin:.3e} "
                f"(tol={self.tolerance:.1e}, runs={','.join(self.run_ids)})")


# ---------------------------------------------------------------------------
# shared helpers


def tc_potential_values(traj: Trajectory, state) -> np.ndarray:
    """Unreduced potential phi + k*chi at a recorded state."""
    return state.phi.values + traj.pack.params.k * traj.pack.chi.values


def scan_mask(traj: Trajectory) -> np.ndarray:
    return ~traj.scan_exclude


def truncation_scale(traj: Trajectory) -> float:
    """Accumulated per-step solver slack, the scheme's comparison defect.

    The implicit scheme is monotone, so ordered data stay ordered up to the
    Newton stopping residual per step; the explicit scheme is bounded by its
    embedded error tolerance per accepted step.
    """
    control = traj.control
    steps = traj.snapshots[-1].step_count if traj.snapshots else 0
    per_step = (control.error_tol if control.scheme is Scheme.EXPLICIT_RK2
                else control.newton_tol)
    return float(steps) * per_step


def _same_family(a: Trajectory, b: Trajectory, check_eps: bool = True) -> bool:
    """Same surface and flow parameters, the eps aside unless check_eps."""
    pa, pb = a.pack.params, b.pack.params
    return a.pack.surface is b.pack.surface and pa == (
        pb if check_eps else replace(pb, epsilon=pa.epsilon))


def _same_grid(a: Trajectory, b: Trajectory) -> bool:
    ta, tb = a.checkpoint_times, b.checkpoint_times
    return len(ta) == len(tb) and all(
        at_checkpoint(y, x) for x, y in zip(ta, tb))


def _pair_tolerance(a: Trajectory, b: Trajectory) -> float:
    return 1e-8 + 2.0 * max(truncation_scale(a), truncation_scale(b))


def _argmax_node(values: np.ndarray, mask: np.ndarray) -> tuple:
    """The first masked node where ``values`` is largest."""
    node = np.argmax(np.where(mask, values, -np.inf))
    return tuple(int(v) for v in np.unravel_index(node, values.shape))


def _scan(samples, mask: np.ndarray):
    """margin, witness and per-sample maxima of one nodewise certificate.

    ``samples`` yields (t, bound, q): the certificate is q <= bound on the
    masked nodes at time t.  margin = min over samples of bound - max q[mask];
    witness = (t, node) of the first sample that strictly lowers it; ``tops``
    lists each sample's max q[mask].  A lower bound 0 <= v goes in as
    (t, 0.0, -v): negation is exact, so 0.0 - max(-v) is min(v) bit for bit
    (a -0.0 minimum reads +0.0), and argmax(-v) is the first argmin of v.
    """
    margin, witness, tops = np.inf, None, []
    for t, bound, q in samples:
        top = float(q[mask].max())
        tops.append(top)
        gap = bound - top
        if gap < margin:
            margin = gap
            witness = (t, _argmax_node(q, mask))
    return margin, witness, tops


def _spread_node(fields, oscs, masks) -> tuple:
    """The node carrying a spread of oscillations: the extremum of the run
    with the largest osc that lies further from the same extremum of the
    run with the smallest."""
    a, b = np.argmax(oscs), np.argmin(oscs)
    fa, fb = fields[a][masks[a]], fields[b][masks[b]]
    up = fa.max() - fb.max() >= fb.min() - fa.min()
    return _argmax_node(fields[a] if up else -fields[a], masks[a])


def _osc(values: np.ndarray, mask: np.ndarray) -> float:
    sel = values[mask]
    return float(sel.max() - sel.min())


def barrier_slope_constant(pack: BackgroundPack, t0: float, t_end: float,
                           sign: float = 1.0) -> float:
    """sup over nodes and t in [t0, t_end] of sign*[log(path(t)/cone) + F].

    The density path is affine in t, so the nodewise sup over t sits at an
    endpoint; scanning the two endpoints is exact, not a sampling.
    """
    cone = pack.omega_cone_eps.values
    best = -np.inf
    for t in (t0, t_end):
        quantity = sign * (np.log(pack.omega_path_eps(t) / cone)
                           + pack.F_eps.values)
        best = max(best, float(quantity.max()))
    return best


# ---------------------------------------------------------------------------
# barriers


def _check_barrier(traj: Trajectory, t0: float, sign: float) -> EstimateReport:
    """Upper (sign=+1) or lower (sign=-1) barrier, one body for both: the
    sup of sign*phi rises from its value at t0 by at most C (t - t0).

    Maximum principle: where sign*phi(t) peaks, its ddbar stencil is <= 0
    (off-diagonal weights >= 0, rows summing to 0), so there sign*(d phi/dt)
    <= sign*[log(path/cone) + F] <= C.  The backward-Euler step makes the
    same argument at its new time level, so a run obeys it to newton_tol
    per step.  It speaks of phi, not of where phi + k chi peaks."""
    estimate_id = "upper_barrier" if sign > 0 else "lower_barrier"
    idx = traj.checkpoint_index(t0)
    later = traj.snapshots[idx + 1:]
    if not later:
        raise ConfigurationError(
            f"{estimate_id.replace('_', ' ')} needs a checkpoint after t0")
    mask = scan_mask(traj)
    t_end = traj.snapshots[-1].t
    C = barrier_slope_constant(traj.pack, t0, t_end, sign=sign)
    sup0 = float((sign * traj.snapshots[idx].phi.values)[mask].max())

    margin, witness, sups = _scan(
        ((s.t, sup0 + C * (s.t - t0), sign * s.phi.values) for s in later),
        mask)
    ext = "sup" if sign > 0 else "inf"
    return EstimateReport(
        estimate_id=estimate_id,
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "C": C, "constant_mode": "pack"},
        margin=float(margin),
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={f"{ext}_at_t0": sign * sup0,
             f"{ext}_series": [sign * v for v in sups],
             "times": [s.t for s in later]},
    )


def check_upper_barrier(traj: Trajectory, t0: float) -> EstimateReport:
    """sup phi(t) <= sup phi(t0) + C (t - t0), with C computed from the pack."""
    return _check_barrier(traj, t0, 1.0)


def check_lower_barrier(traj: Trajectory, t0: float) -> EstimateReport:
    """inf phi(t) >= inf phi(t0) - C (t - t0), mirror of the upper barrier."""
    return _check_barrier(traj, t0, -1.0)


# ---------------------------------------------------------------------------
# velocity bounds


def check_hstat(traj: Trajectory, t0: float | None = None) -> EstimateReport:
    """H = t phi_dot - (phi(t) - phi(0)) - n t stays <= 0 along the flow.

    margin = -max H.  Also emits the equivalent velocity bound
    phi_dot <= (phi(t) - phi(0))/t + n (aux ``derived_margin``) and the
    shifted-window form phi_dot <= (osc phi(t0) + C)/(t - t0) with C
    assembled from the barrier constant (aux ``remark_margin``).
    """
    if not traj.snapshots:
        raise ConfigurationError("hstat needs at least one checkpoint")
    mask = scan_mask(traj)
    phi_init = tc_potential_values(traj, traj.initial_state)
    rises = [(s, tc_potential_values(traj, s) - phi_init)
             for s in traj.snapshots]
    _, witness, tops = _scan(
        ((s.t, 0.0, s.t * s.phi_dot.values - rise - N_DIM * s.t)
         for s, rise in rises), mask)
    h_max = max(tops)
    derived_margin, _, _ = _scan(
        ((s.t, 0.0, -(rise / s.t + N_DIM - s.phi_dot.values))
         for s, rise in rises), mask)

    t0_r = traj.snapshots[0].t if t0 is None else t0
    idx0 = traj.checkpoint_index(t0_r)
    t_end = traj.snapshots[-1].t
    remark_margin = np.inf
    if idx0 + 1 < len(traj.snapshots):
        c_bar = barrier_slope_constant(traj.pack, t0_r, t_end, sign=1.0)
        c_rem = (c_bar + N_DIM) * (t_end - t0_r)
        osc0 = _osc(tc_potential_values(traj, traj.snapshots[idx0]), mask)
        remark_margin, _, _ = _scan(
            ((s.t, (osc0 + c_rem) / (s.t - t0_r), s.phi_dot.values)
             for s in traj.snapshots[idx0 + 1:]), mask)

    return EstimateReport(
        estimate_id="hstat",
        run_ids=(traj.run_id,),
        parameters={"t0": t0_r, "constant_mode": "pack"},
        margin=-h_max,
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"max_H": h_max, "derived_margin": float(derived_margin),
             "remark_margin": float(remark_margin)},
    )


def check_phidot_lower(traj: Trajectory, t0: float,
                       Tprime: float) -> EstimateReport:
    """phi_dot >= n log(t - t0) - A osc(t0) - C on (t0, T'].

    A = 2/(T - T'); C is fitted as the smallest constant making the bound
    hold at the first sample past t0, then the same C is verified at every
    later sample: the check certifies the logarithmic divergence rate, not
    the constant.
    """
    T = traj.pack.params.T
    if not (0.0 <= t0 < Tprime < T):
        raise ConfigurationError(
            f"need 0 <= t0 < T' < T, got t0={t0}, T'={Tprime}, T={T}")
    mask = scan_mask(traj)
    state0 = traj.initial_state if t0 == 0.0 else traj.state_at(t0)
    osc0 = _osc(tc_potential_values(traj, state0), mask)
    A = 2.0 / (T - Tprime)

    samples = [s for s in traj.snapshots if t0 + 1e-13 < s.t <= Tprime + 1e-12]
    if not samples:
        raise ConfigurationError("no checkpoints inside (t0, T']")
    first = samples[0]
    inf_dot = float(first.phi_dot.values[mask].min())
    c_fit = max(0.0, N_DIM * np.log(first.t - t0) - A * osc0 - inf_dot)

    margin, witness, _ = _scan(
        ((s.t, 0.0, -(s.phi_dot.values - N_DIM * np.log(s.t - t0)
                      + A * osc0 + c_fit)) for s in samples), mask)
    return EstimateReport(
        estimate_id="phidot_lower",
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "Tprime": Tprime, "A": A, "C": float(c_fit),
                    "constant_mode": "fitted"},
        margin=float(margin),
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"osc_at_t0": osc0, "fit_time": first.t},
    )


# ---------------------------------------------------------------------------
# oscillation and metric equivalence


def check_osc(trajs, times=None, rel_tol: float = 0.05) -> EstimateReport:
    """j-uniformity of the oscillation at fixed times.

    For each requested time the spread of osc across the family must stay
    below rel_tol of the family maximum.  This is the testable content of
    the j-independent oscillation bound; no rate as t -> 0 is claimed.
    """
    trajs = list(trajs)
    if len(trajs) < 3:
        raise ConfigurationError("osc check needs a family of >= 3 runs")
    base = trajs[0]
    for other in trajs[1:]:
        if not (_same_family(base, other) and _same_grid(base, other)):
            raise ConfigurationError("osc family must share pack and t-grid")
    if times is None:
        times = [t for t in base.checkpoint_times if t >= 0.1 - 1e-12]
    if not times:
        raise ConfigurationError("no checkpoints at t >= 0.1 to compare")

    osc_table = {}
    margin = np.inf
    witness = None
    masks = [scan_mask(traj) for traj in trajs]
    for t in times:
        fields = [tc_potential_values(traj, traj.state_at(t)) for traj in trajs]
        oscs = [_osc(f, mask) for f, mask in zip(fields, masks)]
        ref = max(oscs)
        spread = ref - min(oscs)
        osc_table[t] = oscs
        gap = rel_tol * ref - spread
        if gap < margin:
            margin = gap
            witness = (t, _spread_node(fields, oscs, masks))
    return EstimateReport(
        estimate_id="osc",
        run_ids=tuple(traj.run_id for traj in trajs),
        parameters={"rel_tol": rel_tol, "times": list(times),
                    "j_values": [traj.j for traj in trajs]},
        margin=float(margin),
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"osc_table": osc_table},
    )


def check_density_ratio(traj: Trajectory, t0: float) -> EstimateReport:
    """Finite two-sided metric equivalence constant from t0 on.

    R(t) = density(omega(t)) / density(reference cone metric) nodewise;
    C(t0) = sup over [t0, T] of max(R, 1/R) must be finite.  margin is 0.0
    when it is, and -inf otherwise, with the witness at the first
    checkpoint and node where R is non-positive or not finite.  ``aux``
    keeps C at every later t0 (the suffix maxima, which never rise) and the
    per-checkpoint bounds of R.
    """
    idx = traj.checkpoint_index(t0)
    mask = scan_mask(traj)
    pack = traj.pack
    cone = pack.omega_cone_eps.values

    window = traj.snapshots[idx:]
    per_time, witness = [], None
    for s in window:
        ratio = metric_density_values(pack, s.t, s.phi.values) / cone
        sel = ratio[mask]
        low, high = float(sel.min()), float(sel.max())
        per_time.append((s.t, low, high))
        if witness is None and not (low > 0.0 and np.isfinite(high)):
            bad = ~((ratio > 0.0) & np.isfinite(ratio))
            witness = (s.t, _argmax_node(bad, mask))
    # suffix maxima, as Python floats
    c_of_t0 = [np.inf] * len(per_time) if witness else list(accumulate(
        (max(h, 1.0 / lo) for _, lo, h in reversed(per_time)), max))[::-1]
    return EstimateReport(
        estimate_id="density_ratio",
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "C": c_of_t0[0], "constant_mode": "pack"},
        margin=0.0 if witness is None else -np.inf,
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"C_of_t0": c_of_t0,
             "t0_grid": [s.t for s in window],
             "ratio_bounds": per_time},
    )


def check_monotone_eps(trajs, t: float) -> EstimateReport:
    """The unreduced potential decreases as epsilon decreases, nodewise."""
    trajs = list(trajs)
    if len(trajs) < 2:
        raise ConfigurationError("epsilon family needs >= 2 runs")
    eps = [traj.pack.params.epsilon for traj in trajs]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigurationError(
            "family not eps-sorted: epsilons must strictly decrease")
    base = trajs[0]
    for other in trajs[1:]:
        if not (_same_family(base, other, check_eps=False)
                and _same_grid(base, other) and other.j == base.j):
            raise ConfigurationError(
                "epsilon family must share surface, gamma, k, j and t-grid")

    mask = scan_mask(base)
    for other in trajs[1:]:
        mask = mask & scan_mask(other)
    fields = [tc_potential_values(traj, traj.state_at(t)) for traj in trajs]

    margin, witness, tops = _scan(
        ((t, 0.0, -(a - b)) for a, b in zip(fields, fields[1:])), mask)
    return EstimateReport(
        estimate_id="monotone_eps",
        run_ids=tuple(traj.run_id for traj in trajs),
        parameters={"t": t, "eps_list": eps},
        margin=float(margin),
        witness=witness,
        tolerance=MONOTONE_EPS_TOLERANCE,
        aux={"pair_margins": [-top for top in tops]},
    )


# ---------------------------------------------------------------------------
# comparison principle and ordering


def check_comparison(traj_u: Trajectory, traj_v: Trajectory) -> EstimateReport:
    """sup_X(u(t) - v(t)) never exceeds sup_X(u0 - v0), up to scheme slack.

    margin = -drift: the initial sup gap minus its largest later value.
    ``aux`` carries the sup and inf gap series, so that swapping the runs
    maps the report onto its exact negation: sup(v-u) = -inf(u-v) nodewise.
    """
    if not (_same_family(traj_u, traj_v) and _same_grid(traj_u, traj_v)):
        raise ConfigurationError("comparison needs matching configs")
    mask = scan_mask(traj_u) & scan_mask(traj_v)

    states_u = [traj_u.initial_state] + traj_u.snapshots
    states_v = [traj_v.initial_state] + traj_v.snapshots
    times, sups, infs = [], [], []
    for su, sv in zip(states_u, states_v):
        diff = su.phi.values - sv.phi.values
        times.append(su.t)
        sups.append(float(diff[mask].max()))
        infs.append(float(diff[mask].min()))
    sups = np.array(sups)
    margin, witness = 0.0, None
    if len(sups) > 1:
        i = int(np.argmax(sups[1:])) + 1
        diff = states_u[i].phi.values - states_v[i].phi.values
        margin = float(sups[0] - sups[i])
        witness = (times[i], _argmax_node(diff, mask))
    return EstimateReport(
        estimate_id="comparison",
        run_ids=(traj_u.run_id, traj_v.run_id),
        parameters={},
        margin=margin,
        witness=witness,
        tolerance=_pair_tolerance(traj_u, traj_v),
        aux={"times": np.array(times), "sup_gap_series": sups,
             "inf_gap_series": np.array(infs),
             "initial_sup_gap": float(sups[0])},
    )


def check_reparam_ordering(traj_psi: Trajectory, traj_phi: Trajectory,
                           c_tilde: float) -> EstimateReport:
    """Ordered initial data stay ordered, seen through the exponential clock.

    Both runs are pulled back through u(t) = C e^t psi((1/C)(1 - e^{-t}));
    the transformed ordering and the plain conclusion psi(t) <= phi(t) are
    both certified.  The transformed times are tau = -log(1 - C t) at the
    checkpoints t, which pull back to t itself, so no interpolation enters:
    the transformed difference there is exactly (C / (1 - C t)) (phi - psi).
    """
    if not (_same_family(traj_psi, traj_phi) and _same_grid(traj_psi, traj_phi)):
        raise ConfigurationError("reparam ordering needs matching configs")
    mask = scan_mask(traj_psi) & scan_mask(traj_phi)
    gap0 = traj_psi.initial_state.phi.values - traj_phi.initial_state.phi.values
    if float(gap0[mask].max()) > 1e-12:
        raise ConfigurationError(
            "initial ordering violated: psi0 must be <= phi0")
    if not (traj_psi.snapshots and traj_phi.snapshots):
        raise ConfigurationError("trajectory has no snapshots to reparametrize")
    floor = 1.0 / traj_psi.pack.tmax  # 0.0 when T_max is infinite
    if c_tilde <= floor:
        raise ConfigurationError(f"C={c_tilde} must exceed 1/T_max={floor:g}")

    margin, witness, tops = _scan(
        ((s_psi.t, 0.0, -(s_phi.phi.values - s_psi.phi.values))
         for s_psi, s_phi in zip(traj_psi.snapshots, traj_phi.snapshots)),
        mask)
    taus, trans_margin = [], np.inf
    for s_psi, top in zip(traj_psi.snapshots, tops):
        arg = 1.0 - c_tilde * s_psi.t
        if arg > 1e-12:
            taus.append(-np.log(arg))
            trans_margin = min(trans_margin, c_tilde / arg * -top)
    arg = 1.0 - c_tilde * traj_psi.snapshots[-1].t
    coverage = np.inf if arg <= 0.0 else -np.log(arg)

    return EstimateReport(
        estimate_id="reparam_ordering",
        run_ids=(traj_psi.run_id, traj_phi.run_id),
        parameters={"c_tilde": c_tilde},
        margin=float(min(margin, trans_margin)),
        witness=witness,
        tolerance=_pair_tolerance(traj_psi, traj_phi),
        aux={"transformed_margin": float(trans_margin),
             "plain_margin": float(margin),
             "transformed_times": taus,
             "coverage": float(coverage)},
    )


# ---------------------------------------------------------------------------
# small-time behaviour


def check_lower_envelope(traj: Trajectory, l: float) -> EstimateReport:
    """phi(t) >= (1 - 2lt) phi(0) - Ct + n(t log t - t) for small t.

    C is the sup-norm of the static reference solve
    density(omega + ddbar u) = e^{u - h - 2l phi(0)} omega / (eps^2+|s|^2)^(1-gamma),
    exactly the constant the small-time proof extracts.  Checked on the
    checkpoints inside (0, 1/(2l)).
    """
    pack = traj.pack
    tmax = pack.tmax
    floor = max(0.0 if np.isinf(tmax) else 1.0 / tmax, 1.0)
    if 2.0 * l <= floor + 1e-9:
        raise ConfigurationError(
            f"need 2l > {floor:g} for the envelope construction, got l={l}")
    mask = scan_mask(traj)
    surface = pack.surface
    phi_init = tc_potential_values(traj, traj.initial_state)

    coupling = -pack.h_gamma.values - 2.0 * l * phi_init
    if pack.divisor is not None and pack.params.gamma < 1.0:
        weight = (pack.params.epsilon ** 2
                  + pack.divisor.s_h_sq) ** (1.0 - pack.params.gamma)
        data = surface.area_weight / weight
    else:
        data = surface.area_weight.copy()
    static = static_ma_solve(surface, data, coupling=coupling)
    C = float(np.abs(static.values).max())

    cutoff = 0.5 / l
    samples = [s for s in traj.snapshots if s.t < cutoff - 1e-12]
    if not samples:
        raise ConfigurationError(
            f"no checkpoints inside (0, {cutoff:g}) to test the envelope")

    def curve(t, drift):
        return ((1.0 - 2.0 * l * t) * phi_init + drift
                + N_DIM * (t * np.log(t) - t))

    tcs = [(s.t, tc_potential_values(traj, s)) for s in samples]
    margin, witness, _ = _scan(
        ((t, 0.0, -(tc - curve(t, -C * t))) for t, tc in tcs), mask)
    # sharper intermediate: the explicit subsolution itself sits below
    sub_margin, _, _ = _scan(
        ((t, 0.0, -(tc - curve(t, t * static.values))) for t, tc in tcs), mask)

    return EstimateReport(
        estimate_id="lower_envelope",
        run_ids=(traj.run_id,),
        parameters={"l": l, "C": C, "constant_mode": "pack"},
        margin=float(margin),
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"static_sup_norm": C,
             "subsolution_margin": float(sub_margin),
             "times": [s.t for s in samples]},
    )


def check_l1_convergence(traj: Trajectory, phi0,
                         t_top: float = 0.2) -> EstimateReport:
    """|| phi(t_m) - phi0 ||_L1 decreases along t_m = t_top 2^-m, m < 6, and
    ends below 1e-2 ||phi0||_L1 + 1e-3 V.

    Nodes where phi0 is singular carry no L1 mass on the grid and are left
    out of the distance.
    """
    pack = traj.pack
    surface = pack.surface
    vals0 = phi0.values if isinstance(phi0, ScalarField) else np.asarray(phi0)
    finite = np.isfinite(vals0)

    times = [t_top * 2.0 ** (-m) for m in range(L1_LEVELS)]
    try:
        states = [traj.state_at(t) for t in times]
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"l1 check needs checkpoints at {times}: {exc}") from exc

    def l1(arr):
        out = np.where(finite, np.abs(arr), 0.0)
        return integrate(surface, out, against_area_weight=True)

    distances = [l1(tc_potential_values(traj, s) - np.where(finite, vals0, 0.0))
                 for s in states]
    norm0 = l1(vals0)
    volume = integrate(surface, np.ones(surface.shape),
                       against_area_weight=True)
    tol_l1 = 1e-2 * norm0 + 1e-3 * volume

    dec = [distances[m] - distances[m + 1] for m in range(len(distances) - 1)]
    margin = min(min(dec), tol_l1 - distances[-1])
    if min(dec) < tol_l1 - distances[-1]:
        witness = (times[int(np.argmin(dec)) + 1], None)
    else:
        witness = (times[-1], None)
    return EstimateReport(
        estimate_id="l1_convergence",
        run_ids=(traj.run_id,),
        parameters={"t_top": t_top, "levels": L1_LEVELS,
                    "tol_l1": float(tol_l1)},
        margin=float(margin),
        witness=witness,
        tolerance=DEFAULT_TOLERANCE,
        aux={"times": times, "distances": distances,
             "phi0_l1_norm": float(norm0)},
    )


# ---------------------------------------------------------------------------
# negative control


def divergence_signature(trajs) -> dict:
    """Detect the non-removable singularity fingerprint across an eps family.

    A family (eps decreasing) diverges when some run loses metric positivity
    outright, or when the two-sided density-ratio constant keeps growing by
    at least ``SIGNATURE_GROWTH`` per eps-halving instead of stabilizing.
    It needs at least three eps: a single growth factor cannot show that
    the constant keeps growing.
    Unlike the equivalence certificate, the ratios here are scanned over
    every node: the divergence lives exactly at the nodes the extremum
    scans set aside.  Admissible data must come back with ``diverging``
    False.
    """
    trajs = list(trajs)
    if len(trajs) < 3:
        raise ConfigurationError("signature needs >= 3 runs (eps values)")
    eps = [traj.pack.params.epsilon for traj in trajs]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigurationError("family not eps-sorted")

    positivity_loss = any(
        traj.termination is Termination.POSITIVITY_LOSS for traj in trajs)
    constants = []
    for traj in trajs:
        cone = traj.pack.omega_cone_eps.values
        c = -np.inf
        for state in [traj.initial_state] + traj.snapshots:
            ratio = metric_density_values(traj.pack, state.t,
                                          state.phi.values) / cone
            lo, hi = float(ratio.min()), float(ratio.max())
            if lo <= 0.0 or not np.isfinite(hi):
                c = np.inf
                break
            c = max(c, hi, 1.0 / lo)
        constants.append(np.inf if c == -np.inf else float(c))

    growth = []
    for a, b in zip(constants, constants[1:]):
        if not np.isfinite(a) or not np.isfinite(b):
            growth.append(np.inf)
        else:
            growth.append(b / a)
    diverging = bool(
        positivity_loss
        or any(not np.isfinite(c) for c in constants)
        or (growth and min(growth) >= SIGNATURE_GROWTH))
    return {
        "positivity_loss": positivity_loss,
        "eps_list": eps,
        "ratio_constants": constants,
        "growth_factors": growth,
        "diverging": diverging,
    }


# ---------------------------------------------------------------------------
# the estimate table


class Family(NamedTuple):
    """A run-family shape: how an archive's runs are cut into checker inputs."""

    needs: str                       # what a strict selection lacks without it
    split: Callable[[list], list]    # runs sorted by id -> checker inputs


def _eps(traj: Trajectory) -> float:
    return traj.pack.params.epsilon


def _grouped(runs, key, order, min_size: int) -> list:
    """Groups of >= min_size runs sharing ``key``, by ascending key; each
    group sorted by ``order``."""
    groups: dict = {}
    for traj in runs:
        groups.setdefault(key(traj), []).append(traj)
    return [sorted(groups[k], key=order) for k in sorted(groups)
            if len(groups[k]) >= min_size]


PER_RUN = Family("a successful run", lambda runs: [[tr] for tr in runs])
#: consecutive truncation levels at one eps, the deeper (lower) one first
LEVEL_PAIRS = Family(
    "two truncation levels at a shared eps",
    lambda runs: [pair for fam in _grouped(runs, _eps, lambda tr: -tr.j, 2)
                  for pair in zip(fam, fam[1:])])
#: one truncation level across eps, eps decreasing
EPS_FAMILIES = Family(
    "one truncation level at two or more eps",
    lambda runs: _grouped(runs, lambda tr: tr.j, lambda tr: -_eps(tr), 2))
#: one eps across truncation levels, j increasing
LEVEL_FAMILIES = Family(
    "three or more truncation levels at one eps",
    lambda runs: _grouped(runs, _eps, lambda tr: tr.j, 3))
#: the eps family with the most runs, the deepest level on ties, when it
#: has the three runs the signature needs
SIGNATURE_FAMILY = Family(
    "one truncation level at three or more eps",
    lambda runs: [fam for fam in sorted(
        EPS_FAMILIES.split(runs), key=lambda fam: (len(fam), fam[0].j))[-1:]
        if len(fam) >= 3])


def _first_from(times, t: float, fallback: float) -> float:
    return next((s for s in times if s >= t), fallback)


def _monotone_eps(fam, params, _datum) -> EstimateReport:
    cps = fam[0].checkpoint_times
    return check_monotone_eps(
        fam, params.get("t", _first_from(cps, 0.1, cps[len(cps) // 2])))


def _signature(fam, params, _datum) -> EstimateReport:
    """The divergence signature against the expected verdict: margin 0 when
    they agree, -inf when they do not."""
    sig = divergence_signature(fam)
    expect = bool(params.get("expect", 0.0))
    return EstimateReport(
        "signature", tuple(traj.run_id for traj in fam),
        {"j": fam[0].j, "expect_diverging": expect, **sig},
        0.0 if sig["diverging"] == expect else -np.inf, None, 0.0)


class Estimate(NamedTuple):
    family: Family
    #: (family of runs, selection parameters, initial datum) -> report
    check: Callable
    default: bool                    # part of the default battery
    #: the selection parameters ``check`` reads; a config may set no other
    params: tuple = ()
    #: the ones of ``params`` that have no default; a selection must set them
    required: tuple = ()

    def misfit(self, est_id: str, params) -> str | None:
        """Why a selection with these parameters cannot run, or None."""
        unread = [name for name in params if name not in self.params]
        absent = [name for name in self.required if name not in params]
        if not (unread or absent):
            return None
        verb = "reads no" if unread else "needs"
        return (f"{est_id} {verb} parameter {', '.join(unread or absent)} "
                f"(its parameters: {', '.join(self.params) or 'none'})")


# Each check looks its checker up by module-level name when it runs, so a
# checker replaced on this module (a test double, a tracer) is the one used.
# Order is the default battery's print order.
ESTIMATES = {
    "upper_barrier": Estimate(PER_RUN, lambda fam, p, _: check_upper_barrier(
        fam[0], p.get("t0", fam[0].checkpoint_times[0])), True, ("t0",)),
    "lower_barrier": Estimate(PER_RUN, lambda fam, p, _: check_lower_barrier(
        fam[0], p.get("t0", fam[0].checkpoint_times[0])), True, ("t0",)),
    "hstat": Estimate(PER_RUN, lambda fam, p, _: check_hstat(
        fam[0], p.get("t0")), True, ("t0",)),
    "density_ratio": Estimate(PER_RUN, lambda fam, p, _: check_density_ratio(
        fam[0], p.get("t0", _first_from(fam[0].checkpoint_times, 0.1,
                                        fam[0].checkpoint_times[0]))), True,
        ("t0",)),
    "comparison": Estimate(LEVEL_PAIRS, lambda fam, p, _: check_comparison(
        *fam), True),
    "monotone_eps": Estimate(EPS_FAMILIES, _monotone_eps, True, ("t",)),
    "osc": Estimate(LEVEL_FAMILIES, lambda fam, p, _: check_osc(fam), True),
    "phidot_lower": Estimate(PER_RUN, lambda fam, p, _: check_phidot_lower(
        fam[0], p["t0"], p["tprime"]), False, ("t0", "tprime"),
        ("t0", "tprime")),
    "reparam_ordering": Estimate(
        LEVEL_PAIRS, lambda fam, p, _: check_reparam_ordering(
            *fam, p.get("c_tilde", 0.9)), False, ("c_tilde",)),
    "lower_envelope": Estimate(PER_RUN, lambda fam, p, _: check_lower_envelope(
        fam[0], p.get("l", 2.0)), False, ("l",)),
    "l1_convergence": Estimate(
        PER_RUN, lambda fam, p, datum: check_l1_convergence(
            fam[0], datum.phi0, t_top=p.get("t_top", 0.2)), False,
        ("t_top",)),
    "signature": Estimate(SIGNATURE_FAMILY, _signature, False, ("expect",)),
}
"""What each entry of ``ESTIMATES`` certifies (psi = phi + k chi, the
unreduced potential; phi the reduced one; n = N_DIM; proven = the paper's
inequality up to tolerance; diagnostic = a fixed threshold of this lab):

- upper_barrier: sup phi(t) <= sup phi(t0) + C (t - t0); scans phi; C from
  the pack, sup of log(path/cone) + F at t0 and t_end.  Proven by the
  maximum principle: at a maximum of phi, ddbar phi <= 0, so d phi/dt <=
  log(path/cone) + F <= C there.
- lower_barrier: inf phi(t) >= inf phi(t0) - C (t - t0); scans phi; C the
  sup of -(log(path/cone) + F).  Proven, at a minimum of phi in the same way.
- hstat: H = t phi_dot - (psi(t) - psi(0)) - n t <= 0; psi and phi give the
  same H (chi does not move); no constant.  Proven.  Its aux
  ``remark_margin`` pairs the barrier C, a slope for phi, with osc psi(t0).
- density_ratio: C(t0) = sup over [t0, T] of max(R, 1/R) is finite, with R
  the density of path + ddbar phi over the cone density.  The flow equation
  is log R = phi_dot - F, so this is the statement that the velocity stays
  finite; margin 0 or -inf.  Proven, in its weakest form: only finiteness
  is tested, and C itself is reported (criterion 10 compares it in eps, N).
- comparison: sup(u - v)(t) <= sup(u - v)(0) for two levels in one pack;
  scans phi (k chi cancels); tolerance 1e-8 + 2 x truncation scale.  Proven
  (the implicit step is monotone).
- monotone_eps: psi_eps >= psi_eps' for eps > eps' at one t, nodewise;
  scans psi (chi depends on eps); no constant, tolerance 1e-5.  Proven.
- osc: across truncation levels the spread of osc psi(t) stays below 5% of
  its maximum, at checkpoints t >= 0.1.  Diagnostic.
- phidot_lower: phi_dot >= n log(t - t0) - A osc psi(t0) - C on (t0, T'];
  A = 2/(T - T'); C is fitted at the first sample, so the check certifies
  the logarithmic rate, not a constant.
- reparam_ordering: psi_0 <= phi_0 keeps phi(t) - psi(t) >= 0; scans phi;
  tolerance as comparison.  Its transformed margin is (C/(1 - C t)) times
  the plain margin at each checkpoint, so it adds only a rescaled tolerance
  over ``comparison``.
- lower_envelope: psi(t) >= (1 - 2lt) psi(0) - C t + n (t log t - t) for
  checkpoints t < 1/(2l); scans psi; C = sup |u| of the static Monge-Ampere
  solve from the pack.  Proven.
- l1_convergence: ||psi(t_m) - phi0||_L1 decreases along t_m = t_top 2^-m,
  m < L1_LEVELS, and ends below tol_l1 = 1e-2 ||phi0||_L1 + 1e-3 V.
  Diagnostic.
- signature: an eps family diverges when a run loses positivity, or when
  the all-node ratio constant is infinite or grows by >= SIGNATURE_GROWTH
  (1.25) at every eps step; the report matches that against ``expect``.
  Diagnostic.
"""
