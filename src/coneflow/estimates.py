"""Executable certificates for the flow's a-priori estimates.

Each checker turns one proved inequality into a margin over a trajectory
or a family of trajectories: margin >= 0 means the discrete run satisfies
the estimate, and ``passed`` allows a configurable tolerance for scheme
truncation.  Constants that the proofs construct explicitly are recomputed
from the background pack ("pack" mode); constants the proofs only assert
to exist are fitted at one sample and then verified globally ("fitted"
mode).  Every report records which mode produced its constant.

Checkers are pure functions of recorded trajectories; nothing here
re-integrates the flow.  ``ESTIMATES`` maps each estimate id to the shape of
the run family it reads, its checker, and whether it is in the default
battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    time_reparam,
)
from .surfaces import ScalarField, integrate

N_DIM = 1  # complex dimension of the model surfaces

DEFAULT_TOLERANCE = 1e-6


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
    if traj.scan_exclude is None:
        return np.ones(traj.pack.surface.shape, dtype=bool)
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
    if a.pack is b.pack:
        return True
    pa, pb = a.pack, b.pack
    same = (pa.surface is pb.surface
            and pa.params.gamma == pb.params.gamma
            and pa.params.k == pb.params.k
            and pa.params.T == pb.params.T
            and pa.params.eta_degree == pb.params.eta_degree)
    if check_eps:
        same = same and pa.params.epsilon == pb.params.epsilon
    return same


def _same_grid(a: Trajectory, b: Trajectory) -> bool:
    ta, tb = a.checkpoint_times, b.checkpoint_times
    return len(ta) == len(tb) and all(
        at_checkpoint(y, x) for x, y in zip(ta, tb))


def _argmax_node(values: np.ndarray, mask: np.ndarray):
    masked = np.where(mask, values, -np.inf)
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(masked)),
                                                  values.shape))


def _argmin_node(values: np.ndarray, mask: np.ndarray):
    masked = np.where(mask, values, np.inf)
    return tuple(int(v) for v in np.unravel_index(int(np.argmin(masked)),
                                                  values.shape))


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


def _check_barrier(traj: Trajectory, t0: float, sign: float,
                   tolerance: float) -> EstimateReport:
    """Upper (sign=+1) or lower (sign=-1) barrier, one body for both: the
    sup of sign*(phi + k chi) rises from its value at t0 by at most
    C (t - t0)."""
    estimate_id = "upper_barrier" if sign > 0 else "lower_barrier"
    idx = traj.checkpoint_index(t0)
    later = traj.snapshots[idx + 1:]
    if not later:
        raise ConfigurationError(
            f"{estimate_id.replace('_', ' ')} needs a checkpoint after t0")
    mask = scan_mask(traj)
    t_end = traj.snapshots[-1].t
    C = barrier_slope_constant(traj.pack, t0, t_end, sign=sign)
    sup0 = float((sign * tc_potential_values(traj, traj.snapshots[idx]))[mask]
                 .max())

    margin = np.inf
    witness = None
    sups = []
    for s in later:
        values = sign * tc_potential_values(traj, s)
        sup_t = float(values[mask].max())
        sups.append(sup_t)
        gap = sup0 + C * (s.t - t0) - sup_t
        if gap < margin:
            margin = gap
            witness = (s.t, _argmax_node(values, mask))
    ext = "sup" if sign > 0 else "inf"
    return EstimateReport(
        estimate_id=estimate_id,
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "C": C, "constant_mode": "pack"},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={f"{ext}_at_t0": sign * sup0,
             f"{ext}_series": [sign * v for v in sups],
             "times": [s.t for s in later]},
    )


def check_upper_barrier(traj: Trajectory, t0: float,
                        tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
    """sup phi(t) <= sup phi(t0) + C (t - t0), with C computed from the pack."""
    return _check_barrier(traj, t0, 1.0, tolerance)


def check_lower_barrier(traj: Trajectory, t0: float,
                        tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
    """inf phi(t) >= inf phi(t0) - C (t - t0), mirror of the upper barrier."""
    return _check_barrier(traj, t0, -1.0, tolerance)


# ---------------------------------------------------------------------------
# velocity bounds


def check_hstat(traj: Trajectory, t0: float | None = None,
                tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
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

    h_max = -np.inf
    witness = None
    derived_margin = np.inf
    for s in traj.snapshots:
        tc = tc_potential_values(traj, s)
        h_vals = s.t * s.phi_dot.values - (tc - phi_init) - N_DIM * s.t
        top = float(h_vals[mask].max())
        if top > h_max:
            h_max = top
            witness = (s.t, _argmax_node(h_vals, mask))
        derived = (tc - phi_init) / s.t + N_DIM - s.phi_dot.values
        derived_margin = min(derived_margin, float(derived[mask].min()))

    t0_r = traj.snapshots[0].t if t0 is None else t0
    idx0 = traj.checkpoint_index(t0_r)
    t_end = traj.snapshots[-1].t
    remark_margin = np.inf
    if idx0 + 1 < len(traj.snapshots):
        c_bar = barrier_slope_constant(traj.pack, t0_r, t_end, sign=1.0)
        c_rem = (c_bar + N_DIM) * (t_end - t0_r)
        tc0 = tc_potential_values(traj, traj.snapshots[idx0])
        osc0 = float(tc0[mask].max() - tc0[mask].min())
        for s in traj.snapshots[idx0 + 1:]:
            bound = (osc0 + c_rem) / (s.t - t0_r)
            gap = bound - float(s.phi_dot.values[mask].max())
            remark_margin = min(remark_margin, gap)

    return EstimateReport(
        estimate_id="hstat",
        run_ids=(traj.run_id,),
        parameters={"t0": t0_r, "constant_mode": "pack"},
        margin=float(-h_max),
        witness=witness,
        tolerance=tolerance,
        aux={"max_H": float(h_max), "derived_margin": float(derived_margin),
             "remark_margin": float(remark_margin)},
    )


def check_phidot_lower(traj: Trajectory, t0: float, Tprime: float,
                       tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
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
    if t0 == 0.0:
        state0 = traj.initial_state
    else:
        state0 = traj.state_at(t0)
    tc0 = tc_potential_values(traj, state0)
    osc0 = float(tc0[mask].max() - tc0[mask].min())
    A = 2.0 / (T - Tprime)

    samples = [s for s in traj.snapshots if t0 + 1e-13 < s.t <= Tprime + 1e-12]
    if not samples:
        raise ConfigurationError("no checkpoints inside (t0, T']")
    first = samples[0]
    inf_dot = float(first.phi_dot.values[mask].min())
    c_fit = max(0.0, N_DIM * np.log(first.t - t0) - A * osc0 - inf_dot)

    margin = np.inf
    witness = None
    for s in samples:
        vals = (s.phi_dot.values - N_DIM * np.log(s.t - t0)
                + A * osc0 + c_fit)
        low = float(vals[mask].min())
        if low < margin:
            margin = low
            witness = (s.t, _argmin_node(vals, mask))
    return EstimateReport(
        estimate_id="phidot_lower",
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "Tprime": Tprime, "A": A, "C": float(c_fit),
                    "constant_mode": "fitted"},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"osc_at_t0": osc0, "fit_time": first.t},
    )


# ---------------------------------------------------------------------------
# oscillation and metric equivalence


def check_osc(trajs, times=None, rel_tol: float = 0.05,
              tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
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
    for t in times:
        oscs = []
        for traj in trajs:
            mask = scan_mask(traj)
            tc = tc_potential_values(traj, traj.state_at(t))
            oscs.append(float(tc[mask].max() - tc[mask].min()))
        ref = max(oscs)
        spread = ref - min(oscs)
        osc_table[t] = oscs
        gap = rel_tol * ref - spread
        if gap < margin:
            margin = gap
            witness = (t, None)
    return EstimateReport(
        estimate_id="osc",
        run_ids=tuple(traj.run_id for traj in trajs),
        parameters={"rel_tol": rel_tol, "times": list(times),
                    "j_values": [traj.j for traj in trajs]},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"osc_table": osc_table},
    )


def check_density_ratio(traj: Trajectory, t0: float, rel_drift: float = 0.05,
                        tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
    """Finite two-sided metric equivalence constant, improving in t0.

    R(t) = density(omega(t)) / density(reference cone metric) nodewise;
    C(t0) = sup over [t0, T] of max(R, 1/R) must be finite, and moving t0
    forward may not increase C by more than rel_drift.
    """
    idx = traj.checkpoint_index(t0)
    mask = scan_mask(traj)
    pack = traj.pack
    cone = pack.omega_cone_eps.values

    window = traj.snapshots[idx:]
    per_time = []
    for s in window:
        ratio = metric_density_values(pack, s.t, s.phi.values) / cone
        sel = ratio[mask]
        low, high = float(sel.min()), float(sel.max())
        per_time.append((s.t, low, high))
    finite = all(low > 0.0 and np.isfinite(high) for _, low, high in per_time)

    c_of_t0 = []
    for i in range(len(per_time)):
        tail = per_time[i:]
        if finite:
            c = max(max(h, 1.0 / lo) for _, lo, h in tail)
        else:
            c = np.inf
        c_of_t0.append(c)

    if not finite:
        margin = -np.inf
        witness = (per_time[0][0], None)
    elif len(c_of_t0) < 2:
        margin = np.inf
        witness = None
    else:
        margin = np.inf
        witness = None
        for i in range(len(c_of_t0) - 1):
            gap = (1.0 + rel_drift) * c_of_t0[i] - c_of_t0[i + 1]
            if gap < margin:
                margin = gap
                witness = (window[i + 1].t, None)
    return EstimateReport(
        estimate_id="density_ratio",
        run_ids=(traj.run_id,),
        parameters={"t0": t0, "rel_drift": rel_drift, "C": c_of_t0[0],
                    "constant_mode": "pack"},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"C_of_t0": c_of_t0,
             "t0_grid": [s.t for s in window],
             "ratio_bounds": per_time},
    )


def check_monotone_eps(trajs, t: float,
                       tolerance: float = 1e-5) -> EstimateReport:
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

    margin = np.inf
    witness = None
    pair_margins = []
    for i in range(len(fields) - 1):
        diff = fields[i] - fields[i + 1]
        low = float(diff[mask].min())
        pair_margins.append(low)
        if low < margin:
            margin = low
            witness = (t, _argmin_node(diff, mask))
    return EstimateReport(
        estimate_id="monotone_eps",
        run_ids=tuple(traj.run_id for traj in trajs),
        parameters={"t": t, "eps_list": eps},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"pair_margins": pair_margins},
    )


# ---------------------------------------------------------------------------
# comparison principle and ordering


def check_comparison(traj_u: Trajectory, traj_v: Trajectory,
                     tolerance: float | None = None) -> EstimateReport:
    """sup_X(u(t) - v(t)) never exceeds sup_X(u0 - v0), up to scheme slack.

    margin = -drift: the initial sup gap minus its largest later value.
    ``aux`` carries the sup and inf gap series, so that swapping the runs
    maps the report onto its exact negation: sup(v-u) = -inf(u-v) nodewise.
    """
    if not (_same_family(traj_u, traj_v) and _same_grid(traj_u, traj_v)):
        raise ConfigurationError("comparison needs matching configs")
    if tolerance is None:
        tolerance = 1e-8 + 2.0 * max(truncation_scale(traj_u),
                                     truncation_scale(traj_v))
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
        margin, witness = float(sups[0] - sups[i]), (times[i], None)
    return EstimateReport(
        estimate_id="comparison",
        run_ids=(traj_u.run_id, traj_v.run_id),
        parameters={},
        margin=margin,
        witness=witness,
        tolerance=float(tolerance),
        aux={"times": np.array(times), "sup_gap_series": sups,
             "inf_gap_series": np.array(infs),
             "initial_sup_gap": float(sups[0])},
    )


def check_reparam_ordering(traj_psi: Trajectory, traj_phi: Trajectory,
                           c_tilde: float,
                           tolerance: float | None = None) -> EstimateReport:
    """Ordered initial data stay ordered, seen through the exponential clock.

    Both runs are pulled back through u(t) = C e^t psi((1/C)(1 - e^{-t}));
    the transformed ordering and the plain conclusion psi(t) <= phi(t) are
    both certified.
    """
    if not (_same_family(traj_psi, traj_phi) and _same_grid(traj_psi, traj_phi)):
        raise ConfigurationError("reparam ordering needs matching configs")
    mask = scan_mask(traj_psi) & scan_mask(traj_phi)
    gap0 = traj_psi.initial_state.phi.values - traj_phi.initial_state.phi.values
    if float(gap0[mask].max()) > 1e-12:
        raise ConfigurationError(
            "initial ordering violated: psi0 must be <= phi0")
    if tolerance is None:
        tolerance = 1e-8 + 2.0 * max(truncation_scale(traj_psi),
                                     truncation_scale(traj_phi))

    view_psi = time_reparam(traj_psi, c_tilde)
    view_phi = time_reparam(traj_phi, c_tilde)

    margin = np.inf
    witness = None
    for s_psi, s_phi in zip(traj_psi.snapshots, traj_phi.snapshots):
        diff = s_phi.phi.values - s_psi.phi.values
        low = float(diff[mask].min())
        if low < margin:
            margin = low
            witness = (s_psi.t, _argmin_node(diff, mask))

    taus = []
    trans_margin = np.inf
    for s in traj_psi.snapshots:
        arg = 1.0 - c_tilde * s.t
        if arg <= 1e-12:
            break
        tau = -np.log(arg)
        taus.append(tau)
        diff = view_phi.u_values(tau) - view_psi.u_values(tau)
        trans_margin = min(trans_margin, float(diff[mask].min()))

    return EstimateReport(
        estimate_id="reparam_ordering",
        run_ids=(traj_psi.run_id, traj_phi.run_id),
        parameters={"c_tilde": c_tilde},
        margin=float(min(margin, trans_margin)),
        witness=witness,
        tolerance=float(tolerance),
        aux={"transformed_margin": float(trans_margin),
             "plain_margin": float(margin),
             "transformed_times": taus,
             "coverage": float(view_psi.coverage())},
    )


# ---------------------------------------------------------------------------
# small-time behaviour


def check_lower_envelope(traj: Trajectory, l: float,
                         tolerance: float = DEFAULT_TOLERANCE,
                         static_tol: float = 1e-9) -> EstimateReport:
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
    static = static_ma_solve(surface, data, coupling=coupling, tol=static_tol)
    C = float(np.abs(static.values).max())

    cutoff = 0.5 / l
    samples = [s for s in traj.snapshots if s.t < cutoff - 1e-12]
    if not samples:
        raise ConfigurationError(
            f"no checkpoints inside (0, {cutoff:g}) to test the envelope")

    margin = np.inf
    witness = None
    sub_margin = np.inf
    for s in samples:
        tc = tc_potential_values(traj, s)
        t = s.t
        envelope = ((1.0 - 2.0 * l * t) * phi_init - C * t
                    + N_DIM * (t * np.log(t) - t))
        gap = tc - envelope
        low = float(gap[mask].min())
        if low < margin:
            margin = low
            witness = (t, _argmin_node(gap, mask))
        # sharper intermediate: the explicit subsolution itself sits below
        psi_t = ((1.0 - 2.0 * l * t) * phi_init + t * static.values
                 + N_DIM * (t * np.log(t) - t))
        sub_margin = min(sub_margin, float((tc - psi_t)[mask].min()))

    return EstimateReport(
        estimate_id="lower_envelope",
        run_ids=(traj.run_id,),
        parameters={"l": l, "C": C, "constant_mode": "pack"},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"static_sup_norm": C,
             "subsolution_margin": float(sub_margin),
             "times": [s.t for s in samples]},
    )


def check_l1_convergence(traj: Trajectory, phi0,
                         t_top: float = 0.2, levels: int = 6,
                         tol_l1: float | None = None,
                         tolerance: float = DEFAULT_TOLERANCE) -> EstimateReport:
    """|| phi(t_m) - phi0 ||_L1 decreases along t_m = t_top 2^-m and ends small.

    Nodes where phi0 is singular carry no L1 mass on the grid and are left
    out of the distance.
    """
    pack = traj.pack
    surface = pack.surface
    vals0 = phi0.values if isinstance(phi0, ScalarField) else np.asarray(phi0)
    finite = np.isfinite(vals0)

    times = [t_top * 2.0 ** (-m) for m in range(levels)]
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
    if tol_l1 is None:
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
        parameters={"t_top": t_top, "levels": levels, "tol_l1": float(tol_l1)},
        margin=float(margin),
        witness=witness,
        tolerance=tolerance,
        aux={"times": times, "distances": distances,
             "phi0_l1_norm": float(norm0)},
    )


# ---------------------------------------------------------------------------
# negative control


def divergence_signature(trajs, t0: float = 0.0,
                         growth_threshold: float = 1.25) -> dict:
    """Detect the non-removable singularity fingerprint across an eps family.

    A family (eps decreasing) diverges when some run loses metric positivity
    outright, or when the two-sided density-ratio constant keeps growing by
    at least ``growth_threshold`` per eps-halving instead of stabilizing.
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
            if state.t < t0 - 1e-12:
                continue
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
        or (growth and min(growth) >= growth_threshold))
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


def _phidot_lower(fam, params, _datum) -> EstimateReport:
    if "t0" not in params or "tprime" not in params:
        raise ConfigurationError(
            "phidot_lower requires t0=<checkpoint> and tprime=<time> "
            "parameters")
    return check_phidot_lower(fam[0], params["t0"], params["tprime"])


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


# Each check looks its checker up by module-level name when it runs, so a
# checker replaced on this module (a test double, a tracer) is the one used.
# Order is the default battery's print order.
ESTIMATES = {
    "upper_barrier": Estimate(PER_RUN, lambda fam, p, _: check_upper_barrier(
        fam[0], p.get("t0", fam[0].checkpoint_times[0])), True),
    "lower_barrier": Estimate(PER_RUN, lambda fam, p, _: check_lower_barrier(
        fam[0], p.get("t0", fam[0].checkpoint_times[0])), True),
    "hstat": Estimate(PER_RUN, lambda fam, p, _: check_hstat(
        fam[0], p.get("t0")), True),
    "density_ratio": Estimate(PER_RUN, lambda fam, p, _: check_density_ratio(
        fam[0], p.get("t0", _first_from(fam[0].checkpoint_times, 0.1,
                                        fam[0].checkpoint_times[0]))), True),
    "comparison": Estimate(LEVEL_PAIRS, lambda fam, p, _: check_comparison(
        *fam), True),
    "monotone_eps": Estimate(EPS_FAMILIES, _monotone_eps, True),
    "osc": Estimate(LEVEL_FAMILIES, lambda fam, p, _: check_osc(fam), True),
    "phidot_lower": Estimate(PER_RUN, _phidot_lower, False),
    "reparam_ordering": Estimate(
        LEVEL_PAIRS, lambda fam, p, _: check_reparam_ordering(
            *fam, p.get("c_tilde", 0.9)), False),
    "lower_envelope": Estimate(PER_RUN, lambda fam, p, _: check_lower_envelope(
        fam[0], p.get("l", 2.0)), False),
    "l1_convergence": Estimate(
        PER_RUN, lambda fam, p, datum: check_l1_convergence(
            fam[0], datum.phi0, t_top=p.get("t_top", 0.2)), False),
    "signature": Estimate(SIGNATURE_FAMILY, _signature, False),
}
