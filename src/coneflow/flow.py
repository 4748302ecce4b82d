"""Time integration of the regularized potential flow.

The unknown is the potential phi(t) relative to the moving regularized
background: its evolution is

    d phi / dt = log( density(path(t) + ddbar phi) / density(cone) ) + F

with the cone background and the twist function F frozen in the pack.  Two
steppers are provided: a two-stage explicit scheme with a PI step controller
for cross-checks, and a backward-Euler Newton scheme whose linearization
``I - dt * diag(1/density) * DD`` is an M-matrix, making each implicit step
monotone.  That monotonicity is what the comparison certificates lean on.

A trajectory records checkpoint snapshots plus per-step scalar series; the
static solver and the exponential time reparametrization used by the
long-time certificates live here as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .background import BackgroundPack
from .errors import ConfigurationError, PositivityError, SolverError
from .surfaces import ModelSurface, ScalarField, ddbar_density_values

#: column order shared by the series block and the CSV exporter
SERIES_COLUMNS = ("t", "sup_phi", "inf_phi", "osc_phi",
                  "sup_phidot", "inf_phidot", "min_ratio", "max_ratio")


class Scheme(enum.Enum):
    EXPLICIT_RK2 = "explicit_rk2"
    SEMI_IMPLICIT_NEWTON = "semi_implicit_newton"


class Termination(enum.Enum):
    REACHED_T = "reached_T"
    STEP_FLOOR = "step_floor"
    POSITIVITY_LOSS = "positivity_loss"


@dataclass(frozen=True)
class StepControl:
    scheme: Scheme = Scheme.SEMI_IMPLICIT_NEWTON
    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    safety: float = 0.8
    error_tol: float = 1e-6
    newton_tol: float = 1e-10
    max_newton_iters: int = 30

    def __post_init__(self):
        if not (0.0 < self.dt_min < self.dt_init <= self.dt_max):
            raise ConfigurationError(
                f"need 0 < dt_min < dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not (0.0 < self.safety <= 1.0):
            raise ConfigurationError(f"safety factor {self.safety} outside (0, 1]")
        if self.error_tol <= 0.0 or self.newton_tol <= 0.0:
            raise ConfigurationError("tolerances must be positive")
        if self.max_newton_iters < 1:
            raise ConfigurationError("need at least one Newton iteration")


@dataclass(eq=False)
class FlowState:
    t: float
    phi: ScalarField
    phi_dot: ScalarField
    min_metric_density: float
    step_count: int = 0
    rejected_steps: int = 0


@dataclass(eq=False)
class Trajectory:
    run_id: str
    pack: BackgroundPack
    j: float
    initial_state: FlowState
    snapshots: list
    series: dict
    termination: Termination
    # nodes dropped from extremum scans (divisor nodes of singular data)
    scan_exclude: np.ndarray | None = None
    control: StepControl | None = None

    @property
    def checkpoint_times(self) -> list:
        return [s.t for s in self.snapshots]

    def state_at(self, t: float) -> FlowState:
        for s in self.snapshots:
            if abs(s.t - t) <= 1e-12 * max(1.0, abs(t)):
                return s
        raise ConfigurationError(f"no snapshot at t={t}")

    def phi_interp(self, t: float) -> np.ndarray:
        """Potential at time t, linear between recorded states."""
        states = [self.initial_state] + self.snapshots
        times = [s.t for s in states]
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ConfigurationError(
                f"t={t} outside trajectory coverage [{times[0]}, {times[-1]}]"
            )
        t = min(max(t, times[0]), times[-1])
        hi = int(np.searchsorted(times, t))
        if hi == 0:
            return states[0].phi.values.copy()
        if hi >= len(times):
            return states[-1].phi.values.copy()
        lo = hi - 1
        w = (t - times[lo]) / (times[hi] - times[lo])
        return (1.0 - w) * states[lo].phi.values + w * states[hi].phi.values


# ---------------------------------------------------------------------------
# right-hand side


def metric_density_values(pack: BackgroundPack, t: float,
                          phi_values: np.ndarray) -> np.ndarray:
    """Density of path(t) + ddbar(phi), the evolving metric."""
    return pack.omega_path_eps(t) + ddbar_density_values(pack.surface, phi_values)


def flow_rhs_values(pack: BackgroundPack, t: float, phi_values: np.ndarray,
                    density: np.ndarray | None = None) -> np.ndarray:
    if density is None:
        density = metric_density_values(pack, t, phi_values)
    if density.min() <= 0.0:
        bad = np.argwhere(density <= 0.0)
        raise PositivityError(
            f"metric density non-positive at t={t:.6g} "
            f"({bad.shape[0]} nodes, min {density.min():.3e})",
            nodes=[tuple(ix) for ix in bad[:8]],
        )
    return np.log(density / pack.omega_cone_eps.values) + pack.F_eps.values


def flow_rhs_unreduced_values(pack: BackgroundPack, t: float,
                              phi_values: np.ndarray) -> np.ndarray:
    """Same velocity through the untransformed equation, for cross-checks.

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


# ---------------------------------------------------------------------------
# steppers


def _attempt_rk2(pack, state, control, dt):
    """One Heun step; returns (phi_new, embedded_err) or None when the
    embedded error exceeds the tolerance.  Stage positivity loss raises."""
    phi = state.phi.values
    k1 = state.phi_dot.values
    k2 = flow_rhs_values(pack, state.t + dt, phi + dt * k1)
    err = 0.5 * dt * float(np.abs(k2 - k1).max())
    if err > control.error_tol:
        return None
    phi_new = phi + 0.5 * dt * (k1 + k2)
    return phi_new, err


def _attempt_newton(pack, state, control, dt):
    """Backward-Euler solve of u = phi + dt*rhs(t+dt, u) by damped Newton.

    The Jacobian I - dt*diag(1/density)*DD is strictly diagonally dominant
    with nonpositive off-diagonal entries, so every solve is well posed and
    the step is order preserving.  Returns the new potential or None."""
    surface = pack.surface
    n = surface.resolution
    phi = state.phi.values.ravel()
    t_new = state.t + dt
    path = pack.omega_path_eps(t_new).ravel()
    cone = pack.omega_cone_eps.values.ravel()
    f_twist = pack.F_eps.values.ravel()
    dd = surface.ddbar_matrix()

    u = phi + dt * state.phi_dot.values.ravel()
    if (path + dd @ u).min() <= 0.0:
        u = phi.copy()

    def residual(vec):
        dens = path + dd @ vec
        if dens.min() <= 0.0:
            return None, None
        return vec - phi - dt * (np.log(dens / cone) + f_twist), dens

    res, dens = residual(u)
    if res is None:
        return None
    norm = float(np.abs(res).max())
    eye = sp.identity(n * n, format="csr")
    for _ in range(control.max_newton_iters):
        if norm <= control.newton_tol:
            return u.reshape(surface.shape)
        jac = eye - dt * sp.diags(1.0 / dens) @ dd
        delta = spla.splu(jac.tocsc()).solve(-res)
        lam = 1.0
        for _ in range(12):
            res_new, dens_new = residual(u + lam * delta)
            if res_new is not None:
                norm_new = float(np.abs(res_new).max())
                if norm_new < norm or norm_new <= control.newton_tol:
                    break
            lam *= 0.5
        else:
            return None
        u = u + lam * delta
        res, dens, norm = res_new, dens_new, norm_new
    if norm <= control.newton_tol:
        return u.reshape(surface.shape)
    return None


def _finalize(pack: BackgroundPack, state: FlowState, phi_new: np.ndarray,
              dt: float) -> FlowState:
    """Validate and package an accepted step; raises on positivity loss."""
    t_new = state.t + dt
    density = metric_density_values(pack, t_new, phi_new)
    phi_dot = flow_rhs_values(pack, t_new, phi_new, density=density)
    return FlowState(
        t=t_new,
        phi=ScalarField(pack.surface, phi_new, tag=f"phi[t={t_new:.6g}]"),
        phi_dot=ScalarField(pack.surface, phi_dot, tag=f"phidot[t={t_new:.6g}]"),
        min_metric_density=float(density.min()),
        step_count=state.step_count + 1,
        rejected_steps=state.rejected_steps,
    )


# ---------------------------------------------------------------------------
# trajectory driver


def _series_append(series, state, pack, scan):
    phi = state.phi.values
    dot = state.phi_dot.values
    dens = metric_density_values(pack, state.t, phi)
    ratio = dens / pack.omega_cone_eps.values
    sel = (lambda a: a[scan]) if scan is not None else (lambda a: a)
    series["t"].append(state.t)
    series["sup_phi"].append(float(sel(phi).max()))
    series["inf_phi"].append(float(sel(phi).min()))
    series["osc_phi"].append(float(sel(phi).max() - sel(phi).min()))
    series["sup_phidot"].append(float(sel(dot).max()))
    series["inf_phidot"].append(float(sel(dot).min()))
    series["min_ratio"].append(float(sel(ratio).min()))
    series["max_ratio"].append(float(sel(ratio).max()))


def run_flow(pack: BackgroundPack, j: float, phi_j: ScalarField | np.ndarray,
             control: StepControl, checkpoints, run_id: str | None = None,
             scan_exclude: np.ndarray | None = None) -> Trajectory:
    """Integrate from phi(0) = phi_j - k*chi through the checkpoint list.

    Checkpoints must be strictly increasing inside (0, T]; each one is hit
    exactly.  The integration is deterministic: the step sequence depends
    only on the config, never on timing.  Termination is recorded rather
    than raised so partial runs stay inspectable.
    """
    params = pack.params
    cps = [float(c) for c in checkpoints]
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be strictly increasing")
    if cps[0] <= 0.0 or cps[-1] > params.T + 1e-12:
        raise ConfigurationError(
            f"checkpoints must lie in (0, T={params.T:g}]")
    values = phi_j.values if isinstance(phi_j, ScalarField) else np.asarray(phi_j)
    if run_id is None:
        run_id = f"eps{params.epsilon:g}_j{j:g}"

    phi0 = values - params.k * pack.chi.values
    density0 = metric_density_values(pack, 0.0, phi0)
    if density0.min() <= 0.0:
        bad = np.argwhere(density0 <= 0.0)
        raise PositivityError(
            f"initial data loses metric positivity (min {density0.min():.3e})",
            nodes=[tuple(ix) for ix in bad[:8]],
        )
    initial_state = FlowState(
        t=0.0,
        phi=ScalarField(pack.surface, phi0, tag="phi[t=0]"),
        phi_dot=ScalarField(pack.surface, flow_rhs_values(pack, 0.0, phi0,
                                                          density=density0)),
        min_metric_density=float(density0.min()),
    )
    state = initial_state

    scan = None if scan_exclude is None else ~scan_exclude
    series = {name: [] for name in SERIES_COLUMNS}
    _series_append(series, state, pack, scan)

    snapshots = []
    termination = Termination.REACHED_T
    dt_ctrl = control.dt_init
    rejected_total = 0
    lost_positivity = False

    for target in cps:
        while state.t < target - 1e-13:
            if control.scheme is Scheme.SEMI_IMPLICIT_NEWTON:
                # deterministic ramp: resolve the log transient near t=0,
                # then coast at dt_max
                dt_want = min(max(state.t / 6.0, control.dt_init), control.dt_max)
            else:
                dt_want = dt_ctrl
            dt = min(dt_want, target - state.t)
            accepted = None
            last_err = None
            while accepted is None:
                try:
                    if control.scheme is Scheme.EXPLICIT_RK2:
                        out = _attempt_rk2(pack, state, control, dt)
                        if out is not None:
                            accepted = _finalize(pack, state, out[0], dt)
                            last_err = out[1]
                    else:
                        cand = _attempt_newton(pack, state, control, dt)
                        if cand is not None:
                            accepted = _finalize(pack, state, cand, dt)
                except PositivityError:
                    accepted = None
                    lost_positivity = True
                if accepted is not None:
                    break
                dt *= 0.5
                rejected_total += 1
                if dt < control.dt_min:
                    break
            if accepted is None:
                termination = (Termination.POSITIVITY_LOSS if lost_positivity
                               else Termination.STEP_FLOOR)
                break
            if control.scheme is Scheme.EXPLICIT_RK2 and last_err is not None:
                # PI-style growth keyed to the embedded error just accepted
                ratio = control.error_tol / max(last_err, 1e-300)
                factor = control.safety * min(ratio**0.35, 3.0)
                dt_ctrl = float(np.clip(dt * max(factor, 0.3),
                                        control.dt_init, control.dt_max))
            accepted.rejected_steps = rejected_total
            if abs(accepted.t - target) <= 1e-12 * max(1.0, target):
                accepted.t = target
            state = accepted
            _series_append(series, state, pack, scan)
        if termination is not Termination.REACHED_T:
            break
        snapshots.append(state)

    return Trajectory(
        run_id=run_id,
        pack=pack,
        j=float(j),
        initial_state=initial_state,
        snapshots=snapshots,
        series={k: np.array(v) for k, v in series.items()},
        termination=termination,
        scan_exclude=scan_exclude,
        control=control,
    )


# ---------------------------------------------------------------------------
# static complex Monge-Ampere solve


def static_ma_solve(surface: ModelSurface, data_density: np.ndarray,
                    coupling: np.ndarray | float = 0.0,
                    initial: np.ndarray | None = None,
                    tol: float = 1e-9, max_iters: int = 60) -> ScalarField:
    """Solve density(omega + ddbar u) = e^(u + G) * data by damped Newton.

    The e^u coupling makes the operator strictly monotone, so the discrete
    solution is unique; convergence is to max-norm residual <= tol.
    """
    data = np.asarray(data_density, dtype=float)
    if data.shape != surface.shape or data.min() <= 0.0:
        raise ConfigurationError("data density must be positive on the grid")
    g = np.broadcast_to(np.asarray(coupling, dtype=float), surface.shape)
    dd = surface.ddbar_matrix()
    w = surface.area_weight.ravel()
    rhs0 = (data * np.exp(g)).ravel()

    u = (np.zeros(surface.shape) if initial is None else initial).ravel().copy()
    history = []
    for _ in range(max_iters):
        source = rhs0 * np.exp(u)
        res = w + dd @ u - source
        norm = float(np.abs(res).max())
        history.append(norm)
        if norm <= tol:
            return ScalarField(surface, u.reshape(surface.shape), tag="ma_solution")
        jac = dd - sp.diags(source)
        delta = spla.splu(jac.tocsc()).solve(-res)
        lam = 1.0
        for _ in range(20):
            res_try = w + dd @ (u + lam * delta) - rhs0 * np.exp(u + lam * delta)
            if float(np.abs(res_try).max()) < norm:
                break
            lam *= 0.5
        else:
            raise SolverError("static solve stagnated", residual_history=history)
        u = u + lam * delta
    raise SolverError(
        f"static solve did not reach {tol:g} in {max_iters} iterations",
        residual_history=history,
    )


# ---------------------------------------------------------------------------
# exponential time reparametrization


@dataclass(eq=False)
class ReparamView:
    """u(t) = C e^t psi((1/C)(1 - e^{-t})) built over a trajectory's psi."""

    trajectory: Trajectory
    c_tilde: float

    def __post_init__(self):
        tmax = self.trajectory.pack.tmax
        floor = 0.0 if np.isinf(tmax) else 1.0 / tmax
        if self.c_tilde <= floor:
            raise ConfigurationError(
                f"C={self.c_tilde} must exceed 1/T_max={floor:g}")

    def pullback_time(self, t: float) -> float:
        return (1.0 - np.exp(-t)) / self.c_tilde

    def u_values(self, t: float) -> np.ndarray:
        if t < 0.0:
            raise ConfigurationError("reparametrized time must be >= 0")
        s = self.pullback_time(t)
        psi = self.trajectory.phi_interp(s)
        return self.c_tilde * np.exp(t) * psi

    def coverage(self) -> float:
        """Largest reparametrized time the source trajectory supports."""
        s_max = self.trajectory.snapshots[-1].t
        arg = 1.0 - self.c_tilde * s_max
        return np.inf if arg <= 0.0 else -np.log(arg)


def time_reparam(trajectory: Trajectory, c_tilde: float) -> ReparamView:
    if not trajectory.snapshots:
        raise ConfigurationError("trajectory has no snapshots to reparametrize")
    return ReparamView(trajectory=trajectory, c_tilde=c_tilde)
