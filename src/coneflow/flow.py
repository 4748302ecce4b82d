"""Time integration of the regularized potential flow.

The unknown is the potential phi(t) relative to the moving regularized
background: its evolution is

    d phi / dt = log( density(path(t) + ddbar phi) / density(cone) ) + F

with the cone background and the twist function F frozen in the pack.  Two
steppers are provided: a two-stage explicit scheme with a PI step controller
for cross-checks, and a backward-Euler scheme whose linearization
``I - dt * diag(1/density) * DD`` is an M-matrix, making each implicit step
monotone.  That monotonicity is what the comparison certificates lean on.

The implicit steps are solved by a chord iteration (Kelley, *Solving
Nonlinear Equations with Newton's Method*, SIAM 2003, ch. 5): one sparse LU
factor of the Jacobian is held for a whole run, across steps and changes of
dt, and rebuilt only when a step on it fails to halve the residual.  The
static Monge-Ampere solve uses the same iteration.  Both Jacobians are the
5-point ddbar stencil plus a diagonal, so their sparsity pattern is exactly
symmetric, and the factor is ordered by minimum degree on the pattern of
A^T + A rather than by SuperLU's default COLAMD, which orders columns for
unsymmetric matrices.  That cuts the fill of L + U by a third (167k against
248k nonzeros at N=64, 0.97M against 1.44M at N=128) and each triangular
solve by about 40% at N=128, where the solves dominate a run.

A trajectory records checkpoint snapshots plus per-step scalar series; the
static solver and the exponential time reparametrization used by the
long-time certificates live here as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

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


class Rejection(enum.Enum):
    """Why an attempted step (or a static solve) failed."""

    ERROR_TOL = "error_tol"          # embedded error above error_tol
    STALL = "stall"                  # damped Newton found no decrease
    ITERATIONS = "iterations"        # tolerance not met within max iters
    POSITIVITY = "positivity"        # a metric density went non-positive


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


#: the numeric StepControl fields, in declaration order; the type of each
#: default (float or int) is the type a config value or archive frame takes
CONTROL_FIELDS = tuple(f for f in fields(StepControl) if f.name != "scheme")


@dataclass(eq=False)
class FlowState:
    t: float
    phi: ScalarField
    phi_dot: ScalarField
    min_metric_density: float
    step_count: int = 0
    rejected_steps: int = 0


def at_checkpoint(t, checkpoint: float):
    """Whether a time (or an array of times) is the given checkpoint, up to
    the rounding that accumulating steps leaves on it."""
    return abs(t - checkpoint) <= 1e-12 * max(1.0, abs(checkpoint))


@dataclass(eq=False)
class Trajectory:
    run_id: str
    pack: BackgroundPack
    j: float
    initial_state: FlowState
    snapshots: list
    series: dict
    termination: Termination
    control: StepControl
    # nodes dropped from extremum scans (divisor nodes of singular data)
    scan_exclude: np.ndarray | None = None

    @property
    def checkpoint_times(self) -> list:
        return [s.t for s in self.snapshots]

    def checkpoint_index(self, t: float) -> int:
        """Position in ``snapshots`` of the checkpoint at time t."""
        for i, s in enumerate(self.snapshots):
            if at_checkpoint(s.t, t):
                return i
        raise ConfigurationError(f"t={t} is not a checkpoint of {self.run_id}")

    def state_at(self, t: float) -> FlowState:
        return self.snapshots[self.checkpoint_index(t)]

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


# ---------------------------------------------------------------------------
# steppers


def _attempt_rk2(pack, state, control, dt):
    """One Heun step; returns (phi_new, embedded_err), or Rejection.ERROR_TOL
    when the embedded error exceeds the tolerance.  Stage positivity loss
    raises."""
    phi = state.phi.values
    k1 = state.phi_dot.values
    k2 = flow_rhs_values(pack, state.t + dt, phi + dt * k1)
    err = 0.5 * dt * float(np.abs(k2 - k1).max())
    if err > control.error_tol:
        return Rejection.ERROR_TOL
    phi_new = phi + 0.5 * dt * (k1 + k2)
    return phi_new, err


def _chord(u, residual, jacobian, held, tol, max_iters, halvings):
    """Drive the max-norm residual at u to <= tol on a held LU factor.

    ``residual(u)`` returns (r, aux), or (None, None) where u leaves the
    domain; ``jacobian(aux)`` is the sparse Jacobian at that u.  ``held[0]``
    is the LU factor carried in from earlier solves and out to later ones,
    None when there is none.  A full step on the held factor is taken when
    it at least halves the residual.  Otherwise a stale factor (built at an
    earlier iterate) is dropped, rebuilt at u and the step retried; the step
    of a fresh factor is Newton's, and it is damped by up to ``halvings``
    halvings until the residual decreases.  Every step taken counts against
    ``max_iters``.

    The factor is ordered by minimum degree on A^T + A (``MMD_AT_PLUS_A``):
    the Jacobians passed in have a structurally symmetric pattern, for which
    that ordering leaves about a third less fill than the default COLAMD
    (0.97M against 1.44M nonzeros in L + U at N=128), and the triangular
    solves on the held factor get cheaper in proportion.

    Returns (u, residual history, None) on success and (u, history, cause)
    on failure.
    """
    res, aux = residual(u)
    if res is None:
        return u, [], Rejection.POSITIVITY
    norm = float(np.abs(res).max())
    history = [norm]
    fresh = False

    def evaluate(vec):
        r, a = residual(vec)
        return r, a, np.inf if r is None else float(np.abs(r).max())

    while not norm <= tol:
        if len(history) > max_iters:
            return u, history, Rejection.ITERATIONS
        if held[0] is None:
            held[0] = spla.splu(jacobian(aux).tocsc(),
                                 permc_spec="MMD_AT_PLUS_A")
            fresh = True
        delta = held[0].solve(-res)
        lam = 1.0
        res_new, aux_new, norm_new = evaluate(u + delta)
        if not norm_new <= max(0.5 * norm, tol):
            if not fresh:
                held[0] = None      # drop first: one factor alive at a time
                continue
            for _ in range(halvings - 1):
                if norm_new < norm:
                    break
                lam *= 0.5
                res_new, aux_new, norm_new = evaluate(u + lam * delta)
            if not norm_new < norm:
                cause = (Rejection.POSITIVITY if res_new is None
                         else Rejection.STALL)
                return u, history, cause
        u = u + lam * delta
        res, aux, norm = res_new, aux_new, norm_new
        history.append(norm)
        fresh = False
    return u, history, None


def _attempt_newton(pack, state, control, dt, held):
    """Backward-Euler solve of u = phi + dt*rhs(t+dt, u) by a chord iteration.

    The Jacobian I - dt*diag(1/density)*DD is strictly diagonally dominant
    with nonpositive off-diagonal entries, so every solve is well posed and
    the step is order preserving.  ``held`` carries the run's one LU factor
    between steps (see ``_chord``); it is not keyed by dt, because a factor
    built at the previous dt usually still contracts.  The step is accepted
    only at max-norm residual <= newton_tol.

    The iteration runs on v = u - c, with c the midrange of phi, and
    evaluates the density as path + DD v; ddbar kills constants, so this is
    the same equation.  It matters on fine grids: at N=128 the pole rows'
    Jacobian entries reach 1e6, so one rounding unit of an uncentered u
    (|u| ~ 1) moves the residual by about 1e-10, a floor just above the
    default newton_tol, while v is a few hundredths and resolves the
    residual far below it.

    Returns the new potential or the Rejection cause.
    """
    surface = pack.surface
    n = surface.resolution
    phi = state.phi.values.ravel()
    t_new = state.t + dt
    path = pack.omega_path_eps(t_new).ravel()
    cone = pack.omega_cone_eps.values.ravel()
    f_twist = pack.F_eps.values.ravel()
    dd = surface.ddbar_matrix()
    center = 0.5 * (phi.max() + phi.min())
    base = phi - center

    v = base + dt * state.phi_dot.values.ravel()
    if (path + dd @ v).min() <= 0.0:
        v = base

    def residual(vec):
        dens = path + dd @ vec
        if dens.min() <= 0.0:
            return None, None
        return vec - base - dt * (np.log(dens / cone) + f_twist), dens

    def jacobian(dens):
        return sp.identity(n * n, format="csr") - dt * sp.diags(1.0 / dens) @ dd

    v, _, cause = _chord(v, residual, jacobian, held, control.newton_tol,
                         control.max_newton_iters, halvings=12)
    if cause is not None:
        return cause
    return (v + center).reshape(surface.shape)


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
    than raised so partial runs stay inspectable; a run that stops short
    reports the cause of its last rejected attempt (positivity loss, or
    the step floor for any other cause).
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
    held = [None]       # the run's one LU factor, shared by every attempt

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
            while True:
                try:
                    if control.scheme is Scheme.EXPLICIT_RK2:
                        out = _attempt_rk2(pack, state, control, dt)
                        if not isinstance(out, Rejection):
                            out, last_err = out
                    else:
                        out = _attempt_newton(pack, state, control, dt, held)
                    if not isinstance(out, Rejection):
                        accepted = _finalize(pack, state, out, dt)
                        break
                    cause = out
                except PositivityError:
                    cause = Rejection.POSITIVITY
                dt *= 0.5
                rejected_total += 1
                if dt < control.dt_min:
                    break
            if accepted is None:
                termination = (Termination.POSITIVITY_LOSS
                               if cause is Rejection.POSITIVITY
                               else Termination.STEP_FLOOR)
                break
            if control.scheme is Scheme.EXPLICIT_RK2 and last_err is not None:
                # PI-style growth keyed to the embedded error just accepted
                ratio = control.error_tol / max(last_err, 1e-300)
                factor = control.safety * min(ratio**0.35, 3.0)
                dt_ctrl = float(np.clip(dt * max(factor, 0.3),
                                        control.dt_init, control.dt_max))
            accepted.rejected_steps = rejected_total
            if at_checkpoint(accepted.t, target):
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
    """Solve density(omega + ddbar u) = e^(u + G) * data by a chord iteration.

    The e^u coupling makes the operator strictly monotone, so the discrete
    solution is unique; convergence is to max-norm residual <= tol.  The
    factor is built at the first iterate and reused while it halves the
    residual (see ``_chord``), with a damped Newton step as the fallback;
    ``max_iters`` bounds the steps taken.
    """
    data = np.asarray(data_density, dtype=float)
    if data.shape != surface.shape or data.min() <= 0.0:
        raise ConfigurationError("data density must be positive on the grid")
    g = np.broadcast_to(np.asarray(coupling, dtype=float), surface.shape)
    dd = surface.ddbar_matrix()
    w = surface.area_weight.ravel()
    rhs0 = (data * np.exp(g)).ravel()

    def residual(vec):
        source = rhs0 * np.exp(vec)
        return w + dd @ vec - source, source

    u = (np.zeros(surface.shape) if initial is None else initial).ravel().copy()
    u, history, cause = _chord(u, residual,
                               lambda source: dd - sp.diags(source),
                               [None], tol, max_iters, halvings=20)
    if cause is Rejection.ITERATIONS:
        raise SolverError(
            f"static solve did not reach {tol:g} in {max_iters} iterations",
            residual_history=history)
    if cause is not None:
        raise SolverError("static solve stagnated", residual_history=history)
    return ScalarField(surface, u.reshape(surface.shape), tag="ma_solution")


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
