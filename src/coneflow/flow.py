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
factor of the Jacobian is held for a whole eps family, the runs at one eps
that differ only in the truncation level j, across steps and changes of dt,
and rebuilt only when a step on it fails to halve the residual.  The members
of a family step in turn, one accepted step each, on the same deterministic
dt ramp, so a factor built for one level at step n serves the others at
step n as well.  Every member still solves its own equation to newton_tol:
its iterates depend on its family only to that tolerance, and never on
timing or on how many families run in parallel.

Between rebuilds the flow's Jacobian J = I - dt*diag(1/density)*DD moves
away from the held J0, built at (density0, dt0), and the two are related
exactly by J = I + S(J0 - I) with S = diag((dt/dt0)*density0/density).  The
plain chord step leaves the error |1 - s| on the stiff modes, the pole rows
and grid-scale modes where dt*ddbar/density >> 1: at N=128 it contracts the
residual by a median 0.26 per solve on a stale factor, against 0.05 for a
plain step that follows a rescaled one.  Every second solve of a step on a
stale factor therefore multiplies the residual by S^-1 node by node, a
step exact on the stiff modes, so each kind of step damps what the other
leaves.  It is CVODE's scalar 2/(1 + gamma/gamma_bar) correction made per
node and alternated (see ``_chord``).  On the N=128 doubled-grid run the
solves fall from 901 to 605 on the same 11 factorizations.

The levels of one eps solve nearly the same system, so a member whose step
starts at the same (t, dt) as the family's last accepted step starts its
chord iteration from that sibling's Newton correction (converged iterate
minus explicit-Euler predictor) added to its own predictor, and takes the
rescaled step first (see ``_attempt_newton``).  It still converges to
newton_tol on its own equation.  On the README sweep the solves fall from
2,000 to 1,091 on the same 20 factorizations; a solo run records no
correction and is unchanged.

The static Monge-Ampere solve uses the same iteration, with plain steps
only.  Both Jacobians are the 5-point ddbar stencil plus a diagonal, so
their sparsity pattern is exactly symmetric, and the factor is ordered by
minimum degree on the pattern of A^T + A rather than by SuperLU's default
COLAMD, which orders columns for unsymmetric matrices.  That cuts the
fill of L + U by a third (167k against 248k nonzeros at N=64, 0.97M
against 1.44M at N=128) and each triangular solve by about 40% at N=128,
where the solves dominate a run.

A trajectory records checkpoint snapshots plus per-step scalar series; the
static solver lives here as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .background import BackgroundPack
from .errors import (ConeflowError, ConfigurationError, PositivityError,
                     SolverError)
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


@dataclass(eq=False)
class _Held:
    """The LU factor carried between chord solves, and where it was built.

    ``weight`` is the ``weight(aux)`` of ``_chord`` at the factor's build
    point, kept in one buffer that every later build of the holder
    overwrites; it stays None when the solves pass no weight.

    A family's holder (``siblings`` set) also keeps the Newton correction
    of the last accepted implicit step, its converged iterate minus its
    explicit-Euler predictor, and the (t, dt) of that step (``at``).  The
    buffer is allocated at the first acceptance, after the first factor,
    and overwritten in place.  A solo run's holder records nothing.
    """

    lu: object = None
    weight: np.ndarray | None = None
    siblings: bool = False
    correction: np.ndarray | None = None
    at: tuple | None = None


def _chord(u, residual, jacobian, held, tol, max_iters, halvings,
           weight=None, rescaled_first=False):
    """Drive the max-norm residual at u to <= tol on a held LU factor.

    ``residual(u)`` returns (r, aux), or (None, None) where u leaves the
    domain; ``jacobian(aux)`` is the sparse Jacobian at that u.
    ``held.lu`` is the LU factor carried in from earlier solves and out to
    later ones, None when there is none; in a flow those solves are the
    steps of every run of one eps family, so the factor may come from
    another truncation level's iterate.  A full step on the held factor is
    taken when it at least halves the residual.  Otherwise a stale factor
    (built at an earlier iterate) is dropped, rebuilt at u and the step
    retried; the step of a fresh factor is Newton's, and it is damped by up
    to ``halvings`` halvings until the residual decreases.  Every step taken
    counts against ``max_iters``.

    ``weight(aux)``, when given, is a positive per-node weight w for which
    the Jacobian is J = I + diag(w0/w)(J0 - I), J0 being the held factor's
    matrix and w0 the weight where it was built.  The plain step J0^-1 r
    is exact on the modes where J0 is near I and leaves the error
    |1 - w0/w| where J0 - I dominates; the rescaled step J0^-1 (w/w0) r is
    exact on the latter and leaves |1 - w/w0| on the former.  On a stale
    factor the solves from the second, fourth, ... iterate of a call are
    rescaled, so each step damps what the other leaves; the first solve of
    a call and every solve on a fresh factor stay plain.  With
    ``rescaled_first`` the order flips, and the first, third, ... solves on
    a stale factor are rescaled: a call that starts from a family sibling's
    correction has its smooth modes in place already, and what is left sits
    on the stiff divisor and pole-row modes where the levels differ, which
    the rescaled step is exact on.  This is CVODE's
    correction of a stale Newton matrix (Hindmarsh et al., ACM TOMS 31,
    2005), which scales by the single ratio 2/(1 + gamma/gamma_bar); here
    the ratio is per node, and it alternates with the plain step.  Only the
    order of the two kinds of step depends on ``rescaled_first``; the
    convergence test, the halving and rebuild rule and the damping do not.
    So a call that starts from a sibling still drives its own residual to
    tol, and its result depends on the family only to that tolerance,
    never on ``--jobs``, which only spreads whole families over threads.

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
        if held.lu is None:
            held.lu = spla.splu(jacobian(aux).tocsc(),
                                permc_spec="MMD_AT_PLUS_A")
            # the weight buffer goes after the factor: allocated before
            # it, the N=128 run's peak RSS read 95.8 MB in 3 of 8 processes
            # against 90.0-90.4 MB
            if weight is not None:
                if held.weight is None:
                    held.weight = weight(aux)
                else:
                    held.weight[:] = weight(aux)
            fresh = True
        rhs = -res
        if (weight is not None and not fresh
                and len(history) % 2 == int(rescaled_first)):
            rhs *= weight(aux) / held.weight
        delta = held.lu.solve(rhs)
        lam = 1.0
        res_new, aux_new, norm_new = evaluate(u + delta)
        if not norm_new <= max(0.5 * norm, tol):
            if not fresh:
                held.lu = None      # drop first: one factor alive at a time
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
    the step is order preserving.  ``held`` carries the family's one LU
    factor between steps (see ``_chord``); it is not keyed by dt or by run,
    because a factor built at the previous dt, or for another truncation
    level at this dt, usually still contracts.  The step is accepted
    only at max-norm residual <= newton_tol.

    The chord weight is w = density/dt: the Jacobian at (density, dt) is
    exactly I + diag(w0/w)(J0 - I) against the factor's J0, built at
    (density0, dt0), so the rescaled solves of ``_chord`` correct a changed
    dt and a moved density node by node.

    The iteration starts at the explicit-Euler predictor base + dt*phi_dot,
    or at base itself where the predictor leaves the domain.  On a family's
    holder, a step at the same (t, dt) as the last accepted implicit step
    there (a sibling level's) starts instead at its own predictor plus that
    sibling's correction c = v* - base - dt*phi_dot, and ``_chord`` takes
    the rescaled step first: the correction puts the smooth modes in place,
    and what is left sits on the stiff divisor and pole-row modes where the
    levels differ.  The start is checked for positivity like the predictor.
    A converged step writes its own correction in place, for the next
    member.  The start moves only how fast the step converges: each member
    still solves its own equation to newton_tol, so its result depends on
    the family only to that tolerance, and never on ``--jobs``.  On the
    README sweep the same start with the plain step first rebuilt 28
    factors rather than 20.  The sibling's raw increment u* - phi as the
    start instead had 109 of 408 steps accepted with no solve, at
    residuals just under newton_tol, and drifted three times as far from
    a newton_tol = 1e-12 reference (8.7e-10 against 2.9e-10).

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

    predictor = base + dt * state.phi_dot.values.ravel()
    sibling = held.siblings and held.at == (state.t, dt)
    v = predictor + held.correction if sibling else predictor
    if (path + dd @ v).min() <= 0.0:
        v, sibling = base, False

    def residual(vec):
        dens = path + dd @ vec
        if dens.min() <= 0.0:
            return None, None
        return vec - base - dt * (np.log(dens / cone) + f_twist), dens

    def jacobian(dens):
        return sp.identity(n * n, format="csr") - dt * sp.diags(1.0 / dens) @ dd

    v, _, cause = _chord(v, residual, jacobian, held, control.newton_tol,
                         control.max_newton_iters, halvings=12,
                         weight=lambda dens: dens / dt, rescaled_first=sibling)
    if cause is not None:
        return cause
    if held.siblings:
        if held.correction is None:
            held.correction = v - predictor
        else:
            np.subtract(v, predictor, out=held.correction)
        held.at = (state.t, dt)
    return (v + center).reshape(surface.shape)


def _finalize(pack: BackgroundPack, state: FlowState, phi_new: np.ndarray,
              t_new: float):
    """Validate and package a step accepted at t_new; raises on positivity
    loss.  Returns the new state and its metric density."""
    density = metric_density_values(pack, t_new, phi_new)
    phi_dot = flow_rhs_values(pack, t_new, phi_new, density=density)
    return FlowState(
        t=t_new,
        phi=ScalarField(pack.surface, phi_new, tag=f"phi[t={t_new:.6g}]"),
        phi_dot=ScalarField(pack.surface, phi_dot, tag=f"phidot[t={t_new:.6g}]"),
        min_metric_density=float(density.min()),
        step_count=state.step_count + 1,
        rejected_steps=state.rejected_steps,
    ), density


# ---------------------------------------------------------------------------
# trajectory driver


def _series_append(series, state, density, pack, scan):
    """One row of ``SERIES_COLUMNS`` over the scanned nodes; ``density`` is
    the state's metric density."""
    phi, dot = state.phi.values, state.phi_dot.values
    ratio = density / pack.omega_cone_eps.values
    if scan is not None:
        phi, dot, ratio = phi[scan], dot[scan], ratio[scan]
    sup_phi, inf_phi = float(phi.max()), float(phi.min())
    row = (state.t, sup_phi, inf_phi, sup_phi - inf_phi, float(dot.max()),
           float(dot.min()), float(ratio.min()), float(ratio.max()))
    for name, value in zip(SERIES_COLUMNS, row):
        series[name].append(value)


def _steps(pack, j, phi_j, control, checkpoints, run_id, scan_exclude, held):
    """The stepping loop of one run: yields after each accepted step and
    returns its Trajectory.  ``held`` is the ``_Held`` factor handed to
    every implicit attempt (see ``_chord``); the explicit scheme ignores it."""
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
    _series_append(series, state, density0, pack, scan)

    snapshots = []
    termination = Termination.REACHED_T
    dt_ctrl = control.dt_init
    rejected_total = 0

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
                        t_new = state.t + dt
                        if at_checkpoint(t_new, target):
                            t_new = target
                        accepted, density = _finalize(pack, state, out, t_new)
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
            state = accepted
            _series_append(series, state, density, pack, scan)
            # freed before the next solve: alive across its LU factor, the
            # array fragments the heap and lifts peak RSS by about 1.5 MB
            del density
            yield
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


def _advance(steps):
    """Take one step of a ``_steps`` generator: None while the run goes
    on, its Trajectory once it has ended."""
    try:
        next(steps)
    except StopIteration as done:
        return done.value
    return None


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

    This is a family of one: the run holds its own LU factor.  The runs of
    ``run_family`` share theirs, so a run there agrees with this one to
    newton_tol, not bit for bit.
    """
    steps = _steps(pack, j, phi_j, control, checkpoints, run_id,
                   scan_exclude, held=_Held())
    while (traj := _advance(steps)) is None:
        pass
    return traj


def run_family(pack: BackgroundPack, members, control: StepControl,
               checkpoints, scan_exclude: np.ndarray | None = None) -> list:
    """Integrate the runs of one eps in turn on one held LU factor.

    ``members`` lists (run_id, j, phi_j), usually one per truncation level.
    Each live member takes one accepted step per round, in list order, and
    every implicit attempt shares the family's factor (see ``_chord``).  A
    member whose step starts at the (t, dt) of the previous member's
    accepted step starts from that member's Newton correction and takes the
    rescaled chord step first (see ``_attempt_newton``); the first member of
    a round, and a member whose dt was halved, start from their own
    predictor.  A member keeps its own convergence check to newton_tol, its
    own rejections, dt halving and termination, so it agrees with its
    ``run_flow`` run to that tolerance, whatever ``--jobs``.  A ConeflowError
    ends its own member only.

    Returns, in member order, each member's Trajectory or the ConeflowError
    that ended it.  A family of one goes through ``run_flow`` itself, so
    profilers and the benchmark's span tracer see every solo run under that
    one name.
    """
    if len(members) == 1:
        (run_id, j, phi_j), = members
        try:
            return [run_flow(pack, j, phi_j, control, checkpoints,
                             run_id=run_id, scan_exclude=scan_exclude)]
        except ConeflowError as exc:
            return [exc]
    held = _Held(siblings=True)
    outcomes = [None] * len(members)
    live = {i: _steps(pack, j, phi_j, control, checkpoints, run_id,
                      scan_exclude, held)
            for i, (run_id, j, phi_j) in enumerate(members)}
    while live:
        for i, steps in list(live.items()):
            try:
                outcomes[i] = _advance(steps)
            except ConeflowError as exc:
                outcomes[i] = exc
            if outcomes[i] is not None:
                del live[i]
    return outcomes


# ---------------------------------------------------------------------------
# static complex Monge-Ampere solve


def static_ma_solve(surface: ModelSurface, data_density: np.ndarray,
                    coupling: np.ndarray | float = 0.0,
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

    u, history, cause = _chord(np.zeros(w.size), residual,
                               lambda source: dd - sp.diags(source),
                               _Held(), tol, max_iters, halvings=20)
    if cause is Rejection.ITERATIONS:
        raise SolverError(
            f"static solve did not reach {tol:g} in {max_iters} iterations",
            residual_history=history)
    if cause is not None:
        raise SolverError("static solve stagnated", residual_history=history)
    return ScalarField(surface, u.reshape(surface.shape), tag="ma_solution")
