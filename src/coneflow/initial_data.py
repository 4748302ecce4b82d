"""Initial potentials and the flow-ready truncated levels.

Four families of initial data are provided:

* ``smooth``: a bounded trigonometric potential (admissible for small c),
* ``donaldson``: the model cone potential ``c * |s|^(2 gamma)``,
* ``zero_lelong``: unbounded with zero Lelong number,
  ``-c * softclamp(-log|s|^2)^alpha + c`` with ``alpha`` in (0, 1),
* ``log_pole``: ``(c/2) log|s|^2``, a genuine positive-Lelong pole kept as an
  out-of-hypothesis control.

Each kind is declared once, in ``_DECLARATIONS``: the parameters it takes
with their defaults, the range they must lie in, and its formula in
x = |s|^2.  ``make_initial`` evaluates the formula at |s|^2.  A flow at
regularization level eps starts from ``flow_level_values``: the same
formula at eps^2 + |s|^2, the section smoothed at scale eps, truncated from
below by the soft maximum ``phi_j = sigma * logaddexp(phi/sigma, -j/sigma)``,
which is smooth, at most ``sigma ln 2`` above ``max(phi, -j)`` and
decreasing in j.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, PositivityError
from .surfaces import (
    DivisorData,
    ModelSurface,
    ScalarField,
    SurfaceKind,
    ddbar_density_values,
    haversine,
)

#: sharpness of the soft clamp inside the zero-Lelong profile
_CLAMP_TAU = 0.5


class DatumKind(enum.Enum):
    SMOOTH = "smooth"
    DONALDSON_CONE = "donaldson"
    ZERO_LELONG_UNBOUNDED = "zero_lelong"
    LOG_POLE = "log_pole"

    @property
    def singular(self) -> bool:
        """Whether the datum is -inf on its divisor."""
        return self in (DatumKind.ZERO_LELONG_UNBOUNDED, DatumKind.LOG_POLE)


@dataclass(eq=False)
class InitialDatum:
    surface: ModelSurface
    divisor: DivisorData | None
    kind: DatumKind
    phi0: ScalarField
    params_used: dict
    # nodes that the extremum scans and certificates skip: the divisor nodes
    # of a singular kind, and a log pole's halo (the stencil smears the
    # point mass over a few rings, so a chart-radius halo is skipped)
    scan_exclude: np.ndarray


def softmax_pair(a: np.ndarray, b: float, sigma: float) -> np.ndarray:
    """sigma * logaddexp(a/sigma, b/sigma): smooth max, within sigma*ln2 above."""
    return sigma * np.logaddexp(a / sigma, b / sigma)


def _eligible_mask(surface: ModelSurface, singular: np.ndarray | None) -> np.ndarray:
    """Nodes whose 5-point stencil avoids every singular node."""
    ok = np.ones(surface.shape, dtype=bool)
    if singular is None or not singular.any():
        return ok
    bad = singular.copy()
    for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        bad |= np.roll(singular, shift, axis=ax)
    # rolling along the colatitude axis wraps across the poles on the sphere
    # grid; the wrapped entries are spurious but only ever enlarge the
    # exclusion by single pole-row nodes, which is harmless
    return ~bad


def psh_margins(surface: ModelSurface, values: np.ndarray,
                singular: np.ndarray | None,
                exclude: np.ndarray | None = None) -> tuple[float, float]:
    """Minimum of the perturbed density over eligible nodes.

    Returns ``(absolute, relative)`` where relative is measured against the
    local area weight, so admissibility is ``relative >= -tol``.  ``exclude``
    drops further nodes from the scan on top of the singular one-rings.
    """
    patched = np.where(np.isfinite(values), values, 0.0)
    density = surface.area_weight + ddbar_density_values(surface, patched)
    ok = _eligible_mask(surface, singular)
    if exclude is not None:
        ok &= ~exclude
    absolute = float(density[ok].min())
    relative = float((density[ok] / surface.area_weight[ok]).min())
    return absolute, relative


def _chart_radius_grid(surface: ModelSurface, centre: tuple) -> np.ndarray:
    """Stereographic radius tan(d/2) of every node from a sphere point."""
    hav = haversine(surface, centre)
    dist = 2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0)))
    return np.tan(0.5 * dist)


def _smooth(surface: ModelSurface, _x, p: dict) -> np.ndarray:
    a0, a1 = surface.meshgrid()
    m1, m2 = int(p["m1"]), int(p["m2"])
    if surface.kind is SurfaceKind.TORUS:
        return p["c"] * np.cos(2.0 * np.pi * (m1 * a0 + m2 * a1))
    # restriction of the polynomial z^m1 Re((x+iy)^m2): smooth at poles
    return p["c"] * np.cos(a0) ** m1 * np.sin(a0) ** m2 * np.cos(m2 * a1)


def _zero_lelong(_surface, x: np.ndarray, p: dict) -> np.ndarray:
    profile = softmax_pair(-np.log(x), 1.0, _CLAMP_TAU)
    # -inf on the divisor whatever the sign of c
    return np.where(x > 0.0, -p["c"] * profile ** p["alpha"] + p["c"], -np.inf)


class _Declaration(NamedTuple):
    """What one datum kind takes and how it is evaluated."""

    #: every parameter the kind takes, with its default
    defaults: dict
    #: whether the parameters lie in range, and the message when not
    valid: Callable[[dict], bool]
    invalid: str
    #: (surface, x, parameters) -> values, with x = |s|^2 (None without a
    #: divisor); the smooth kind does not read x
    formula: Callable[[ModelSurface, np.ndarray | None, dict], np.ndarray]


_DECLARATIONS = {
    DatumKind.SMOOTH: _Declaration(
        {"c": 0.01, "m1": 1, "m2": 0},
        lambda p: all(p[m] >= 0 and p[m].is_integer() for m in ("m1", "m2")),
        "mode numbers must be nonnegative integers", _smooth),
    DatumKind.DONALDSON_CONE: _Declaration(
        {"c": 0.05, "gamma": 0.5}, lambda p: 0.0 < p["gamma"] <= 1.0,
        "cone exponent gamma={gamma} outside (0, 1]",
        lambda _s, x, p: p["c"] * x ** p["gamma"]),
    DatumKind.ZERO_LELONG_UNBOUNDED: _Declaration(
        {"c": 0.05, "alpha": 0.5}, lambda p: 0.0 < p["alpha"] < 1.0,
        "alpha={alpha} outside (0, 1)", _zero_lelong),
    DatumKind.LOG_POLE: _Declaration(
        {"c": 0.2}, lambda p: p["c"] > 0.0,
        "log pole coefficient must be positive",
        lambda _s, x, p: 0.5 * p["c"] * np.log(x)),
}


def make_initial(surface: ModelSurface, divisor: DivisorData | None,
                 kind: DatumKind, params: dict) -> InitialDatum:
    """Build an initial potential with its psh margins.

    The datum is its kind's formula at x = |s|^2.  Raises on a parameter
    the kind does not take or out of its range, and when the datum fails
    the psh admissibility check away from its singular nodes; the
    zero-Lelong family instead halves its amplitude until the check passes
    and records the value used.
    """
    if kind is not DatumKind.SMOOTH and divisor is None:
        raise ConfigurationError(f"{kind.value} datum needs a divisor")
    declaration = _DECLARATIONS[kind]
    unknown = [name for name in params if name not in declaration.defaults]
    if unknown:
        raise ConfigurationError(
            f"{kind.value} takes no parameter {', '.join(unknown)} "
            f"(its parameters: {', '.join(declaration.defaults)})")
    p = {name: float(params.get(name, default))
         for name, default in declaration.defaults.items()}
    if not declaration.valid(p):
        raise ConfigurationError(declaration.invalid.format(**p))

    x = None if divisor is None else divisor.s_h_sq
    mask = divisor.node_mask() if kind.singular else None
    exclude = np.zeros(surface.shape, dtype=bool) if mask is None else mask
    if kind is DatumKind.LOG_POLE:
        # the stencil defect of a log pole at ring q is ~ c/(2 h^2 q^4), so
        # the smeared point mass stays visible out to ~sqrt(N) rings; skip a
        # halo of chart radius 1.5/sqrt(N), which still vanishes under
        # refinement
        halo = 1.5 / np.sqrt(surface.resolution)
        for coords in divisor.point_coords:
            exclude = exclude | (_chart_radius_grid(surface, coords) < halo)

    shrinks = kind is DatumKind.ZERO_LELONG_UNBOUNDED
    for _ in range(20 if shrinks else 1):
        with np.errstate(divide="ignore"):
            values = declaration.formula(surface, x, p)
        _, relative = psh_margins(surface, values, mask, exclude)
        if relative >= -1e-6:
            break
        if shrinks:
            p["c"] *= 0.5
    else:
        raise PositivityError(
            f"{kind.value} datum rejected: relative psh margin {relative:.3e} "
            "below -1e-6" + (f" even at c={p['c']:.2e}" if shrinks else ""))

    phi0 = ScalarField(surface, values, tag=f"phi0[{kind.value}]", singular_mask=mask)

    return InitialDatum(
        surface=surface,
        divisor=divisor,
        kind=kind,
        phi0=phi0,
        params_used=p,
        scan_exclude=exclude,
    )


def smoothed_datum_values(datum: InitialDatum, epsilon: float) -> np.ndarray:
    """The datum's own formula at x = eps^2 + |s|^2 in place of |s|^2.

    A raw singular profile dips across one cell with second differences far
    beyond any admissible density, so the grid cannot carry it into a flow.
    A flow at regularization level eps therefore receives the datum with the
    section smoothed at the same scale, matching the smoothing the equation
    itself applies to the cone weight; the replacement converges pointwise
    to the raw datum away from the divisor as eps drops.  A datum without a
    divisor comes back unchanged.
    """
    if epsilon <= 0.0:
        raise ConfigurationError("epsilon must be positive")
    if datum.divisor is None:
        return datum.phi0.values.copy()
    return _DECLARATIONS[datum.kind].formula(
        datum.surface, epsilon**2 + datum.divisor.s_h_sq, datum.params_used)


def flow_level_values(datum: InitialDatum, epsilon: float,
                      j: float | None = None,
                      sigma: float = 0.25) -> ScalarField:
    """Flow-ready initial level: eps-smoothed datum, optionally j-truncated."""
    if sigma <= 0.0:
        raise ConfigurationError("sigma must be positive")
    vals = smoothed_datum_values(datum, epsilon)
    tag = f"phi_j[{datum.kind.value}, eps={epsilon:g}"
    if j is not None:
        vals = softmax_pair(vals, -float(j), sigma)
        tag += f", j={j:g}"
    return ScalarField(datum.surface, vals, tag=tag + "]")
