"""Initial potentials, the flow-ready truncated levels, and singularity diagnostics.

Four families of initial data are provided:

* ``smooth``: a bounded trigonometric potential (always admissible),
* ``donaldson``: the model cone potential ``c * |s|^(2 gamma)``,
* ``zero_lelong``: unbounded with zero Lelong number,
  ``-c * softclamp(-log|s|^2)^alpha + c`` with ``alpha`` in (0, 1),
* ``log_pole``: ``(c/2) log|s|^2``, a genuine positive-Lelong pole kept as an
  out-of-hypothesis control.

A flow at regularization level eps starts from ``flow_level_values``: the
datum with its section smoothed at scale eps, truncated from below by the
soft maximum ``phi_j = sigma * logaddexp(phi/sigma, -j/sigma)``, which is
smooth, at most ``sigma ln 2`` above ``max(phi, -j)`` and decreasing in j.

Diagnostics follow the chart picture at each divisor point: Lelong numbers
from the slope of circle means against log of the chart radius, and the
integrability index from a ratio test on dyadic shell quadratures of
``e^(-2 c phi)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PositivityError
from .surfaces import (
    DivisorData,
    ModelSurface,
    ScalarField,
    SurfaceKind,
    ddbar_density_values,
    geodesic_circle,
    sample_bilinear,
)

#: sharpness of the soft clamp inside the zero-Lelong profile
_CLAMP_TAU = 0.5

#: shell-ratio threshold below which a dyadic quadrature counts as convergent
_SHELL_RATIO_THRESHOLD = 0.95

_LN2 = float(np.log(2.0))


class DatumKind(enum.Enum):
    SMOOTH = "smooth"
    DONALDSON_CONE = "donaldson"
    ZERO_LELONG_UNBOUNDED = "zero_lelong"
    LOG_POLE = "log_pole"


@dataclass(eq=False)
class InitialDatum:
    surface: ModelSurface
    divisor: DivisorData | None
    kind: DatumKind
    phi0: ScalarField
    params_used: dict
    lelong: dict
    integrability: dict
    psh_margin: float
    psh_margin_rel: float
    # nodes excluded from admissibility scans (log poles: the stencil smears
    # the point mass over a few rings, so a chart-radius halo is skipped)
    psh_exclusion: np.ndarray | None = None

    @property
    def lelong_max(self) -> float:
        return max(self.lelong.values(), default=0.0)


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
    th, ph = surface.meshgrid()
    tp, pp = centre
    hav = (np.sin(0.5 * (th - tp)) ** 2
           + np.sin(th) * np.sin(tp) * np.sin(0.5 * (ph - pp)) ** 2)
    dist = 2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0)))
    return np.tan(0.5 * dist)


def make_initial(surface: ModelSurface, divisor: DivisorData | None,
                 kind: DatumKind, params: dict) -> InitialDatum:
    """Build an initial potential with its diagnostics.

    Raises when the datum fails the psh admissibility check away from its
    singular nodes; the zero-Lelong family instead shrinks its amplitude
    until the check passes and records the value used.
    """
    params = dict(params)
    if kind is not DatumKind.SMOOTH and divisor is None:
        raise ConfigurationError(f"{kind.value} datum needs a divisor")

    if kind is DatumKind.SMOOTH:
        c = float(params.setdefault("c", 0.01))
        m1 = int(params.setdefault("m1", 1))
        m2 = int(params.setdefault("m2", 0))
        a0, a1 = surface.meshgrid()
        if m1 < 0 or m2 < 0:
            raise ConfigurationError("mode numbers must be nonnegative")
        if surface.kind is SurfaceKind.TORUS:
            values = c * np.cos(2.0 * np.pi * (m1 * a0 + m2 * a1))
        else:
            # restriction of the polynomial z^m1 Re((x+iy)^m2): smooth at poles
            values = c * np.cos(a0) ** m1 * np.sin(a0) ** m2 * np.cos(m2 * a1)
        mask = None

    elif kind is DatumKind.DONALDSON_CONE:
        c = float(params.setdefault("c", 0.05))
        gamma = float(params.setdefault("gamma", 0.5))
        if not (0.0 < gamma <= 1.0):
            raise ConfigurationError(f"cone exponent gamma={gamma} outside (0, 1]")
        values = c * divisor.s_h_sq**gamma
        mask = None

    elif kind is DatumKind.ZERO_LELONG_UNBOUNDED:
        c = float(params.setdefault("c", 0.05))
        alpha = float(params.setdefault("alpha", 0.5))
        if not (0.0 < alpha < 1.0):
            raise ConfigurationError(f"alpha={alpha} outside (0, 1)")
        mask = divisor.node_mask()
        with np.errstate(divide="ignore"):
            neglog = -np.log(divisor.s_h_sq)
        clamped = softmax_pair(neglog, 1.0, _CLAMP_TAU)
        profile = np.where(np.isinf(neglog), np.inf, clamped)
        for _ in range(20):
            values = np.where(np.isinf(profile), -np.inf, -c * profile**alpha + c)
            absolute, relative = psh_margins(surface, values, mask)
            if relative >= -1e-6:
                break
            c *= 0.5
        else:
            raise PositivityError(
                f"zero-Lelong datum not admissible even at c={c:.2e} "
                f"(margin {relative:.3e})"
            )
        params["c"] = c

    elif kind is DatumKind.LOG_POLE:
        c = float(params.setdefault("c", 0.2))
        if c <= 0.0:
            raise ConfigurationError("log pole coefficient must be positive")
        mask = divisor.node_mask()
        with np.errstate(divide="ignore"):
            values = 0.5 * c * np.log(divisor.s_h_sq)

    else:
        raise ConfigurationError(f"unknown datum kind {kind!r}")

    exclusion = None
    if kind is DatumKind.LOG_POLE:
        # the stencil defect of a log pole at ring q is ~ c/(2 h^2 q^4), so
        # the smeared point mass stays visible out to ~sqrt(N) rings; skip a
        # halo of chart radius 1.5/sqrt(N), which still vanishes under
        # refinement
        exclusion = np.zeros(surface.shape, dtype=bool)
        halo = 1.5 / np.sqrt(surface.resolution)
        for coords in divisor.point_coords:
            exclusion |= _chart_radius_grid(surface, coords) < halo

    absolute, relative = psh_margins(surface, values, mask, exclusion)
    if relative < -1e-6:
        raise PositivityError(
            f"{kind.value} datum rejected: relative psh margin {relative:.3e} "
            "below -1e-6"
        )

    phi0 = ScalarField(surface, values, tag=f"phi0[{kind.value}]", singular_mask=mask)

    lelong = {}
    integrability = {}
    if divisor is not None:
        for node, coords in zip(divisor.points, divisor.point_coords):
            lelong[node] = lelong_estimate(surface, values, coords)
            integrability[node] = integrability_index(surface, values, coords)

    return InitialDatum(
        surface=surface,
        divisor=divisor,
        kind=kind,
        phi0=phi0,
        params_used=params,
        lelong=lelong,
        integrability=integrability,
        psh_margin=absolute,
        psh_margin_rel=relative,
        psh_exclusion=exclusion,
    )


def smoothed_datum_values(datum: InitialDatum, epsilon: float) -> np.ndarray:
    """Datum re-evaluated through the regularized section, |s|^2 -> eps^2+|s|^2.

    A raw singular profile dips across one cell with second differences far
    beyond any admissible density, so the grid cannot carry it into a flow.
    A flow at regularization level eps therefore receives the datum with the
    section smoothed at the same scale, matching the smoothing the equation
    itself applies to the cone weight; the replacement converges pointwise
    to the raw datum away from the divisor as eps drops.  Kinds without
    divisor dependence come back unchanged.
    """
    if epsilon <= 0.0:
        raise ConfigurationError("epsilon must be positive")
    if datum.kind is DatumKind.SMOOTH or datum.divisor is None:
        return datum.phi0.values.copy()
    x = epsilon**2 + datum.divisor.s_h_sq
    p = datum.params_used
    if datum.kind is DatumKind.DONALDSON_CONE:
        return p["c"] * x ** p["gamma"]
    if datum.kind is DatumKind.ZERO_LELONG_UNBOUNDED:
        profile = softmax_pair(-np.log(x), 1.0, _CLAMP_TAU)
        return -p["c"] * profile ** p["alpha"] + p["c"]
    if datum.kind is DatumKind.LOG_POLE:
        return 0.5 * p["c"] * np.log(x)
    raise ConfigurationError(f"unknown datum kind {datum.kind!r}")


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


# ---------------------------------------------------------------------------
# singularity diagnostics


def _chart_radii(surface: ModelSurface) -> np.ndarray:
    """Dyadic chart radii 4/N * 2^k capped at 1/4 (at least three required)."""
    n = surface.resolution
    radii = []
    r = 4.0 / n
    while r <= 0.25 + 1e-12:
        radii.append(r)
        r *= 2.0
    if len(radii) < 3:
        raise ConfigurationError(
            f"resolution {n} leaves {len(radii)} usable radii; need >= 3"
        )
    return np.array(radii)


def circle_mean(surface: ModelSurface, values: np.ndarray,
                centre: tuple, chart_radius: float, count: int = 128) -> float:
    """Mean of a field over the geodesic circle with stereographic radius r."""
    if surface.kind is not SurfaceKind.SPHERE_P1:
        raise ConfigurationError("circle means are defined on the sphere")
    distance = 2.0 * np.arctan(chart_radius)
    th, ph = geodesic_circle(centre, distance, count)
    return float(sample_bilinear(surface, values, th, ph).mean())


def lelong_estimate(surface: ModelSurface, values: np.ndarray,
                    centre: tuple) -> float:
    """Least-squares slope of circle means against log chart radius, clamped at 0.

    The slope of ``c log|z|`` is c; bounded fields fit slope ~ 0.  Radii run
    over the dyadic window [4/N, 1/4].
    """
    radii = _chart_radii(surface)
    means = np.array([circle_mean(surface, values, centre, r) for r in radii])
    logr = np.log(radii)
    slope = np.polyfit(logr, means, 1)[0]
    return float(max(slope, 0.0))


def integrability_index(surface: ModelSurface, values: np.ndarray,
                        centre: tuple,
                        probe_c_grid: np.ndarray | None = None) -> float:
    """Largest probe c with convergent local quadrature of e^(-2 c phi).

    Convergence is decided by a ratio test on dyadic shells around the point:
    shell sums shrinking by the threshold factor as the shells refine count
    as convergent.  Returns ``inf`` when every probe passes.
    """
    if probe_c_grid is None:
        probe_c_grid = np.geomspace(0.25, 16.0, 33)
    probes = np.sort(np.asarray(probe_c_grid, dtype=float))
    if probes.size == 0 or probes[0] <= 0.0:
        raise ConfigurationError("probe grid must be positive")

    chart_r = _chart_radius_grid(surface, centre)

    edges = [0.25]
    while edges[-1] * 0.5 >= 2.5 / surface.resolution:
        edges.append(edges[-1] * 0.5)
    if len(edges) < 3:
        raise ConfigurationError("grid too coarse for shell quadrature")

    finite = np.isfinite(values)
    weight = surface.area_weight * surface.cell_area
    best = 0.0
    for c in probes:
        with np.errstate(over="ignore"):
            integrand = np.where(finite, np.exp(-2.0 * c * np.where(finite, values, 0.0)), 0.0)
        sums = []
        for outer, inner in zip(edges[:-1], edges[1:]):
            ring = (chart_r < outer) & (chart_r >= inner) & finite
            sums.append(float((integrand * weight)[ring].sum()))
        sums = np.array(sums)
        if np.any(sums <= 0.0):
            ratio = 0.0
        else:
            ratio = float(np.exp(np.mean(np.diff(np.log(sums)))))
        if ratio <= _SHELL_RATIO_THRESHOLD:
            best = c
        else:
            return best if best > 0.0 else 0.0
    return np.inf
