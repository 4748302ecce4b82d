"""Reference geometry for the regularized conical flow.

Everything time-independent lives here: the maximal existence time, the
linear reference path ``omega_t = omega + t*nu``, the Calabi volume form and
its potential ``h``, the regularized cone potential ``chi`` with its metric
``omega_cone = omega + k*ddbar(chi)``, and the bounded twist density ``F``.

Conventions. Metric-type densities (``omega``, ``kappa``, ``nu``, the cone
metric) are densities of area forms with respect to the coordinate measure;
their quadratures are volumes.  Curvature-type densities (Ricci targets,
divisor curvature ``theta``, the twist ``eta``) carry the integer-degree
normalisation: quadratures are degrees.  Potentials always pass through the
raw ``ddbar`` stencil; the factor ``2*pi`` appears exactly once, inside the
Calabi solve, converting a degree-normalised curvature deficit into a raw
potential equation.

The flow these packs drive is d omega/dt = -Ric(omega) + (1-gamma)[D] + tau
with Ric and [D] raw and tau = (2*pi*eta + (1 - 2*pi)*slope) * omega/V, a
twist of (1 - 2*pi)*slope*omega/V at ``eta = 0`` (see ``flow.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CompatibilityError, ConfigurationError, PositivityError, SolverError
from .surfaces import (
    DivisorData,
    ModelSurface,
    ScalarField,
    ddbar_density_values,
    ddbar_solve_values,
    integrate,
)

TWO_PI = 2.0 * np.pi

#: nodes of the fixed Gauss-Legendre rule used by the chi quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

#: nodes per block of the chi quadrature; each (block, 64) temporary is 0.5 MB
_CHI_BLOCK = 1024


def resolvability_floor(surface: ModelSurface) -> float:
    """Smallest epsilon the grid can honestly resolve: 2 * spacing^2."""
    return 2.0 * surface.grid_spacing**2


@dataclass(frozen=True)
class FlowParams:
    """Scalar parameters of one regularized flow configuration.

    ``k = 0`` is only meaningful at ``gamma = 1`` (no cone, the chi term is
    inert); every conical configuration needs ``k > 0``.
    """

    gamma: float
    epsilon: float
    k: float
    T: float
    eta_degree: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigurationError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigurationError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.k < 0.0:
            raise ConfigurationError(f"k must be nonnegative, got {self.k}")
        if self.k == 0.0 and self.gamma < 1.0:
            raise ConfigurationError("k = 0 is only allowed at gamma = 1")
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ConfigurationError(f"horizon T must be positive and finite, got {self.T}")


class ConeMetric(NamedTuple):
    density: np.ndarray
    chi: np.ndarray
    valid: bool
    bad_nodes: list


def class_slope(c1_degree: float, divisor_degree: int, gamma: float,
                eta_degree: float) -> float:
    """Rate ``-c1 + (1-gamma)*m + e`` at which the evolved class gains volume."""
    return -c1_degree + (1.0 - gamma) * divisor_degree + eta_degree


def compute_tmax(volume: float, c1_degree: float, divisor_degree: int,
                 gamma: float, eta_degree: float) -> float:
    """Maximal existence time of the twisted conical flow.

    The evolved class has volume ``V + t*slope`` (see ``class_slope``); the
    flow lives while that stays positive.
    """
    if volume <= 0.0:
        raise ConfigurationError(f"volume must be positive, got {volume}")
    slope = class_slope(c1_degree, divisor_degree, gamma, eta_degree)
    if slope >= 0.0:
        return np.inf
    return volume / (-slope)


def ricci_density(surface: ModelSurface, volume_density: np.ndarray) -> np.ndarray:
    """Degree-normalised Ricci density of a positive volume density.

    Computed through the background decomposition
    ``ric(f) = ric(omega) + ddbar(-log(f/omega)) / (2 pi)``, which avoids
    differentiating coordinate-singular logarithms at the sphere poles.
    """
    if np.any(volume_density <= 0.0):
        raise PositivityError("volume density must be positive")
    h = -np.log(volume_density / surface.area_weight)
    return surface.ricci_background + ddbar_density_values(surface, h) / TWO_PI


def calabi_volume_form(surface: ModelSurface, target_ricci: np.ndarray
                       ) -> tuple[ScalarField, ScalarField]:
    """Volume form with prescribed (degree-normalised) Ricci density.

    Returns ``(h, f)`` with ``f = e^{-h} * omega``-density, Ricci density of
    ``f`` equal to ``target_ricci`` at rounding level, and ``f`` normalised
    to total volume V.
    """
    total = integrate(surface, target_ricci)
    c1 = surface.kind.c1_degree
    if abs(total - c1) > 1e-8 * max(1.0, abs(c1)):
        raise CompatibilityError(
            f"target Ricci integral {total:.10f} != degree {c1}"
        )
    deficit = TWO_PI * (target_ricci - surface.ricci_background)
    v = ddbar_solve_values(surface, deficit)
    f = surface.area_weight * np.exp(-v)
    scale = surface.total_volume / integrate(surface, f)
    f *= scale
    h = v - np.log(scale)
    residual = np.abs(ricci_density(surface, f) - target_ricci).max()
    if residual > 1e-8:
        raise SolverError(f"Calabi residual {residual:.3e} above 1e-8")
    return (ScalarField(surface, h, tag="h_gamma"),
            ScalarField(surface, f, tag="calabi_volume"))


def cgp_chi(gamma: float, epsilon: float, s_h_sq: np.ndarray) -> np.ndarray:
    """Regularized cone potential chi(x) = (1/gamma) int_0^x ((eps^2+r)^gamma - eps^(2 gamma)) / r dr.

    At ``epsilon = 0`` the closed form ``x^gamma / gamma^2`` is returned.
    Otherwise the integral is evaluated by a two-piece Gauss-Legendre rule
    after the substitutions ``r = eps^2 t`` (near field, t in [0, 1]) and
    ``t = e^u`` (far field); absolute error is far below 1e-10 over the
    admissible parameter ranges.

    The nodes are evaluated in blocks of ``_CHI_BLOCK`` (1,024), so the
    quadrature temporaries are O(block * 64), 0.5 MB each, not
    O(N^2 * 64): one call at N=128 peaks at 3.8 MB under tracemalloc, where
    all nodes at once peaked at 48.5 MB. Each node's value is the same
    whatever block it falls in.
    """
    if not (0.0 < gamma <= 1.0):
        raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma}")
    if not (0.0 <= epsilon <= 1.0):
        raise ConfigurationError(f"epsilon must lie in [0, 1], got {epsilon}")
    x = np.asarray(s_h_sq, dtype=float)
    if np.any(x < 0.0):
        raise ConfigurationError("s_h_sq must be nonnegative")
    if epsilon == 0.0:
        return x**gamma / gamma**2

    e2g = epsilon ** (2.0 * gamma)
    big = x.ravel() / epsilon**2
    chi = np.empty_like(big)
    for start in range(0, big.size, _CHI_BLOCK):
        blk = big[start:start + _CHI_BLOCK]
        # near field: t in (0, min(X, 1)]; integrand e2g * expm1(gamma*log1p(t))/t
        b1 = np.minimum(blk, 1.0)
        t = 0.5 * b1[:, None] * (_GL_NODES[None, :] + 1.0)
        t_safe = np.where(t > 0.0, t, 1.0)
        fa = e2g * np.expm1(gamma * np.log1p(t_safe)) / t_safe
        fa = np.where(t > 0.0, fa, 0.0)
        part_a = 0.5 * b1 * (fa @ _GL_WEIGHTS)
        # far field: u in [0, log X] for X > 1; integrand e2g * expm1(gamma*log1p(e^u))
        b2 = np.log(np.maximum(blk, 1.0))
        u = 0.5 * b2[:, None] * (_GL_NODES[None, :] + 1.0)
        fb = e2g * np.expm1(gamma * np.log1p(np.exp(u)))
        part_b = 0.5 * b2 * (fb @ _GL_WEIGHTS)
        chi[start:start + _CHI_BLOCK] = (part_a + part_b) / gamma
    return chi.reshape(x.shape)


def cgp_metric(surface: ModelSurface, divisor: DivisorData | None, gamma: float,
               epsilon: float, k: float) -> ConeMetric:
    """Density of the regularized cone metric omega + k*ddbar(chi).

    The validity flag certifies the lower bound ``>= omega/2`` at every node
    (the smallness condition on k); offending nodes are listed, capped at 8.
    """
    if k < 0.0:
        raise ConfigurationError(f"k must be nonnegative, got {k}")
    if divisor is None or k == 0.0:
        chi = np.zeros(surface.shape)
        density = surface.area_weight.copy()
        return ConeMetric(density, chi, True, [])
    chi = cgp_chi(gamma, epsilon, divisor.s_h_sq)
    density = surface.area_weight + k * ddbar_density_values(surface, chi)
    bad = density < 0.5 * surface.area_weight
    nodes = [tuple(ij) for ij in np.argwhere(bad)[:8]]
    return ConeMetric(density, chi, not bad.any(), nodes)


def path_constant(volume: float, slope: float, T: float) -> float:
    """Equivalence constant of the default reference path against omega.

    For the scaled endpoint representative the path is ``omega * (V + t*slope)/V``,
    so the two-sided constant over [0, T] is ``max(r, 1/r)`` with
    ``r = (V + T*slope)/V``.
    """
    r = (volume + T * slope) / volume
    if r <= 0.0:
        raise ConfigurationError(f"path degenerates before T: end ratio {r}")
    return max(r, 1.0 / r)


def select_k(surface: ModelSurface, divisor: DivisorData | None, gamma: float,
             eps_list: list[float], equivalence_C: float = 4.0) -> float:
    """Largest k on a geometric grid keeping the cone construction valid for every epsilon.

    Validity is checked at the scaled coefficient ``C * k``: the sandwich
    argument bounds the mixed path from below by
    ``(1/C) (omega + C k ddbar(chi))``, so ``omega + C k ddbar(chi) >= omega/2``
    is what keeps every time slice positive.  ``equivalence_C`` is the path
    constant (see ``path_constant``).  The search cap is
    ``gamma / (2 (C - 1/2))``, the smallness asked of ``(C - 1/2) k / gamma``.
    Raises when even the floor of the grid fails.

    ddbar(chi) does not depend on k, so it is computed once per epsilon and
    each candidate k is tested with ``cgp_metric``'s own arithmetic.
    """
    if not eps_list:
        raise ConfigurationError("eps_list must be non-empty")
    if equivalence_C <= 0.5:
        raise ConfigurationError("equivalence constant must exceed 1/2")
    cap = gamma / (2.0 * max(equivalence_C - 0.5, 0.5))
    if divisor is None:
        return cap
    w = surface.area_weight
    ddbar_chis = [ddbar_density_values(surface,
                                       cgp_chi(gamma, eps, divisor.s_h_sq))
                  for eps in eps_list]
    k = cap
    scale = max(equivalence_C, 1.0)
    for _ in range(41):
        if not any((w + (scale * k) * d < 0.5 * w).any() for d in ddbar_chis):
            return k
        k *= 0.5
    raise ConfigurationError(
        f"no valid k found down to {k:.3e}; grid cannot resolve this cone"
    )


@dataclass(eq=False)
class BackgroundPack:
    """All reference data one flow run consumes. Immutable after construction."""

    surface: ModelSurface
    divisor: DivisorData | None
    params: FlowParams
    tmax: float
    nu_gamma: ScalarField
    h_gamma: ScalarField
    chi: ScalarField
    omega_cone_eps: ScalarField
    F_eps: ScalarField

    def omega_path_eps(self, t: float) -> np.ndarray:
        """Density of the mixed path: cone metric plus t*nu."""
        return self.omega_cone_eps.values + t * self.nu_gamma.values


def build_pack(surface: ModelSurface, divisor: DivisorData | None,
               params: FlowParams) -> BackgroundPack:
    """Assemble the full reference pack for one parameter set.

    The endpoint is kappa = omega (V + T slope) / V, so omega + t nu =
    omega (1 + t slope / V) > 0 for t <= T < T_max: only the mixed path
    through the cone metric needs a positivity check.
    """
    w = surface.area_weight
    volume = surface.total_volume
    m = divisor.degree if divisor is not None else 0
    if divisor is None and params.gamma < 1.0 and params.k > 0.0:
        raise ConfigurationError("conical parameters require a divisor")

    c1 = surface.kind.c1_degree
    tmax = compute_tmax(volume, c1, m, params.gamma, params.eta_degree)
    if not params.T < tmax:
        raise ConfigurationError(
            f"horizon T={params.T} must stay below T_max={tmax}"
        )
    slope = class_slope(c1, m, params.gamma, params.eta_degree)

    kappa = w * (volume + params.T * slope) / volume
    nu = (kappa - w) / params.T
    eta = params.eta_degree * w / volume

    theta = divisor.theta_density if divisor is not None else np.zeros(surface.shape)
    target = -nu + (1.0 - params.gamma) * theta + eta
    h_gamma, _ = calabi_volume_form(surface, target)

    cone = cgp_metric(surface, divisor, params.gamma, params.epsilon, params.k)
    if not cone.valid:
        raise PositivityError(
            "cone metric drops below omega/2; decrease k or epsilon floor",
            nodes=cone.bad_nodes,
        )

    F = np.log(cone.density / w) + h_gamma.values
    if divisor is not None:
        F = F + (1.0 - params.gamma) * np.log(params.epsilon**2 + divisor.s_h_sq)

    # the path is affine in t at every node, so its two ends certify it
    for t in (0.0, params.T):
        path = cone.density + t * nu
        if np.any(path <= 0.0):
            nodes = [tuple(ij) for ij in np.argwhere(path <= 0.0)[:8]]
            raise PositivityError(f"mixed path loses positivity at t={t:.4f}", nodes=nodes)

    return BackgroundPack(
        surface=surface,
        divisor=divisor,
        params=params,
        tmax=tmax,
        nu_gamma=ScalarField(surface, nu, tag="nu"),
        h_gamma=h_gamma,
        chi=ScalarField(surface, cone.chi, tag="chi"),
        omega_cone_eps=ScalarField(surface, cone.density, tag="omega_cone"),
        F_eps=ScalarField(surface, F, tag="F"),
    )
