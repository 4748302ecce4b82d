"""Discrete model surfaces of complex dimension one.

Two closed model surfaces are supported: a flat torus (unit periodic square
carrying a constant-density area form) and the round sphere discretised on a
latitude-longitude grid with conservative pole closure.  All geometry is
expressed through scalar densities taken with respect to the coordinate
measure of the grid:

* ``area_weight`` is the density of the background area form ``omega``,
  normalised so the coordinate-cell quadrature of ``area_weight`` equals the
  requested total volume exactly.
* ``ddbar_density_values(s, phi)`` is the density of ``i*ddbar(phi)``; in a
  conformal chart it equals half the Euclidean Laplacian of ``phi``.  Its
  5-point stencil is one table per surface, built once by ``build_surface``:
  ``dd_up[i]`` and ``dd_dn[i]`` couple row ``i`` to rows ``i+1`` and ``i-1``
  (zero across the sphere's poles) and ``dd_lon[i]`` couples it to each
  axis-1 neighbour.  The roll stencil, ``ddbar_matrix`` and
  ``ddbar_solve_values`` all read that table.  On the sphere the stencil is
  in flux form: ``dd_dn[i+1]`` and ``dd_up[i]`` are the same expression, so
  the two terms of each edge are exact negatives of each other, the
  coordinate quadrature vanishes identically (exactness of ``ddbar``) and
  the matrix is symmetric.
* ``laplacian`` is the metric Laplace-Beltrami operator, defined nodewise as
  ``2 * ddbar_density_values(s, phi) / area_weight`` so the two operators
  share one stencil.

Curvature-type densities (Ricci targets, divisor curvature ``theta``) follow
the integer-degree normalisation: their integrals are degrees (2 for the
sphere's anticanonical class, the point count for a divisor), which keeps the
cohomological bookkeeping of the flow free of 2*pi factors.  Potentials feed
through ``ddbar_density_values`` in the raw analytic convention; the two
conventions never need to be interconverted inside the flow equations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .errors import CompatibilityError, ConfigurationError

MIN_RESOLUTION = 16

#: Tolerance for the solvability check of the Poisson problem, relative to
#: the total volume.
_POISSON_COMPAT_TOL = 1e-8


class SurfaceKind(enum.Enum):
    TORUS = "torus"
    SPHERE_P1 = "sphere"

    @property
    def c1_degree(self) -> float:
        """Anticanonical degree: 0 for the torus, 2 for the sphere."""
        return 0.0 if self is SurfaceKind.TORUS else 2.0


@dataclass(eq=False)
class ModelSurface:
    """A discretised model surface.

    Attributes
    ----------
    kind : SurfaceKind
        Torus or sphere.
    resolution : int
        Grid size N per axis; the node array is N x N.
    total_volume : float
        Integral of the background area form.
    axis0, axis1 : ndarray
        Node coordinates along the two axes (torus: x, y in [0, 1); sphere:
        cell-centred colatitude theta in (0, pi) and longitude phi in
        [0, 2*pi)).
    cell_area : float
        Coordinate measure of one grid cell.
    area_weight : ndarray
        Density of omega with respect to the coordinate measure, shape (N, N).
    ricci_background : ndarray
        Normalised Ricci density of the background metric (integral equals
        the anticanonical degree: 0 for the torus, 2 for the sphere).
    dd_up, dd_dn, dd_lon : ndarray
        The ddbar stencil, one coefficient per row of axis 0: the couplings
        to the rows above and below (zero across the sphere's poles) and to
        each axis-1 neighbour.
    """

    kind: SurfaceKind
    resolution: int
    total_volume: float
    axis0: np.ndarray
    axis1: np.ndarray
    cell_area: float
    area_weight: np.ndarray
    ricci_background: np.ndarray
    dd_up: np.ndarray = field(repr=False)
    dd_dn: np.ndarray = field(repr=False)
    dd_lon: np.ndarray = field(repr=False)
    _dd_matrix: sp.csr_matrix | None = field(default=None, repr=False)
    _coordinate_cells: tuple[str, ...] | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)

    @property
    def grid_spacing(self) -> float:
        """Coordinate spacing used for resolution floors (torus 1/N, sphere pi/N)."""
        if self.kind is SurfaceKind.TORUS:
            return 1.0 / self.resolution
        return np.pi / self.resolution

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis0, self.axis1, indexing="ij")

    def ddbar_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of ``ddbar_density_values`` on flattened node vectors."""
        if self._dd_matrix is None:
            self._dd_matrix = _build_dd_matrix(self)
        return self._dd_matrix

    def coordinate_cells(self) -> tuple[str, ...]:
        """``"axis0,axis1,"`` of every node in C order, each coordinate repr-exact."""
        if self._coordinate_cells is None:
            a0, a1 = self.meshgrid()
            self._coordinate_cells = tuple(
                f"{x!r},{y!r}," for x, y in zip(a0.ravel().tolist(),
                                                 a1.ravel().tolist()))
        return self._coordinate_cells


@dataclass(eq=False)
class ScalarField:
    """A scalar sample on the nodes of a surface.

    Values must be finite unless ``singular_mask`` flags the nodes where the
    field is allowed to carry its limiting value (for instance ``-inf`` at a
    log pole on the divisor).  Masked nodes are excluded from extremum scans
    and quadratures by the consumers that accept singular fields.
    """

    surface: ModelSurface
    values: np.ndarray
    tag: str = ""
    singular_mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.surface.shape:
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match surface {self.surface.shape}"
            )
        if self.singular_mask is not None:
            self.singular_mask = np.asarray(self.singular_mask, dtype=bool)
            if self.singular_mask.shape != self.surface.shape:
                raise ConfigurationError("singular mask shape mismatch")
            bad = ~np.isfinite(self.values) & ~self.singular_mask
        else:
            bad = ~np.isfinite(self.values)
        if bad.any():
            ij = np.argwhere(bad)[:5]
            raise ConfigurationError(
                f"non-finite values at unmasked nodes, first offenders {ij.tolist()}"
            )


@dataclass(eq=False)
class DivisorData:
    """A reduced divisor: distinct grid-node points with multiplicity one each.

    ``s_h_sq`` is the pointwise squared norm ``|s|_h^2`` of the defining
    section under the round metric on O(m); it lies in [0, 1], vanishes
    exactly at the divisor nodes and nowhere else.  ``theta_density`` is the
    smooth curvature density of (L_D, h) in the integer-degree normalisation,
    so its quadrature equals ``degree``.
    """

    surface: ModelSurface
    points: list[tuple[int, int]]
    point_coords: list[tuple[float, float]]
    s_h_sq: np.ndarray
    theta_density: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.points)

    def node_mask(self) -> np.ndarray:
        mask = np.zeros(self.surface.shape, dtype=bool)
        for i, j in self.points:
            mask[i, j] = True
        return mask


def build_surface(kind: SurfaceKind, resolution: int, volume: float) -> ModelSurface:
    """Construct a model surface with the given grid size and total volume."""
    if resolution < MIN_RESOLUTION:
        raise ConfigurationError(
            f"resolution {resolution} below minimum {MIN_RESOLUTION}"
        )
    if resolution % 2 != 0:
        raise ConfigurationError("resolution must be even (antipodal closure)")
    if not (volume > 0.0 and np.isfinite(volume)):
        raise ConfigurationError(f"volume must be positive and finite, got {volume}")
    n = int(resolution)

    if kind is SurfaceKind.TORUS:
        axis0 = axis1 = np.arange(n) / n
        cell = 1.0 / (n * n)
        w = np.full((n, n), float(volume))
        ric = np.zeros((n, n))
        up = dn = lon = np.full(n, 0.5 / (1.0 / n) ** 2)
    elif kind is SurfaceKind.SPHERE_P1:
        dtheta = np.pi / n
        dphi = 2.0 * np.pi / n
        edges = np.arange(n + 1) * dtheta
        axis0 = (np.arange(n) + 0.5) * dtheta
        axis1 = np.arange(n) * dphi
        sin_edge = np.sin(edges)
        sin_edge[0] = 0.0
        sin_edge[-1] = 0.0  # exact zero flux through both poles
        # cell-averaged sin(theta); the cosine telescoping makes the total
        # coordinate quadrature of the weight equal the volume exactly
        sin_cell = (np.cos(edges[:-1]) - np.cos(edges[1:])) / dtheta
        cell = dtheta * dphi
        w = (volume / (4.0 * np.pi)) * np.repeat(sin_cell[:, None], n, axis=1)
        ric = (2.0 / volume) * w
        up = 0.5 * sin_edge[1:] / (dtheta * dtheta)
        dn = 0.5 * sin_edge[:-1] / (dtheta * dtheta)
        lon = 0.5 / (sin_cell * dphi * dphi)
    else:
        raise ConfigurationError(f"unknown surface kind {kind!r}")
    return ModelSurface(
        kind=kind,
        resolution=n,
        total_volume=float(volume),
        axis0=axis0,
        axis1=axis1,
        cell_area=cell,
        area_weight=w,
        ricci_background=ric,
        dd_up=up,
        dd_dn=dn,
        dd_lon=lon,
    )


# ---------------------------------------------------------------------------
# differential operators


def ddbar_density_values(surface: ModelSurface, values: np.ndarray) -> np.ndarray:
    """ddbar density of a raw value array (no finiteness checks).

    Rolls, not ``ddbar_matrix() @ v``: they keep data that is constant along
    an axis exactly constant, which criterion 12's explicit N=64 run needs
    to stay stable.  The wrapped colatitude rolls carry zero weight on the
    sphere.
    """
    v = values
    up = surface.dd_up[:, None]
    dn = surface.dd_dn[:, None]
    lon = surface.dd_lon[:, None]
    return (up * (np.roll(v, -1, axis=0) - v) + dn * (np.roll(v, 1, axis=0) - v)
            + lon * (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)))


def laplacian(field: ScalarField) -> ScalarField:
    """Metric Laplacian ``2 * ddbar_density_values / area_weight`` (same stencil)."""
    _require_smooth(field, "laplacian")
    s = field.surface
    out = 2.0 * ddbar_density_values(s, field.values) / s.area_weight
    return ScalarField(s, out, tag=f"lap({field.tag})")


def integrate(surface: ModelSurface, field: ScalarField | np.ndarray,
              against_area_weight: bool = False) -> float:
    """Quadrature against the coordinate measure, or against omega when flagged."""
    v = field.values if isinstance(field, ScalarField) else np.asarray(field)
    if against_area_weight:
        v = v * surface.area_weight
    return float(np.sum(v) * surface.cell_area)


def _require_smooth(f: ScalarField, op: str) -> None:
    if f.singular_mask is not None:
        raise ConfigurationError(f"{op} requires a non-singular field (got masked field {f.tag!r})")
    if not np.isfinite(f.values).all():
        raise ConfigurationError(f"{op}: field {f.tag!r} carries non-finite values without a mask")


# ---------------------------------------------------------------------------
# exact solvers for ddbar u = g


def ddbar_solve_values(surface: ModelSurface, g: np.ndarray) -> np.ndarray:
    """Solve ``ddbar_density_values(u) = g - mean(g)`` exactly for the discrete stencil.

    Direct spectral/tridiagonal inversion; the residual is at rounding level.
    The coordinate mean of ``g`` is projected out (solvability), and ``u`` is
    returned with zero omega-mean.
    """
    n = surface.resolution
    g = g - g.mean()

    if surface.kind is SurfaceKind.TORUS:
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers
        sym = 2.0 * np.cos(2.0 * np.pi * k / n) - 2.0
        lam = surface.dd_up[0] * sym[:, None] + surface.dd_lon[0] * sym[None, :]
        gh = np.fft.fft2(g)
        lam[0, 0] = 1.0
        uh = gh / lam
        uh[0, 0] = 0.0
        u = np.real(np.fft.ifft2(uh))
    else:
        up, dn = surface.dd_up, surface.dd_dn
        gh = np.fft.rfft(g, axis=1)
        uh = np.zeros_like(gh)
        # m = 0: the flux up[i] * (u[i+1] - u[i]) through each interior edge
        # is the cumulative sum of the data above it
        g0 = gh[:, 0].real.copy()
        g0 -= g0.mean()
        u0 = np.zeros(n)
        u0[1:] = np.cumsum(np.cumsum(g0)[:-1] / up[:-1])
        uh[:, 0] = u0
        # m > 0: symmetric tridiagonal solve per azimuthal mode
        dphi = 2.0 * np.pi / n
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = up[:-1]
        ab[2, :-1] = dn[1:]
        for m in range(1, gh.shape[1]):
            ab[1] = -(up + dn) + surface.dd_lon * (2.0 * np.cos(m * dphi) - 2.0)
            uh[:, m] = solve_banded((1, 1), ab, gh[:, m])
        u = np.fft.irfft(uh, n=n, axis=1)

    u -= integrate(surface, u, against_area_weight=True) / surface.total_volume
    return u


def poisson_solve(surface: ModelSurface, rhs: ScalarField) -> ScalarField:
    """Solve ``laplacian(u) = rhs`` with zero omega-mean normalisation.

    The right-hand side must have (near) zero omega-mean; the residual mean is
    projected out before the exact inversion, so the returned field satisfies
    the discrete equation to rounding accuracy.
    """
    _require_smooth(rhs, "poisson_solve")
    mean = integrate(surface, rhs, against_area_weight=True)
    if abs(mean) > _POISSON_COMPAT_TOL * max(1.0, float(np.abs(rhs.values).max())) * surface.total_volume:
        raise CompatibilityError(
            f"poisson_solve: rhs has omega-mean {mean:.3e}, not solvable"
        )
    g = rhs.values * surface.area_weight * 0.5
    u = ddbar_solve_values(surface, g)
    return ScalarField(surface, u, tag=f"poisson({rhs.tag})")


def _build_dd_matrix(surface: ModelSurface) -> sp.csr_matrix:
    """The stencil of ``ddbar_density_values`` as a Kronecker sum on C-order
    node vectors: (periodic second difference along axis 0) x I plus
    diag(dd_lon) x (periodic ring along axis 1).  Every entry is one product
    of the stencil's coefficients, so the matrix is exactly symmetric; the
    zero couplings across the sphere's poles drop out of the sum."""
    n = surface.resolution
    up, dn = surface.dd_up, surface.dd_dn
    ring = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1],
                    shape=(n, n), format="csr")
    colat = sp.diags([up[-1:], dn[1:], -(up + dn), up[:-1], dn[:1]],
                     [1 - n, -1, 0, 1, n - 1], format="csr")
    return (sp.kron(colat, sp.identity(n, format="csr"))
            + sp.kron(sp.diags(surface.dd_lon), ring)).tocsr()


# ---------------------------------------------------------------------------
# divisors on the sphere


def haversine(surface: ModelSurface, point: tuple[float, float]) -> np.ndarray:
    """sin^2(d/2) at every node, d the round distance to (theta, phi)."""
    th, ph = surface.meshgrid()
    tp, pp = point
    return (np.sin(0.5 * (th - tp)) ** 2
            + np.sin(th) * np.sin(tp) * np.sin(0.5 * (ph - pp)) ** 2)


def divisor_section(surface: ModelSurface,
                    points: list[tuple[float, float]]) -> DivisorData:
    """Round-metric section data for a reduced divisor of grid-node points.

    Each requested (theta, phi) pair is snapped to the nearest grid node;
    ``|s|_h^2`` is the product over points of ``sin^2(d/2)`` with ``d`` the
    spherical distance (haversine form, exactly zero at the divisor node),
    and the curvature density is degree-many copies of the normalised round
    form, so the discrete Chern number is exact.
    """
    if surface.kind is not SurfaceKind.SPHERE_P1:
        raise ConfigurationError("divisors are only supported on the sphere")
    if not points:
        raise ConfigurationError("divisor needs at least one point")
    n = surface.resolution
    dtheta = np.pi / n
    dphi = 2.0 * np.pi / n

    nodes: list[tuple[int, int]] = []
    coords: list[tuple[float, float]] = []
    for theta_p, phi_p in points:
        if not (0.0 < theta_p < np.pi):
            raise ConfigurationError(f"divisor point colatitude {theta_p} outside (0, pi)")
        i = int(np.clip(round(theta_p / dtheta - 0.5), 0, n - 1))
        j = int(round(phi_p / dphi)) % n
        if (i, j) in nodes:
            raise ConfigurationError(f"divisor points collide at node {(i, j)}")
        nodes.append((i, j))
        coords.append((float(surface.axis0[i]), float(surface.axis1[j])))

    s_sq = np.ones(surface.shape)
    for (i, j), point in zip(nodes, coords):
        hav = haversine(surface, point)
        hav[i, j] = 0.0
        s_sq = s_sq * hav
    for i, j in nodes:
        s_sq[i, j] = 0.0

    zero = s_sq <= 0.0
    if int(zero.sum()) != len(nodes):
        raise ConfigurationError("section norm vanishes away from the divisor nodes")

    m = len(nodes)
    theta_density = m * surface.area_weight / surface.total_volume

    return DivisorData(
        surface=surface,
        points=nodes,
        point_coords=coords,
        s_h_sq=s_sq,
        theta_density=theta_density,
    )
