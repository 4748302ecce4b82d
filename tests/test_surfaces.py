"""Grid module: operators, exact quadrature identities, solvers, divisors."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow.errors import CompatibilityError, ConfigurationError
from coneflow.surfaces import (
    MIN_RESOLUTION,
    ScalarField,
    SurfaceKind,
    build_surface,
    ddbar_density_values,
    ddbar_solve_values,
    divisor_section,
    integrate,
    laplacian,
    poisson_solve,
)


@pytest.fixture(scope="module")
def torus():
    return build_surface(SurfaceKind.TORUS, 32, 0.5)


@pytest.fixture(scope="module")
def sphere():
    return build_surface(SurfaceKind.SPHERE_P1, 32, 2.0)


def test_volume_exact(torus, sphere):
    assert abs(integrate(torus, torus.area_weight) - 0.5) < 1e-13
    assert abs(integrate(sphere, sphere.area_weight) - 2.0) < 1e-13


def test_ricci_degree(torus, sphere):
    assert integrate(torus, torus.ricci_background) == 0.0
    got = integrate(sphere, sphere.ricci_background)
    assert abs(got - 2.0) < 1e-13, f"anticanonical degree off: {got}"


def test_build_validation():
    with pytest.raises(ConfigurationError):
        build_surface(SurfaceKind.TORUS, MIN_RESOLUTION - 2, 1.0)
    with pytest.raises(ConfigurationError):
        build_surface(SurfaceKind.SPHERE_P1, 33, 1.0)
    with pytest.raises(ConfigurationError):
        build_surface(SurfaceKind.TORUS, 32, -1.0)


def test_torus_fourier_eigenfunctions(torus):
    # plane waves are exact eigenvectors of the 5-point stencil
    n = torus.resolution
    h = 1.0 / n
    x, y = torus.meshgrid()
    for k, l in [(1, 0), (2, 3), (5, 5)]:
        f = np.cos(2 * np.pi * k * x) * np.cos(2 * np.pi * l * y)
        sym = lambda m: (2.0 * np.cos(2 * np.pi * m * h) - 2.0) / h**2
        lam = (sym(k) + sym(l)) / torus.total_volume
        got = laplacian(ScalarField(torus, f)).values
        assert np.abs(got - lam * f).max() < 1e-10 * abs(lam), f"mode ({k},{l})"


def test_quadratic_chart_density(torus):
    # |z|^2 = x^2 + y^2 has ddbar density 2 at nodes where the stencil
    # does not wrap around the period
    n = torus.resolution
    x, y = torus.meshgrid()
    dd = ddbar_density_values(torus, x**2 + y**2)
    interior = dd[2:-2, 2:-2]
    assert np.abs(interior - 2.0).max() < 1e-9


def test_ddbar_exactness(torus, sphere):
    rng = np.random.default_rng(7)
    for s in (torus, sphere):
        f = rng.normal(size=s.shape)
        total = integrate(s, ddbar_density_values(s, f))
        assert abs(total) < 1e-12, f"{s.kind}: ddbar quadrature {total}"


def test_integration_by_parts(torus, sphere):
    rng = np.random.default_rng(11)
    for s in (torus, sphere):
        f = rng.normal(size=s.shape)
        g = rng.normal(size=s.shape)
        a = integrate(s, f * ddbar_density_values(s, g))
        b = integrate(s, g * ddbar_density_values(s, f))
        assert abs(a - b) < 1e-11 * (1 + abs(a)), f"{s.kind}: asymmetry {a - b}"


def test_laplacian_is_scaled_ddbar(sphere):
    rng = np.random.default_rng(3)
    f = ScalarField(sphere, rng.normal(size=sphere.shape))
    lap = laplacian(f).values
    dd = ddbar_density_values(sphere, f.values)
    assert np.array_equal(lap, 2.0 * dd / sphere.area_weight)


def test_sphere_eigenvalue_refines():
    # cos(theta) is a first spherical harmonic: Delta cos = -(8 pi / V) cos
    # in the metric normalised to volume V; the discrete defect must shrink
    # by at least 3.5x per grid doubling
    errs = []
    for n in (32, 64):
        s = build_surface(SurfaceKind.SPHERE_P1, n, 2.0)
        th, _ = s.meshgrid()
        f = np.cos(th)
        lam = -8.0 * np.pi / s.total_volume
        got = laplacian(ScalarField(s, f)).values
        errs.append(np.abs(got - lam * f).max())
    assert errs[0] / errs[1] > 3.5, f"refinement ratio {errs[0] / errs[1]:.2f}"


def test_stencil_keeps_axis_constant_data_constant(torus, sphere):
    # the rolls compute every column alike, so data constant along an axis
    # stays constant bit for bit; criterion 12's explicit run relies on it
    rng = np.random.default_rng(29)
    for s in (torus, sphere):
        n = s.resolution
        dd = ddbar_density_values(s, np.repeat(rng.normal(size=(n, 1)), n, axis=1))
        assert np.array_equal(dd, np.repeat(dd[:, :1], n, axis=1)), s.kind
    n = torus.resolution
    dd = ddbar_density_values(torus, np.repeat(rng.normal(size=(1, n)), n, axis=0))
    assert np.array_equal(dd, np.repeat(dd[:1, :], n, axis=0))


def test_wrapped_pole_rolls_carry_zero_weight(sphere):
    # the colatitude rolls wrap row N-1 onto row 0 and back; across the
    # poles the stencil couples nothing, so neither end row sees the other
    rng = np.random.default_rng(31)
    f = rng.normal(size=sphere.shape)
    g = f.copy()
    g[-1] += rng.normal(size=sphere.resolution)
    assert np.array_equal(ddbar_density_values(sphere, f)[0],
                          ddbar_density_values(sphere, g)[0])
    g = f.copy()
    g[0] += rng.normal(size=sphere.resolution)
    assert np.array_equal(ddbar_density_values(sphere, f)[-1],
                          ddbar_density_values(sphere, g)[-1])


def test_ddbar_matrix_matches_stencil(torus, sphere):
    rng = np.random.default_rng(19)
    for s in (torus, sphere):
        f = rng.normal(size=s.shape)
        direct = ddbar_density_values(s, f)
        via_mat = (s.ddbar_matrix() @ f.ravel()).reshape(s.shape)
        assert np.abs(direct - via_mat).max() < 1e-11


def row_by_row_dd_matrix(s):
    """The stencil matrix assembled node row by node row, a reference for
    the Kronecker-sum assembly of ``ddbar_matrix``."""
    n = s.resolution
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel())

    if s.kind is SurfaceKind.TORUS:
        c0 = 0.5 / (1.0 / n) ** 2
        add(idx, idx, -4.0 * c0)
        for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
            add(idx, np.roll(idx, shift, axis=ax), c0)
    else:
        # the flux-form coefficients from the grid's own edges: sin at the
        # cell edges (zero at both poles) and the cell-averaged sin
        dtheta, dphi = np.pi / n, 2.0 * np.pi / n
        edges = np.arange(n + 1) * dtheta
        sin_edge = np.sin(edges)
        sin_edge[[0, n]] = 0.0
        sin_cell = (np.cos(edges[:-1]) - np.cos(edges[1:])) / dtheta
        up = 0.5 * sin_edge[1:] / (dtheta * dtheta)
        dn = 0.5 * sin_edge[:-1] / (dtheta * dtheta)
        lon = 0.5 / (sin_cell * dphi * dphi)
        for i in range(n):
            r = idx[i]
            add(r, r, -(up[i] + dn[i]) - 2.0 * lon[i])
            if i + 1 < n:
                add(r, idx[i + 1], up[i])
            if i > 0:
                add(r, idx[i - 1], dn[i])
            add(r, np.roll(r, -1), lon[i])
            add(r, np.roll(r, 1), lon[i])
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n * n, n * n)).tocsr()


@pytest.mark.parametrize("kind", list(SurfaceKind))
@pytest.mark.parametrize("n", [16, 32])
def test_ddbar_matrix_is_exactly_symmetric(kind, n):
    # the flux form makes the matrix symmetric entry for entry, which the
    # MMD_AT_PLUS_A ordering of the flow's factors assumes; the Kronecker
    # assembly keeps every entry of the row-by-row one bit for bit
    s = build_surface(kind, n, 2.0)
    mat = s.ddbar_matrix()
    assert (mat != mat.T).nnz == 0
    ref = row_by_row_dd_matrix(s)
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert mat.data.tobytes() == ref.data.tobytes()


def test_solver_residual(torus, sphere):
    rng = np.random.default_rng(23)
    for s in (torus, sphere):
        g = rng.normal(size=s.shape)
        g -= g.mean()
        u = ddbar_solve_values(s, g)
        res = ddbar_density_values(s, u) - g
        assert np.abs(res).max() < 1e-10, f"{s.kind}: residual {np.abs(res).max():.2e}"
        mean = integrate(s, u, against_area_weight=True)
        assert abs(mean) < 1e-10


def test_solver_axisymmetric_mode(sphere):
    # pure m=0 data exercises the cumulative-sum branch on its own
    th, _ = sphere.meshgrid()
    g = np.cos(th) ** 3
    g = g - integrate(sphere, g) / (sphere.cell_area * sphere.resolution**2)
    g = np.broadcast_to(g[:, 0:1], sphere.shape).copy()
    g -= g.mean()
    u = ddbar_solve_values(sphere, g)
    res = ddbar_density_values(sphere, u) - g
    assert np.abs(res).max() < 1e-10


def test_poisson_round_trip(torus):
    x, y = torus.meshgrid()
    f = np.sin(2 * np.pi * x) + 0.3 * np.cos(2 * np.pi * (x + 2 * y))
    rhs = laplacian(ScalarField(torus, f))
    u = poisson_solve(torus, rhs)
    f0 = f - integrate(torus, f, against_area_weight=True) / torus.total_volume
    assert np.abs(u.values - f0).max() < 1e-10


def test_poisson_compat_check(sphere):
    bad = ScalarField(sphere, np.ones(sphere.shape))
    with pytest.raises(CompatibilityError):
        poisson_solve(sphere, bad)


def test_scalar_field_validation(torus, sphere):
    with pytest.raises(ConfigurationError):
        ScalarField(torus, np.zeros((3, 3)))
    vals = np.zeros(torus.shape)
    vals[0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        ScalarField(torus, vals)
    # masked singular nodes are allowed, but reject differentiation
    vals = np.zeros(sphere.shape)
    vals[4, 4] = -np.inf
    mask = np.zeros(sphere.shape, dtype=bool)
    mask[4, 4] = True
    f = ScalarField(sphere, vals, singular_mask=mask)
    with pytest.raises(ConfigurationError):
        laplacian(f)


def test_divisor_basic(sphere):
    d = divisor_section(sphere, [(np.pi / 2, 0.0)])
    assert d.degree == 1
    assert abs(integrate(sphere, d.theta_density) - 1.0) < 1e-13
    assert d.s_h_sq.min() == 0.0
    assert d.s_h_sq.max() <= 1.0
    assert int((d.s_h_sq == 0.0).sum()) == 1
    i, j = d.points[0]
    assert d.s_h_sq[i, j] == 0.0


def test_divisor_two_points(sphere):
    d = divisor_section(sphere, [(np.pi / 2, 0.0), (np.pi / 2, np.pi)])
    assert d.degree == 2
    assert abs(integrate(sphere, d.theta_density) - 2.0) < 1e-13
    assert int((d.s_h_sq == 0.0).sum()) == 2
    # bit for bit the product of each point's written-out haversine
    th, ph = sphere.meshgrid()
    ref = np.ones(sphere.shape)
    for tp, pp in d.point_coords:
        ref = ref * (np.sin(0.5 * (th - tp)) ** 2
                     + np.sin(th) * np.sin(tp) * np.sin(0.5 * (ph - pp)) ** 2)
    for i, j in d.points:
        ref[i, j] = 0.0
    assert np.array_equal(d.s_h_sq, ref)


def test_divisor_validation(torus, sphere):
    with pytest.raises(ConfigurationError):
        divisor_section(torus, [(0.5, 0.5)])
    with pytest.raises(ConfigurationError):
        divisor_section(sphere, [])
    with pytest.raises(ConfigurationError):
        divisor_section(sphere, [(np.pi / 2, 0.0), (np.pi / 2, 1e-9)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ddbar_kills_constants(seed):
    rng = np.random.default_rng(seed)
    s = build_surface(SurfaceKind.SPHERE_P1, 16, 2.0)
    c = rng.uniform(-5, 5)
    dd = ddbar_density_values(s, np.full(s.shape, c))
    assert np.abs(dd).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_inverts_ddbar(seed):
    rng = np.random.default_rng(seed)
    s = build_surface(SurfaceKind.TORUS, 16, 1.0)
    u0 = rng.normal(size=s.shape)
    g = ddbar_density_values(s, u0)
    u = ddbar_solve_values(s, g)
    # agree up to a constant
    diff = u - u0
    assert np.ptp(diff) < 1e-9
