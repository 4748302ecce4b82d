"""Background module: T_max, Calabi solves, cone potential, pack assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow.background import (
    _CHI_BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    FlowParams,
    build_pack,
    calabi_volume_form,
    class_slope,
    cgp_chi,
    cgp_metric,
    compute_tmax,
    path_constant,
    resolvability_floor,
    ricci_density,
    select_k,
)
from coneflow.errors import CompatibilityError, ConfigurationError, PositivityError
from coneflow.surfaces import (
    ScalarField,
    SurfaceKind,
    build_surface,
    divisor_section,
    haversine,
    integrate,
)


@pytest.fixture(scope="module")
def sphere():
    return build_surface(SurfaceKind.SPHERE_P1, 64, 2.0)


@pytest.fixture(scope="module")
def divisor(sphere):
    return divisor_section(sphere, [(np.pi / 2, 0.0)])


@pytest.fixture(scope="module")
def torus():
    return build_surface(SurfaceKind.TORUS, 32, 0.5)


# ---------------------------------------------------------------------------
# T_max


def test_tmax_examples():
    assert compute_tmax(2.0, 2.0, 1, 1.0, 0.0) == 1.0
    assert compute_tmax(1.0, 0.0, 0, 1.0, 0.0) == np.inf
    assert compute_tmax(2.0, 2.0, 1, 0.5, 0.0) == 4.0 / 3.0


def test_tmax_sign_analysis():
    # positive slope: class grows forever
    assert compute_tmax(1.0, 0.0, 2, 0.5, 0.0) == np.inf
    # twist can close or open the window
    assert compute_tmax(1.0, 2.0, 0, 1.0, 1.0) == 1.0
    assert compute_tmax(1.0, 2.0, 0, 1.0, 2.0) == np.inf
    with pytest.raises(ConfigurationError):
        compute_tmax(-1.0, 0.0, 0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# chi quadrature


def test_chi_gamma_one_exact():
    x = np.array([0.0, 0.3, 0.7, 1.0])
    for eps in (0.05, 0.3, 1.0):
        got = cgp_chi(1.0, eps, x)
        assert np.abs(got - x).max() < 1e-12, f"eps={eps}"


def test_chi_eps_zero_closed_form():
    # closed form x^gamma / gamma^2 (integrating r^{gamma-1} with the 1/gamma
    # prefactor); gamma=0.5 at x=0.25 gives 2.0
    got = cgp_chi(0.5, 0.0, np.array([0.25]))[0]
    assert abs(got - 2.0) < 1e-14
    x = np.array([0.01, 0.5, 1.0])
    assert np.abs(cgp_chi(0.7, 0.0, x) - x**0.7 / 0.49).max() < 1e-13


def test_chi_riemann_oracle():
    # brute-force midpoint rule on the defining integral
    panels = 1_000_000
    for gamma, eps, x in [(0.5, 1.0, 1.0), (0.5, 0.1, 0.6), (0.9, 0.3, 1.0)]:
        r = (np.arange(panels) + 0.5) * (x / panels)
        oracle = (x / panels) / gamma * np.sum(((eps**2 + r) ** gamma - eps ** (2 * gamma)) / r)
        got = cgp_chi(gamma, eps, np.array([x]))[0]
        assert abs(got - oracle) < 1e-8, f"({gamma},{eps},{x}): {got} vs {oracle}"


def test_chi_zero_at_origin_and_monotone(divisor):
    chi = cgp_chi(0.5, 0.1, divisor.s_h_sq)
    assert chi.min() == 0.0
    i, j = divisor.points[0]
    assert chi[i, j] == 0.0
    x = np.linspace(0.0, 1.0, 200)
    vals = cgp_chi(0.5, 0.1, x)
    assert np.all(np.diff(vals) > 0.0)


def test_chi_uniform_bound(divisor):
    # chi_eps <= chi_0 = x^gamma/gamma^2 pointwise: the uniform constant of
    # the whole regularization family, exact by integrand monotonicity
    chi0 = cgp_chi(0.5, 0.0, divisor.s_h_sq)
    for eps in (0.2, 0.1, 0.05, 0.025):
        diff = cgp_chi(0.5, eps, divisor.s_h_sq) - chi0
        assert diff.max() <= 1e-12, f"eps={eps}"


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(0.1, 1.0),
    eps_hi=st.floats(0.02, 1.0),
    x=st.floats(0.0, 1.0),
)
def test_chi_decreasing_in_eps(gamma, eps_hi, x):
    lo = cgp_chi(gamma, eps_hi / 2.0, np.array([x]))[0]
    hi = cgp_chi(gamma, eps_hi, np.array([x]))[0]
    assert lo >= hi - 1e-12


def reference_cgp_chi(gamma, epsilon, s_h_sq):
    """The two-piece rule with every node at once: (nodes, 64) temporaries."""
    x = np.asarray(s_h_sq, dtype=float)
    e2g = epsilon ** (2.0 * gamma)
    big = x.ravel() / epsilon**2
    b1 = np.minimum(big, 1.0)
    t = 0.5 * b1[:, None] * (_GL_NODES[None, :] + 1.0)
    t_safe = np.where(t > 0.0, t, 1.0)
    fa = e2g * np.expm1(gamma * np.log1p(t_safe)) / t_safe
    fa = np.where(t > 0.0, fa, 0.0)
    part_a = 0.5 * b1 * (fa @ _GL_WEIGHTS)
    b2 = np.log(np.maximum(big, 1.0))
    u = 0.5 * b2[:, None] * (_GL_NODES[None, :] + 1.0)
    fb = e2g * np.expm1(gamma * np.log1p(np.exp(u)))
    part_b = 0.5 * b2 * (fb @ _GL_WEIGHTS)
    chi = (part_a + part_b) / gamma
    return chi.reshape(x.shape)


def _sphere_s_h_sq(n):
    surface = build_surface(SurfaceKind.SPHERE_P1, n, 2.0)
    return divisor_section(surface, [(np.pi / 2, 0.0)]).s_h_sq


@pytest.fixture(scope="module")
def sphere_s_h_sq():
    return {n: _sphere_s_h_sq(n) for n in (16, 64, 128)}


@pytest.mark.parametrize("n", [16, 64, 128])
def test_chi_blocks_match_reference_bitwise_on_sphere(sphere_s_h_sq, n):
    x = sphere_s_h_sq[n]
    assert np.count_nonzero(x == 0.0) == 1      # the divisor node
    for gamma in (0.5, 0.9):
        for eps in (0.2, 0.1, 0.05):
            got = cgp_chi(gamma, eps, x)
            assert got.shape == x.shape
            assert got.tobytes() == reference_cgp_chi(gamma, eps, x).tobytes(), \
                f"N={n} gamma={gamma} eps={eps}"


@pytest.mark.parametrize("length", [0, 1, _CHI_BLOCK - 1, _CHI_BLOCK + 3,
                                    3 * _CHI_BLOCK])
def test_chi_blocks_match_reference_bitwise_on_block_edges(length):
    rng = np.random.default_rng(length)
    for eps in (0.2, 0.1, 0.05):
        # |s|^2/eps^2 on both sides of 1, exactly 1, exact zeros, and up to 1
        x = eps**2 * rng.uniform(0.0, 2.0, length)
        x[1::3] = rng.uniform(0.0, 1.0, x[1::3].size)
        x[::7] = 0.0
        x[5::11] = eps**2
        for gamma in (0.5, 0.9):
            got = cgp_chi(gamma, eps, x)
            assert got.tobytes() == reference_cgp_chi(gamma, eps, x).tobytes(), \
                f"length={length} gamma={gamma} eps={eps}"


def _chi_peak_mb(x):
    cgp_chi(0.5, 0.1, x)                          # nothing first-call in the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cgp_chi(0.5, 0.1, x)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_chi_allocation_does_not_scale_with_nodes(sphere_s_h_sq):
    # all nodes at once peaked at 12.1 MB (N=64) and 48.5 MB (N=128)
    peak64 = _chi_peak_mb(sphere_s_h_sq[64])
    peak128 = _chi_peak_mb(sphere_s_h_sq[128])
    assert peak128 <= 8.0, f"N=128 peak {peak128:.1f} MB"
    assert abs(peak128 - peak64) <= 2.0, f"{peak64:.1f} -> {peak128:.1f} MB"


def test_chi_validation():
    with pytest.raises(ConfigurationError):
        cgp_chi(0.0, 0.1, np.array([0.5]))
    with pytest.raises(ConfigurationError):
        cgp_chi(0.5, 1.5, np.array([0.5]))
    with pytest.raises(ConfigurationError):
        cgp_chi(0.5, 0.1, np.array([-0.1]))


# ---------------------------------------------------------------------------
# Calabi volume forms


def test_calabi_torus_trivial(torus):
    h, f = calabi_volume_form(torus, np.zeros(torus.shape))
    assert np.abs(h.values).max() < 1e-12
    assert np.abs(f.values - torus.area_weight).max() < 1e-12


def test_calabi_sphere_round(sphere):
    h, f = calabi_volume_form(sphere, sphere.ricci_background)
    assert np.abs(h.values).max() < 1e-12
    assert np.abs(f.values - sphere.area_weight).max() < 1e-12


def test_calabi_perturbed_self_consistency(sphere):
    th, ph = sphere.meshgrid()
    pert = 0.05 * np.sin(th) * np.cos(ph) * sphere.area_weight
    pert -= integrate(sphere, pert) / (sphere.cell_area * sphere.resolution**2)
    target = sphere.ricci_background + pert
    h, f = calabi_volume_form(sphere, target)
    # oracle: re-apply the Ricci operator to the returned density
    residual = np.abs(ricci_density(sphere, f.values) - target).max()
    assert residual < 1e-8, f"residual {residual:.2e}"
    assert abs(integrate(sphere, f.values) - sphere.total_volume) < 1e-10
    assert f.values.min() > 0.0


def test_calabi_rejects_wrong_degree(sphere):
    with pytest.raises(CompatibilityError):
        calabi_volume_form(sphere, 1.5 * sphere.ricci_background)


# ---------------------------------------------------------------------------
# cone metric and k selection


def test_cgp_metric_small_k_valid(sphere, divisor):
    cm = cgp_metric(sphere, divisor, 0.5, 0.1, 0.01)
    assert cm.valid
    assert cm.bad_nodes == []
    assert (cm.density / sphere.area_weight).min() >= 0.5


def test_cgp_metric_k_zero_limit(sphere, divisor):
    cm = cgp_metric(sphere, divisor, 0.5, 0.1, 0.0)
    assert cm.valid
    assert np.array_equal(cm.density, sphere.area_weight)


def test_cgp_metric_oversized_k(sphere, divisor):
    cm = cgp_metric(sphere, divisor, 0.5, 0.025, 5.0)
    assert not cm.valid
    assert len(cm.bad_nodes) > 0
    i, j = cm.bad_nodes[0]
    assert cm.density[i, j] < 0.5 * sphere.area_weight[i, j]


def test_select_k_gamma_one_slack():
    # large volume keeps the smooth chi = |s|^2 constraint inert, so the
    # search returns its cap
    s = build_surface(SurfaceKind.SPHERE_P1, 32, 8.0)
    d = divisor_section(s, [(np.pi / 2, 0.0)])
    C = 4.0
    k = select_k(s, d, 1.0, [0.1, 0.05], equivalence_C=C)
    assert k == 1.0 / (2.0 * (C - 0.5))


def test_select_k_conical(sphere, divisor):
    C = path_constant(2.0, -1.5, 1.0)
    eps_list = [0.2, 0.1, 0.05, 0.025]
    k = select_k(sphere, divisor, 0.5, eps_list, equivalence_C=C)
    assert k > 0.0
    for eps in eps_list:
        assert cgp_metric(sphere, divisor, 0.5, eps, C * k).valid
        # halving keeps validity (monotone constraint)
        assert cgp_metric(sphere, divisor, 0.5, eps, C * k / 2.0).valid


@pytest.mark.parametrize("gamma, eps_list, C", [
    (0.5, [0.2, 0.1, 0.05, 0.025], 4.0),
    (0.5, [0.1], path_constant(2.0, -1.5, 1.0)),
    (0.9, [0.2], path_constant(2.0, -1.9, 0.5)),
    (0.3, [0.05, 0.2], 2.0),
])
def test_select_k_is_largest_valid_grid_value(sphere, divisor, gamma,
                                              eps_list, C):
    # the k returned is the first grid value cgp_metric accepts at C*k for
    # every eps: either the cap, or one halving back fails for some eps
    cap = gamma / (2.0 * (C - 0.5))
    k = select_k(sphere, divisor, gamma, eps_list, equivalence_C=C)
    assert all(cgp_metric(sphere, divisor, gamma, eps, C * k).valid
               for eps in eps_list)
    assert k == cap or not all(
        cgp_metric(sphere, divisor, gamma, eps, C * 2.0 * k).valid
        for eps in eps_list)


def test_select_k_validation(sphere, divisor):
    with pytest.raises(ConfigurationError):
        select_k(sphere, divisor, 0.5, [])
    with pytest.raises(ConfigurationError):
        select_k(sphere, divisor, 0.5, [0.1], equivalence_C=0.3)


# ---------------------------------------------------------------------------
# pack assembly


def test_flowparams_validation():
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=0.0, epsilon=0.1, k=0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=1.2, epsilon=0.1, k=0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=0.5, epsilon=0.0, k=0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=0.5, epsilon=0.1, k=-0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=0.5, epsilon=0.1, k=0.0, T=1.0)  # k=0 needs gamma=1
    with pytest.raises(ConfigurationError):
        FlowParams(gamma=1.0, epsilon=0.1, k=0.1, T=0.0)
    # k=0 at gamma=1 is the smooth configuration
    FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=1.0)


def test_pack_torus_trivial(torus):
    pack = build_pack(torus, None, FlowParams(gamma=1.0, epsilon=0.5, k=0.0, T=2.0))
    assert pack.tmax == np.inf
    assert np.abs(pack.nu_gamma.values).max() == 0.0
    assert np.abs(pack.F_eps.values).max() < 1e-12
    assert np.array_equal(pack.omega_path_eps(1.7), torus.area_weight)


def test_pack_sphere_gamma_one_k_zero(sphere, divisor):
    # gamma=1 kills the cone term; default endpoint gives the Einstein
    # volume form, so F collapses to h = 0
    pack = build_pack(sphere, divisor, FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=0.5))
    assert np.abs(pack.F_eps.values).max() < 1e-10
    assert np.abs(pack.h_gamma.values).max() < 1e-10


def test_pack_conical(sphere, divisor):
    k = select_k(sphere, divisor, 0.5, [0.1], equivalence_C=path_constant(2.0, -1.5, 1.0))
    pack = build_pack(sphere, divisor, FlowParams(gamma=0.5, epsilon=0.1, k=k, T=1.0))
    assert pack.tmax == pytest.approx(4.0 / 3.0)
    slope = class_slope(sphere.kind.c1_degree, divisor.degree, 0.5, 0.0)
    assert slope == -1.5
    assert np.isfinite(pack.F_eps.values).all()
    # cohomology: integral of nu is the slope
    assert abs(integrate(sphere, pack.nu_gamma.values) - slope) < 1e-8
    # both paths stay positive across the horizon
    for t in np.linspace(0.0, 1.0, 33):
        assert pack.omega_path_eps(t).min() > 0.0
        assert (sphere.area_weight + t * pack.nu_gamma.values).min() > 0.0


def test_pack_F_saturates(sphere, divisor):
    # sup|F| grows toward its uniform cap as eps decreases; the certificate
    # of eps-uniform boundedness is the geometric decay of the increments
    k = select_k(sphere, divisor, 0.5, [0.2, 0.1, 0.05, 0.025],
                 equivalence_C=path_constant(2.0, -1.5, 1.0))
    sups = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        pack = build_pack(sphere, divisor, FlowParams(gamma=0.5, epsilon=eps, k=k, T=1.0))
        sups.append(float(np.abs(pack.F_eps.values).max()))
    inc = np.diff(sups)
    assert np.all(inc > 0.0)  # approaching the cap from below
    assert inc[1] < 0.95 * inc[0] and inc[2] < 0.95 * inc[1], f"increments {inc}"


def test_pack_rejects_bad_horizon(sphere, divisor):
    with pytest.raises(ConfigurationError):
        build_pack(sphere, divisor, FlowParams(gamma=0.5, epsilon=0.1, k=0.01, T=1.5))


def test_pack_rejects_conical_without_divisor(torus):
    with pytest.raises(ConfigurationError):
        build_pack(torus, None, FlowParams(gamma=0.5, epsilon=0.1, k=0.01, T=0.5))


def test_pack_mixed_path_guard(sphere, divisor):
    # omega + T nu is 0.1 omega at T = 1.2, and the k = 0.02 cone metric
    # dips 11% below omega, so the mixed path goes negative at the horizon
    with pytest.raises(PositivityError,
                       match=r"^mixed path loses positivity at t=1\.2000$") as info:
        build_pack(sphere, divisor,
                   FlowParams(gamma=0.5, epsilon=0.1, k=0.02, T=1.2))
    assert len(info.value.nodes) > 0


def test_resolvability_floor(sphere, torus):
    assert resolvability_floor(sphere) == pytest.approx(2.0 * (np.pi / 64) ** 2)
    assert resolvability_floor(torus) == pytest.approx(2.0 / 32**2)


def football_spread(n, eta):
    """Spread of Q = log(omega_fb/omega) + h + (1-gamma) log|s|^2
    - (slope/V) u_fb over the nodes off the divisor.

    The football is S^2 with two antipodal cone points of angle 2 pi gamma,
    a conical Kahler-Einstein metric (Troyanov 1989), here at V = 2 and
    gamma = 1/2.  With c the cosine of the round distance to the first
    point, omega_fb/omega = 4 gamma (1-c^2)^(gamma-1) / ((1+c)^gamma
    + (1-c)^gamma)^2 and omega_fb = omega + ddbar u_fb with
    u_fb = (V/2pi) ((1/gamma) log((1+c)^gamma + (1-c)^gamma) - log 2).
    The flow moves it only by scaling exactly when Q is constant.
    """
    volume, gamma = 2.0, 0.5
    s = build_surface(SurfaceKind.SPHERE_P1, n, volume)
    # (theta_{N/2}, 0) and (theta_{N/2-1}, pi) are exactly antipodal nodes
    d = divisor_section(s, [(s.axis0[n // 2], 0.0), (s.axis0[n // 2 - 1], np.pi)])
    pack = build_pack(s, d, FlowParams(gamma=gamma, epsilon=0.2, k=1e-3, T=0.1,
                                       eta_degree=eta))
    slope = class_slope(s.kind.c1_degree, d.degree, gamma, eta)
    c = 1.0 - 2.0 * haversine(s, d.point_coords[0])
    off = d.s_h_sq > 0.0
    c, x, h = c[off], d.s_h_sq[off], pack.h_gamma.values[off]
    sigma = (1.0 + c) ** gamma + (1.0 - c) ** gamma
    ratio = 4.0 * gamma * (1.0 - c * c) ** (gamma - 1.0) / sigma**2
    u_fb = volume / (2.0 * np.pi) * (np.log(sigma) / gamma - np.log(2.0))
    q = np.log(ratio) + h + (1.0 - gamma) * np.log(x) - slope / volume * u_fb
    return float(np.ptp(q))


@pytest.mark.parametrize("n", [32, 64])
def test_football_is_stationary_only_at_the_untwisting_eta(n):
    # the flow carries the twist tau = (2 pi eta + (1 - 2 pi) slope) omega/V
    # (see flow.py); it vanishes at eta* = -2 gamma (2 pi - 1), where the
    # football only scales.  At eta = 0 the twist (1 - 2 pi) slope omega/V
    # moves it: that is the negative control
    eta_star = -2.0 * 0.5 * (2.0 * np.pi - 1.0)
    assert football_spread(n, eta_star) <= 1e-12
    assert football_spread(n, 0.0) >= 0.2
