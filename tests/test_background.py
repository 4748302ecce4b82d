"""Background module: T_max, Calabi solves, cone potential, pack assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneflow.background import (
    FlowParams,
    build_pack,
    calabi_volume_form,
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
    assert pack.slope == -1.5
    assert np.isfinite(pack.F_eps.values).all()
    # cohomology: integral of nu is the slope
    assert abs(integrate(sphere, pack.nu_gamma.values) - pack.slope) < 1e-8
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


def test_pack_kappa_perturbation(sphere, divisor):
    th, ph = sphere.meshgrid()
    pert = 0.02 * np.sin(th) * np.sin(ph) * sphere.area_weight
    pert -= integrate(sphere, pert) / (sphere.cell_area * sphere.resolution**2)
    k = 0.01
    pack = build_pack(sphere, divisor,
                      FlowParams(gamma=0.5, epsilon=0.1, k=k, T=1.0),
                      kappa_perturbation=pert)
    # Calabi step sees the perturbed target, so h is no longer flat
    assert np.abs(pack.h_gamma.values).max() > 1e-6
    assert abs(integrate(sphere, pack.nu_gamma.values) - pack.slope) < 1e-8
    with pytest.raises(CompatibilityError):
        build_pack(sphere, divisor,
                   FlowParams(gamma=0.5, epsilon=0.1, k=k, T=1.0),
                   kappa_perturbation=np.ones(sphere.shape))


def test_pack_positivity_guard(sphere, divisor):
    # a perturbation that drives the endpoint negative somewhere must be
    # rejected with node locations
    th, _ = sphere.meshgrid()
    pert = -np.cos(th) ** 8 * sphere.area_weight * 2.0
    pert -= integrate(sphere, pert) / (sphere.cell_area * sphere.resolution**2) * 0.0
    pert -= integrate(sphere, pert) * sphere.area_weight / (
        integrate(sphere, sphere.area_weight)
    )
    with pytest.raises(PositivityError) as info:
        build_pack(sphere, divisor,
                   FlowParams(gamma=0.5, epsilon=0.1, k=0.01, T=1.0),
                   kappa_perturbation=pert)
    assert len(info.value.nodes) > 0


def test_resolvability_floor(sphere, torus):
    assert resolvability_floor(sphere) == pytest.approx(2.0 * (np.pi / 64) ** 2)
    assert resolvability_floor(torus) == pytest.approx(2.0 / 32**2)
