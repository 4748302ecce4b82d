"""Shared run corpus for the estimate and acceptance suites.

Session-scoped fixtures so every expensive trajectory is computed once per
pytest invocation and reused by both test modules.  Parameter choices here
are the canonical desk-scale configurations; the frozen margins in the test
modules refer to exactly these runs.
"""
import numpy as np
import pytest

from coneflow.background import FlowParams, build_pack, path_constant, select_k
from coneflow.flow import StepControl, run_flow
from coneflow.initial_data import DatumKind, flow_level_values, make_initial
from coneflow.surfaces import SurfaceKind, build_surface, divisor_section

# dyadic head 0.2*2^-m, m=5..0, then the approach to the horizon T=1
CHECKPOINTS = [0.00625, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]
CHECKPOINTS_SHORT = CHECKPOINTS[:6]

SWEEP_EPS = [0.2, 0.1, 0.05]
SWEEP_J = [2.0, 4.0, 8.0]
EPS_FAMILY = [0.2, 0.1, 0.05, 0.025]
J_FAMILY = [2.0, 4.0, 8.0, 16.0]


@pytest.fixture(scope="session")
def control():
    return StepControl()


@pytest.fixture(scope="session")
def torus_lab(control):
    """Flat background, slope zero: stationary plus small heat-like runs."""
    surface = build_surface(SurfaceKind.TORUS, 32, volume=0.5)
    pack = build_pack(surface, None,
                      FlowParams(gamma=1.0, epsilon=0.1, k=0.0, T=0.25))
    x, _ = surface.meshgrid()
    bump = np.cos(2 * np.pi * x)
    runs = {
        "stationary": run_flow(pack, 0.0, np.zeros(surface.shape), control,
                               CHECKPOINTS_SHORT, run_id="stationary"),
        "heat": run_flow(pack, 0.0, 0.01 * bump, control,
                         CHECKPOINTS_SHORT, run_id="heat"),
        "heat_small": run_flow(pack, 0.0, 0.005 * bump, control,
                               CHECKPOINTS_SHORT, run_id="heat_small"),
        "heat_shifted": run_flow(pack, 0.0, 0.01 * bump - 0.3, control,
                                 CHECKPOINTS_SHORT, run_id="heat_shifted"),
    }
    return {"surface": surface, "pack": pack, "bump": bump, "runs": runs}


@pytest.fixture(scope="session")
def sphere_lab(control):
    """The conical sweep: one divisor point, gamma=1/2, finite horizon.

    Runs cover the (eps, j) sweep grid plus the j- and eps-family
    extensions and a log-pole family for the divergence signature.
    """
    surface = build_surface(SurfaceKind.SPHERE_P1, 64, volume=2.0)
    divisor = divisor_section(surface, [(0.5 * np.pi, 0.0)])
    k = select_k(surface, divisor, 0.5, EPS_FAMILY,
                 path_constant(2.0, -1.5, 1.0))
    packs = {e: build_pack(surface, divisor,
                           FlowParams(gamma=0.5, epsilon=e, k=k, T=1.0))
             for e in EPS_FAMILY}
    datum = make_initial(surface, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                         {"alpha": 0.5, "c": 0.05})
    sing = datum.scan_exclude

    runs = {}
    for e in SWEEP_EPS:
        for j in SWEEP_J:
            runs[(e, j)] = run_flow(
                packs[e], j, flow_level_values(datum, e, j), control,
                CHECKPOINTS, run_id=f"zl_e{e:g}_j{j:g}", scan_exclude=sing)
    for e, j in [(0.1, 16.0), (0.025, 8.0)]:
        runs[(e, j)] = run_flow(
            packs[e], j, flow_level_values(datum, e, j), control,
            CHECKPOINTS, run_id=f"zl_e{e:g}_j{j:g}", scan_exclude=sing)

    log_pole = make_initial(surface, divisor, DatumKind.LOG_POLE, {"c": 0.2})
    lp_runs = [run_flow(packs[e], 8.0, flow_level_values(log_pole, e, 8.0),
                        control, CHECKPOINTS, run_id=f"lp_e{e:g}",
                        scan_exclude=log_pole.scan_exclude)
               for e in SWEEP_EPS]

    return {
        "surface": surface,
        "divisor": divisor,
        "k": k,
        "packs": packs,
        "datum": datum,
        "runs": runs,
        "log_pole": log_pole,
        "lp_runs": lp_runs,
    }


@pytest.fixture(scope="session")
def l1_lab(control):
    """Near-flat conical pack (gamma=0.9) for the short-time continuity runs.

    The initial defect log(density(phi0)/density(0)) + F scales with 1-gamma,
    so this pack keeps the early motion small enough for the dyadic-time
    distances to resolve the approach to the initial datum.
    """
    surface = build_surface(SurfaceKind.SPHERE_P1, 64, volume=2.0)
    divisor = divisor_section(surface, [(0.5 * np.pi, 0.0)])
    k = select_k(surface, divisor, 0.9, [0.2], path_constant(2.0, -1.9, 0.5))
    pack = build_pack(surface, divisor,
                      FlowParams(gamma=0.9, epsilon=0.2, k=k, T=0.5))
    data = {
        "smooth": make_initial(surface, divisor, DatumKind.SMOOTH,
                               {"c": 0.02, "m1": 2, "m2": 0}),
        "donaldson": make_initial(surface, divisor, DatumKind.DONALDSON_CONE,
                                  {"c": 0.02}),
        "zero_lelong": make_initial(surface, divisor,
                                    DatumKind.ZERO_LELONG_UNBOUNDED,
                                    {"alpha": 0.5, "c": 0.05}),
    }
    runs = {name: run_flow(pack, 0.0, flow_level_values(dat, 0.2, None),
                           control, CHECKPOINTS_SHORT, run_id=f"l1_{name}",
                           scan_exclude=dat.scan_exclude)
            for name, dat in data.items()}
    return {"pack": pack, "data": data, "runs": runs}


@pytest.fixture(scope="session")
def doubled_lab(control):
    """Grid-doubled twin of the sweep representative (eps=0.1, j=8)."""
    surface = build_surface(SurfaceKind.SPHERE_P1, 128, volume=2.0)
    divisor = divisor_section(surface, [(0.5 * np.pi, 0.0)])
    k = select_k(surface, divisor, 0.5, EPS_FAMILY,
                 path_constant(2.0, -1.5, 1.0))
    pack = build_pack(surface, divisor,
                      FlowParams(gamma=0.5, epsilon=0.1, k=k, T=1.0))
    datum = make_initial(surface, divisor, DatumKind.ZERO_LELONG_UNBOUNDED,
                         {"alpha": 0.5, "c": 0.05})
    run = run_flow(pack, 8.0, flow_level_values(datum, 0.1, 8.0), control,
                   CHECKPOINTS, run_id="zl_N128",
                   scan_exclude=datum.scan_exclude)
    return {"pack": pack, "datum": datum, "run": run}
