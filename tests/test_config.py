"""Config parsing: defaults, validation with line numbers, emit roundtrip."""
import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

from coneflow.background import compute_tmax
from coneflow.cli import _SELFCHECK_CONFIG
from coneflow.config import build_lab, emit_config, parse_config
from coneflow.errors import ConfigurationError
from coneflow.estimates import ESTIMATES
from coneflow.flow import Scheme
from coneflow.initial_data import _DECLARATIONS, DatumKind, make_initial
from coneflow.surfaces import SurfaceKind, build_surface, divisor_section

MINIMAL_TORUS = """\
[surface]
kind = torus
n = 16
v = 0.5

[flow]
gamma = 1.0
eps = 0.2
t = 0.25
"""

SPHERE = """\
[surface]
kind = sphere
n = 64
v = 2.0

[divisor]
points = 1.5707963267948966, 0.0

[flow]
gamma = 0.5
eps = 0.2, 0.1
t = 1.0

[initial]
kind = zero_lelong(alpha=0.5, c=0.05)
j = 2, 4, 8

[verify]
estimates = upper_barrier(t0=0.125); hstat; comparison

[output]
dir = out/sweep
"""


def expect_error(text, *needles):
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    for needle in needles:
        assert needle in str(err.value), str(err.value)


def expect_build_error(text, *needles):
    """A config that parses but fails in build_lab, at its config line."""
    config = parse_config(text)
    with pytest.raises(ConfigurationError) as err:
        build_lab(config)
    for needle in needles:
        assert needle in str(err.value), str(err.value)


class TestDefaults:
    def test_minimal_torus_fills_defaults(self):
        cfg = parse_config(MINIMAL_TORUS)
        assert cfg.surface_kind is SurfaceKind.TORUS
        assert cfg.resolution == 16 and cfg.volume == 0.5
        assert cfg.divisor_points == [] and cfg.divisor_degree == 0
        assert cfg.k is None and cfg.eta_degree == 0.0
        assert cfg.initial_kind is DatumKind.SMOOTH
        assert cfg.initial_params == {"c": 0.0}
        assert cfg.j_list == [] and cfg.sigma == 0.25
        assert cfg.control.scheme is Scheme.SEMI_IMPLICIT_NEWTON
        assert cfg.verify == [] and cfg.out_dir is None

    def test_default_checkpoints_are_dyadic(self):
        cfg = parse_config(MINIMAL_TORUS)
        assert cfg.checkpoints == [0.25 * 2.0 ** (-m) for m in range(5, -1, -1)]

    def test_budget_properties_match_direct_formula(self):
        torus = parse_config(MINIMAL_TORUS)
        assert torus.slope == 0.0 and torus.tmax == math.inf
        sphere = parse_config(SPHERE)
        assert sphere.slope == -1.5
        assert sphere.tmax == compute_tmax(2.0, 2.0, 1, 0.5, 0.0)
        assert sphere.tmax == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_structured_sections_parse(self):
        cfg = parse_config(SPHERE)
        assert cfg.divisor_points == [(1.5707963267948966, 0.0)]
        assert cfg.j_list == [2.0, 4.0, 8.0]
        assert cfg.verify == [("upper_barrier", {"t0": 0.125}), ("hstat", {}),
                              ("comparison", {})]
        assert cfg.out_dir == "out/sweep"

    def test_comments_and_case_do_not_matter(self):
        text = MINIMAL_TORUS.replace("kind = torus", "KIND = Torus  # flat")
        assert parse_config(text) == parse_config(MINIMAL_TORUS)


class TestRoundtrip:
    @pytest.mark.parametrize("text", [MINIMAL_TORUS, SPHERE],
                             ids=["torus", "sphere"])
    def test_emit_parse_is_identity(self, text):
        cfg = parse_config(text)
        assert parse_config(emit_config(cfg)) == cfg

    def test_emit_is_canonical(self):
        cfg = parse_config(SPHERE)
        assert emit_config(parse_config(emit_config(cfg))) == emit_config(cfg)

    def test_explicit_k_survives_roundtrip(self):
        text = SPHERE.replace("t = 1.0", "t = 1.0\nk = 0.05")
        cfg = parse_config(text)
        assert cfg.k == 0.05
        assert parse_config(emit_config(cfg)).k == 0.05


class TestStructureErrors:
    def test_unknown_section(self):
        expect_error(MINIMAL_TORUS + "\n[grid]\nn = 8\n",
                     "line 11", "unknown section [grid]")

    def test_unknown_key(self):
        expect_error(MINIMAL_TORUS.replace("v = 0.5", "v = 0.5\nshape = big"),
                     "line 5", "unknown key 'shape'")

    def test_duplicate_key(self):
        expect_error(MINIMAL_TORUS.replace("n = 16", "n = 16\nn = 32"),
                     "line 4", "duplicate key 'n'")

    def test_duplicate_section(self):
        expect_error(MINIMAL_TORUS + "\n[flow]\ngamma = 1.0\n",
                     "duplicate section [flow]")

    def test_key_outside_section(self):
        expect_error("n = 16\n" + MINIMAL_TORUS, "line 1", "outside any section")

    def test_missing_required_section(self):
        expect_error("[surface]\nkind = torus\nn = 16\nv = 0.5\n",
                     "missing required section [flow]")

    def test_missing_required_key(self):
        expect_error(MINIMAL_TORUS.replace("v = 0.5\n", ""),
                     "missing required key 'v'")

    def test_non_numeric_value_reports_line(self):
        expect_error(MINIMAL_TORUS.replace("n = 16", "n = sixteen"),
                     "line 3", "bad value for 'n'")


class TestValidation:
    def test_horizon_must_stay_below_tmax(self):
        expect_error(SPHERE.replace("t = 1.0", "t = 2.0"),
                     "line 12", "T=2.0", "T_max=1.3333333333333333")

    def test_eps_below_resolvability_floor(self):
        # torus N=16 resolves nothing finer than 2*(1/16)^2
        expect_build_error(MINIMAL_TORUS.replace("eps = 0.2", "eps = 0.001"),
                           "line 8", "resolvability floor", "0.0078125")

    def test_eps_must_strictly_decrease(self):
        expect_error(SPHERE.replace("eps = 0.2, 0.1", "eps = 0.1, 0.2"),
                     "strictly decreasing")

    def test_j_must_strictly_increase(self):
        expect_error(SPHERE.replace("j = 2, 4, 8", "j = 2, 2, 8"),
                     "strictly increasing")

    # run ids and snapshot files name eps, j and t with ":g"; values that
    # agree to 6 significant digits used to overwrite each other's files
    def test_eps_values_must_have_distinct_names(self):
        expect_error(SPHERE.replace("eps = 0.2, 0.1", "eps = 0.2000001, 0.2"),
                     "line 11", "eps values 0.2000001 and 0.2 share the name '0.2'")

    def test_j_values_must_have_distinct_names(self):
        expect_error(SPHERE.replace("j = 2, 4, 8", "j = 2, 4, 4.000001"),
                     "line 16", "j values 4.0 and 4.000001 share the name '4'")

    def test_checkpoint_times_must_have_distinct_names(self):
        expect_error(MINIMAL_TORUS
                     + "\n[checkpoints]\ntimes = 0.025, 0.02500001, 0.05\n",
                     "line 12", "checkpoint values 0.025 and 0.02500001 share "
                                "the name '0.025'")

    def test_checkpoints_must_fit_horizon(self):
        expect_error(MINIMAL_TORUS + "\n[checkpoints]\ntimes = 0.1, 0.3\n",
                     "(0, T=0.25]")

    def test_empty_checkpoint_list(self):
        # an empty list would archive no run at all
        expect_error(MINIMAL_TORUS + "\n[checkpoints]\ntimes =\n",
                     "line 12", "checkpoint list is empty")

    def test_cone_angle_needs_divisor(self):
        expect_error(MINIMAL_TORUS.replace("gamma = 1.0", "gamma = 0.5"),
                     "needs a divisor")

    def test_singular_datum_needs_positive_k(self):
        text = SPHERE.replace("gamma = 0.5", "gamma = 1.0")
        text = text.replace("t = 1.0", "t = 0.25\nk = 0.0")
        expect_error(text, "positive cone coefficient")

    def test_unknown_estimate_id(self):
        expect_error(SPHERE.replace("hstat", "hstats"), "unknown estimate id")

    def test_estimate_parameter_that_no_check_reads(self):
        # upper_barrier reads t0: with t=0.05 it would certify the barrier
        # from the first checkpoint and say nothing
        expect_error(SPHERE.replace("upper_barrier(t0=0.125)",
                                    "upper_barrier(t=0.05)"),
                     "line 19", "upper_barrier reads no parameter t")
        expect_error(SPHERE.replace("comparison", "comparison(t0=0.1)"),
                     "line 19", "comparison reads no parameter t0")

    def test_estimate_without_a_required_parameter(self):
        # phidot_lower has no default window: without one the run used to
        # finish and only verify failed
        expect_error(SPHERE.replace("comparison", "comparison; phidot_lower"),
                     "line 19", "phidot_lower needs parameter t0, tprime")
        expect_error(SPHERE.replace("comparison",
                                    "comparison; phidot_lower(t0=0.1)"),
                     "line 19", "phidot_lower needs parameter tprime ")

    @pytest.mark.parametrize("selection,message", [
        ("upper_barrier(t0=0.1)", "upper_barrier t0=0.1 is not"),
        ("lower_barrier(t0=0.15)", "lower_barrier t0=0.15 is not"),
        ("hstat(t0=0.2)", "hstat t0=0.2 is not"),
        ("density_ratio(t0=0.3)", "density_ratio t0=0.3 is not"),
        ("phidot_lower(t0=0.1, tprime=0.5)", "phidot_lower t0=0.1 is not"),
        ("monotone_eps(t=0.2)", "monotone_eps t=0.2 is not"),
    ])
    def test_estimate_time_that_is_not_a_checkpoint(self, selection,
                                                    message):
        # the checks read their runs at checkpoints (default 1/32 ... 1):
        # before, the whole family ran and was archived, and only verify
        # exited 2
        expect_error(SPHERE.replace("upper_barrier(t0=0.125)", selection),
                     "line 19", message,
                     "(times: 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)")

    def test_estimate_times_at_checkpoints_parse(self):
        # matched as Trajectory.checkpoint_index matches, up to rounding;
        # phidot_lower's window may also open at t0 = 0
        for selection in ("upper_barrier(t0=0.12500000000001)",
                          "lower_barrier(t0=1.0)", "hstat(t0=0.03125)",
                          "density_ratio(t0=0.5)", "monotone_eps(t=0.25)",
                          "phidot_lower(t0=0, tprime=0.5)",
                          "phidot_lower(t0=0.0625, tprime=0.3)"):
            parse_config(SPHERE.replace("upper_barrier(t0=0.125)",
                                        selection))

    def test_datum_parameter_the_kind_does_not_take(self):
        expect_build_error(SPHERE.replace("alpha=0.5", "alpha=0.5, gamma=0.5"),
                           "line 15", "zero_lelong takes no parameter gamma")

    def test_unknown_initial_kind(self):
        expect_error(SPHERE.replace("zero_lelong", "lelong"),
                     "unknown initial kind")

    def test_bad_datum_parameters_report_initial_line(self):
        expect_build_error(SPHERE.replace("alpha=0.5", "alpha=1.5"),
                           "line 15")

    def test_flow_parameters_report_flow_section_line(self):
        text = MINIMAL_TORUS.replace("t = 0.25", "t = 0.25\nk = -1.0")
        expect_build_error(text, "line 6", "k must be nonnegative")

    def test_point_needs_two_coordinates(self):
        expect_error(SPHERE.replace("points = 1.5707963267948966, 0.0",
                                    "points = 1.0"),
                     "line 7", "exactly two coordinates")

    def test_call_syntax_rejects_positional(self):
        expect_error(SPHERE.replace("upper_barrier(t0=0.125)",
                                    "upper_barrier(0.1)"),
                     "key=value")


class TestResolve:
    def test_auto_k_matches_manual_selection(self):
        from coneflow.background import path_constant, select_k
        from coneflow.surfaces import build_surface, divisor_section
        cfg = parse_config(SPHERE)
        lab = build_lab(cfg)
        params = [pack.params for pack in lab.packs.values()]
        surface = build_surface(cfg.surface_kind, cfg.resolution, cfg.volume)
        divisor = divisor_section(surface, cfg.divisor_points)
        expected = select_k(surface, divisor, 0.5, [0.2, 0.1],
                            path_constant(2.0, -1.5, 1.0))
        assert lab.k == expected
        assert [p.k for p in params] == [expected, expected]
        assert [p.epsilon for p in params] == [0.2, 0.1]

    def test_torus_without_divisor_gets_k_zero(self):
        lab = build_lab(parse_config(MINIMAL_TORUS))
        assert lab.k == 0.0
        assert [p.params.k for p in lab.packs.values()] == [0.0]

    def test_estimate_id_registry_is_complete(self):
        assert len(ESTIMATES) == 12
        assert "signature" in ESTIMATES and "comparison" in ESTIMATES
        assert [eid for eid, entry in ESTIMATES.items() if entry.default] == [
            "upper_barrier", "lower_barrier", "hstat", "density_ratio",
            "comparison", "monotone_eps", "osc"]
        # the selection parameters each check reads, the only ones a config
        # may set
        assert {eid: entry.params for eid, entry in ESTIMATES.items()} == {
            "upper_barrier": ("t0",), "lower_barrier": ("t0",),
            "hstat": ("t0",), "density_ratio": ("t0",), "comparison": (),
            "monotone_eps": ("t",), "osc": (), "phidot_lower": ("t0", "tprime"),
            "reparam_ordering": ("c_tilde",), "lower_envelope": ("l",),
            "l1_convergence": ("t_top",), "signature": ("expect",)}
        # and the ones without a default, which a selection must set
        assert {eid: entry.required for eid, entry in ESTIMATES.items()
                if entry.required} == {"phidot_lower": ("t0", "tprime")}


def test_readme_example_verifies_at_checkpoints():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n(\[surface\]\n.*?)```", readme, re.S).group(1)
    cfg = parse_config(block)
    times = [params[key] for _name, params in cfg.verify
             for key in ("t0", "t") if key in params]
    assert times and all(t in cfg.checkpoints for t in times), (
        times, cfg.checkpoints)


def test_readme_tables_match_the_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.split("|")[1:3] for line in readme.splitlines()
            if line.startswith("| `")]
    kinds, ids = {}, {}
    for first, second in rows:
        for name in re.findall(r"`(\w+)`", first):
            kinds[name] = dict(re.findall(r"`(\w+)` \(([^)]*)\)", second))
            ids[name] = tuple(re.findall(r"`(\w+)`", second))
    for kind in DatumKind:
        assert kinds[kind.value] == {
            name: str(default)
            for name, default in _DECLARATIONS[kind].defaults.items()}
    assert {eid: ids[eid] for eid in ESTIMATES} == {
        eid: entry.params for eid, entry in ESTIMATES.items()}
    assert len(kinds) == len(DatumKind) + len(ESTIMATES)


def test_shipped_configs_pass_parse_and_datum_checks():
    # every config the repo ships: the README example, the selfcheck config
    # and the benchmark workloads (loaded by path; benchmarks/ is not a
    # package) parse and build their datum under the current rules
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = {"README": re.search(r"```\n(\[surface\]\n.*?)```", readme,
                                 re.S).group(1),
             "selfcheck": _SELFCHECK_CONFIG}
    spec = importlib.util.spec_from_file_location(
        "shipped_workloads", root / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # dataclasses resolve it there
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    texts.update((name, w.config) for name, w in workloads.WORKLOADS.items())
    assert len(texts) == 5
    for name, text in texts.items():
        cfg = parse_config(text)
        surface = build_surface(cfg.surface_kind, cfg.resolution, cfg.volume)
        divisor = (divisor_section(surface, cfg.divisor_points)
                   if cfg.divisor_points else None)
        make_initial(surface, divisor, cfg.initial_kind,
                     dict(cfg.initial_params))
