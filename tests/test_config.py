"""Config parsing: defaults, validation with line numbers, emit roundtrip."""
import math
import re
from pathlib import Path

import pytest

from coneflow.background import compute_tmax
from coneflow.config import build_lab, emit_config, parse_config
from coneflow.errors import ConfigurationError
from coneflow.estimates import ESTIMATES
from coneflow.flow import Scheme
from coneflow.initial_data import DatumKind
from coneflow.surfaces import SurfaceKind

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
estimates = upper_barrier(t0=0.1); hstat; comparison

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
        assert cfg.verify == [("upper_barrier", {"t0": 0.1}), ("hstat", {}),
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

    def test_checkpoints_must_fit_horizon(self):
        expect_error(MINIMAL_TORUS + "\n[checkpoints]\ntimes = 0.1, 0.3\n",
                     "(0, T=0.25]")

    def test_cone_angle_needs_divisor(self):
        expect_error(MINIMAL_TORUS.replace("gamma = 1.0", "gamma = 0.5"),
                     "needs a divisor")

    def test_singular_datum_needs_positive_k(self):
        text = SPHERE.replace("gamma = 0.5", "gamma = 1.0")
        text = text.replace("t = 1.0", "t = 0.25\nk = 0.0")
        expect_error(text, "positive cone coefficient")

    def test_unknown_estimate_id(self):
        expect_error(SPHERE.replace("hstat", "hstats"), "unknown estimate id")

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
        expect_error(SPHERE.replace("upper_barrier(t0=0.1)",
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


def test_readme_example_verifies_at_checkpoints():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n(\[surface\]\n.*?)```", readme, re.S).group(1)
    cfg = parse_config(block)
    times = [params[key] for _name, params in cfg.verify
             for key in ("t0", "t") if key in params]
    assert times and all(t in cfg.checkpoints for t in times), (
        times, cfg.checkpoints)
