"""Command-line interface: subcommands, exit codes, output layout."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coneflow
import coneflow.config
from coneflow.cli import main

TORUS_CFG = """\
[surface]
kind = torus
n = 16
v = 0.5

[flow]
gamma = 1.0
eps = 0.2, 0.1, 0.05
t = 0.1

[initial]
kind = smooth(c=0.01, m1=1, m2=0)

[checkpoints]
times = 0.0125, 0.025, 0.05, 0.1

[verify]
estimates = upper_barrier; lower_barrier; hstat; monotone_eps(t=0.05); signature
"""

SPHERE_CFG = """\
[surface]
kind = sphere
n = 64
v = 2.0

[divisor]
points = 1.5707963267948966, 0.0

[flow]
gamma = 0.5
eps = 0.2
t = 0.5

[initial]
kind = zero_lelong(alpha=0.5, c=0.05)

[checkpoints]
times = 0.0125, 0.025, 0.05, 0.1, 0.2, 0.5
"""


@pytest.fixture()
def torus_cfg(tmp_path):
    path = tmp_path / "torus.cfg"
    path.write_text(TORUS_CFG)
    return path


@pytest.fixture(scope="module")
def torus_archive(tmp_path_factory):
    """A run archive shared by the read-only subcommand tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "torus.cfg"
    cfg.write_text(TORUS_CFG)
    out = base / "arc"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestTmax:
    def test_sphere_budget(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(SPHERE_CFG)
        assert main(["tmax", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "T_max = 1.3333333333333333" in out
        assert "slope" in out and "-1.5" in out

    def test_torus_budget_is_unbounded(self, torus_cfg, capsys):
        assert main(["tmax", "--config", torus_cfg.as_posix()]) == 0
        assert "T_max = inf" in capsys.readouterr().out

    def test_module_entry_point_runs_without_warning(self, torus_cfg):
        src = Path(coneflow.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "coneflow.cli", "tmax",
             "--config", str(torus_cfg)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "T_max = inf" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["tmax", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SPHERE_CFG.replace("t = 0.5", "t = 2.0"))
        assert main(["tmax", "--config", str(path)]) == 2
        assert "T_max" in capsys.readouterr().err


class TestRun:
    def test_writes_expected_archive(self, torus_archive):
        names = sorted(p.name for p in torus_archive.iterdir())
        assert names == ["config.txt", "manifest.json",
                         "run_e0.05.ckrf", "run_e0.1.ckrf", "run_e0.2.ckrf"]

    def test_config_is_built_once(self, torus_cfg, tmp_path, monkeypatch):
        calls = []
        for name in ("build_surface", "make_initial"):
            real = getattr(coneflow.config, name)
            monkeypatch.setattr(coneflow.config, name,
                                lambda *a, _n=name, _f=real, **kw:
                                calls.append(_n) or _f(*a, **kw))
        assert main(["run", "--config", str(torus_cfg),
                     "--out", str(tmp_path / "arc")]) == 0
        assert sorted(calls) == ["build_surface", "make_initial"]

    def test_repeat_run_is_deterministic(self, torus_cfg, tmp_path):
        manifests = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["run", "--config", str(torus_cfg),
                         "--out", str(out), "--jobs", "2"]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[0]["files"] == manifests[1]["files"]

    def test_out_dir_resolves_against_env(self, torus_cfg, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("CONEFLOW_OUT", str(tmp_path))
        assert main(["run", "--config", str(torus_cfg), "--out", "rel"]) == 0
        assert (tmp_path / "rel" / "manifest.json").is_file()

    def test_missing_out_is_config_error(self, torus_cfg):
        assert main(["run", "--config", str(torus_cfg)]) == 2


class TestVerify:
    def test_configured_selection_passes(self, torus_archive, capsys):
        assert main(["verify", "--out", str(torus_archive)]) == 0
        out = capsys.readouterr().out
        for head in ("PASS upper_barrier", "PASS lower_barrier", "PASS hstat",
                     "PASS monotone_eps", "PASS signature"):
            assert head in out
        report = torus_archive / "reports" / "verify.txt"
        assert report.is_file() and "PASS hstat" in report.read_text()

    def test_only_filter_restricts_checks(self, torus_archive, capsys):
        assert main(["verify", "--out", str(torus_archive),
                     "--only", "hstat"]) == 0
        out = capsys.readouterr().out
        assert "hstat" in out and "upper_barrier" not in out

    def test_unknown_id_is_config_error(self, torus_archive):
        assert main(["verify", "--out", str(torus_archive),
                     "--only", "nonsense"]) == 2

    def test_phidot_lower_needs_window_parameters(self, torus_archive, capsys):
        assert main(["verify", "--out", str(torus_archive),
                     "--only", "phidot_lower"]) == 2
        assert "t0" in capsys.readouterr().err

    def test_failed_expectation_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "expect.cfg"
        cfg.write_text(TORUS_CFG.replace("signature", "signature(expect=1)"))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 1
        assert "FAIL signature" in capsys.readouterr().out

    def test_signature_needs_three_eps(self, tmp_path, capsys):
        # one growth factor between two eps cannot show divergence
        cfg = tmp_path / "two_eps.cfg"
        cfg.write_text(TORUS_CFG.replace("eps = 0.2, 0.1, 0.05",
                                         "eps = 0.2, 0.1"))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 2
        assert "three or more eps" in capsys.readouterr().err

    def test_tolerance_scale_loosens_failures(self, tmp_path, monkeypatch):
        # a check that fails at the stock tolerance must pass when scaled up
        import coneflow.estimates as est
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TORUS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        real = est.check_hstat

        def pessimist(traj, t0=None):
            report = real(traj, t0)
            report.margin = -5e-4
            return report

        monkeypatch.setattr(est, "check_hstat", pessimist)
        assert main(["verify", "--out", str(out), "--only", "hstat"]) == 1
        assert main(["verify", "--out", str(out), "--only", "hstat",
                     "--tolerance-scale", "1000"]) == 0

    def test_corrupted_archive_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TORUS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        target = out / "run_e0.2.ckrf"
        blob = bytearray(target.read_bytes())
        blob[50] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert main(["verify", "--out", str(out)]) == 3
        assert "hash mismatch" in capsys.readouterr().err


class TestExport:
    def test_series_and_snapshots(self, torus_archive):
        assert main(["export", "--out", str(torus_archive)]) == 0
        exports = torus_archive / "exports"
        series = (exports / "e0.2_series.csv").read_text().splitlines()
        assert len(series) == 1 + 4  # header plus one row per checkpoint
        field = (exports / "e0.2_t0.05_field.csv").read_text().splitlines()
        assert len(field) == 1 + 16 * 16
        # 3 runs x (1 series + 4 snapshots)
        assert len(list(exports.iterdir())) == 15

    def test_reexport_is_byte_identical(self, torus_archive):
        path = torus_archive / "exports" / "e0.1_series.csv"
        assert main(["export", "--out", str(torus_archive),
                     "--only", "series"]) == 0
        before = path.read_bytes()
        assert main(["export", "--out", str(torus_archive),
                     "--only", "series"]) == 0
        assert path.read_bytes() == before

    def test_unknown_target_is_config_error(self, torus_archive):
        assert main(["export", "--out", str(torus_archive),
                     "--only", "movies"]) == 2


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "selfcheck ok" in capsys.readouterr().out
