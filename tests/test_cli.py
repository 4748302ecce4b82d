"""Command-line interface: subcommands, exit codes, output layout, exports."""
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import coneflow
import coneflow.cli
import coneflow.config
from coneflow.archive import (check_integrity, load_archive, read_frames,
                              write_frames)
from coneflow.cli import execute_runs, main
from coneflow.config import build_lab, parse_config
from coneflow.flow import Termination

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
n = 32
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


LEVELS_CFG = SPHERE_CFG.replace(
    "eps = 0.2\n", "eps = 0.3, 0.2\n").replace(
    "c=0.05)\n", "c=0.05)\nj = 2, 4, 8\n")


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

    def test_rerun_into_used_directory_hashes_only_run_files(
            self, torus_cfg, tmp_path):
        out = tmp_path / "arc"
        for c in ("0.01", "0.02"):
            torus_cfg.write_text(TORUS_CFG.replace("c=0.01", f"c={c}"))
            assert main(["run", "--config", str(torus_cfg),
                         "--out", str(out)]) == 0
            assert main(["verify", "--out", str(out)]) == 0
            assert main(["export", "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == [
            "config.txt", "run_e0.05.ckrf", "run_e0.1.ckrf", "run_e0.2.ckrf"]

    def test_out_dir_resolves_against_env(self, torus_cfg, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("CONEFLOW_OUT", str(tmp_path))
        assert main(["run", "--config", str(torus_cfg), "--out", "rel"]) == 0
        assert (tmp_path / "rel" / "manifest.json").is_file()

    def test_missing_out_is_config_error(self, torus_cfg):
        assert main(["run", "--config", str(torus_cfg)]) == 2

    @pytest.mark.parametrize("old,new,message", [
        ("m2=0)", "mm2=3)", "line 12: smooth takes no parameter mm2"),
        ("upper_barrier;", "upper_barrier(t=0.05);",
         "line 18: upper_barrier reads no parameter t "),
    ])
    def test_parameter_nothing_reads_is_config_error(self, tmp_path, capsys,
                                                     old, new, message):
        # before, the datum ran with m2 = 0, and the barrier was certified
        # from the first checkpoint, both without a word
        cfg = tmp_path / "torus.cfg"
        cfg.write_text(TORUS_CFG.replace(old, new))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_parameter_is_config_error(self, tmp_path,
                                                       capsys):
        # before, the whole family ran and was archived, and only verify
        # exited 2 on phidot_lower's missing window
        cfg = tmp_path / "torus.cfg"
        cfg.write_text(TORUS_CFG.replace("signature\n",
                                         "signature; phidot_lower(t0=0.0125)\n"))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: line 18: phidot_lower needs parameter tprime "
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("old,new,message", [
        ("upper_barrier;", "upper_barrier(t0=0.03);",
         "line 18: upper_barrier t0=0.03 is not a checkpoint"),
        ("monotone_eps(t=0.05)", "monotone_eps(t=0.075)",
         "line 18: monotone_eps t=0.075 is not a checkpoint"),
    ])
    def test_estimate_time_off_the_checkpoints_is_config_error(
            self, tmp_path, capsys, old, new, message):
        # before, the family was integrated and archived (exit 0), and
        # only verify exited 2
        cfg = tmp_path / "torus.cfg"
        cfg.write_text(TORUS_CFG.replace(old, new))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,message", [
        ("eps = 0.2, 0.1, 0.05", "eps = 0.2000001, 0.2",
         "line 8: eps values 0.2000001 and 0.2 share the name '0.2'"),
        ("times = 0.0125, 0.025,", "times = 0.0125, 0.025, 0.02500001,",
         "line 15: checkpoint values 0.025 and 0.02500001 share the name"),
    ])
    def test_values_sharing_a_file_name_are_config_error(
            self, tmp_path, capsys, old, new, message):
        # before, the eps pair archived one run file for two runs and the
        # time pair exported one snapshot for two checkpoints, both with
        # exit 0
        cfg = tmp_path / "torus.cfg"
        cfg.write_text(TORUS_CFG.replace(old, new))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_job_runs_inline(self, monkeypatch):
        """One job integrates its families on the calling thread, no pool.

        Measured with the benchmark (10 alternating pairs each), one job
        sent through a one-worker pool raised the peak RSS of every
        workload in every pair, in the median the README sweep's from 75.0
        to 80.6 MB, the N=128 run's from 90.5 to 94.8 MB and the archive
        readback's from 75.9 to 77.3 MB.  The worker thread's malloc arena
        keeps the run's peak after the run, and verify and export allocate
        on top of it.
        """
        def no_pool(*_args, **_kwargs):
            raise AssertionError("jobs=1 started a worker thread")

        monkeypatch.setattr(coneflow.cli, "ThreadPoolExecutor", no_pool)
        config = parse_config(TORUS_CFG)
        results, errors = execute_runs(config, build_lab(config), jobs=1)
        assert errors == {}
        assert [t.run_id for t in results] == ["e0.2", "e0.1", "e0.05"]

    def test_jobs_do_not_change_run_files(self, tmp_path):
        # the pool maps over eps families, each with its own held factor
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(LEVELS_CFG)
        files = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 0
            files.append({p.name: p.read_bytes()
                          for p in sorted(out.glob("run_*.ckrf"))})
        assert len(files[0]) == 6
        assert files[0] == files[1]

    def test_failing_level_is_reported_alone(self, monkeypatch):
        # one level's data loses positivity at t=0: only its run fails, and
        # the rest of its family runs exactly as it does without that level
        real = coneflow.cli.flow_level_values

        def corrupt(datum, eps, j, sigma):
            phi = real(datum, eps, j, sigma)
            if (eps, j) == (0.3, 4.0):
                i, k = np.indices(phi.values.shape)
                return phi.values + (-1.0) ** (i + k)
            return phi

        monkeypatch.setattr(coneflow.cli, "flow_level_values", corrupt)
        config = parse_config(LEVELS_CFG)
        lab = build_lab(config)
        results, errors = execute_runs(config, lab)
        assert list(errors) == ["e0.3_j4"]
        assert errors["e0.3_j4"].startswith("PositivityError: ")
        assert [t.run_id for t in results] == [
            "e0.3_j2", "e0.3_j8", "e0.2_j2", "e0.2_j4", "e0.2_j8"]
        clean, none = execute_runs(
            replace(config, eps_list=[0.3], j_list=[2.0, 8.0]), lab)
        assert none == {}
        for a, b in zip(clean, results[:2], strict=True):
            assert b.run_id == a.run_id
            assert b.termination is a.termination is Termination.REACHED_T
            for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
                assert sb.phi.values.tobytes() == sa.phi.values.tobytes()

    def test_level_whose_data_cannot_be_built_fails_alone(
            self, tmp_path, capsys, monkeypatch):
        # a level whose initial data raises never joins its family: the run
        # exits 3 naming it, the manifest marks it failed, and every other
        # level is archived
        real = coneflow.cli.flow_level_values

        def failing(datum, eps, j, sigma):
            if (eps, j) == (0.2, 4.0):
                raise coneflow.PositivityError("level data not admissible")
            return real(datum, eps, j, sigma)

        monkeypatch.setattr(coneflow.cli, "flow_level_values", failing)
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(LEVELS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("run e0.2_j4 failed: PositivityError: level data not "
                "admissible") in err
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert runs["e0.2_j4"] == {
            "status": "failed", "file": None,
            "error": "PositivityError: level data not admissible"}
        ok = sorted(run_id for run_id, info in runs.items()
                    if info["status"] == "ok")
        assert ok == ["e0.2_j2", "e0.2_j8", "e0.3_j2", "e0.3_j4", "e0.3_j8"]
        assert sorted(p.name for p in out.glob("run_*.ckrf")) == [
            f"run_{run_id}.ckrf" for run_id in ok]
        # every written file is hashed and intact; only the run is missing
        assert check_integrity(out) == [
            "run e0.2_j4 failed: PositivityError: level data not admissible"]

    def test_coarse_sphere_with_divisor_reaches_T(self, tmp_path):
        # N=32 is above MIN_RESOLUTION and eps=0.2 above its floor, so a
        # divisor must not reject the grid
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text(SPHERE_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        runs = load_archive(out).trajectories.values()
        assert [traj.termination for traj in runs] == [Termination.REACHED_T]


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

    def test_readme_family_passes_default_battery(self, tmp_path, capsys):
        # the README example with default checkpoints (t0 = 1/64 for the
        # barriers) and the default battery: every line passes, the
        # barriers too, which scanned phi + k chi and failed here at eps
        # 0.1 and 0.2 by about -3e-3 before they scanned phi
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```\n(\[surface\]\n.*?)```", readme, re.S).group(1)
        kept = [part for part in re.split(r"\n(?=\[)", block) if not part
                .startswith(("[checkpoints]", "[verify]", "[output]"))]
        cfg = tmp_path / "readme.cfg"
        cfg.write_text("\n".join(kept))
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        barriers = [line for line in lines if "_barrier:" in line]
        assert len(barriers) == 12
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"

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

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_tolerance_scale_must_be_finite_and_nonnegative(
            self, torus_archive, capsys, scale):
        assert main(["verify", "--out", str(torus_archive), "--only", "hstat",
                     "--tolerance-scale", scale]) == 2
        assert "tolerance scale" in capsys.readouterr().err
        # 0 is allowed: every margin must then be >= 0 exactly
        assert main(["verify", "--out", str(torus_archive), "--only", "hstat",
                     "--tolerance-scale", "0"]) == 0

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

    @pytest.mark.parametrize("manifest", ["[]", '{"complete": true, "runs": {"a": "ok"}}'],
                             ids=["list", "run_entry_string"])
    def test_malformed_manifest_is_runtime_error(self, tmp_path, capsys, manifest):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TORUS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "manifest.json").write_text(manifest)
        assert main(["verify", "--out", str(out)]) == 3
        assert "is not a JSON object" in capsys.readouterr().err

    def test_unreadable_run_file_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TORUS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        # a run file cut to its magic, with the manifest rehashed to match
        target = out / "run_e0.2.ckrf"
        target.write_bytes(b"CKRF1")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"][target.name] = hashlib.sha256(b"CKRF1").hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", "--out", str(out)]) == 3
        assert "no version byte" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, needle", [
        ("no_frames", "KeyError('eps')"),
        ("bogus_scheme", "'bogus' is not a valid Scheme"),
    ], ids=["no_frames", "bogus_scheme"])
    def test_missing_or_bad_frame_is_runtime_error(self, tmp_path, capsys,
                                                    damage, needle):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TORUS_CFG)
        out = tmp_path / "arc"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        # a valid header, then no frames or a scheme frame of "bogus"; the
        # manifest is rehashed to match
        target = out / "run_e0.2.ckrf"
        if damage == "no_frames":
            target.write_bytes(b"CKRF1\x01")
        else:
            stored = read_frames(target)
            stored["scheme"] = "bogus"
            write_frames(target, list(stored.items()))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"][target.name] = hashlib.sha256(
            target.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "run_e0.2.ckrf" in err and needle in err, err


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


def test_readme_library_example(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (code,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(code, str(readme), "exec"), {})
    assert capsys.readouterr().out.startswith("PASS upper_barrier")


def test_package_exports_resolve():
    # a name in __all__ that does not resolve makes this raise AttributeError
    exec("from coneflow import *", {})
    assert not {"ddbar_density", "time_reparam"} & set(dir(coneflow))
