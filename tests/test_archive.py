"""Archive format: frame roundtrips, integrity hashing, CSV export."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from coneflow import archive
from coneflow.archive import (check_integrity, load_archive, read_frames,
                              save_run, load_run, series_csv, snapshot_csv,
                              write_archive, write_frames)
from coneflow.cli import execute_runs
from coneflow.config import build_lab, parse_config
from coneflow.errors import ArchiveError
from coneflow.flow import SERIES_COLUMNS

CONFIG_TEXT = """\
[surface]
kind = torus
n = 16
v = 0.5

[flow]
gamma = 1.0
eps = 0.2, 0.1
t = 0.1

[initial]
kind = smooth(c=0.01, m1=1, m2=0)

[checkpoints]
times = 0.0125, 0.025, 0.05, 0.1
"""


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    """One small two-eps family, written out and loaded back."""
    config = parse_config(CONFIG_TEXT)
    lab = build_lab(config)
    results, errors = execute_runs(config, lab)
    assert errors == {}
    config = dataclasses.replace(config, k=lab.k)
    directory = tmp_path_factory.mktemp("arc") / "family"
    write_archive(directory, config, results)
    return config, results, directory


class TestFrames:
    def test_scalar_and_array_roundtrip(self, tmp_path):
        path = tmp_path / "mixed.ckrf"
        mask = np.array([[True, False], [False, True]])
        grid = np.linspace(0.0, 1.0, 7)
        write_frames(path, [
            ("name", "run_a"), ("flag", True), ("count", 42),
            ("value", 0.1 + 0.2), ("grid", grid), ("mask", mask),
        ])
        back = read_frames(path)
        assert back["name"] == "run_a"
        assert back["flag"] == 1 and back["count"] == 42
        assert back["value"] == 0.1 + 0.2
        assert np.array_equal(back["grid"], grid)
        assert np.array_equal(back["mask"].astype(bool), mask)

    def test_frame_order_is_preserved(self, tmp_path):
        path = tmp_path / "order.ckrf"
        names = [f"f{i}" for i in range(12)]
        write_frames(path, [(n, float(i)) for i, n in enumerate(names)])
        assert list(read_frames(path)) == names

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckrf"
        path.write_bytes(b"NOPE!" + bytes(64))
        with pytest.raises(ArchiveError, match="bad magic"):
            read_frames(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.ckrf"
        write_frames(path, [("grid", np.zeros(100))])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArchiveError):
            read_frames(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArchiveError, match="missing"):
            read_frames(tmp_path / "absent.ckrf")


class TestRunRoundtrip:
    def test_trajectory_survives_bitwise(self, tmp_path, torus_lab):
        original = torus_lab["runs"]["heat"]
        save_run(tmp_path, original)
        loaded = load_run(tmp_path / f"run_{original.run_id}.ckrf",
                          {original.pack.params.epsilon: original.pack})
        assert loaded.run_id == original.run_id
        assert loaded.j == original.j
        assert loaded.termination is original.termination
        assert loaded.control == original.control
        assert loaded.scan_exclude is None
        assert np.array_equal(loaded.initial_state.phi.values,
                              original.initial_state.phi.values)
        for got, want in zip(loaded.snapshots, original.snapshots):
            assert got.t == want.t
            assert np.array_equal(got.phi.values, want.phi.values)
            assert np.array_equal(got.phi_dot.values, want.phi_dot.values)
            assert got.step_count == want.step_count
        for col in SERIES_COLUMNS:
            assert np.array_equal(loaded.series[col], original.series[col])

    def test_scan_exclude_mask_survives(self, tmp_path, sphere_lab):
        original = sphere_lab["lp_runs"][0]  # eps = 0.2
        save_run(tmp_path, original)
        loaded = load_run(tmp_path / f"run_{original.run_id}.ckrf",
                          sphere_lab["packs"])
        assert loaded.pack is original.pack
        assert loaded.scan_exclude is not None
        assert loaded.scan_exclude.dtype == bool
        assert np.array_equal(loaded.scan_exclude, original.scan_exclude)

    def test_eps_mismatch_rejected(self, tmp_path, sphere_lab):
        traj = sphere_lab["runs"][(0.2, 2.0)]
        save_run(tmp_path, traj)
        with pytest.raises(ArchiveError, match="does not match"):
            load_run(tmp_path / f"run_{traj.run_id}.ckrf",
                     {0.1: sphere_lab["packs"][0.1]})


class TestArchiveRoundtrip:
    def test_layout_and_manifest(self, archived):
        _config, results, directory = archived
        names = sorted(p.name for p in directory.iterdir())
        assert names == ["config.txt", "manifest.json",
                         "run_e0.1.ckrf", "run_e0.2.ckrf"]
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert set(manifest["runs"]) == {t.run_id for t in results}
        assert set(manifest["files"]) == {n for n in names
                                          if n != "manifest.json"}
        assert check_integrity(directory) == []

    def test_config_records_k_and_run_files_are_read_once(
            self, archived, monkeypatch):
        config, _results, directory = archived
        assert f"k = {config.k!r}\n" in (directory / "config.txt").read_text()
        read = []
        real = archive.read_frames
        monkeypatch.setattr(
            archive, "read_frames",
            lambda path: read.append(Path(path).name) or real(path))
        load_archive(directory)
        assert sorted(read) == ["run_e0.1.ckrf", "run_e0.2.ckrf"]

    def test_auto_k_config_still_loads(self, archived, tmp_path):
        config, results, _directory = archived
        d = tmp_path / "auto"
        write_archive(d, dataclasses.replace(config, k=None), results)
        assert "k = auto\n" in (d / "config.txt").read_text()
        arc = load_archive(d)
        assert arc.lab.k == config.k
        for traj in results:
            loaded = arc.trajectories[traj.run_id]
            assert np.array_equal(loaded.snapshots[-1].phi.values,
                                  traj.snapshots[-1].phi.values)

    def test_loaded_trajectories_match_bitwise(self, archived):
        config, results, directory = archived
        arc = load_archive(directory)
        assert arc.config == config
        assert sorted(arc.trajectories) == ["e0.1", "e0.2"]
        for traj in results:
            loaded = arc.trajectories[traj.run_id]
            for got, want in zip(loaded.snapshots, traj.snapshots):
                assert np.array_equal(got.phi.values, want.phi.values)
            # the rebuilt pack is the same background, bit for bit
            assert np.array_equal(loaded.pack.omega_cone_eps.values,
                                  traj.pack.omega_cone_eps.values)

    def test_rewrite_is_deterministic_modulo_timestamp(self, archived, tmp_path):
        config, results, _directory = archived
        twins = []
        for name in ("a", "b"):
            d = tmp_path / name
            write_archive(d, config, results)
            twins.append(json.loads((d / "manifest.json").read_text()))
        assert twins[0]["files"] == twins[1]["files"]
        assert twins[0]["created"] != "" and twins[1]["created"] != ""

    def test_corrupted_run_fails_integrity(self, archived, tmp_path):
        config, results, _directory = archived
        d = tmp_path / "corrupt"
        write_archive(d, config, results)
        target = d / "run_e0.2.ckrf"
        blob = bytearray(target.read_bytes())
        blob[100] ^= 0xFF
        target.write_bytes(bytes(blob))
        problems = check_integrity(d)
        assert any("hash mismatch" in p for p in problems)
        with pytest.raises(ArchiveError, match="integrity"):
            load_archive(d)

    def test_incomplete_archive_refuses_to_load(self, archived, tmp_path):
        config, results, _directory = archived
        d = tmp_path / "partial"
        write_archive(d, config, results,
                      complete=False)
        assert any("incomplete" in p for p in check_integrity(d))
        with pytest.raises(ArchiveError, match="incomplete"):
            load_archive(d)

    def test_failed_runs_recorded_and_flagged(self, archived, tmp_path):
        config, results, _directory = archived
        d = tmp_path / "failed"
        write_archive(d, config, results[:1],
                      run_errors={"e0.1": "PositivityError: lost at node"})
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["runs"]["e0.1"]["status"] == "failed"
        assert any("run e0.1 failed" in p for p in check_integrity(d))


class TestCsv:
    def test_series_has_one_row_per_checkpoint(self, archived):
        _config, results, _directory = archived
        traj = results[0]
        lines = series_csv(traj).splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 1 + len(traj.checkpoint_times)

    def test_series_cells_are_repr_exact(self, archived):
        _config, results, _directory = archived
        traj = results[0]
        lines = series_csv(traj).splitlines()
        first = dict(zip(SERIES_COLUMNS, lines[1].split(",")))
        assert float(first["t"]) == traj.checkpoint_times[0]
        sup = traj.state_at(traj.checkpoint_times[0])
        assert float(first["sup_phi"]) == float(np.max(sup.phi.values))

    def test_snapshot_covers_every_node(self, archived):
        _config, results, _directory = archived
        traj = results[0]
        text = snapshot_csv(traj, traj.checkpoint_times[-1])
        lines = text.splitlines()
        assert lines[0] == "axis0,axis1,phi,phi_dot,excluded"
        assert len(lines) == 1 + 16 * 16
        assert all(line.endswith(",0") for line in lines[1:])

    def test_snapshot_marks_excluded_nodes(self, sphere_lab):
        traj = sphere_lab["lp_runs"][0]  # eps = 0.2
        text = snapshot_csv(traj, traj.checkpoint_times[0])
        flags = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert flags.count("1") == int(np.sum(traj.scan_exclude))
