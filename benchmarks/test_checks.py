"""Each output check of the benchmark rejects a deliberately broken input.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from coneflow.cli import main

import checks
from spans import PER_LAYER

_TINY = """\
[surface]
kind = torus
n = 16
v = 0.5

[flow]
gamma = 1.0
eps = 0.2
t = 0.05

[initial]
kind = smooth(c=0.01, m1=1, m2=0)

[checkpoints]
times = 0.0125, 0.025, 0.05
"""


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A real one-run archive with its CSV export."""
    root = tmp_path_factory.mktemp("bench")
    (root / "tiny.cfg").write_text(_TINY)
    arc = root / "arc"
    assert main(["run", "--config", str(root / "tiny.cfg"),
                 "--out", str(arc)]) == 0
    assert main(["export", "--out", str(arc)]) == 0
    manifest = json.loads((arc / "manifest.json").read_text())
    (run_id, info), = manifest["runs"].items()
    return arc, run_id, checks.read_ckrf(arc / info["file"])


def _perturb_cell(text, row, col):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(np.nextafter(float(cells[col]), np.inf))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_ckrf_reader_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "x.ckrf"
    path.write_bytes(b"CKRF2\x01")
    with pytest.raises(ValueError):
        checks.read_ckrf(path)


def test_runs_reached(archive):
    _, run_id, frames = archive
    assert checks.check_runs_reached({run_id: frames}, 1) == []
    assert checks.check_runs_reached({run_id: frames}, 2)
    stopped = dict(frames, termination="step_floor")
    assert checks.check_runs_reached({run_id: stopped}, 1)


def test_snapshot_csv_round_trip(archive):
    arc, run_id, frames = archive
    t, phi, phi_dot, _ = checks.run_states(frames)[2]
    text = (arc / "exports" / f"{run_id}_t{t:g}_field.csv").read_text()
    excluded = np.zeros(phi.shape, dtype=bool)
    assert text.count("\n") == phi.size + 1
    assert checks.check_snapshot_csv(text, phi, phi_dot, excluded) == []
    # one ulp in one phi cell, or one row short, is caught
    assert checks.check_snapshot_csv(_perturb_cell(text, 7, 2),
                                     phi, phi_dot, excluded)
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_snapshot_csv(short, phi, phi_dot, excluded)
    flipped = excluded.copy()
    flipped[0, 0] = True
    assert checks.check_snapshot_csv(text, phi, phi_dot, flipped)


def test_series_csv_round_trip(archive):
    arc, run_id, frames = archive
    text = (arc / "exports" / f"{run_id}_series.csv").read_text()
    assert checks.check_series_csv(text, frames) == []
    assert checks.check_series_csv(_perturb_cell(text, 2, 1), frames)


def _frames(eps, j, fields, steps):
    frames = {"eps": eps, "j": j, "control/newton_tol": 1e-10,
              "n_states": len(fields)}
    for i, (field, n) in enumerate(zip(fields, steps)):
        frames[f"state{i}/t"] = 0.1 * i
        frames[f"state{i}/phi"] = field
        frames[f"state{i}/phi_dot"] = np.zeros_like(field)
        frames[f"state{i}/steps"] = n
    return frames


def test_truncation_order():
    low = [np.full((4, 4), -1.0), np.full((4, 4), -0.5)]
    high = [np.zeros((4, 4)), np.full((4, 4), 0.2)]
    deep, shallow = _frames(0.1, 8.0, low, [0, 5]), _frames(0.1, 2.0, high,
                                                            [0, 5])
    assert checks.check_truncation_order({"d": deep, "s": shallow}) == []
    # swapped pair: the deeper level now carries the higher data
    swapped = {"d": _frames(0.1, 8.0, high, [0, 5]),
               "s": _frames(0.1, 2.0, low, [0, 5])}
    assert checks.check_truncation_order(swapped)
    # an excess inside the solver slack (10 steps * 1e-10) is tolerated
    touching = [high[0], high[1] + 5e-10]
    assert checks.check_truncation_order(
        {"d": _frames(0.1, 8.0, touching, [0, 5]), "s": shallow}) == []
    over = [high[0], high[1] + 2e-9]
    assert checks.check_truncation_order(
        {"d": _frames(0.1, 8.0, over, [0, 5]), "s": shallow})


def test_class_volume():
    times = [0.0, 0.5, 1.0]
    totals = [2.0 - 1.5 * t for t in times]
    assert checks.check_class_volume(times, totals, 2.0, -1.5) == []
    totals[1] += 1e-9
    assert checks.check_class_volume(times, totals, 2.0, -1.5)


def test_identical_cycles():
    assert checks.check_identical_cycles(["a", "a", "a"]) == []
    assert checks.check_identical_cycles(["a", "a", "b"])


def test_tally_verify():
    text = ("PASS hstat: margin=1e-3\n"
            "FAIL upper_barrier: margin=-3.7e-3\n"
            "1/2 checks passed\n")
    assert checks.tally_verify(text, {"upper_barrier"}) == (2, 1, [])
    assert checks.tally_verify(text, set())[2]
    assert checks.tally_verify(text.replace("1/2", "2/2"),
                               {"upper_barrier"})[2]


def test_grid_doubling():
    report = ("density_ratio runs=e0.1_j8\n"
              "  parameters: {'t0': 0.1, 'rel_drift': 0.05, "
              "'C': 1.7390243, 'constant_mode': 'pack'}\n")
    (c,) = checks.density_ratio_constants(report)
    assert c == 1.7390243
    assert checks.check_grid_doubling(c, 1.6) == []
    assert checks.check_grid_doubling(c, 1.4)
    assert checks.check_grid_doubling(np.inf, 1.6)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "readback_s", "peak_rss_mb"}
