"""One workload in one fresh process, through ``coneflow.cli.main``.

Started by ``run.py``.  Prints one JSON object on its last stdout line:
setup, run and readback timings, peak RSS, operation counts, the problems
the output checks found and, when traced, the per-layer values.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from coneflow import cli
from coneflow.archive import check_integrity, load_archive
from coneflow.flow import metric_density_values
from coneflow.surfaces import SurfaceKind, integrate

import checks
from spans import Tracer
from workloads import WORKLOADS


def command(argv, tracer=None):
    """(exit code, seconds, captured stdout) of one CLI command."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli", argv[0], cli.main, (argv,), {})
    return code, time.perf_counter() - start, buf.getvalue()


def _require(code, want, what, out):
    if code != want:
        raise RuntimeError(f"{what} exited {code}, expected {want}:\n{out}")


def run_twin(twin_config: str, scratch: Path) -> Path:
    """Run and verify the N=64 twin; return its archive directory."""
    twin_cfg = scratch / "twin.cfg"
    twin_cfg.write_text(twin_config)
    twin = scratch / "twin"
    code, _, out = command(["run", "--config", str(twin_cfg),
                            "--out", str(twin), "--jobs", "1"])
    _require(code, 0, "twin run", out)
    code, _, out = command(["verify", "--out", str(twin),
                            "--only", "density_ratio"])
    _require(code, 0, "twin verify", out)
    return twin


def output_problems(workload, arc: Path, verify_text: str, digests: list,
                    twin: Path | None) -> tuple:
    """(verify lines, failed lines, exported files, problems) of a run."""
    problems = list(check_integrity(arc))
    manifest = json.loads((arc / "manifest.json").read_text())
    runs = {run_id: checks.read_ckrf(arc / info["file"])
            for run_id, info in manifest["runs"].items()
            if info["status"] == "ok"}
    problems += checks.check_runs_reached(runs, workload.runs)
    problems += checks.check_truncation_order(runs)

    loaded = load_archive(arc)
    config = loaded.config
    c1 = 0.0 if config.surface_kind is SurfaceKind.TORUS else 2.0
    slope = -c1 + (1.0 - config.gamma) * len(config.divisor_points)
    for traj in loaded.trajectories.values():
        states = [traj.initial_state] + traj.snapshots
        totals = [integrate(traj.pack.surface,
                            metric_density_values(traj.pack, s.t,
                                                  s.phi.values))
                  for s in states]
        problems += checks.check_class_volume(
            [s.t for s in states], totals, config.volume, slope)

    exports = arc / "exports"
    n_files = sum(1 for _ in exports.iterdir())
    for run_id, frames in sorted(runs.items()):
        problems += checks.check_series_csv(
            (exports / f"{run_id}_series.csv").read_text(), frames)
        excluded = (frames["scan_exclude"] if frames["has_scan_exclude"]
                    else np.zeros(frames["state0/phi"].shape, dtype=bool))
        for t, phi, phi_dot, _ in checks.run_states(frames)[1:]:
            problems += checks.check_snapshot_csv(
                (exports / f"{run_id}_t{t:g}_field.csv").read_text(),
                phi, phi_dot, excluded)
        n_files -= int(frames["n_states"])   # series + one per checkpoint
    if n_files:
        problems.append(f"{n_files} unexpected export files")
    problems += checks.check_identical_cycles(digests)

    lines, failed, tally = checks.tally_verify(verify_text,
                                               workload.known_failing)
    problems += tally

    if twin is not None:
        fine = checks.density_ratio_constants(
            (arc / "reports" / "density_ratio.txt").read_text())
        coarse = checks.density_ratio_constants(
            (twin / "reports" / "density_ratio.txt").read_text())
        if len(fine) != 1 or len(coarse) != 1:
            problems.append(f"density_ratio constants {fine} / {coarse}")
        else:
            problems += checks.check_grid_doubling(fine[0], coarse[0])
    return lines, failed, len(list(exports.iterdir())), problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken before spawning")
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--checks", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    config = scratch / "workload.cfg"
    config.write_text(workload.config)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    arc = scratch / "archive"
    code, run_s, out = command(["run", "--config", str(config), "--out",
                                str(arc), "--jobs", "1"], tracer)
    _require(code, 0, "run", out)

    readback, digests, verify_text, twin = [], [], None, None
    for cycle in range(args.cycles):
        if (workload.twin is not None and args.checks
                and cycle == args.cycles // 2):
            # The twin runs untimed and untraced between the readback
            # cycles: the host's speed wanders over tens of seconds, and the
            # gap lets the median sample it over a longer stretch.
            if tracer is not None:
                tracer.uninstall()
            twin = run_twin(workload.twin, scratch)
            if tracer is not None:
                tracer.install()
        for sub in ("reports", "exports"):
            shutil.rmtree(arc / sub, ignore_errors=True)
        code_v, verify_s, text = command(["verify", "--out", str(arc)], tracer)
        code_e, export_s, out = command(["export", "--out", str(arc)], tracer)
        _require(code_e, 0, "export", out)
        readback.append(verify_s + export_s)
        if verify_text is None:
            verify_text = text
            verify_code = code_v
        elif code_v != verify_code:
            raise RuntimeError("verify exit code changed between cycles")
        digests.append((text, checks.digest_tree(arc / "reports",
                                                 arc / "exports")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    result = {"setup_s": setup_s, "run_s": run_s, "readback_s": readback,
              "timed_s": run_s + sum(readback), "peak_rss_mb": peak_rss_mb}
    if args.checks:
        lines, failed, files, problems = output_problems(
            workload, arc, verify_text, digests, twin)
        if (verify_code == 1) != (failed > 0):
            problems.append(f"verify exited {verify_code} with {failed} "
                            "failed lines")
        result.update(
            attempted=workload.runs + args.cycles * (lines + files),
            failed=args.cycles * failed, problems=problems)
    if tracer is not None:
        archived = sum(p.stat().st_size for p in arc.iterdir() if p.is_file())
        result["layers"] = tracer.values(archived)
        result["detail"] = [[layer, name, *row] for (layer, name), row
                            in sorted(tracer.table().items())]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
