"""coneflow benchmark: one workload per invocation, one JSON line out.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload readme_sweep --seed 1 \
        --seconds 14 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with
``PYTHONPATH=src``, BLAS and OpenMP pinned to one thread and ``--jobs 1``.
``--seconds`` is the readback window: it fixes the number of readback cycles
from each workload's nominal cycle time.  The count depends on the argument
alone, so every run attempts the same operations.  ``--seed`` is
accepted and ignored: the inputs and the program are deterministic.

``--trace 0`` prints the end-to-end metrics; setup_s is the median over
three fresh processes.  ``--trace 1`` runs the workload untraced and then
traced and prints the per-layer metrics, with the difference of the two
timed walls as trace.overhead_s.  Scratch archives live in
``.bench_scratch/`` and are removed before the command exits; the traced
run's span table is kept in ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2          # setup-only processes, plus the workload's own
WORKER_TIMEOUT_S = 170

_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CONEFLOW_OUT", None)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for name in _PINNED:
        env[name] = "1"
    return env


def spawn(env, workload, scratch: Path, *extra) -> dict:
    """Run one worker to completion and return its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--scratch", str(scratch)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv + ["--spawned-at", repr(started), *extra],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(env, name, scratch: Path, cycles: int) -> tuple:
    setups = [spawn(env, name, scratch / f"setup{i}", "--setup-only")
              ["setup_s"] for i in range(SETUP_SAMPLES)]
    res = spawn(env, name, scratch / "run", "--cycles", str(cycles))
    setups.append(res["setup_s"])
    print(f"{name}: setup {['%.3f' % s for s in setups]} run "
          f"{res['run_s']:.3f} readback "
          f"{['%.3f' % s for s in res['readback_s']]}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (res["run_s"], "s"),
        "readback_s": (statistics.median(res["readback_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(env, name, scratch: Path, cycles: int, root: Path) -> tuple:
    plain = spawn(env, name, scratch / "plain", "--cycles", str(cycles),
                  "--checks", "0")
    shutil.rmtree(scratch / "plain")
    res = spawn(env, name, scratch / "traced", "--cycles", str(cycles),
                "--trace", "1")
    values = dict(res["layers"])
    values["trace.overhead_s"] = res["timed_s"] - plain["timed_s"]
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-trace.json").write_text(json.dumps(
        {"workload": name, "cycles": cycles, "untraced_s": plain["timed_s"],
         "traced_s": res["timed_s"], "metrics": values,
         "spans": [dict(zip(("layer", "name", "calls", "inclusive_s",
                             "self_s"), row)) for row in res["detail"]]},
        indent=1) + "\n")
    for layer, fn, calls, incl, own in res["detail"]:
        print(f"  {layer:>12} {fn:<28} {calls:6d} {incl:9.3f} s "
              f"self {own:8.3f} s", file=sys.stderr)
    return res, {metric: {"value": values[metric], "unit": unit}
                 for metric, unit, _better in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "coneflow" / "cli.py").is_file():
        print("benchmark: run from a coneflow checkout (src/coneflow missing)",
              file=sys.stderr)
        return 2
    cycles = WORKLOADS[args.workload].readback_cycles(args.seconds)
    scratch = root / ".bench_scratch" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    env = worker_env(root)
    try:
        if args.trace:
            res, metrics = per_layer(env, args.workload, scratch, cycles, root)
        else:
            res, metrics = end_to_end(env, args.workload, scratch, cycles)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / ".bench_scratch").rmdir()
        except OSError:
            pass
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
