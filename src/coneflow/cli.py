"""Experiment runner: configs in, archives out, certificates checked.

Subcommands:

* ``tmax``      print the class-volume budget of a config
* ``run``       execute the (eps, j) family and write an archive
* ``verify``    drive estimate checkers against an archive, no re-simulation
* ``export``    CSV time series and field snapshots for external plotting
* ``selfcheck`` built-in end-to-end smoke test in a temporary directory

Archive location: ``--out`` wins, then the config's ``[output] dir``; a
relative directory is rooted at ``$CONEFLOW_OUT`` when that is set.  Exit
codes: 0 ok, 1 verification failure, 2 config error, 3 runtime failure.

Verification selections come from the config's ``[verify]`` section or
``--only``; an explicit selection fails hard when its runs are missing,
while the default battery applies every check whose required run family
exists.  Family pairings are by truncation depth: the deeper level is the
lower one, so it plays the ordered-data role in comparisons.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .archive import load_archive, series_csv, snapshot_csv, write_archive
from .config import Lab, RunConfig, build_lab, emit_config, parse_config
from .errors import ConeflowError, ConfigurationError
from .estimates import ESTIMATES
from .flow import run_flow
from .initial_data import flow_level_values


def _resolve_dir(cli_out, config_out=None) -> Path:
    out = cli_out or config_out
    if out is None:
        raise ConfigurationError(
            "no archive directory: pass --out or set [output] dir")
    path = Path(out)
    root = os.environ.get("CONEFLOW_OUT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# run orchestration


def execute_runs(config: RunConfig, lab: Lab, jobs: int = 1):
    """All (eps, j) trajectories of a config; per-run failures collected."""
    scan = (lab.datum.psh_exclusion if lab.datum.psh_exclusion is not None
            else lab.datum.phi0.singular_mask)
    j_list = config.j_list or [None]
    plan = [(f"e{eps:g}" + (f"_j{j:g}" if j is not None else ""), eps, j)
            for eps in config.eps_list for j in j_list]

    def one(item):
        run_id, eps, j = item
        try:
            phi = flow_level_values(lab.datum, eps, j, config.sigma)
            return run_flow(lab.packs[eps], j if j is not None else 0.0, phi,
                            config.control, config.checkpoints,
                            run_id=run_id, scan_exclude=scan), None
        except ConeflowError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    # One job runs inline: a worker thread's malloc arena keeps the run's
    # peak memory after the run and adds to what verify and export take.
    if jobs <= 1:
        outcomes = [one(item) for item in plan]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, plan))
    results = [traj for traj, _ in outcomes if traj is not None]
    errors = {item[0]: error for item, (_, error) in zip(plan, outcomes)
              if error is not None}
    return results, errors


def cmd_run(args) -> int:
    config = parse_config(Path(args.config).read_text())
    out = _resolve_dir(args.out, config.out_dir)
    lab = build_lab(config)
    results, errors = execute_runs(config, lab, jobs=args.jobs)
    write_archive(out, replace(config, k=lab.k), results, run_errors=errors)
    print(f"archived {len(results)} runs to {out}")
    for run_id, error in errors.items():
        print(f"run {run_id} failed: {error}", file=sys.stderr)
    return 3 if errors else 0


def cmd_tmax(args) -> int:
    config = parse_config(Path(args.config).read_text())
    c1 = 0.0 if config.surface_kind.value == "torus" else 2.0
    m = config.divisor_degree
    print(f"V = {config.volume!r}")
    print(f"slope = -c1 + (1-gamma)*m + e = -{c1!r} + "
          f"{1.0 - config.gamma!r}*{m} + {config.eta_degree!r} "
          f"= {config.slope!r}")
    print(f"T_max = {config.tmax!r}")
    return 0


# ---------------------------------------------------------------------------
# verification


def _detail(report) -> str:
    return (f"{report.estimate_id} runs={','.join(report.run_ids)}\n"
            f"  parameters: {report.parameters}\n"
            f"  margin: {report.margin!r}\n"
            f"  witness: {report.witness}\n"
            f"  tolerance: {report.tolerance!r}\n")


def run_verification(arc, selection, scale: float = 1.0,
                     strict: bool = True) -> list:
    """EstimateReports of each (estimate id, params) selection, in order.

    ``strict`` raises when the needed run family is absent; the default
    battery passes strict=False and skips instead.
    """
    runs = sorted(arc.trajectories.values(), key=lambda tr: tr.run_id)
    if selection and not runs:
        raise ConfigurationError("archive holds no successful runs")
    reports = []
    for est_id, params in selection:
        entry = ESTIMATES[est_id]
        families = entry.family.split(runs)
        if strict and not families:
            raise ConfigurationError(f"{est_id} needs {entry.family.needs}")
        for family in families:
            report = entry.check(family, dict(params), arc.lab.datum)
            report.tolerance *= scale
            reports.append(report)
    return reports


def cmd_verify(args) -> int:
    arc = load_archive(_resolve_dir(args.out))
    selection = list(arc.config.verify)
    strict = True
    if args.only:
        wanted = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in ESTIMATES]
        if unknown:
            raise ConfigurationError(f"unknown estimate ids in --only: {unknown}")
        configured = {eid: ps for eid, ps in selection}
        selection = [(name, configured.get(name, {})) for name in wanted]
    elif not selection:
        # family checks that lack their run family are skipped in this mode
        selection = [(eid, {}) for eid, entry in ESTIMATES.items()
                     if entry.default]
        strict = False

    reports = run_verification(arc, selection, scale=args.tolerance_scale,
                               strict=strict)
    report_dir = arc.directory / "reports"
    report_dir.mkdir(exist_ok=True)
    for report in reports:
        print(report.summary())
    (report_dir / "verify.txt").write_text(
        "".join(report.summary() + "\n" for report in reports))
    for est_id in sorted({report.estimate_id for report in reports}):
        (report_dir / f"{est_id}.txt").write_text(
            "".join(_detail(report) for report in reports
                    if report.estimate_id == est_id))
    failed = sum(not report.passed for report in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    arc = load_archive(_resolve_dir(args.out))
    targets = [t.strip() for t in (args.only or "series,snapshots").split(",")]
    unknown = [t for t in targets if t not in ("series", "snapshots")]
    if unknown:
        raise ConfigurationError(f"unknown export targets: {unknown}")
    out = arc.directory / "exports"
    out.mkdir(exist_ok=True)
    count = 0
    for run_id, traj in sorted(arc.trajectories.items()):
        if "series" in targets:
            (out / f"{run_id}_series.csv").write_text(series_csv(traj))
            count += 1
        if "snapshots" in targets:
            for t in traj.checkpoint_times:
                (out / f"{run_id}_t{t:g}_field.csv").write_text(
                    snapshot_csv(traj, t))
                count += 1
    print(f"wrote {count} CSV files to {out}")
    return 0


# ---------------------------------------------------------------------------
# selfcheck


_SELFCHECK_CONFIG = """\
[surface]
kind = torus
n = 16
v = 0.5

[flow]
gamma = 1.0
eps = 0.2
t = 0.1

[initial]
kind = smooth(c=0.01, m1=1, m2=0)

[checkpoints]
times = 0.0015625, 0.003125, 0.00625, 0.0125, 0.025, 0.05, 0.1

[verify]
estimates = upper_barrier; lower_barrier; hstat; density_ratio(t0=0.0015625); l1_convergence(t_top=0.05)
"""


def cmd_selfcheck(_args) -> int:
    config = parse_config(_SELFCHECK_CONFIG)
    if parse_config(emit_config(config)) != config:
        print("selfcheck: config roundtrip mismatch", file=sys.stderr)
        return 3
    lab = build_lab(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        for directory in (first, second):
            results, errors = execute_runs(config, lab)
            if errors:
                print(f"selfcheck: run failed: {errors}", file=sys.stderr)
                return 3
            write_archive(directory, replace(config, k=lab.k), results)

        import json
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (first, second)]
        if manifests[0]["files"] != manifests[1]["files"]:
            print("selfcheck: archives not deterministic", file=sys.stderr)
            return 3

        arc = load_archive(first)
        reports = run_verification(arc, config.verify)
        for report in reports:
            print(report.summary())
        if any(not report.passed for report in reports):
            return 1
    print("selfcheck ok")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneflow",
        description="Desk-scale laboratory for regularized conical flows")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_tmax = sub.add_parser("tmax", help="print volume budget and T_max")
    p_tmax.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="execute a config and write an archive")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="check estimates on an archive")
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument("--only", default=None,
                          help="comma-separated estimate ids")
    p_verify.add_argument("--tolerance-scale", type=float, default=1.0,
                          dest="tolerance_scale")

    p_export = sub.add_parser("export", help="write CSV series and snapshots")
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--only", default=None,
                          help="series, snapshots, or both")

    sub.add_parser("selfcheck", help="end-to-end smoke test")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"tmax": cmd_tmax, "run": cmd_run, "verify": cmd_verify,
               "export": cmd_export, "selfcheck": cmd_selfcheck}[args.cmd]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConeflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
