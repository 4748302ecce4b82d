"""Run archives: framed binary checkpoints plus a hashed manifest.

Layout of an archive directory::

    config.txt        canonical config with the cone coefficient k the runs
                      used (an automatic k resolved), the family's one record
    run_<id>.ckrf     one file per trajectory: states, series, step control
    manifest.json     content hashes, per-run status, completion flag
    reports/          verification reports (written by the verify command)
    exports/          CSV exports (written by the export command)

Binary files share one framing: magic ``CKRF1``, a version byte, then a
sequence of named frames.  Every float payload is little-endian float64, so
an archive re-verifies bit-exactly on any host.  The manifest is the only
place a timestamp appears; everything else is a pure function of the run.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import Lab, RunConfig, build_lab, emit_config, parse_config
from .errors import ArchiveError
from .flow import (FlowState, Scheme, StepControl, Termination, Trajectory,
                   SERIES_COLUMNS, at_checkpoint)
from .surfaces import ScalarField

MAGIC = b"CKRF1"
VERSION = 1

_F64, _I64, _U8, _STR = 0, 1, 2, 3


def write_frames(path, frames) -> None:
    """Write named frames; values may be floats, ints, strings, or arrays."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        for name, value in frames:
            if isinstance(value, str):
                code, arr = _STR, np.frombuffer(value.encode(), dtype=np.uint8)
            elif isinstance(value, (bool, np.bool_)):
                code, arr = _U8, np.asarray([int(value)], dtype=np.uint8)
            elif isinstance(value, (int, np.integer)):
                code, arr = _I64, np.asarray(value, dtype="<i8")
            elif isinstance(value, float):
                code, arr = _F64, np.asarray(value, dtype="<f8")
            else:
                arr = np.asarray(value)
                if arr.dtype == bool:
                    code, arr = _U8, arr.astype(np.uint8)
                elif np.issubdtype(arr.dtype, np.integer):
                    code, arr = _I64, arr.astype("<i8")
                else:
                    code, arr = _F64, arr.astype("<f8")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(bytes([code]))
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def read_frames(path) -> dict:
    """Read a framed file back into an ordered {name: value} dict."""
    path = Path(path)
    if not path.is_file():
        raise ArchiveError(f"missing archive file {path}")
    blob = path.read_bytes()
    if blob[:5] != MAGIC:
        raise ArchiveError(f"{path.name}: bad magic {blob[:5]!r}")
    if blob[5] != VERSION:
        raise ArchiveError(f"{path.name}: unsupported version {blob[5]}")
    frames: dict = {}
    pos = 6
    try:
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos:pos + name_len].decode()
            pos += name_len
            code = blob[pos]
            ndim = blob[pos + 1]
            pos += 2
            shape = struct.unpack_from(f"<{ndim}Q", blob, pos)
            pos += 8 * ndim
            count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            if code == _STR:
                frames[name] = blob[pos:pos + count].decode()
                pos += count
                continue
            dtype = {_F64: "<f8", _I64: "<i8", _U8: "u1"}[code]
            itemsize = 8 if code in (_F64, _I64) else 1
            arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
            pos += count * itemsize
            value = arr.reshape(shape).copy()
            frames[name] = value[()] if ndim == 0 else value
    except (struct.error, IndexError, UnicodeDecodeError, ValueError) as exc:
        raise ArchiveError(f"{path.name}: truncated or corrupt frame stream: {exc}")
    return frames


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# trajectory files


def save_run(directory, traj: Trajectory) -> str:
    """Write one trajectory; returns the file name used."""
    control = traj.control
    frames = [
        ("run_id", traj.run_id),
        ("eps", float(traj.pack.params.epsilon)),
        ("j", float(traj.j)),
        ("termination", traj.termination.value),
        ("scheme", control.scheme.value),
    ]
    for key in ("dt_init", "dt_min", "dt_max", "safety", "error_tol", "newton_tol"):
        frames.append((f"control/{key}", float(getattr(control, key))))
    frames.append(("control/max_newton_iters", int(control.max_newton_iters)))
    frames.append(("has_scan_exclude", traj.scan_exclude is not None))
    if traj.scan_exclude is not None:
        frames.append(("scan_exclude", traj.scan_exclude))
    states = [traj.initial_state] + list(traj.snapshots)
    frames.append(("n_states", len(states)))
    for i, state in enumerate(states):
        frames += [
            (f"state{i}/t", float(state.t)),
            (f"state{i}/phi", state.phi.values),
            (f"state{i}/phi_dot", state.phi_dot.values),
            (f"state{i}/min_density", float(state.min_metric_density)),
            (f"state{i}/steps", int(state.step_count)),
            (f"state{i}/rejected", int(state.rejected_steps)),
        ]
    for col in SERIES_COLUMNS:
        frames.append((f"series/{col}", np.asarray(traj.series[col], dtype=float)))
    name = f"run_{traj.run_id}.ckrf"
    write_frames(Path(directory) / name, frames)
    return name


def load_run(path, packs: dict) -> Trajectory:
    """Rebuild a trajectory against the already-built pack of its eps.

    ``packs`` maps eps to background pack, as ``Lab.packs`` does.
    """
    fr = read_frames(path)
    pack = packs.get(float(fr["eps"]))
    if pack is None:
        raise ArchiveError(
            f"{Path(path).name}: stored eps {fr['eps']} does not match "
            f"any pack eps {sorted(packs)}")
    control = StepControl(
        scheme=Scheme(fr["scheme"]),
        dt_init=float(fr["control/dt_init"]),
        dt_min=float(fr["control/dt_min"]),
        dt_max=float(fr["control/dt_max"]),
        safety=float(fr["control/safety"]),
        error_tol=float(fr["control/error_tol"]),
        newton_tol=float(fr["control/newton_tol"]),
        max_newton_iters=int(fr["control/max_newton_iters"]),
    )
    scan = fr["scan_exclude"].astype(bool) if fr["has_scan_exclude"] else None
    states = []
    for i in range(int(fr["n_states"])):
        states.append(FlowState(
            t=float(fr[f"state{i}/t"]),
            phi=ScalarField(pack.surface, fr[f"state{i}/phi"], tag="phi"),
            phi_dot=ScalarField(pack.surface, fr[f"state{i}/phi_dot"], tag="phi_dot"),
            min_metric_density=float(fr[f"state{i}/min_density"]),
            step_count=int(fr[f"state{i}/steps"]),
            rejected_steps=int(fr[f"state{i}/rejected"]),
        ))
    series = {col: fr[f"series/{col}"] for col in SERIES_COLUMNS}
    return Trajectory(
        run_id=str(fr["run_id"]),
        pack=pack,
        j=float(fr["j"]),
        initial_state=states[0],
        snapshots=states[1:],
        series=series,
        termination=Termination(fr["termination"]),
        scan_exclude=scan,
        control=control,
    )


# ---------------------------------------------------------------------------
# whole archives


def write_manifest(directory, run_status: dict, complete: bool = True) -> None:
    directory = Path(directory)
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[path.relative_to(directory).as_posix()] = _sha256(path)
    manifest = {
        "format": MAGIC.decode(),
        "version": VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "complete": bool(complete),
        "runs": run_status,
        "files": files,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def check_integrity(directory) -> list:
    """Return a list of problems; empty means the archive checks out."""
    directory = Path(directory)
    problems = []
    mpath = directory / "manifest.json"
    if not mpath.is_file():
        return [f"missing manifest.json in {directory}"]
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        return [f"manifest.json unreadable: {exc}"]
    if not manifest.get("complete", False):
        problems.append("manifest marked incomplete (interrupted run)")
    for rel, digest in manifest.get("files", {}).items():
        path = directory / rel
        if not path.is_file():
            problems.append(f"missing file {rel}")
        elif _sha256(path) != digest:
            problems.append(f"hash mismatch for {rel}")
    for run_id, info in manifest.get("runs", {}).items():
        if info.get("status") != "ok":
            problems.append(f"run {run_id} failed: {info.get('error', '?')}")
    return problems


@dataclasses.dataclass
class Archive:
    """A loaded archive: everything verification needs, nothing re-simulated."""

    directory: Path
    config: RunConfig
    manifest: dict
    lab: Lab             # the inputs of the runs, rebuilt from the config
    trajectories: dict   # run_id -> Trajectory


def write_archive(directory, config: RunConfig, trajectories,
                  run_errors: dict | None = None, complete: bool = True) -> Path:
    """Persist a family of runs; returns the archive directory.

    ``config`` should carry the k the runs used (``Lab.k`` for ``k = auto``),
    so that loading the archive does not select k again.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.txt").write_text(emit_config(config))
    status = {}
    for traj in trajectories:
        name = save_run(directory, traj)
        status[traj.run_id] = {"status": "ok", "error": None, "file": name}
    for run_id, error in (run_errors or {}).items():
        status[run_id] = {"status": "failed", "error": str(error), "file": None}
    write_manifest(directory, status, complete=complete)
    return directory


def load_archive(directory) -> Archive:
    """Load and integrity-check an archive; never re-runs the flow."""
    directory = Path(directory)
    problems = check_integrity(directory)
    if problems:
        raise ArchiveError(
            f"archive {directory} failed integrity check: " + "; ".join(problems))
    manifest = json.loads((directory / "manifest.json").read_text())
    config = parse_config((directory / "config.txt").read_text())
    lab = build_lab(config)
    trajectories = {run_id: load_run(directory / info["file"], lab.packs)
                    for run_id, info in manifest["runs"].items()
                    if info["status"] == "ok"}
    return Archive(directory=directory, config=config, manifest=manifest,
                   lab=lab, trajectories=trajectories)


# ---------------------------------------------------------------------------
# CSV export


def series_csv(traj: Trajectory) -> str:
    """Per-checkpoint series table; one row per checkpoint, repr-exact."""
    sel = []
    times = np.asarray(traj.series["t"])
    for t in traj.checkpoint_times:
        idx = np.nonzero(at_checkpoint(times, t))[0]
        if idx.size == 0:
            raise ArchiveError(f"{traj.run_id}: checkpoint t={t} missing from series")
        sel.append(int(idx[0]))
    lines = [",".join(SERIES_COLUMNS)]
    for i in sel:
        lines.append(",".join(repr(float(traj.series[col][i]))
                              for col in SERIES_COLUMNS))
    return "\n".join(lines) + "\n"


def snapshot_csv(traj: Trajectory, t: float) -> str:
    """Node table at one checkpoint: coordinates, fields, scan mask."""
    state = traj.state_at(t)
    a0, a1 = traj.pack.surface.meshgrid()
    excl = (traj.scan_exclude if traj.scan_exclude is not None
            else np.zeros(traj.pack.surface.shape, dtype=bool))
    cells = [map(repr, col.ravel().tolist())
             for col in (a0, a1, state.phi.values, state.phi_dot.values)]
    flags = ("1" if e else "0" for e in excl.ravel().tolist())
    rows = map(",".join, zip(*cells, flags))
    return "\n".join(["axis0,axis1,phi,phi_dot,excluded", *rows]) + "\n"
