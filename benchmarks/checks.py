"""Output checks of the benchmark, kept apart from the program under test.

Archive files are read with this module's own decoder of the CKRF frame
format, and every check is a function of plain arrays, bytes or text, so
``test_checks.py`` can feed each one a deliberately broken input.  Each
check returns a list of problems; an empty list means the output holds.
"""
from __future__ import annotations

import hashlib
import re
import struct
from pathlib import Path

import numpy as np

_DTYPES = {0: "<f8", 1: "<i8", 2: "u1"}


def read_ckrf(path) -> dict:
    """Decode a CKRF1 file: magic, version byte 1, then named frames."""
    blob = Path(path).read_bytes()
    if blob[:6] != b"CKRF1\x01":
        raise ValueError(f"{path}: not a CKRF1 v1 file")
    frames, pos = {}, 6
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode()
        pos += 4 + name_len
        code, ndim = blob[pos], blob[pos + 1]
        shape = struct.unpack_from(f"<{ndim}Q", blob, pos + 2)
        pos += 2 + 8 * ndim
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        if code == 3:
            frames[name] = blob[pos:pos + count].decode()
            pos += count
            continue
        arr = np.frombuffer(blob, dtype=_DTYPES[code], count=count, offset=pos)
        pos += count * arr.itemsize
        frames[name] = arr.reshape(shape) if ndim else arr[0]
    return frames


def run_states(frames: dict) -> list:
    """(t, phi, phi_dot, steps) per recorded state, the initial one first."""
    return [(float(frames[f"state{i}/t"]), frames[f"state{i}/phi"],
             frames[f"state{i}/phi_dot"], int(frames[f"state{i}/steps"]))
            for i in range(int(frames["n_states"]))]


# ---------------------------------------------------------------------------
# run outcomes


def check_runs_reached(runs: dict, expected_runs: int) -> list:
    """Every run of the family is archived and ended with reached_T."""
    problems = []
    if len(runs) != expected_runs:
        problems.append(f"{len(runs)} runs archived, expected {expected_runs}")
    for run_id, frames in sorted(runs.items()):
        if frames["termination"] != "reached_T":
            problems.append(f"{run_id} ended with {frames['termination']}")
    return problems


def check_truncation_order(runs: dict) -> list:
    """Deeper truncations stay below shallower ones at every state.

    Backward Euler with an M-matrix Jacobian is order preserving, so two
    runs of one eps keep the order of their initial data up to the Newton
    residual each accepted step may leave: the slack is newton_tol times
    the steps both runs took to reach the state.
    """
    problems = []
    by_eps = {}
    for run_id, frames in runs.items():
        by_eps.setdefault(float(frames["eps"]), []).append((run_id, frames))
    for eps, family in sorted(by_eps.items()):
        family.sort(key=lambda item: -float(item[1]["j"]))
        for (deep_id, deep), (shallow_id, shallow) in zip(family, family[1:]):
            tol = float(deep["control/newton_tol"])
            for (t, lo, _, n_lo), (t2, hi, _, n_hi) in zip(
                    run_states(deep), run_states(shallow)):
                if t != t2:
                    problems.append(f"{deep_id}/{shallow_id}: times {t} != {t2}")
                    break
                excess = float((lo - hi).max())
                slack = tol * (n_lo + n_hi)
                if excess > slack:
                    problems.append(
                        f"{deep_id} above {shallow_id} at t={t:g} by "
                        f"{excess:.3e} > slack {slack:.3e}")
    return problems


def check_class_volume(times, integrals, volume: float, slope: float,
                       rel_tol: float = 1e-11) -> list:
    """The metric's total mass equals the class volume V + slope*t."""
    problems = []
    for t, total in zip(times, integrals):
        expected = volume + slope * t
        if abs(total - expected) > rel_tol * volume:
            problems.append(f"volume at t={t:g} is {total!r}, "
                            f"class gives {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# CSV export


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype="<f8"), np.asarray(b, dtype="<f8")
    return a.shape == b.shape and bool(np.all(a.view("<u8") == b.view("<u8")))


def check_snapshot_csv(text: str, phi, phi_dot, excluded) -> list:
    """An N x N field table parses back bit-exactly to the archived arrays."""
    lines = text.splitlines()
    if not lines or lines[0] != "axis0,axis1,phi,phi_dot,excluded":
        return ["snapshot CSV header is wrong"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != phi.size:
        return [f"snapshot CSV has {len(rows)} rows, expected {phi.size}"]
    try:
        cols = [np.array([float(r[k]) for r in rows]) for k in (2, 3)]
        flags = np.array([r[4] == "1" for r in rows])
    except (IndexError, ValueError) as exc:
        return [f"snapshot CSV unparsable: {exc}"]
    problems = []
    if not _same_bits(cols[0], phi.ravel()):
        problems.append("snapshot phi differs from the archive")
    if not _same_bits(cols[1], phi_dot.ravel()):
        problems.append("snapshot phi_dot differs from the archive")
    if not np.array_equal(flags, np.asarray(excluded, dtype=bool).ravel()):
        problems.append("snapshot exclusion flags differ from the archive")
    return problems


def check_series_csv(text: str, frames: dict) -> list:
    """The series table holds the archived series rows at the checkpoints."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    series_t = frames["series/t"]
    checkpoints = [t for t, *_ in run_states(frames)[1:]]
    if len(lines) - 1 != len(checkpoints):
        return [f"series CSV has {len(lines) - 1} rows, "
                f"expected {len(checkpoints)}"]
    problems = []
    for line, t in zip(lines[1:], checkpoints):
        i = int(np.argmin(np.abs(series_t - t)))
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            return [f"series CSV unparsable: {exc}"]
        want = [frames[f"series/{col}"][i] for col in header]
        if not _same_bits(row, want):
            problems.append(f"series row at t={t:g} differs from the archive")
    return problems


# ---------------------------------------------------------------------------
# verification and readback


def digest_tree(*directories) -> str:
    """sha256 over relative paths and bytes of every file below the dirs."""
    h = hashlib.sha256()
    for directory in directories:
        directory = Path(directory)
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            h.update(path.relative_to(directory.parent).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_identical_cycles(digests: list) -> list:
    """Every readback cycle of a run produced the same reports and CSVs."""
    if len(set(digests)) > 1:
        first = digests[0]
        bad = [i for i, d in enumerate(digests) if d != first]
        return [f"readback cycles {bad} differ from cycle 0"]
    return []


_LINE = re.compile(r"^(PASS|FAIL) ([a-z0-9_]+): ")


def tally_verify(text: str, known_failing) -> tuple:
    """(lines, failed, problems) for one verify report.

    Only ids in ``known_failing`` may fail; such lines count as failed
    operations, any other failure is a problem.
    """
    lines, failed, problems = 0, 0, []
    *body, summary = text.splitlines() or [""]
    for line in body:
        m = _LINE.match(line)
        if m is None:
            problems.append(f"unexpected verify line {line!r}")
            continue
        lines += 1
        if m.group(1) == "FAIL":
            failed += 1
            if m.group(2) not in known_failing:
                problems.append(f"unexpected failure: {line}")
    if lines == 0:
        problems.append("verify reported no checks")
    if summary != f"{lines - failed}/{lines} checks passed":
        problems.append(f"verify summary {summary!r} does not match its lines")
    return lines, failed, problems


_C_PARAM = re.compile(r"'C': (?:np\.float64\()?([-+0-9.eE]+|inf)")


def density_ratio_constants(report_text: str) -> list:
    """The C parameter of each density_ratio report entry."""
    return [float(m) for m in _C_PARAM.findall(report_text)]


def check_grid_doubling(c_fine: float, c_coarse: float,
                        rel: float = 0.15) -> list:
    """Acceptance criterion 10: the constant survives N-doubling."""
    if not (np.isfinite(c_fine) and np.isfinite(c_coarse)):
        return [f"density-ratio constants not finite: {c_fine}, {c_coarse}"]
    if max(c_fine, c_coarse) > (1.0 + rel) * min(c_fine, c_coarse):
        return [f"density-ratio constant {c_fine:.6g} is not within "
                f"{rel:.0%} of its N/2 twin {c_coarse:.6g}"]
    return []
