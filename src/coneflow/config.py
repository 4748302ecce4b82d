"""Experiment configuration: line-numbered key=value sections.

Format by example::

    [surface]
    kind = sphere            # or torus
    n = 64
    v = 2.0

    [divisor]
    points = 1.5707963267948966, 0.0    # semicolon-separated (theta, phi) pairs

    [flow]
    gamma = 0.5
    eps = 0.2, 0.1, 0.05     # strictly decreasing when more than one
    k = auto                 # or an explicit float
    t = 1.0
    eta = 0.0

    [initial]
    kind = zero_lelong(alpha=0.5, c=0.05)
    j = 2, 4, 8              # truncation levels; omit for untruncated data
    sigma = 0.25

    [stepper]
    scheme = semi_implicit_newton
    dt_init = 1e-3

    [checkpoints]
    times = 0.1, 0.2, 0.5, 1.0

    [verify]
    estimates = upper_barrier(t0=0.1); hstat

    [output]
    dir = out/sweep

Comments run from ``#`` to end of line.  Scalar lists are comma separated;
structured lists (divisor points, verify estimates) separate entries with
semicolons because the entries themselves contain commas.  Unknown sections
and keys are rejected with their line number, as is any value that fails
validation.  ``eta`` is the degree of the twist, spread as the constant
multiple ``eta / V`` of the background area form.

``parse_config`` runs every check that needs no built object: syntax and
types, T below T_max, eps strictly decreasing, j and sigma, a divisor for
gamma < 1, a positive k for singular data, estimate ids and the parameters
each one reads, checkpoints and the stepper.  ``build_lab`` builds the
surface, divisor and datum once and checks, before selecting k, what only
they can judge: eps against the grid's resolvability floor, the divisor
points, the datum parameters (each kind takes only its own) and the flow
parameters.  Its failures carry the same ``line N:`` prefix.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .background import (FlowParams, build_pack, class_slope, compute_tmax,
                         path_constant, resolvability_floor, select_k)
from .errors import ConfigurationError
from .estimates import ESTIMATES
from .flow import CONTROL_FIELDS, Scheme, StepControl, at_checkpoint
from .initial_data import DatumKind, InitialDatum, make_initial
from .surfaces import (DivisorData, ModelSurface, SurfaceKind, build_surface,
                       divisor_section)

_SECTIONS = ("surface", "divisor", "flow", "initial", "stepper",
             "checkpoints", "verify", "output")

_CALL_RE = re.compile(r"^([a-z0-9_]+)\s*(?:\((.*)\))?$")


@dataclass
class RunConfig:
    """One fully validated experiment description."""

    surface_kind: SurfaceKind
    resolution: int
    volume: float
    divisor_points: list
    gamma: float
    eps_list: list
    k: float | None          # None means select automatically
    T: float
    eta_degree: float
    initial_kind: DatumKind
    initial_params: dict
    j_list: list
    sigma: float
    control: StepControl
    checkpoints: list
    verify: list             # (estimate_id, params) pairs
    out_dir: str | None = None
    # (section, key or None) -> line in the parsed text, for the checks
    # build_lab runs; not part of the description, so never compared
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def divisor_degree(self) -> int:
        return len(self.divisor_points)

    @property
    def slope(self) -> float:
        return class_slope(self.surface_kind.c1_degree, self.divisor_degree,
                           self.gamma, self.eta_degree)

    @property
    def tmax(self) -> float:
        return compute_tmax(self.volume, self.surface_kind.c1_degree,
                            self.divisor_degree, self.gamma, self.eta_degree)


def _fail(lineno, msg):
    raise ConfigurationError(f"line {lineno}: {msg}")


def _lineno(lines: dict, section: str, key=None) -> int:
    """Line of [section] key, else of the section header, else 0."""
    return lines.get((section, key), lines.get((section, None), 0))


def _scan_sections(text: str) -> tuple[dict, dict]:
    """Split into {section: {key: value}} plus {(section, key): lineno}."""
    sections: dict = {}
    lines: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                _fail(lineno, f"unknown section [{current}]")
            if current in sections:
                _fail(lineno, f"duplicate section [{current}]")
            sections[current] = {}
            lines[(current, None)] = lineno
            continue
        if current is None:
            _fail(lineno, "key outside any section")
        if "=" not in line:
            _fail(lineno, "expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in sections[current]:
            _fail(lineno, f"duplicate key '{key}' in [{current}]")
        sections[current][key] = value
        lines[(current, key)] = lineno
    return sections, lines


class _Section:
    """One parsed section with typed, line-aware value extraction."""

    def __init__(self, name, raw, lines):
        self.name = name
        self.raw = dict(raw)
        self.lines = lines
        self.seen = set()

    def lineno(self, key=None):
        return _lineno(self.lines, self.name, key)

    def get(self, key, conv, default=None, required=False):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                _fail(self.lineno(), f"[{self.name}] is missing required key '{key}'")
            return default
        value = self.raw[key]
        try:
            return conv(value)
        except ConfigurationError:
            raise
        except (ValueError, TypeError) as exc:
            _fail(self.lineno(key), f"bad value for '{key}': {exc}")

    def reject_unknown(self):
        for key in self.raw:
            if key not in self.seen:
                _fail(self.lineno(key), f"unknown key '{key}' in [{self.name}]")


def _float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _int(text: str) -> int:
    return int(text, 10)


def _floats(text: str) -> list:
    return [_float(part) for part in text.split(",") if part.strip()]


def _points(text: str) -> list:
    points = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        pair = _floats(entry)
        if len(pair) != 2:
            raise ValueError(f"point {entry!r} needs exactly two coordinates")
        points.append((pair[0], pair[1]))
    return points


def _call(text: str) -> tuple:
    m = _CALL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"expected name or name(key=value, ...), got {text!r}")
    name, body = m.group(1), m.group(2)
    params = {}
    if body and body.strip():
        for item in body.split(","):
            if "=" not in item:
                raise ValueError(f"expected key=value inside {name}(...), got {item!r}")
            key, val = (part.strip() for part in item.split("=", 1))
            params[key] = _float(val)
    return name, params


def _calls(text: str) -> list:
    return [_call(entry) for entry in text.split(";") if entry.strip()]


def _require_distinct_names(lineno: int, what: str, values: list) -> None:
    """Run ids and snapshot files name eps, j and t with ``:g``; two values
    that print alike would overwrite each other's files."""
    for a, b in zip(values, values[1:]):
        if f"{a:g}" == f"{b:g}":
            _fail(lineno, f"{what} values {a!r} and {b!r} share the name "
                          f"'{a:g}' in run and file names")


def parse_config(text: str) -> RunConfig:
    """Parse and validate one experiment description.

    The first violation is reported with its line number; later errors are
    not collected.  Checks that need the built surface run in ``build_lab``.
    """
    raw, lines = _scan_sections(text)
    for name in ("surface", "flow"):
        if name not in raw:
            raise ConfigurationError(f"missing required section [{name}]")
    sec = {name: _Section(name, raw.get(name, {}), lines) for name in _SECTIONS}

    s = sec["surface"]
    kind_name = s.get("kind", str.lower, required=True)
    try:
        surface_kind = SurfaceKind(kind_name)
    except ValueError:
        _fail(s.lineno("kind"), f"unknown surface kind {kind_name!r}")
    resolution = s.get("n", _int, required=True)
    volume = s.get("v", _float, required=True)
    s.reject_unknown()

    d = sec["divisor"]
    divisor_points = d.get("points", _points, default=[])
    d.reject_unknown()

    f = sec["flow"]
    gamma = f.get("gamma", _float, required=True)
    eps_list = f.get("eps", _floats, required=True)
    k_raw = f.get("k", str.lower, default="auto")
    T = f.get("t", _float, required=True)
    eta_degree = f.get("eta", _float, default=0.0)
    f.reject_unknown()
    if not eps_list:
        _fail(f.lineno("eps"), "eps list is empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        _fail(f.lineno("eps"), "eps list must be strictly decreasing")
    _require_distinct_names(f.lineno("eps"), "eps", eps_list)
    if k_raw == "auto":
        k = None
    else:
        try:
            k = _float(k_raw)
        except ValueError as exc:
            _fail(f.lineno("k"), f"bad value for 'k': {exc}")

    i = sec["initial"]
    kind_call = i.get("kind", _call, default=("smooth", {"c": 0.0}))
    j_list = i.get("j", _floats, default=[])
    sigma = i.get("sigma", _float, default=0.25)
    i.reject_unknown()
    datum_name, initial_params = kind_call
    try:
        initial_kind = DatumKind(datum_name)
    except ValueError:
        _fail(i.lineno("kind"), f"unknown initial kind {datum_name!r}")
    if any(j <= 0 for j in j_list):
        _fail(i.lineno("j"), "truncation levels must be positive")
    if any(b <= a for a, b in zip(j_list, j_list[1:])):
        _fail(i.lineno("j"), "truncation levels must be strictly increasing")
    _require_distinct_names(i.lineno("j"), "j", j_list)
    if sigma <= 0:
        _fail(i.lineno("sigma"), "sigma must be positive")

    st = sec["stepper"]
    scheme_name = st.get("scheme", str.lower, default=Scheme.SEMI_IMPLICIT_NEWTON.value)
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        _fail(st.lineno("scheme"), f"unknown scheme {scheme_name!r}")
    kwargs = {"scheme": scheme}
    for fld in CONTROL_FIELDS:
        conv = _int if isinstance(fld.default, int) else _float
        kwargs[fld.name] = st.get(fld.name, conv, default=fld.default)
    st.reject_unknown()
    try:
        control = StepControl(**kwargs)
    except ConfigurationError as exc:
        _fail(st.lineno(), str(exc))

    c = sec["checkpoints"]
    checkpoints = c.get("times", _floats,
                        default=sorted(T * 2.0 ** (-m) for m in range(6)))
    c.reject_unknown()
    if not checkpoints:
        _fail(c.lineno("times"), "checkpoint list is empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        _fail(c.lineno("times"), "checkpoint times must be strictly increasing")
    _require_distinct_names(c.lineno("times"), "checkpoint", checkpoints)
    if checkpoints[0] <= 0.0 or checkpoints[-1] > T:
        _fail(c.lineno("times"), f"checkpoint times must lie in (0, T={T}]")

    v = sec["verify"]
    verify = v.get("estimates", _calls, default=[])
    v.reject_unknown()
    for est_id, params in verify:
        if est_id not in ESTIMATES:
            _fail(v.lineno("estimates"), f"unknown estimate id {est_id!r}")
        misfit = ESTIMATES[est_id].misfit(est_id, params)
        if misfit:
            _fail(v.lineno("estimates"), misfit)
        # a check reads its run at a checkpoint t0 (phidot_lower also at 0)
        # or t, matched as Trajectory.checkpoint_index matches it
        for name in ("t0", "t"):
            t = params.get(name)
            if t is None or (est_id == "phidot_lower" and t == 0.0):
                continue
            if not any(at_checkpoint(c, t) for c in checkpoints):
                _fail(v.lineno("estimates"),
                      f"{est_id} {name}={t!r} is not a checkpoint (times: "
                      f"{', '.join(_fmt(c) for c in checkpoints)})")

    o = sec["output"]
    out_dir = o.get("dir", str, default=None)
    o.reject_unknown()

    config = RunConfig(
        surface_kind=surface_kind, resolution=resolution, volume=volume,
        divisor_points=divisor_points, gamma=gamma, eps_list=eps_list, k=k,
        T=T, eta_degree=eta_degree, initial_kind=initial_kind,
        initial_params=initial_params, j_list=j_list, sigma=sigma,
        control=control, checkpoints=checkpoints, verify=verify,
        out_dir=out_dir, lines=lines)
    if not T < config.tmax:
        _fail(f.lineno("t"),
              f"horizon T={T} must stay below T_max={config.tmax}")
    if gamma < 1.0 and not divisor_points:
        _fail(f.lineno("gamma"),
              "gamma < 1 needs a divisor section with at least one point")
    if initial_kind.singular and k == 0.0:
        _fail(f.lineno("k"),
              "singular initial data needs a positive cone coefficient k")
    return config


class Lab(NamedTuple):
    """The shared immutable inputs of one experiment family."""

    surface: ModelSurface
    divisor: DivisorData | None
    datum: InitialDatum
    k: float
    packs: dict              # eps -> BackgroundPack


@contextmanager
def _reported_at(config: RunConfig, section: str, key=None,
                 errors=ConfigurationError):
    """Report a failure of the block at the config line of [section] key."""
    try:
        yield
    except errors as exc:
        _fail(_lineno(config.lines, section, key), str(exc))


def build_lab(config: RunConfig) -> Lab:
    """Build the surface, divisor, datum, cone coefficient and packs.

    The values only a built surface can judge (eps against the grid's
    resolvability floor, the divisor points, the datum parameters, the flow
    parameters) are checked before ``k = auto`` runs ``select_k``, the only
    place it runs for a config, and reported at their config line.
    """
    with _reported_at(config, "surface"):
        surface = build_surface(config.surface_kind, config.resolution,
                                config.volume)
    floor = resolvability_floor(surface)
    for eps in config.eps_list:
        if eps < floor:
            _fail(_lineno(config.lines, "flow", "eps"),
                  f"eps={eps} is below the resolvability floor "
                  f"{floor:.6g} of an N={config.resolution} grid")
    divisor = None
    if config.divisor_points:
        with _reported_at(config, "divisor", "points",
                          (ConfigurationError, ValueError)):
            divisor = divisor_section(surface, config.divisor_points)
    with _reported_at(config, "initial", "kind",
                      (ConfigurationError, ValueError)):
        datum = make_initial(surface, divisor, config.initial_kind,
                             dict(config.initial_params))

    k = config.k
    if k is None and config.gamma == 1.0 and divisor is None:
        k = 0.0
    # an automatic k is positive, so a positive stand-in validates alike
    with _reported_at(config, "flow"):
        params = [FlowParams(gamma=config.gamma, epsilon=eps,
                             k=1.0 if k is None else k, T=config.T,
                             eta_degree=config.eta_degree)
                  for eps in config.eps_list]
    if k is None:
        k = select_k(surface, divisor, config.gamma, config.eps_list,
                     path_constant(config.volume, config.slope, config.T))
        params = [replace(p, k=k) for p in params]
    packs = {p.epsilon: build_pack(surface, divisor, p) for p in params}
    return Lab(surface, divisor, datum, k, packs)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    datum_name = config.initial_kind.value
    params = ", ".join(f"{k}={_fmt(v)}" for k, v in config.initial_params.items())
    out = [
        "[surface]",
        f"kind = {config.surface_kind.value}",
        f"n = {config.resolution}",
        f"v = {_fmt(config.volume)}",
        "",
        "[divisor]",
        "points = " + "; ".join(f"{_fmt(a)}, {_fmt(b)}"
                                for a, b in config.divisor_points),
        "",
        "[flow]",
        f"gamma = {_fmt(config.gamma)}",
        "eps = " + ", ".join(_fmt(e) for e in config.eps_list),
        f"k = {'auto' if config.k is None else _fmt(config.k)}",
        f"t = {_fmt(config.T)}",
        f"eta = {_fmt(config.eta_degree)}",
        "",
        "[initial]",
        f"kind = {datum_name}({params})" if params else f"kind = {datum_name}",
        "j = " + ", ".join(_fmt(j) for j in config.j_list),
        f"sigma = {_fmt(config.sigma)}",
        "",
        "[stepper]",
        f"scheme = {config.control.scheme.value}",
    ]
    for fld in CONTROL_FIELDS:
        out.append(f"{fld.name} = {_fmt(getattr(config.control, fld.name))}")
    out += [
        "",
        "[checkpoints]",
        "times = " + ", ".join(_fmt(t) for t in config.checkpoints),
        "",
        "[verify]",
        "estimates = " + "; ".join(
            (f"{name}({', '.join(f'{k}={_fmt(v)}' for k, v in ps.items())})"
             if ps else name)
            for name, ps in config.verify),
        "",
        "[output]",
    ]
    if config.out_dir is not None:
        out.append(f"dir = {config.out_dir}")
    return "\n".join(out) + "\n"
