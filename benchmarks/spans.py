"""In-memory spans around the calls into each coneflow layer.

The tracer wraps public functions from outside the program: every module
that imported a name gets the wrapper (``from .background import select_k``
binds a separate name in ``config``, and a wrapper installed only at home
would miss those calls).  LU factorizations and solves are taken at the
boundary between ``flow`` and scipy, by wrapping ``splu`` and the ``solve``
of the object it returns, and are attributed to ``run_flow`` or
``static_ma_solve`` by the enclosing span.
"""
from __future__ import annotations

import sys
import time

CHECKERS = (
    "check_upper_barrier", "check_lower_barrier", "check_hstat",
    "check_phidot_lower", "check_osc", "check_density_ratio",
    "check_monotone_eps", "check_comparison", "check_reparam_ordering",
    "check_lower_envelope", "check_l1_convergence", "divergence_signature",
)

#: layer -> (home module, traced public functions)
LAYERS = {
    "config": ("coneflow.config", ("parse_config",)),
    "surfaces": ("coneflow.surfaces", ("build_surface", "divisor_section")),
    "background": ("coneflow.background", ("select_k", "build_pack")),
    "initial_data": ("coneflow.initial_data",
                     ("make_initial", "flow_level_values")),
    "flow": ("coneflow.flow", ("run_flow", "static_ma_solve")),
    "estimates": ("coneflow.estimates", CHECKERS),
    "archive": ("coneflow.archive", ("write_archive", "load_archive",
                                     "check_integrity", "series_csv",
                                     "snapshot_csv")),
    "cli": ("coneflow.cli", ("build_lab",)),
}

#: checkers that run on every workload; the others run on some workloads
#: only, and their time is reported inside estimates.check_s
PER_ID = ("upper_barrier", "lower_barrier", "hstat", "density_ratio")

# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = [
    ("flow.run_flow_s", "s", "lower"),
    ("flow.steps_accepted", "count", "lower"),
    ("flow.attempts_rejected", "count", "lower"),
    ("flow.step_acceptance", "ratio", "higher"),
    ("flow.lu_factorizations", "count", "lower"),
    ("flow.lu_factor_s", "s", "lower"),
    ("flow.lu_solves", "count", "lower"),
    ("flow.lu_solve_s", "s", "lower"),
    ("flow.factorizations_per_step", "1/step", "lower"),
    ("flow.run_flow_other_s", "s", "lower"),
    ("flow.static_solves", "count", "lower"),
    ("flow.static_lu_factorizations", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    ("background.select_k_calls", "count", "lower"),
    ("background.select_k_s", "s", "lower"),
    ("background.build_pack_calls", "count", "lower"),
    ("background.build_pack_s", "s", "lower"),
    ("background.self_s", "s", "lower"),
    ("surfaces.build_surface_calls", "count", "lower"),
    ("surfaces.build_surface_s", "s", "lower"),
    ("surfaces.divisor_section_calls", "count", "lower"),
    ("surfaces.self_s", "s", "lower"),
    ("config.parse_config_calls", "count", "lower"),
    ("config.parse_config_s", "s", "lower"),
    ("config.self_s", "s", "lower"),
    ("initial_data.make_initial_calls", "count", "lower"),
    ("initial_data.make_initial_s", "s", "lower"),
    ("initial_data.flow_level_values_s", "s", "lower"),
    ("initial_data.self_s", "s", "lower"),
    ("estimates.checks", "count", "lower"),
    ("estimates.check_s", "s", "lower"),
    *((f"estimates.{eid}_s", "s", "lower") for eid in PER_ID),
    ("estimates.self_s", "s", "lower"),
    ("archive.write_s", "s", "lower"),
    ("archive.bytes_written", "bytes", "lower"),
    ("archive.load_calls", "count", "lower"),
    ("archive.load_s", "s", "lower"),
    ("archive.integrity_s", "s", "lower"),
    ("archive.series_csv_s", "s", "lower"),
    ("archive.snapshot_csv_s", "s", "lower"),
    ("archive.csv_bytes", "bytes", "lower"),
    ("archive.self_s", "s", "lower"),
    ("cli.build_lab_calls", "count", "lower"),
    ("cli.build_lab_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class _TracedLU:
    """The factor object splu returned, with its solve traced."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("lu", "solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans as [layer, name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.steps = [0, 0]        # accepted, rejected over traced run_flow
        self.csv_bytes = 0

    def call(self, layer, name, fn, args, kwargs):
        span = [layer, name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, layer, name, fn):
        def traced(*args, **kwargs):
            out = self.call(layer, name, fn, args, kwargs)
            if name == "run_flow":
                last = out.snapshots[-1]
                self.steps[0] += last.step_count
                self.steps[1] += last.rejected_steps
            elif name in ("series_csv", "snapshot_csv"):
                self.csv_bytes += len(out)
            return out
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coneflow" or n.startswith("coneflow.")]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                orig = getattr(sys.modules[home], name)
                self._patch_everywhere(modules, orig,
                                       self._wrapper(layer, name, orig))

        import scipy.sparse.linalg as spla

        orig_splu = spla.splu

        def splu(*args, **kwargs):
            return _TracedLU(self.call("lu", "splu", orig_splu, args, kwargs),
                             self)
        self._patch_everywhere(modules + [spla], orig_splu, splu)

    def _patch_everywhere(self, modules, orig, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -------------------------------------------------------------------

    def _enclosing_flow(self, index):
        parent = self.spans[index][4]
        while parent >= 0 and self.spans[parent][0] != "flow":
            parent = self.spans[parent][4]
        return self.spans[parent][1] if parent >= 0 else None

    def table(self) -> dict:
        """{(layer, name): [calls, inclusive s, self s]} over all spans."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (layer, name, start, end, _parent) in enumerate(self.spans):
            if layer == "lu":
                name = f"{self._enclosing_flow(i)}.{name}"
            row = out.setdefault((layer, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def values(self, bytes_written: int) -> dict:
        """Every per-layer metric but trace.overhead_s, which needs an
        untraced run of the same workload."""
        table = self.table()

        def calls(layer, name):
            return table.get((layer, name), [0, 0.0, 0.0])[0]

        def secs(layer, name):
            return table.get((layer, name), [0, 0.0, 0.0])[1]

        def self_s(layer):
            return sum(row[2] for (lay, _), row in table.items()
                       if lay == layer)

        accepted, rejected = self.steps
        lu_f = calls("lu", "run_flow.splu")
        return {
            "flow.run_flow_s": secs("flow", "run_flow"),
            "flow.steps_accepted": accepted,
            "flow.attempts_rejected": rejected,
            "flow.step_acceptance": accepted / max(1, accepted + rejected),
            "flow.lu_factorizations": lu_f,
            "flow.lu_factor_s": secs("lu", "run_flow.splu"),
            "flow.lu_solves": calls("lu", "run_flow.solve"),
            "flow.lu_solve_s": secs("lu", "run_flow.solve"),
            "flow.factorizations_per_step": lu_f / max(1, accepted),
            "flow.run_flow_other_s": (secs("flow", "run_flow")
                                      - secs("lu", "run_flow.splu")
                                      - secs("lu", "run_flow.solve")),
            "flow.static_solves": calls("flow", "static_ma_solve"),
            "flow.static_lu_factorizations": calls("lu",
                                                   "static_ma_solve.splu"),
            "flow.self_s": self_s("flow"),
            "background.select_k_calls": calls("background", "select_k"),
            "background.select_k_s": secs("background", "select_k"),
            "background.build_pack_calls": calls("background", "build_pack"),
            "background.build_pack_s": secs("background", "build_pack"),
            "background.self_s": self_s("background"),
            "surfaces.build_surface_calls": calls("surfaces", "build_surface"),
            "surfaces.build_surface_s": secs("surfaces", "build_surface"),
            "surfaces.divisor_section_calls": calls("surfaces",
                                                    "divisor_section"),
            "surfaces.self_s": self_s("surfaces"),
            "config.parse_config_calls": calls("config", "parse_config"),
            "config.parse_config_s": secs("config", "parse_config"),
            "config.self_s": self_s("config"),
            "initial_data.make_initial_calls": calls("initial_data",
                                                     "make_initial"),
            "initial_data.make_initial_s": secs("initial_data",
                                                "make_initial"),
            "initial_data.flow_level_values_s": secs("initial_data",
                                                     "flow_level_values"),
            "initial_data.self_s": self_s("initial_data"),
            "estimates.checks": sum(calls("estimates", c)
                                    for c in CHECKERS),
            "estimates.check_s": sum(secs("estimates", c)
                                     for c in CHECKERS),
            **{f"estimates.{eid}_s": secs("estimates", f"check_{eid}")
               for eid in PER_ID},
            "estimates.self_s": self_s("estimates"),
            "archive.write_s": secs("archive", "write_archive"),
            "archive.bytes_written": bytes_written,
            "archive.load_calls": calls("archive", "load_archive"),
            "archive.load_s": secs("archive", "load_archive"),
            "archive.integrity_s": secs("archive", "check_integrity"),
            "archive.series_csv_s": secs("archive", "series_csv"),
            "archive.snapshot_csv_s": secs("archive", "snapshot_csv"),
            "archive.csv_bytes": self.csv_bytes,
            "archive.self_s": self_s("archive"),
            "cli.build_lab_calls": calls("cli", "build_lab"),
            "cli.build_lab_s": secs("cli", "build_lab"),
            "cli.self_s": self_s("cli"),
            "trace.spans": len(self.spans),
        }
