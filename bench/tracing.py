"""Span tracing of ccebvp from outside the package.

Each public function of interest is wrapped at the place where its callers
look it up (a module attribute), so no file of the package changes.  A span
records its name, start, end, parent span and the operation it belongs to;
spans stay in memory and are written out when the benchmark ends.  Self
time is a span's duration minus the time its direct child spans cover
(calls are sequential, so children never overlap).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id shared by every span of the current operation
        self._stack: list[int] = []
        self._installed: list = []
        self._profiles: dict = {}  # id -> profile, held so ids are never reused

    @contextmanager
    def span(self, name, **attrs):
        s = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, capture=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if capture is not None:
                capture(self, s, args, kwargs, out)
            return out

        return traced

    def install(self, sites):
        """Wrap every (module, attribute, span name, capture) site."""
        for mod, attr, name, capture in sites:
            fn = getattr(mod, attr)
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, capture))

    def uninstall(self):
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    def note_profile(self, profile) -> int:
        self._profiles[id(profile)] = profile
        return id(profile)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                     "op": s.op, "attrs": s.attrs}
                    for s in self.spans
                ],
                f,
            )


# -- what each wrapped call records ------------------------------------------


def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _origin(tr, s, args, kwargs, out):
    free = _arg(args, kwargs, 1, "free")
    s.attrs["complex"] = isinstance(kwargs.get("log_k0"), complex) or any(
        isinstance(c, complex) for c in free.coeffs
    )


def _newton(tr, s, args, kwargs, out):
    _, rep = out
    s.attrs.update(
        nodes=_arg(args, kwargs, 1, "mesh").n_nodes,
        iterations=rep.iterations,
        accepted=len(rep.damping_history),
        converged=rep.converged,
    )


def _assemble(tr, s, args, kwargs, out):
    jac = _arg(args, kwargs, 4, "want_jac", True)
    s.attrs["jac"] = bool(jac)
    if out[1] is not None:
        s.attrs["jac_bytes"] = int(out[1].nbytes)


def _refine(tr, s, args, kwargs, out):
    s.attrs.update(old=_arg(args, kwargs, 0, "profile").mesh.n_nodes, new=out.n_nodes)


def _curvature(tr, s, args, kwargs, out):
    s.attrs["profile"] = tr.note_profile(_arg(args, kwargs, 0, "profile"))


def _written(tr, s, args, kwargs, out):
    s.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def sites(ccebvp):
    """The lookups to wrap: a name imported into another module is wrapped there."""
    solver, cont, cli = ccebvp.solver, ccebvp.continuation, ccebvp.cli
    geom, verif = ccebvp.geometry, ccebvp.verification
    return [
        (solver, "fg_series_origin", "series.origin", _origin),
        (solver, "series_infinity", "series.infinity", None),
        (solver, "solve_bvp", "solver.solve_bvp", None),
        (cont, "solve_bvp", "solver.solve_bvp", None),
        (cli, "solve_bvp", "solver.solve_bvp", None),
        (solver, "newton_solve", "solver.newton_solve", _newton),
        (cont, "newton_solve", "solver.newton_solve", _newton),
        (solver, "assemble_collocation", "solver.assemble", _assemble),
        (solver, "splu", "solver.splu", None),
        (solver, "refine_mesh", "solver.refine_mesh", _refine),
        (geom, "curvature_samples", "geometry.curvature_samples", _curvature),
        (geom, "riemann_from_structure", "geometry.riemann_from_structure", None),
        (verif, "run_verification", "verification.run_verification", None),
        (cont, "run_verification", "verification.run_verification", None),
        (cli, "run_verification", "verification.run_verification", None),
        (verif, "check_weyl_bound", "verification.check_weyl_bound", None),
        (cont, "sweep", "continuation.sweep", None),
        (cont, "bisect_event", "continuation.bisect_event", None),
        (cont, "detect_curvature_event", "continuation.detect_event", None),
        (cli, "export_profile_csv", "exports.export_profile_csv", _written),
        (cli, "export_json", "exports.export_json", _written),
        (cli, "load_profile_csv", "exports.load_profile_csv", None),
    ]


# -- per-layer metrics -------------------------------------------------------

UNITS = {
    "series.origin.calls": "count",
    "series.origin.complex_calls": "count",
    "series.origin.s": "s",
    "series.infinity.calls": "count",
    "series.infinity.s": "s",
    "series.share": "ratio",
    "solver.newton_solve.calls": "count",
    "solver.newton.iterations": "count",
    "solver.assemble.jac_calls": "count",
    "solver.assemble.res_calls": "count",
    "solver.assemble.self_s": "s",
    "solver.splu.calls": "count",
    "solver.splu.s": "s",
    "solver.linesearch.accept_ratio": "ratio",
    "solver.refine_mesh.calls": "count",
    "solver.refine.flagged_ratio": "ratio",
    "solver.nodes.max": "count",
    "solver.jacobian.bytes_max": "bytes",
    "geometry.curvature_samples.calls": "count",
    "geometry.curvature_samples.s": "s",
    "geometry.curvature_samples.per_profile": "ratio",
    "geometry.riemann_from_structure.calls": "count",
    "verification.run_verification.calls": "count",
    "verification.run_verification.s": "s",
    "verification.run_verification.self_s": "s",
    "verification.check_weyl_bound.s": "s",
    "continuation.sweep.s": "s",
    "continuation.bisect_event.s": "s",
    "continuation.steps.attempted": "count",
    "continuation.steps.rejected": "count",
    "continuation.detect_event.calls": "count",
    "exports.export_profile_csv.s": "s",
    "exports.export_json.s": "s",
    "exports.load_profile_csv.s": "s",
    "exports.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    # a layer the workload never reaches reports 0, not a division by zero
    return num / den if den else 0.0


class SpanIndex:
    """Spans grouped by name, with each span's direct-children time."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.child_s = [0.0] * len(spans)
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(s)
            if s.parent >= 0:
                self.child_s[s.parent] += s.seconds
                self.children[s.parent].append(s)

    def calls(self, name):
        return len(self.by_name[name])

    def seconds(self, name):
        return sum(s.seconds for s in self.by_name[name])

    def self_seconds(self, name):
        return sum(s.seconds - self.child_s[i] for i, s in enumerate(self.spans) if s.name == name)

    def parent_name(self, s):
        return self.spans[s.parent].name if s.parent >= 0 else None


def layer_metrics(spans, traced_wall, untraced_wall):
    ix = SpanIndex(spans)
    series_s = ix.seconds("series.origin") + ix.seconds("series.infinity")

    # line search: every residual-only assembly inside a Newton call after its first
    # is a trial point; accepted steps are the recorded damping factors
    trials = accepted = 0
    for i, s in enumerate(spans):
        if s.name == "solver.newton_solve":
            res = sum(1 for c in ix.children[i] if c.name == "solver.assemble" and not c.attrs.get("jac"))
            trials += max(res - 1, 0)
            accepted += s.attrs.get("accepted", 0)

    refines = ix.by_name["solver.refine_mesh"]
    new_nodes = sum(s.attrs["new"] - s.attrs["old"] for s in refines)
    old_intervals = sum(s.attrs["old"] - 1 for s in refines)
    curv = ix.by_name["geometry.curvature_samples"]
    steps = [s for s in ix.by_name["solver.newton_solve"] if ix.parent_name(s) == "continuation.sweep"]
    assembles = ix.by_name["solver.assemble"]
    written = ix.by_name["exports.export_profile_csv"] + ix.by_name["exports.export_json"]

    values = {
        "series.origin.calls": ix.calls("series.origin"),
        "series.origin.complex_calls": sum(1 for s in ix.by_name["series.origin"] if s.attrs.get("complex")),
        "series.origin.s": ix.seconds("series.origin"),
        "series.infinity.calls": ix.calls("series.infinity"),
        "series.infinity.s": ix.seconds("series.infinity"),
        "series.share": _ratio(series_s, traced_wall),
        "solver.newton_solve.calls": ix.calls("solver.newton_solve"),
        "solver.newton.iterations": sum(s.attrs.get("iterations", 0) for s in ix.by_name["solver.newton_solve"]),
        "solver.assemble.jac_calls": sum(1 for s in assembles if s.attrs.get("jac")),
        "solver.assemble.res_calls": sum(1 for s in assembles if not s.attrs.get("jac")),
        "solver.assemble.self_s": ix.self_seconds("solver.assemble"),
        "solver.splu.calls": ix.calls("solver.splu"),
        "solver.splu.s": ix.seconds("solver.splu"),
        "solver.linesearch.accept_ratio": _ratio(accepted, trials),
        "solver.refine_mesh.calls": len(refines),
        "solver.refine.flagged_ratio": _ratio(new_nodes, old_intervals),
        "solver.nodes.max": max((s.attrs.get("nodes", 0) for s in ix.by_name["solver.newton_solve"]), default=0),
        "solver.jacobian.bytes_max": max((s.attrs.get("jac_bytes", 0) for s in assembles), default=0),
        "geometry.curvature_samples.calls": len(curv),
        "geometry.curvature_samples.s": ix.seconds("geometry.curvature_samples"),
        "geometry.curvature_samples.per_profile": _ratio(len(curv), len({s.attrs["profile"] for s in curv})),
        "geometry.riemann_from_structure.calls": ix.calls("geometry.riemann_from_structure"),
        "verification.run_verification.calls": ix.calls("verification.run_verification"),
        "verification.run_verification.s": ix.seconds("verification.run_verification"),
        "verification.run_verification.self_s": ix.self_seconds("verification.run_verification"),
        "verification.check_weyl_bound.s": ix.seconds("verification.check_weyl_bound"),
        "continuation.sweep.s": ix.seconds("continuation.sweep"),
        "continuation.bisect_event.s": ix.seconds("continuation.bisect_event"),
        "continuation.steps.attempted": len(steps),
        "continuation.steps.rejected": sum(1 for s in steps if not s.attrs.get("converged")),
        "continuation.detect_event.calls": ix.calls("continuation.detect_event"),
        "exports.export_profile_csv.s": ix.seconds("exports.export_profile_csv"),
        "exports.export_json.s": ix.seconds("exports.export_json"),
        "exports.load_profile_csv.s": ix.seconds("exports.load_profile_csv"),
        "exports.bytes_written": sum(s.attrs.get("bytes", 0) for s in written),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
