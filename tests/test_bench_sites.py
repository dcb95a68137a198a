"""The benchmark's tracer wraps ccebvp functions by module attribute and
reads what they return; every attribute it names must exist and every hook
must accept what the package returns, so a rename or a return-type change
fails here rather than in the benchmark."""

import ast
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ccebvp
import ccebvp.cli  # noqa: F401  (traced too; the package does not import it itself)
from ccebvp.continuation import SweepPlan
from ccebvp.systems import SU, BoundaryData

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_sites_exist():
    tracing = load_tracing()
    sites = tracing.sites(ccebvp)
    assert sites
    for mod, attr, name, _ in sites:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} (traced as {name})"


def test_hooks_accept_what_the_package_returns():
    # a hook that raises propagates out of the traced call
    tracing = load_tracing()
    tr = tracing.Tracer()
    tr.install(tracing.sites(ccebvp))
    try:
        bd = BoundaryData(SU, 5, (0.8,))
        opts = ccebvp.solver.SolveOptions(grid=24, tol=1e-7, coarse_stage=0, refine_rounds=0)
        prof, _ = ccebvp.solver.solve_bvp(bd, opts)
        ccebvp.verification.run_verification(prof)
    finally:
        tr.uninstall()
    names = {s.name for s in tr.spans}
    assert {"solver.solve_bvp", "solver.assemble", "solver.splu", "verification.run_verification"} <= names
    # an assembly that builds a Jacobian returns its values with the
    # residual; a residual-only assembly (want_jac=False) returns none
    assembles = [s for s in tr.spans if s.name == "solver.assemble"]
    assert all((s.attrs.get("jac_bytes", 0) > 0) == s.attrs["jac"] for s in assembles)
    assert any(s.attrs["jac"] for s in assembles) and any(not s.attrs["jac"] for s in assembles)
    # and reaches both series constructors through the names the tracer wraps
    count = {name: sum(s.name == name for s in tr.spans) for name in ("solver.assemble", "series.origin", "series.infinity")}
    assert count["series.origin"] == count["series.infinity"] == count["solver.assemble"] > 0


def test_refine_hook_reads_the_halving():
    tracing = load_tracing()
    tr = tracing.Tracer()
    tr.install(tracing.sites(ccebvp))
    try:
        opts = ccebvp.solver.SolveOptions(grid=64, tol=1e-9, coarse_stage=0, refine_rounds=1)
        _, rep = ccebvp.solver.solve_bvp(BoundaryData(SU, 5, (0.8,)), opts)
    finally:
        tr.uninstall()
    assert rep.refinements == 1
    (span,) = [s for s in tr.spans if s.name == "solver.refine_mesh"]
    assert span.attrs["old"] == 64 and span.attrs["new"] == 2 * span.attrs["old"] - 1


def test_hooks_accept_what_a_sweep_returns():
    tracing = load_tracing()
    tr = tracing.Tracer()
    tr.install(tracing.sites(ccebvp))
    try:
        opts = ccebvp.solver.SolveOptions(grid=96, tol=1e-6, refine_rounds=0, coarse_stage=0)
        trace = ccebvp.continuation.sweep(SweepPlan(SU, 3, lam_end=0.9, step=0.05, options=opts))
    finally:
        tr.uninstall()
    assert trace.stop_reason == "path-end"
    names = {s.name for s in tr.spans}
    assert {"continuation.sweep", "continuation.detect_event", "geometry.curvature_samples"} <= names


def test_workload_options_exist():
    # every keyword the benchmark passes to SolveOptions or SweepPlan must be
    # a field, so deleting an option it sets fails here, not in a bench run
    classes = {"SolveOptions": ccebvp.solver.SolveOptions, "SweepPlan": SweepPlan}
    tree = ast.parse((BENCH / "workloads.py").read_text())
    seen = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in classes:
            fields = {f.name for f in dataclasses.fields(classes[name])}
            for kw in node.keywords:
                assert kw.arg in fields, f"bench/workloads.py passes {kw.arg}= to {name}"
            seen.add(name)
    assert seen == set(classes)


@pytest.mark.parametrize("name", ["acc768", "cli-default", "sweep-su3"])
def test_seed0_pass_matches_the_reference(name, tmp_path, monkeypatch):
    # one seed-0 pass of each benchmark workload, checked against its frozen
    # outputs: no output check fails, and the failed operations are exactly
    # the solves the reference records as unconverged (cli-default: su5-0.25
    # and su3-0.3, each ending "constraint drift")
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    monkeypatch.setattr(ccebvp.cli, "solve_bvp", ccebvp.cli.solve_bvp)  # CliDefault taps it
    wl = workloads.WORKLOADS[name]()
    ps = workloads.Pass(tmp_path / "pass", reference, None, {}, "pass")
    wl.run_pass(workloads.make_cases(wl.base, 0), ps)
    assert len(ps.ops) >= len(wl.base)
    assert [(op.name, op.problems) for op in ps.ops if op.problems] == []
    suffix = "/solve" if name == "cli-default" else ""
    unconverged = {key + suffix for key, ref in reference.items() if ref.get("converged") is False}
    assert {op.name for op in ps.ops if op.failed} == unconverged
