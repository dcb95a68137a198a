"""Acceptance criteria, one test per criterion, at the stated tolerances.

Solves are shared through session fixtures.  Each test prints a single
PASS/FAIL line (visible with -s or on failure).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ccebvp import geometry as geom
from ccebvp import verification as verif
from ccebvp.continuation import SweepPlan, bisect_event, sweep
from ccebvp.series import fg_series_origin
from ccebvp.solver import SolutionProfile, SolveOptions, guess_from, make_mesh, newton_solve, solve_bvp
from ccebvp.structure import slice_structure
from ccebvp.systems import GBERGER, SU, BoundaryData

from oracles import radial_trace, ricci_su, upsilon

TOL = 1e-10
GRID = 768

SU_CASES = (0.6, 0.8, 1.25, 1.6)
GB_CASE = (0.95, 1.02)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def acc_options(grid=GRID, **kw):
    base = dict(grid=grid, tol=TOL, refine_rounds=0)
    base.update(kw)
    return SolveOptions(**base)


@pytest.fixture(scope="session")
def criterion_profiles():
    profs = {}
    for phi in SU_CASES:
        prof, rep = solve_bvp(BoundaryData(SU, 5, (phi,)), acc_options())
        profs[("su", phi)] = (prof, rep)
    prof, rep = solve_bvp(BoundaryData(GBERGER, 3, GB_CASE), acc_options())
    profs[("gberger", GB_CASE)] = (prof, rep)
    return profs


@pytest.fixture(scope="session")
def grid_family():
    """The criterion-2 cases re-solved on 64/128/256-node grids."""
    out = {}
    for key, bd in [(phi, BoundaryData(SU, 5, (phi,))) for phi in SU_CASES] + [
        ("gb", BoundaryData(GBERGER, 3, GB_CASE))
    ]:
        for grid in (64, 128, 256):
            prof, rep = solve_bvp(bd, acc_options(grid=grid, tol=1e-9))
            out[(key, grid)] = (prof, rep)
    return out


@pytest.fixture(scope="session")
def round_profiles():
    out = {}
    for kind, n in ((GBERGER, 3), (SU, 3), (SU, 5), (SU, 7)):
        bd = BoundaryData(kind, n, tuple([1.0] * kind.free_count))
        t0 = time.perf_counter()
        prof, rep = solve_bvp(bd, acc_options(grid=128))
        out[(kind.family, n)] = (prof, rep, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def sweep_trace():
    plan = SweepPlan(SU, 3, lam_end=0.3, step=0.05, event_tol=1e-6)
    t0 = time.perf_counter()
    trace = sweep(plan)
    return trace, time.perf_counter() - t0


def test_criterion_01_hyperbolic_fixture(round_profiles):
    worst_res, worst_curv, worst_free, slow = 0.0, 0.0, 0.0, 0.0
    for (fam, n), (prof, rep, dt) in round_profiles.items():
        assert rep.converged
        worst_res = max(worst_res, rep.residual_norm)
        samples = geom.curvature_samples(prof)
        worst_curv = max(worst_curv, np.abs(samples.values + 1.0).max())
        worst_free = max(worst_free, max(abs(c) for c in prof.free.coeffs))
        slow = max(slow, dt)
    ok = worst_res <= 1e-12 and worst_curv <= 1e-8 and worst_free <= 1e-10 and slow < 1.0
    report(
        1,
        "hyperbolic-fixture",
        ok,
        f"residual {worst_res:.1e}, curvature dev {worst_curv:.1e}, free {worst_free:.1e}, {slow:.2f}s",
    )


def test_criterion_02_first_integral(criterion_profiles):
    worst = 0.0
    for (prof, rep) in criterion_profiles.values():
        assert rep.converged and rep.residual_norm <= TOL
        worst = max(worst, float(np.abs(prof.constraint_values()).max()))
    # the discrete system imposes the constraint at no node at all
    report(2, "first-integral-drift", worst <= 1e-9, f"sup|Phi| {worst:.2e}")


def test_criterion_03_origin_identity(criterion_profiles, grid_family):
    worst = 0.0
    profs = [criterion_profiles[("gberger", GB_CASE)][0]]
    profs += [grid_family[("gb", g)][0] for g in (64, 128, 256)]
    for prof in profs:
        target = 4.0 * (3.0 - upsilon(prof.k0, *prof.bd.phi0))
        sc = fg_series_origin(prof.bd, prof.free, prof.bd.n + 2, log_k0=prof.k0var)
        got = 2.0 * float(sc.table[0, 2])
        worst = max(worst, abs(got - target) / max(1.0, abs(target)))
    report(3, "origin-identity", worst <= 1e-6, f"rel err {worst:.2e}")


def test_criterion_04_monotonicity(criterion_profiles):
    ok = True
    for (prof, rep) in criterion_profiles.values():
        recs = verif.check_monotonicity(prof)
        ok = ok and all(r.passed for r in recs if r.applicable)
        ok = ok and any(r.applicable for r in recs)
    report(4, "monotonicity-suite", ok)


def test_criterion_05_structure_crosscheck():
    sc = slice_structure(5)
    rng = np.random.RandomState(2024)
    worst = 0.0
    for _ in range(100):
        I1, I2 = rng.uniform(0.5, 2.0, 2)
        out = geom.riemann_from_structure(sc, np.array([I1, I2, I2, I2, I2]))
        target = np.diag(ricci_su(I1, I2, 5))
        worst = max(worst, float(np.abs(out.ricci - target).max()))
        worst = max(worst, float(np.abs(out.ricci_riemann - target).max()))
    round_out = geom.riemann_from_structure(sc, np.ones(5))
    round_err = float(np.abs(round_out.ricci - 4.0 * np.eye(5)).max())
    ok = worst <= 1e-10 and round_err <= 1e-12
    report(5, "structure-crosscheck", ok, f"max dev {worst:.2e}, round {round_err:.1e}")


def test_criterion_06_radial_trace(criterion_profiles, round_profiles, sweep_trace):
    worst = 0.0
    profiles = [p for p, _ in criterion_profiles.values()]
    profiles += [p for p, _, _ in round_profiles.values()]
    profiles += [r.profile for r in sweep_trace[0].records]
    for prof in profiles:
        trace = radial_trace(geom.curvature_samples(prof))
        worst = max(worst, float(np.abs(trace + prof.bd.n).max()))
    report(6, "radial-einstein-trace", worst <= 1e-8, f"max |trace+n| {worst:.2e}")


def zero_start_solve(bd, opts):
    """solve_bvp's coarse-then-fine path (no refinement) started from the
    zero profile instead of the seed profile."""

    def zero(mesh, o):
        y = np.zeros((bd.kind.unknowns, mesh.n_nodes))
        return SolutionProfile(bd, mesh, y, np.zeros_like(y), tol=o.tol)

    copts = replace(opts, tol=max(opts.tol, 1e-9), grid=opts.coarse_stage)
    cmesh, mesh = make_mesh(copts.grid), make_mesh(opts.grid)
    cprof, crep = newton_solve(bd, cmesh, zero(cmesh, copts), copts)
    start = guess_from(bd, [cprof], [1.0], opts, mesh) if crep.residual_norm <= 1e3 * copts.tol else zero(mesh, opts)
    return newton_solve(bd, mesh, start, opts)


def test_criterion_07_uniqueness(criterion_profiles):
    p1 = criterion_profiles[("su", 0.8)][0]
    p2, rep2 = zero_start_solve(BoundaryData(SU, 5, (0.8,)), acc_options())
    assert rep2.converged
    diff = float(np.abs(p1.y - p2.y).max())
    ledger = verif.uniqueness_diagnostic(p1, p2)
    vmax = float(ledger.variations.max())
    ok = diff <= 1e-8 and vmax <= 1e-7
    report(7, "uniqueness-two-seeds", ok, f"sup diff {diff:.2e}, max V {vmax:.2e}")


def test_criterion_08_grid_convergence(grid_family):
    worst_diff, worst_order = 0.0, np.inf
    for key in list(SU_CASES) + ["gb"]:
        p64, p128, p256 = (grid_family[(key, g)][0] for g in (64, 128, 256))
        d1 = float(np.abs(p128.interpolate(p64.mesh.nodes)[0] - p64.y).max())
        d2 = float(np.abs(p256.interpolate(p128.mesh.nodes)[0] - p128.y).max())
        worst_diff = max(worst_diff, d2)
        worst_order = min(worst_order, np.log2(d1 / d2))
    ok = worst_diff <= 1e-7 and worst_order >= 2.0
    report(8, "grid-convergence", ok, f"|y128-y256| {worst_diff:.2e}, order {worst_order:.2f}")


def test_criterion_09_k0_window(criterion_profiles, round_profiles):
    ok = True
    for (prof, _) in criterion_profiles.values():
        lb = geom.k0_lower_bound(prof.bd)
        ok = ok and lb is not None and lb < prof.k0 < 1.0
    for (prof, _, _) in round_profiles.values():
        # round data sit on the window's boundary K(0) = 1: passed, no threshold
        chk = verif.check_k0_window(prof)
        ok = ok and chk.passed and chk.threshold is None
    report(9, "k0-window", ok)


def test_criterion_10_continuation_trichotomy(sweep_trace):
    trace, dt = sweep_trace
    ok = trace.stop_reason in ("path-end", "event", "min-step") and dt < 60.0
    detail = f"stop {trace.stop_reason}, {len(trace.records)} records, {dt:.1f}s"
    if trace.stop_reason == "event":
        # bracket stability under mesh doubling (recorded, not asserted to a target)
        plan2 = SweepPlan(SU, 3, lam_end=0.3, step=0.05, event_tol=1e-6)
        plan2.options.grid *= 2
        trace2 = sweep(plan2)
        ok = ok and trace2.event is not None
        if trace2.event is not None:
            shift = abs(trace2.event.lam_event - trace.event.lam_event)
            ok = ok and shift <= 1e-4
            detail += f", bracket {trace.event.bracket}, doubling shift {shift:.2e}"
    lams = [r.lam for r in trace.records]
    ok = ok and all(b < a for a, b in zip(lams, lams[1:]))
    ok = ok and all(r.converged and r.verification_pass for r in trace.records)
    report(10, "continuation-trichotomy", ok, detail)


def test_criterion_11_weyl_bound(criterion_profiles, grid_family, sweep_trace):
    worst = 0.0
    n3_profiles = [criterion_profiles[("gberger", GB_CASE)][0]]
    n3_profiles += [grid_family[("gb", g)][0] for g in (64, 128, 256)]
    n3_profiles += [r.profile for r in sweep_trace[0].records]
    checked = 0
    for prof in n3_profiles:
        samples = geom.curvature_samples(prof)
        if samples.values.max() > 1e-8:
            continue  # bound applies to nonpositively curved profiles only
        mp = geom.reconstruct_metric(prof)
        for perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1)):
            worst = max(worst, float(geom.weyl_mixed_n3(mp, *perm).max()))
        checked += 1
    ok = checked > 0 and worst <= geom.WEYL_BOUND_N3 + 1e-8
    report(11, "weyl-bound", ok, f"max component {worst:.4f} vs {geom.WEYL_BOUND_N3:.4f}")
