"""Collocation assembly and Newton driver tests (small grids; the acceptance
module runs the production-size cases)."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ccebvp.solver import (
    Mesh,
    SolveOptions,
    SolutionProfile,
    assemble_collocation,
    make_mesh,
    newton_solve,
    refine_mesh,
    secant_guess,
    seed_profile,
    solve_bvp,
    splu,
)
from ccebvp.solver import _pack, _unpack
from ccebvp.systems import GBERGER, SU, BoundaryData, DomainError, UsageError


def _jacobian_pattern(m, N):
    """(row, col) of each value assemble_collocation returns, in its order.

    Unknowns: node j holds y at 2m*j + k and y' at 2m*j + m + k, then the
    2m-1 endpoint parameters (log K(0) and the m-1 nonlocal coefficients,
    then the m-1 free coefficients at x=1).  Before the shed row m, interval
    j's dense 2m x 4m collocation block has rows 2m + 2m*j + (g*m + i) and
    columns 2m*j + (s*m + k), its two node slots.
    """
    r = np.arange(2 * m)[:, None]
    tail = 2 * m * N + np.arange(2 * m - 1)

    def matching(row0, node, inputs):
        cols = np.hstack([2 * m * node + r, np.broadcast_to(inputs, (2 * m, inputs.size))])
        return np.broadcast_to(row0 + r, cols.shape), cols

    rL, cL = (np.delete(a, m, axis=0) for a in matching(0, 0, tail[:m]))
    j, g, i, s, k = np.indices((N - 1, 2, m, 4, m))
    rR, cR = matching(2 * m * N, N - 1, tail[m:])
    rows = np.concatenate([rL.ravel(), (2 * m + 2 * m * j + m * g + i).ravel(), rR.ravel()])
    cols = np.concatenate([cL.ravel(), (2 * m * j + m * s + k).ravel(), cR.ravel()])
    return rows - (rows > m), cols


def dense_jacobian(J, m, N):
    A = np.zeros((2 * m * N + 2 * m - 1,) * 2)
    A[_jacobian_pattern(m, N)] = J
    return A


def small_opts(**kw):
    base = dict(grid=48, tol=1e-9, refine_rounds=0, coarse_stage=0)
    base.update(kw)
    return SolveOptions(**base)


class TestOptions:
    @pytest.mark.parametrize("kw", [{"grid": 3}, {"tol": 0.0}, {"tol": -1.0}, {"seed_mode": "zeros"}])
    def test_checks(self, kw):
        with pytest.raises(UsageError, match=next(iter(kw))):
            SolveOptions(**kw)


class TestMesh:
    def test_validation(self):
        with pytest.raises(UsageError):
            Mesh(np.array([0.2, 0.15, 0.5, 0.9]))
        with pytest.raises(DomainError):
            Mesh(np.array([0.0, 0.3, 0.6, 0.9]))
        with pytest.raises(DomainError):
            Mesh(np.array([0.3, 0.5, 0.7, 0.9]))  # left end outside trust radius

    def test_make_mesh_grading(self):
        c = make_mesh(64)
        h = np.diff(c.nodes)
        # clustered toward x=1: right spacing finer than mid spacing
        assert h[-1] < h[len(h) // 2]
        assert c.nodes[0] == pytest.approx(0.1) and c.nodes[-1] == pytest.approx(0.85)


class TestAssemble:
    def test_round_zero_guess_residual_zero(self):
        bd = BoundaryData(SU, 5, (1.0,))
        opts = small_opts()
        mesh = make_mesh(opts.grid)
        F, J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, opts))
        J = dense_jacobian(J, bd.kind.unknowns, mesh.n_nodes)
        assert np.all(F == 0.0)
        assert J.shape == (F.size, F.size)

    @pytest.mark.parametrize("kind,n,phi0", [(SU, 5, (0.85,)), (GBERGER, 3, (0.93, 1.04))])
    def test_square_system(self, kind, n, phi0):
        bd = BoundaryData(kind, n, phi0)
        opts = small_opts(grid=12)
        mesh = make_mesh(12)
        F, J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, opts))
        m = kind.unknowns
        J = dense_jacobian(J, m, 12)
        assert F.size == 2 * m * 12 + 2 * m - 1
        assert J.shape == (F.size, F.size)

    def test_jacobian_matches_finite_differences(self):
        bd = BoundaryData(SU, 5, (0.8,))
        opts = small_opts(grid=10)
        mesh = make_mesh(10)
        rng = np.random.RandomState(1)
        u = _pack(seed_profile(bd, mesh, opts))
        u += rng.uniform(-0.03, 0.03, u.size)
        p = _unpack(bd, mesh, u, opts)
        F, J = assemble_collocation(bd, mesh, p)
        J = dense_jacobian(J, bd.kind.unknowns, 10)
        h = 1e-7
        worst = 0.0
        for k in range(u.size):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            Fp = assemble_collocation(bd, mesh, _unpack(bd, mesh, up, opts))[0]
            Fm = assemble_collocation(bd, mesh, _unpack(bd, mesh, um, opts))[0]
            col = (Fp - Fm) / (2 * h)
            worst = max(worst, np.abs(col - J[:, k]).max())
        assert worst / max(1.0, np.abs(J).max()) <= 1e-6

    def test_jacobian_storage_linear_in_nodes(self):
        # the values on the block pattern, not a dense (2mN)^2 matrix
        bd = BoundaryData(GBERGER, 3, (0.95, 1.02))
        opts = small_opts()

        def jac_bytes(num):
            mesh = make_mesh(num)
            return assemble_collocation(bd, mesh, seed_profile(bd, mesh, opts))[1].nbytes

        assert jac_bytes(128) <= 2.2 * jac_bytes(64)

    @pytest.mark.parametrize("m,N", [(1, 4), (2, 7), (3, 12)])
    def test_pattern_has_no_duplicates(self, m, N):
        rows, cols = _jacobian_pattern(m, N)
        nU = 2 * m * N + 2 * m - 1
        assert rows.min() >= 0 and cols.min() >= 0 and rows.max() < nU and cols.max() < nU
        assert np.unique(rows * nU + cols).size == rows.size

    @pytest.mark.parametrize("m,N", [(2, 7), (3, 12)])
    def test_collocation_entries_in_their_interval(self, m, N):
        rows, cols = _jacobian_pattern(m, N)
        nend = (2 * m - 1) * (m + 1)  # origin entries come first
        rc, cc = rows[nend : nend + 8 * m * m * (N - 1)], cols[nend : nend + 8 * m * m * (N - 1)]
        j = (rc - (2 * m - 1)) // (2 * m)
        assert np.array_equal(np.unique(j), np.arange(N - 1))
        assert np.all((cc >= 2 * m * j) & (cc < 2 * m * (j + 2)))

    def test_dimension_mismatch(self):
        bd = BoundaryData(SU, 5, (0.8,))
        opts = small_opts()
        mesh = make_mesh(16)
        other = make_mesh(20)
        with pytest.raises(UsageError):
            assemble_collocation(bd, mesh, seed_profile(bd, other, opts))


def perturbed_jacobian(bd, N):
    # a seed guess with uniform noise, as in test_jacobian_matches_finite_differences
    opts = small_opts(grid=N)
    mesh = make_mesh(N)
    u = _pack(seed_profile(bd, mesh, opts))
    u += np.random.RandomState(1).uniform(-0.03, 0.03, u.size)
    return assemble_collocation(bd, mesh, _unpack(bd, mesh, u, opts))


FAMILIES = [
    BoundaryData(SU, 3, (0.7,)),
    BoundaryData(SU, 5, (0.8,)),
    BoundaryData(GBERGER, 3, (0.93, 1.04)),
]


class TestCyclicReduction:
    @pytest.mark.parametrize("N", [4, 5, 12, 97])  # odd and even block counts
    @pytest.mark.parametrize("bd", FAMILIES, ids=lambda bd: f"{bd.kind.family}{bd.n}")
    def test_matches_dense_solve(self, bd, N):
        m = bd.kind.unknowns
        F, J = perturbed_jacobian(bd, N)
        x = splu(J, m, N).solve(F)
        A = dense_jacobian(J, m, N)
        ref = np.linalg.solve(A, F)
        norm = np.linalg.norm
        assert norm(A @ x - F, np.inf) <= 1e-12 * (norm(A, np.inf) * norm(x, np.inf) + norm(F, np.inf))
        assert norm(x - ref, np.inf) <= 1e-8 * norm(ref, np.inf)

    @pytest.mark.parametrize("block", [0, 5, 10])
    def test_zeroed_block_is_singular(self, block):
        bd = BoundaryData(SU, 5, (0.8,))
        m, N = bd.kind.unknowns, 12
        F, J = perturbed_jacobian(bd, N)
        size, start = 8 * m * m, (2 * m - 1) * (m + 1)
        J[start + block * size : start + (block + 1) * size] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            splu(J, m, N).solve(F)

    def test_repeat_solves_bit_identical(self):
        bd = BoundaryData(GBERGER, 3, (0.93, 1.04))
        F, J = perturbed_jacobian(bd, 97)
        lu = splu(J, bd.kind.unknowns, 97)
        rhs = F.copy()
        x1 = lu.solve(F)
        assert np.array_equal(lu.solve(F), x1) and np.array_equal(F, rhs)

    def test_factor_storage_linear_in_nodes(self):
        bd = BoundaryData(GBERGER, 3, (0.95, 1.02))
        opts = small_opts()

        def factor_bytes(num):
            mesh = make_mesh(num)
            J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, opts))[1]
            lu = splu(J, bd.kind.unknowns, num)
            return lu.ends.nbytes + sum(a.nbytes for level in lu.levels for a in level)

        assert factor_bytes(128) <= 2.2 * factor_bytes(64)


def test_package_imports_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; import ccebvp, ccebvp.cli; print([k for k in sys.modules if k.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_src_has_no_unused_imports():
    # the package's lint rule, without a linter: every name a module imports is read in it
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "ccebvp").glob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


class TestNewton:
    def test_round_immediate(self):
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        prof, rep = solve_bvp(bd, small_opts(grid=64))
        assert rep.converged and rep.iterations <= 1
        assert rep.residual_norm <= 1e-12
        assert np.all(prof.y == 0.0) and np.all(prof.yp == 0.0)
        assert max(abs(c) for c in prof.free.coeffs) <= 1e-10
        assert prof.k0 == pytest.approx(1.0, abs=1e-12)

    def test_su_solve_and_report(self):
        bd = BoundaryData(SU, 5, (0.8,))
        prof, rep = solve_bvp(bd, small_opts(grid=96, tol=1e-7))
        assert rep.converged
        assert rep.constraint_drift <= 10 * 1e-7
        assert prof.k0 < 1.0
        # accepted-step residual history is recorded, monotone, ends below tol
        assert rep.residual_history[-1] <= 1e-7
        h = rep.residual_history
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert all(0 < lam <= 1 for lam in rep.damping_history)

    def test_far_outside_window_no_silent_success(self):
        bd = BoundaryData(SU, 5, (1e-6,))
        prof, rep = solve_bvp(bd, small_opts(grid=48, tol=1e-9))
        if rep.converged:
            # must be flagged downstream: K(0) cannot sit in the admissible window
            from ccebvp.geometry import k0_lower_bound

            assert not (k0_lower_bound(bd) < prof.k0 < 1.0)
        else:
            assert rep.failure_reason != ""

    def test_failed_start_is_not_retried(self, monkeypatch):
        # a cold-start failure is reported as it is: one Newton run, no
        # re-solve from other data
        import ccebvp.solver as solver

        real, runs = solver.newton_solve, []

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counted)
        prof, rep = solve_bvp(BoundaryData(SU, 5, (0.1,)), small_opts(grid=48))
        assert len(runs) == 1
        assert not rep.converged and rep.failure_reason != ""

    def test_wild_trial_leaks_no_warning(self):
        # the monotonicity test of a wild trial overflows; that is a rejection
        # inside the line search, not a RuntimeWarning for the caller
        bd = BoundaryData(SU, 5, (0.1,))
        quiet = solve_bvp(bd, small_opts(grid=48))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = solve_bvp(bd, small_opts(grid=48))[1]
        assert strict.summary() == quiet.summary()
        assert strict.failure_reason != ""

    def test_two_seeds_agree(self):
        bd = BoundaryData(SU, 5, (0.85,))
        p1, r1 = solve_bvp(bd, small_opts(grid=96, tol=1e-7, seed_mode="blend"))
        p2, r2 = solve_bvp(bd, small_opts(grid=96, tol=1e-7, seed_mode="zero"))
        assert r1.converged and r2.converged
        assert np.abs(p1.y - p2.y).max() <= 1e-8

    def test_determinism(self):
        bd = BoundaryData(SU, 5, (0.8,))
        p1, r1 = solve_bvp(bd, small_opts(grid=64))
        p2, r2 = solve_bvp(bd, small_opts(grid=64))
        assert np.array_equal(p1.y, p2.y) and np.array_equal(p1.yp, p2.yp)
        assert r1.summary() == r2.summary()

    def test_counters(self):
        bd = BoundaryData(SU, 5, (0.8,))
        r1 = solve_bvp(bd, small_opts(grid=64))[1]
        r2 = solve_bvp(bd, small_opts(grid=64))[1]
        assert r1.counters == r2.counters == r1.summary()["counters"]
        c = r1.counters
        assert c["lu_factorisations"] >= r1.iterations > 0
        # one Newton run: the start point, then one assembly per factorised
        # step (an accepted trial's assembly is the next step's)
        assert c["assemblies"] == c["lu_factorisations"] + 1

    def test_counters_over_refinement_rounds(self):
        bd = BoundaryData(SU, 5, (0.8,))
        rep = solve_bvp(bd, small_opts(grid=64, refine_rounds=2))[1]
        assert rep.refinements == 2
        newton_runs = 1 + rep.refinements
        assert rep.counters["assemblies"] == rep.counters["lu_factorisations"] + newton_runs

    def test_round_data_needs_no_factorisation(self):
        rep = solve_bvp(BoundaryData(SU, 5, (1.0,)), small_opts(grid=64))[1]
        assert rep.converged
        assert rep.counters == {"assemblies": 1, "lu_factorisations": 0}

    def test_series_breakdown_at_trial_is_a_rejection(self, monkeypatch):
        import ccebvp.solver as solver
        from ccebvp.systems import SeriesRecursionError

        real, calls = solver.assemble_collocation, []

        def breaks_at_first_trial(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SeriesRecursionError("injected at the first trial point")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "assemble_collocation", breaks_at_first_trial)
        bd = BoundaryData(SU, 5, (0.8,))
        opts = small_opts(grid=96, tol=1e-7)
        mesh = make_mesh(opts.grid)
        prof, rep = newton_solve(bd, mesh, seed_profile(bd, mesh, opts), opts)
        assert rep.damping_history[0] == 0.5
        assert rep.converged and rep.failure_reason == ""
        rejected = sum(int(-np.log2(lam)) for lam in rep.damping_history)
        assert rejected == 1
        # the rejected trial is the one assembly call beyond one per point
        assert len(calls) == rep.counters["lu_factorisations"] + 1 + rejected
        assert rep.counters["assemblies"] == len(calls) - 1  # the injected call did no work

    def test_interpolate_roundtrip(self):
        bd = BoundaryData(SU, 5, (0.8,))
        prof, rep = solve_bvp(bd, small_opts(grid=64, tol=1e-9))
        y, yp = prof.interpolate(prof.mesh.nodes)
        assert np.abs(y - prof.y).max() < 1e-13
        assert np.abs(yp - prof.yp).max() < 1e-13

    def test_secant_guess_is_linear_in_every_unknown(self):
        opts = small_opts(grid=48, tol=1e-8)
        p, _ = solve_bvp(BoundaryData(SU, 5, (0.8,)), opts)
        q, _ = solve_bvp(BoundaryData(SU, 5, (0.9,)), opts)
        bd = BoundaryData(SU, 5, (1.0,))
        g = secant_guess(bd, p, q, 2.0, opts)
        assert g.bd is bd and g.mesh is p.mesh and not g.converged
        assert np.array_equal(_pack(g), _pack(p) + 2.0 * (_pack(q) - _pack(p)))
        assert np.array_equal(_pack(secant_guess(bd, p, q, 0.0, opts)), _pack(p))


class TestRefine:
    def test_resolved_profile_unchanged(self):
        bd = BoundaryData(SU, 5, (1.0,))
        prof, rep = solve_bvp(bd, small_opts(grid=48))
        assert refine_mesh(prof, 1e-8).n_nodes == prof.mesh.n_nodes

    def test_rough_region_gets_nodes(self):
        # manufactured curvature in y2 near x=1: inserts nodes in the last decile
        bd = BoundaryData(SU, 5, (0.8,))
        opts = small_opts(grid=48)
        mesh = make_mesh(48)
        prof = seed_profile(bd, mesh, opts)
        xs = mesh.nodes
        bump = np.exp(-(((xs - 0.82) / 0.01) ** 2))
        prof.y[1] += 0.3 * bump
        prof.yp[1] += 0.3 * np.gradient(bump, xs)
        newmesh = refine_mesh(prof, 1e-4)
        lo, hi = xs[-1] - 0.1 * (xs[-1] - xs[0]), xs[-1]
        added = newmesh.n_nodes - mesh.n_nodes
        added_last = np.sum((newmesh.nodes > lo) & (newmesh.nodes <= hi)) - np.sum(
            (xs > lo) & (xs <= hi)
        )
        assert added > 0 and added_last > 0

    def test_refinement_reduces_drift(self):
        bd = BoundaryData(SU, 5, (0.8,))
        p0, r0 = solve_bvp(bd, small_opts(grid=64, tol=1e-9, refine_rounds=0))
        p1, r1 = solve_bvp(bd, small_opts(grid=64, tol=1e-9, refine_rounds=2))
        assert r1.refinements >= 1
        assert r1.constraint_drift < r0.constraint_drift


class TestConstraintPropagation:
    def test_su_propagation_ode(self):
        # numerically differentiate Phi along a converged profile and compare
        # with -(y1' - 2 x^-1 (n-1+(n+1)x^2)(1-x^2)^-1) Phi
        import ccebvp.systems as S

        bd = BoundaryData(SU, 5, (0.8,))
        prof, rep = solve_bvp(bd, small_opts(grid=192, tol=3e-9))
        assert rep.converged
        xs = prof.mesh.nodes
        phi = prof.constraint_values()
        n = bd.n
        mult = prof.yp[0] - 2.0 / xs * (n - 1 + (n + 1) * xs**2) / (1 - xs**2)
        dphi = np.gradient(phi, xs)
        resid = dphi + mult * phi
        # the identity holds within discretization error; the gradient
        # stencil is least accurate at the graded-mesh edges, so compare on
        # the central window
        N = len(xs)
        window = resid[N // 4 : 3 * N // 4]
        assert np.abs(window).max() <= 100 * rep.constraint_drift

    def test_series_path_carries_zero_constraint(self):
        # a state path solving the evolution equations with Phi = 0 near one
        # point keeps Phi at truncation level along the path
        from ccebvp.series import NonlocalParams, evaluate_series, fg_series_origin
        import ccebvp.systems as S

        bd = BoundaryData(SU, 5, (0.8,))
        sc = fg_series_origin(bd, NonlocalParams((0.3,)), order=24, k0=0.95)
        fam = S.family(SU, 5)
        for x in (0.05, 0.1, 0.14):
            y, yp, ypp = evaluate_series(sc, x)
            assert abs(S.constraint_residual(fam, x, y, yp, ypp)) < 5e-7


class TestScalingAndExtras:
    def test_drift_scales_at_least_quadratically(self):
        # constraint propagation: nodal sup|Phi| decays with mesh width at
        # the discretization order (>= 2)
        bd = BoundaryData(SU, 5, (0.8,))
        drifts = []
        for grid in (64, 128):
            prof, rep = solve_bvp(bd, small_opts(grid=grid, tol=1e-12))
            assert rep.residual_norm <= 1e-12
            drifts.append(rep.constraint_drift)
        assert drifts[0] / drifts[1] >= 4.0

    def test_refinement_reduces_interior_defect_quadratically(self):
        import ccebvp.systems as S
        from ccebvp.solver import _collocation_state

        bd = BoundaryData(SU, 5, (0.8,))
        prof, rep = solve_bvp(bd, small_opts(grid=64, tol=1e-9))

        def mid_defect(p):
            fam = S.family(bd.kind, bd.n)
            x, Y, Yp, Ypp, _ = _collocation_state(p.y, p.yp, p.mesh.nodes, 0.5)
            r = S.evo_residuals(fam, x, Y, Yp, Ypp) * (x * (1 - x * x))[:, None]
            return np.abs(r).max()

        d0 = mid_defect(prof)
        fine = refine_mesh(prof, target=0.0)  # split every interval
        assert fine.n_nodes == 2 * prof.mesh.n_nodes - 1
        prof2, rep2 = newton_solve(bd, fine, seed_profile(bd, fine, small_opts()), small_opts())
        assert rep2.residual_norm <= 1e-9
        assert mid_defect(prof2) <= d0 / 3.5

    def test_gb_near_round_case(self):
        bd = BoundaryData(GBERGER, 3, (0.98, 1.01))
        prof, rep = solve_bvp(bd, small_opts(grid=96, tol=1e-9))
        assert rep.converged
        from ccebvp.verification import run_verification

        assert run_verification(prof).overall_pass
