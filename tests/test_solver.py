"""Collocation assembly and Newton driver tests (small grids; the acceptance
module runs the production-size cases)."""

import ast
import ctypes
import gc
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ccebvp.solver import (
    THETA_MAX,
    Mesh,
    SolveOptions,
    SolutionProfile,
    assemble_collocation,
    guess_from,
    make_mesh,
    newton_solve,
    refine_mesh,
    seed_profile,
    solve_bvp,
    splu,
)
import ccebvp.factor as factor
from ccebvp.continuation import lagrange_weights
from ccebvp.factor import BandLU, CyclicReduction
from ccebvp.solver import _pack, _unpack
from ccebvp.systems import GBERGER, SU, BoundaryData, DomainError, UsageError


def _jacobian_pattern(m, N):
    """(row, col) of each value assemble_collocation returns, in its order.

    Unknowns: node j holds y at 2m*j + k and y' at 2m*j + m + k, then the
    2m-1 endpoint parameters (log K(0) and the m-1 nonlocal coefficients,
    then the m-1 free coefficients at x=1).  Before the shed row m, interval
    j's dense 2m x 4m collocation block has rows 2m + 2m*j + (g*m + i) and
    columns 2m*j + (s*m + k), its two node slots; the matching rows store
    their columns on the endpoint parameters only.
    """
    r = np.arange(2 * m)[:, None]
    tail = 2 * m * N + np.arange(2 * m - 1)

    def matching(row0, inputs):
        cols = np.broadcast_to(inputs, (2 * m, inputs.size))
        return np.broadcast_to(row0 + r, cols.shape), cols

    rL, cL = (np.delete(a, m, axis=0) for a in matching(0, tail[:m]))
    j, g, i, s, k = np.indices((N - 1, 2, m, 4, m))
    rR, cR = matching(2 * m * N, tail[m:])
    rows = np.concatenate([rL.ravel(), (2 * m + 2 * m * j + m * g + i).ravel(), rR.ravel()])
    cols = np.concatenate([cL.ravel(), (2 * m * j + m * s + k).ravel(), cR.ravel()])
    return rows - (rows > m), cols


def _unit_pattern(m, N):
    """(row, col) of the matching rows' unit coefficients on their node slot,
    which assemble_collocation leaves implicit."""
    r = np.arange(2 * m)
    rows = np.concatenate([np.delete(r, m), 2 * m * N + r])
    cols = np.concatenate([np.delete(r, m), 2 * m * (N - 1) + r])
    return rows - (rows > m), cols


def dense_jacobian(J, m, N):
    A = np.zeros((2 * m * N + 2 * m - 1,) * 2)
    A[_unit_pattern(m, N)] = 1.0
    A[_jacobian_pattern(m, N)] = J
    return A


def small_opts(**kw):
    base = dict(grid=48, tol=1e-9, refine_rounds=0)
    base.update(kw)
    return SolveOptions(**base)


def cubic_blend(bd, mesh, opts):
    """A poorer start than seed_profile, for runs that must build several
    factors: each ratio unknown blends its log boundary ratio to 0 by the
    cubic (1+2x)(1-x)^2, and the endpoint parameters are zero."""
    xs = mesh.nodes
    logs = bd.y_boundary()[:, None]
    y, yp = np.zeros((2, bd.kind.unknowns, len(xs)))
    y[1:] = logs * ((1.0 + 2.0 * xs) * (1.0 - xs) ** 2)
    yp[1:] = logs * (-6.0 * xs * (1.0 - xs))
    return SolutionProfile(bd, mesh, y, yp, tol=opts.tol)


def newton_from_cubic_blend(bd, opts):
    mesh = make_mesh(opts.grid)
    return newton_solve(bd, mesh, cubic_blend(bd, mesh, opts), opts)


class TestOptions:
    @pytest.mark.parametrize("kw", [{"grid": 3}, {"tol": 0.0}, {"tol": -1.0}, {"coarse_stage": -5},
                                    {"coarse_stage": 2}, {"refine_rounds": -1}, {"grid": 64.5},
                                    {"coarse_stage": 40.5}, {"refine_rounds": 1.5}, {"grid": True},
                                    {"tol": np.inf}, {"tol": np.nan}])
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
        with pytest.raises(UsageError, match="strictly increasing"):
            Mesh(np.array([0.1, np.nan, 0.5, 0.86]))  # NaN differences compare false both ways
        with pytest.raises(UsageError, match="mesh needs at least 4 nodes"):
            Mesh(np.array([0.1, 0.5, 0.86]))

    def test_nodes_are_read_only(self):
        mesh = make_mesh(16)
        with pytest.raises(ValueError, match="read-only"):
            mesh.nodes[3] = 0.5

    def test_geometry_ignores_later_writes_to_the_nodes_it_was_given(self):
        # the mesh holds its own copy, so its cached geometry cannot go stale
        given = make_mesh(16).nodes.copy()
        mesh = Mesh(given)
        kept = mesh.nodes.copy()
        x = mesh.collocation[0].copy()
        given[1:-1] = np.linspace(given[0], given[-1], len(given))[1:-1]
        assert np.array_equal(mesh.nodes, kept) and np.array_equal(mesh.collocation[0], x)
        assert np.array_equal(Mesh(kept).collocation[0], x)

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

    @pytest.mark.parametrize("kind,n,phi0", [(SU, 5, (0.85,)), (GBERGER, 3, (0.93, 1.04))])
    def test_stores_only_the_values_that_vary(self, kind, n, phi0):
        # no unit coefficient of a matching row is stored
        bd, mesh, m = BoundaryData(kind, n, phi0), make_mesh(12), kind.unknowns
        J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, small_opts()))[1]
        assert J.size == (2 * m - 1) * m + 8 * m * m * 11 + 2 * m * (m - 1)

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
        # the stored values and the implicit unit coefficients together
        rows, cols = map(np.concatenate, zip(_jacobian_pattern(m, N), _unit_pattern(m, N)))
        nU = 2 * m * N + 2 * m - 1
        assert rows.min() >= 0 and cols.min() >= 0 and rows.max() < nU and cols.max() < nU
        assert np.unique(rows * nU + cols).size == rows.size

    @pytest.mark.parametrize("m,N", [(2, 7), (3, 12)])
    def test_collocation_entries_in_their_interval(self, m, N):
        rows, cols = _jacobian_pattern(m, N)
        nend = (2 * m - 1) * m  # origin entries come first
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

    @pytest.mark.parametrize(
        "bd, N",
        [(BoundaryData(SU, 5, (0.8,)), 32), (BoundaryData(SU, 5, (0.8,)), 128),
         (BoundaryData(GBERGER, 3, (0.95, 1.02)), 64)],
        ids=["coarser-mesh", "finer-mesh", "other-family"],
    )
    def test_newton_guess_must_fit_the_mesh(self, bd, N):
        # a 64-node SU n=5 guess, named before newton_solve packs it
        guess = seed_profile(BoundaryData(SU, 5, (0.8,)), make_mesh(64), small_opts())
        with pytest.raises(UsageError, match="guess dimensions do not match the mesh"):
            newton_solve(bd, make_mesh(N), guess, small_opts())


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


def stored_bytes(factor):
    """Bytes of the arrays a factor holds, directly or in its lists and tuples."""

    def size(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        return sum(map(size, value)) if isinstance(value, (list, tuple)) else 0

    return sum(map(size, vars(factor).values()))


@pytest.fixture
def no_band_lapack(monkeypatch):
    # the lookup of dgbtrf finds nothing, as on a LAPACK that lacks it
    monkeypatch.setattr(factor, "_GBTRF_FORMS", (("no_such_dgbtrf_", "no_such_dgbtrs_", ctypes.c_int32),))
    factor.lapack_gbtrf.cache_clear()
    yield
    factor.lapack_gbtrf.cache_clear()


class TestCyclicReduction:
    """splu's factor: BandLU, or CyclicReduction where numpy's LAPACK has no
    dgbtrf; CyclicReduction is also the reference the band factor matches."""

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
        size, start = 8 * m * m, (2 * m - 1) * m
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
        # the factor splu returns, and the fallback
        bd = BoundaryData(GBERGER, 3, (0.95, 1.02))
        opts = small_opts()

        def factor_bytes(make, num):
            mesh = make_mesh(num)
            J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, opts))[1]
            return stored_bytes(make(J, bd.kind.unknowns, num))

        for make in (splu, CyclicReduction):
            assert factor_bytes(make, 128) <= 2.2 * factor_bytes(make, 64), make

    @pytest.mark.parametrize("N", [5, 12, 97, 256])  # odd and even block counts
    @pytest.mark.parametrize(
        "bd", FAMILIES + [BoundaryData(SU, 7, (2.5,))], ids=lambda bd: f"{bd.kind.family}{bd.n}"
    )
    def test_band_lu_matches_cyclic_reduction(self, bd, N):
        lapack = factor.lapack_gbtrf()
        if lapack is None:
            pytest.skip("numpy's LAPACK exports no dgbtrf")
        m = bd.kind.unknowns
        F, J = perturbed_jacobian(bd, N)
        x, ref = BandLU(J, m, N, lapack).solve(F), CyclicReduction(J, m, N).solve(F)
        assert np.linalg.norm(x - ref, np.inf) <= 1e-8 * np.linalg.norm(ref, np.inf)

    def test_without_dgbtrf_falls_back_to_cyclic_reduction(self, no_band_lapack):
        bd = BoundaryData(SU, 5, (0.8,))
        F, J = perturbed_jacobian(bd, 12)
        assert isinstance(splu(J, bd.kind.unknowns, 12), CyclicReduction)
        rep = newton_from_cubic_blend(bd, small_opts(grid=64, tol=1e-6))[1]
        assert rep.converged and rep.counters["lu_factorisations"] == 2

    def test_scipy_openblas_numpy_takes_the_band_path(self):
        # numpy's wheels link scipy-openblas, which exports scipy_dgbtrf_64_:
        # a lookup that misses it must fail here, not silently fall back
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if lapack.get("name") != "scipy-openblas":
            pytest.skip(f"numpy links {lapack.get('name')}, not scipy-openblas")
        bd = BoundaryData(GBERGER, 3, (0.93, 1.04))
        F, J = perturbed_jacobian(bd, 12)
        assert isinstance(splu(J, bd.kind.unknowns, 12), BandLU)


class TestScaledUnknowns:
    """The nonlocal coefficients are carried as c * XL^n (_pack)."""

    @pytest.mark.parametrize(
        "bd",
        [BoundaryData(SU, 3, (1.5,)), BoundaryData(SU, 5, (0.8,)), BoundaryData(SU, 7, (3.93,)),
         BoundaryData(GBERGER, 3, (0.9, 1.05))],
        ids=lambda bd: f"{bd.kind.family}{bd.n}",
    )
    def test_jacobian_condition_number(self, bd):
        # at the 48-node seed: 8.1e3 to 9.4e3, against 6.9e4 (su3, gberger),
        # 3.2e6 (su5) and 2.1e8 (su7) with c itself as the unknown
        mesh = make_mesh(48)
        J = assemble_collocation(bd, mesh, seed_profile(bd, mesh, small_opts()))[1]
        assert np.linalg.cond(dense_jacobian(J, bd.kind.unknowns, 48)) < 2e4

    @pytest.mark.parametrize("lam, grid", [(2.5, 128), (3.93, 144)])
    def test_su7_converges_at_the_default_tol(self, lam, grid):
        # both stalled just above tol before refinement (residuals 4.2e-10
        # and 2.2e-10) with c as the unknown: its columns are XL^7 = 1e-7 small
        prof, rep = solve_bvp(BoundaryData(SU, 7, (lam,)), SolveOptions(grid=grid))
        assert rep.converged, (rep.failure_reason, prof.mesh.n_nodes, rep.residual_norm)


def test_package_imports_no_scipy():
    # nor the structure-constant tables, which only the curvature oracle reads
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; import ccebvp, ccebvp.cli; "
            "print([k for k in sys.modules if k.split('.')[0] == 'scipy' or k == 'ccebvp.structure'])")
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


def test_src_private_helpers_have_readers():
    # a private module-level function or class that nothing in the package
    # names (as a name, an attribute or an import) is dead code
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "ccebvp").glob("*.py"))
    assert modules
    defined, read = [], set()
    for path in modules:
        tree = ast.parse(path.read_text())
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    assert defined
    assert [f"{mod}: {name}" for mod, name in defined if name not in read] == []


def test_src_function_parameters_are_read():
    # a parameter that its function never reads is an argument every caller
    # computes for nothing
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "ccebvp").glob("*.py"))
    assert modules
    unread, checked = [], 0
    for path in modules:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            checked += len(params)
            unread += [f"{path.name}:{fn.lineno}: {p}" for p in params if p not in read]
    assert checked
    assert unread == []


def test_src_reads_no_environment():
    # every setting is an option or a config key: no module reads os.environ
    # or os.getenv, under its own name or imported from os
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "ccebvp").glob("*.py"))
    assert modules
    reads = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in ("environ", "getenv")]
    assert reads == []


def test_src_failure_reasons_are_tested():
    # every string the package assigns to a failure_reason (both branches of
    # a conditional too) is quoted in a test file, so each way a solve can
    # fail is exercised somewhere; this lint's own source is not searched
    root = Path(__file__).resolve().parents[1]
    reasons = set()
    for path in sorted((root / "src" / "ccebvp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "failure_reason" for t in node.targets
            ):
                reasons |= {c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    assert {"non-finite start", "max iterations", "constraint drift"} <= reasons
    own = inspect.getsource(test_src_failure_reasons_are_tested)
    tests = "".join(p.read_text().replace(own, "") for p in sorted((root / "tests").glob("*.py")))
    assert sorted(r for r in reasons if repr(r) not in tests and f'"{r}"' not in tests) == []


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
        assert strict == quiet
        assert strict.failure_reason != ""

    def test_non_finite_start_is_named(self):
        # the seed's sources overflow on this ratio: the solve stops at its
        # start with its own reason, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof, rep = solve_bvp(BoundaryData(GBERGER, 3, (1e-300, 1.0)), small_opts(grid=64))
        assert not rep.converged and rep.failure_reason == "non-finite start"
        assert rep.iterations == 0 and rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 0}

    def test_two_seeds_agree(self):
        # the seed profile and the zero profile reach the same solution
        bd = BoundaryData(SU, 5, (0.85,))
        opts = small_opts(grid=96, tol=1e-7)
        p1, r1 = solve_bvp(bd, opts)
        mesh = make_mesh(opts.grid)
        zero = np.zeros((bd.kind.unknowns, mesh.n_nodes))
        p2, r2 = newton_solve(bd, mesh, SolutionProfile(bd, mesh, zero, zero.copy()), opts)
        assert r1.converged and r2.converged
        assert np.abs(p1.y - p2.y).max() <= 1e-8

    def test_determinism(self):
        bd = BoundaryData(SU, 5, (0.8,))
        p1, r1 = solve_bvp(bd, small_opts(grid=64))
        p2, r2 = solve_bvp(bd, small_opts(grid=64))
        assert np.array_equal(p1.y, p2.y) and np.array_equal(p1.yp, p2.yp)
        assert r1 == r2

    def test_counters(self):
        bd = BoundaryData(SU, 5, (0.8,))
        r1 = solve_bvp(bd, small_opts(grid=64))[1]
        r2 = solve_bvp(bd, small_opts(grid=64))[1]
        assert r1.counters == r2.counters == asdict(r1)["counters"]
        c = r1.counters
        assert r1.iterations > c["lu_factorisations"] > 0
        # one Newton run: every Jacobian built is factored, and each factor
        # serves the steps that name it fresh; every full step assembles its
        # trial point's residual alone
        assert c["jacobians"] == c["lu_factorisations"] == sum(r1.fresh_factor_history)
        assert r1.damping_history == [1.0] * r1.iterations
        assert c["assemblies"] == c["jacobians"] + r1.iterations
        # a reused factor follows only a full step that contracted below THETA_MAX
        reused = [not f for f in r1.fresh_factor_history]
        assert all(t < THETA_MAX for t, r in zip(r1.contraction_history, reused[1:]) if r)
        assert len(r1.contraction_history) == r1.iterations

    def test_counters_over_refinement_rounds(self, monkeypatch):
        import ccebvp.solver as solver

        real, runs = solver.newton_solve, []

        def recorded(*args, **kwargs):
            prof, rep = real(*args, **kwargs)
            runs.append(rep)
            return prof, rep

        monkeypatch.setattr(solver, "newton_solve", recorded)
        rep = solve_bvp(BoundaryData(SU, 5, (0.8,)), small_opts(grid=64, refine_rounds=2))[1]
        assert rep.refinements == 2 and len(runs) == 1 + rep.refinements
        # every run starts above tol on its mesh and factors each Jacobian it
        # builds; every one of its full steps assembles one residual alone
        c = rep.counters
        assert c["jacobians"] == c["lu_factorisations"] == sum(sum(r.fresh_factor_history) for r in runs)
        assert all(r.damping_history == [1.0] * len(r.damping_history) for r in runs)
        assert c["assemblies"] == c["jacobians"] + sum(r.iterations for r in runs)

    def test_round_data_needs_no_factorisation(self):
        rep = solve_bvp(BoundaryData(SU, 5, (1.0,)), small_opts(grid=64))[1]
        assert rep.converged
        assert rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 0}
        # no step, so no simplified Newton point to predict the drift from
        assert rep.predicted_drift is None and asdict(rep)["predicted_drift"] is None

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
        # the damped step is followed by a fresh factor at its point
        assert rep.fresh_factor_history[:2] == [True, True]
        # the rejected trial is the one assembly call beyond one per Jacobian
        # (each factored) and one residual per step
        c = rep.counters
        assert c["jacobians"] == c["lu_factorisations"]
        assert len(calls) == c["jacobians"] + rep.iterations + rejected
        assert c["assemblies"] == len(calls) - 1  # the injected call did no work

    def test_interpolate_roundtrip(self):
        # exact at the profile's own nodes, so no caller needs a same-mesh shortcut
        for bd in (BoundaryData(SU, 5, (0.8,)), BoundaryData(GBERGER, 3, (0.95, 1.02))):
            prof, rep = solve_bvp(bd, small_opts(grid=64, tol=1e-9))
            y, yp = prof.interpolate(prof.mesh.nodes)
            assert np.array_equal(y, prof.y) and np.array_equal(yp, prof.yp)

    def test_lagrange_guess_is_linear_in_every_unknown(self):
        opts = small_opts(grid=48, tol=1e-8)
        p, _ = solve_bvp(BoundaryData(SU, 5, (0.8,)), opts)
        q, _ = solve_bvp(BoundaryData(SU, 5, (0.9,)), opts)
        bd = BoundaryData(SU, 5, (1.0,))
        g = guess_from(bd, [p, q], lagrange_weights([0.0, 1.0], 2.0), opts)
        assert g.bd is bd and g.mesh is p.mesh and not g.converged
        up, uq = _pack(p), _pack(q)
        assert np.allclose(_pack(g), up + 2.0 * (uq - up), rtol=1e-14, atol=1e-14 * np.abs(up).max())
        assert np.array_equal(_pack(guess_from(bd, [p, q], lagrange_weights([0.0, 1.0], 0.0), opts)), up)
        assert np.array_equal(_pack(guess_from(bd, [p], lagrange_weights([0.3], 2.0), opts)), up)

    def test_lagrange_guess_is_exact_on_cubics(self):
        # four profiles whose unknowns are cubic in s = log(lambda) give back
        # the cubic at a fifth s, inside or outside their span
        opts = small_opts(grid=48, tol=1e-8)
        base, _ = solve_bvp(BoundaryData(SU, 5, (0.8,)), opts)
        u0 = _pack(base)
        rng = np.random.default_rng(0)
        c = rng.standard_normal((3, u0.size))

        def cubic(s):
            return u0 + c[0] * s + c[1] * s**2 + c[2] * s**3

        bd = BoundaryData(SU, 5, (1.0,))
        nodes = [np.log(lam) for lam in (1.0, 0.95, 0.9, 0.85)]
        profiles = [_unpack(bd, base.mesh, cubic(s), opts) for s in nodes]
        for lam in (0.8, 0.925, 1.1):
            s = np.log(lam)
            g = guess_from(bd, profiles, lagrange_weights(nodes, s), opts)
            assert np.abs(_pack(g) - cubic(s)).max() <= 1e-12 * np.abs(cubic(s)).max()


def polish_steps(rep):
    # full Newton steps taken after the line search: residuals recorded
    # beyond the start, less the line-search steps
    return len(rep.residual_history) - 1 - len(rep.damping_history)


def sweep_first_step(lam, grid):
    """The SU n=3 sweep's first step: the round-sphere solve at tol 3e-8 as
    the guess for ratio lam on its mesh."""
    opts = SolveOptions(grid=grid, tol=3e-8, refine_rounds=0)
    round_prof = solve_bvp(BoundaryData(SU, 3, (1.0,)), opts)[0]
    bd = BoundaryData(SU, 3, (lam,))
    return bd, round_prof.mesh, guess_from(bd, [round_prof], lagrange_weights([0.0], np.log(lam)), opts), opts


class TestPolish:
    @pytest.mark.parametrize("lam,grid,drift", [(0.95, 384, 1.3e-7), (1.05, 128, 9.3e-8)])
    def test_polish_that_meets_the_gate_is_taken(self, lam, grid, drift):
        # three full steps on one factor (a Newton step, then two chord
        # steps) meet tol with the drift above the gate; the drift at the
        # simplified Newton point meets it, so the polish, the chord step to
        # that point, is taken
        bd, mesh, guess, opts = sweep_first_step(lam, grid)
        prof, rep = newton_solve(bd, mesh, guess, opts)
        assert rep.damping_history == [1.0, 1.0, 1.0] and polish_steps(rep) == 1
        assert 1e-9 < rep.residual_history[-2] <= opts.tol and rep.residual_history[-1] < 3e-10
        assert rep.converged and rep.constraint_drift == pytest.approx(drift, rel=0.05)
        assert rep.predicted_drift <= 10 * opts.tol
        # the step lands on the point its prediction read: the reported drift
        # is the returned profile's, bit for bit, and it meets the gate
        assert rep.constraint_drift == np.abs(prof.constraint_values()).max() <= 10 * opts.tol
        assert rep.fresh_factor_history == [True, False, False, False]
        assert rep.counters == {"assemblies": 5, "jacobians": 1, "lu_factorisations": 1}

    def test_polish_the_mesh_defeats_is_skipped(self):
        # a 96-node run from the cubic blend meets its tol with a drift set
        # by its mesh: the drift its polish step predicts misses the gate
        # too, so no step is taken
        opts = small_opts(grid=96)
        prof, rep = newton_from_cubic_blend(BoundaryData(SU, 5, (0.8,)), opts)
        assert rep.residual_norm <= opts.tol and polish_steps(rep) == 0
        assert rep.failure_reason == "constraint drift" and rep.predicted_drift > 10 * opts.tol
        assert not prof.converged
        assert rep.counters == {"assemblies": 6, "jacobians": 2, "lu_factorisations": 2}

    def test_start_within_tol_predicts_from_its_start_factor(self):
        # a run that meets tol at its start takes its simplified Newton
        # correction from its start's factor, and like every polish step
        # takes it only when the drift it predicts meets the gate; here the
        # mesh defeats it, so no step is taken (a run stops just under its
        # tol, so the start is solved at a tighter one)
        bd = BoundaryData(SU, 5, (0.8,))
        prof = solve_bvp(bd, small_opts(tol=1e-12))[0]
        opts = small_opts(tol=3e-12)
        start = guess_from(bd, [prof], [1.0], opts)
        assert np.abs(assemble_collocation(bd, prof.mesh, start)[0]).max() <= opts.tol
        rep = newton_solve(bd, prof.mesh, start, opts)[1]
        assert rep.iterations == 0 and polish_steps(rep) == 0
        assert rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 1}
        assert rep.failure_reason == "constraint drift" and rep.predicted_drift > 10 * opts.tol

    def test_prediction_overflow_reads_inf(self):
        # far outside the window the stalled run's simplified Newton point
        # (from the cubic blend) overflows the sources: the prediction reads
        # inf, with no RuntimeWarning for the caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = newton_from_cubic_blend(BoundaryData(SU, 3, (0.05,)), small_opts(grid=128))[1]
        assert rep.failure_reason == "line search stalled" and rep.predicted_drift == np.inf

    def test_overflow_at_polish_is_a_rejection(self, monkeypatch):
        # an overflow while assembling the polish point rejects the step,
        # inside the same guard as every line-search trial: the pre-polish
        # iterate is kept and no RuntimeWarning reaches the caller
        import ccebvp.solver as solver

        bd, mesh, guess, opts = sweep_first_step(1.05, 128)
        plain = newton_solve(bd, mesh, guess, opts)[1]
        polish_call = len(plain.residual_history)  # the start, three steps on one factor, then the polish
        real, calls = solver.assemble_collocation, []

        def overflows_at_polish(*args, **kwargs):
            calls.append(1)
            if len(calls) == polish_call:
                np.float64(1e308) * np.float64(10.0)  # overflows: raises inside the guard, warns outside it
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "assemble_collocation", overflows_at_polish)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof, rep = newton_solve(bd, mesh, guess, opts)
        assert len(calls) == polish_call
        assert rep.residual_history == plain.residual_history[:-1] and rep.iterations == 3
        assert rep.failure_reason == "constraint drift" and not prof.converged
        # the profile is the pre-polish iterate, bit for bit
        residual = real(bd, mesh, prof, want_jac=False)[0]
        assert np.abs(residual).max() == rep.residual_norm == rep.residual_history[-1]

    def test_default_config_outcomes_and_work(self):
        # the five default `cce solve` cases at SolveOptions(): outcomes, node
        # counts, and a ceiling on the Newton work, so futile polish steps
        # cannot come back unseen.  su5 0.25 builds 6 Jacobians: its 128-node
        # run's second step contracts by 0.059, above THETA_MAX, so the third
        # step is a fresh factor, and that run takes 6 steps and 9 assemblies
        # where a chord third step took 9 and 11
        cases = [
            ((SU, 5, (0.8,)), "", 509),
            ((SU, 5, (0.25,)), "constraint drift", 1017),
            ((SU, 3, (0.3,)), "constraint drift", 1017),
            ((GBERGER, 3, (0.9, 1.05)), "", 255),
            ((SU, 3, (1.5,)), "", 509),
        ]
        assemblies = jacobians = factorisations = 0
        for args, reason, nodes in cases:
            prof, rep = solve_bvp(BoundaryData(*args), SolveOptions())
            assert (rep.converged, rep.failure_reason, prof.mesh.n_nodes) == (reason == "", reason, nodes), args
            assemblies += rep.counters["assemblies"]
            jacobians += rep.counters["jacobians"]
            factorisations += rep.counters["lu_factorisations"]
        assert assemblies <= 59 and jacobians <= 22 and factorisations <= 22

    def test_acceptance_size_work(self):
        # the five 768-node acceptance solves at tol 1e-10 (the acc768 bench
        # workload): each converges in one Newton run from the second-order
        # seed, on one factor, so a second start or a poorer seed cannot
        # come back unseen
        cases = [(SU, 5, (phi,)) for phi in (0.6, 0.8, 1.25, 1.6)] + [(GBERGER, 3, (0.95, 1.02))]
        assemblies = jacobians = factorisations = 0
        for args in cases:
            prof, rep = solve_bvp(BoundaryData(*args), SolveOptions(grid=768, tol=1e-10, refine_rounds=0))
            assert rep.converged and prof.mesh.n_nodes == 768, args
            assemblies += rep.counters["assemblies"]
            jacobians += rep.counters["jacobians"]
            factorisations += rep.counters["lu_factorisations"]
        assert assemblies <= 17 and jacobians <= 5 and factorisations <= 5


class TestSimplifiedNewton:
    def test_weak_contraction_refreshes_the_factor(self):
        # SU n=5 at 0.8 from the cubic blend: the third step contracts by
        # about 0.2, above THETA_MAX.  Chord steps on the first factor alone
        # stop just under tol with a drift the gate rejects; the run builds a
        # fresh Jacobian there instead, and converges
        opts = SolveOptions(grid=128, tol=1e-7, refine_rounds=0)
        rep = newton_from_cubic_blend(BoundaryData(SU, 5, (0.8,)), opts)[1]
        assert rep.converged and rep.failure_reason == ""
        assert rep.fresh_factor_history[0] and sum(rep.fresh_factor_history) >= 2
        assert max(rep.contraction_history) >= THETA_MAX
        assert rep.counters["jacobians"] == rep.counters["lu_factorisations"] == sum(rep.fresh_factor_history)

    @staticmethod
    def stalled_chord_run(monkeypatch, recover):
        # su5 0.8 from the seed, with every residual-only trial after the
        # first raising (a rejection), until the next Jacobian is built
        # when recover; the run and the want_jac of every assembly call
        import ccebvp.solver as solver
        from ccebvp.systems import SeriesRecursionError

        real, calls = solver.assemble_collocation, []

        def stalls(*args, want_jac=True, **kwargs):
            calls.append(want_jac)
            if not want_jac and calls.count(False) > 1 and not (recover and calls.count(True) > 1):
                raise SeriesRecursionError("injected at a trial point")
            return real(*args, want_jac=want_jac, **kwargs)

        monkeypatch.setattr(solver, "assemble_collocation", stalls)
        rep = solve_bvp(BoundaryData(SU, 5, (0.8,)), small_opts(grid=64))[1]
        return rep, calls

    def test_stall_on_a_reused_factor_refreshes_it(self, monkeypatch):
        rep, calls = self.stalled_chord_run(monkeypatch, recover=True)
        # the chord step's 21 trials (damping 1 to 2^-20) all fail; the run
        # builds a fresh Jacobian at the same point and goes on from there
        assert calls[:24] == [True, False] + [False] * 21 + [True]
        assert rep.fresh_factor_history[:2] == [True, True] and rep.damping_history[:2] == [1.0, 1.0]
        # it meets tol, and the 64-node mesh sets the drift, as without the stall
        assert rep.failure_reason == "constraint drift" and rep.residual_norm <= 1e-9
        assert rep.counters["assemblies"] == len(calls) - 21  # the injected calls did no work

    def test_stall_after_the_refresh_is_reported(self, monkeypatch):
        rep, calls = self.stalled_chord_run(monkeypatch, recover=False)
        # one refresh, then the fresh step stalls too: no second refresh
        assert calls == [True, False] + [False] * 21 + [True] + [False] * 21
        assert rep.failure_reason == "line search stalled" and rep.iterations == 1
        assert rep.counters == {"assemblies": 3, "jacobians": 2, "lu_factorisations": 2}


class TestNewtonFailures:
    """Each exit of newton_solve that ends a run early, reached by injecting
    the failure into su5 0.8 from the cubic blend at 64 nodes.  Uninjected,
    that run takes a fresh step, a chord step (it contracts by about 0.052,
    just above THETA_MAX), a fresh step and a chord step, meets tol, and ends
    "constraint drift"."""

    bd = BoundaryData(SU, 5, (0.8,))

    def run(self):
        return newton_from_cubic_blend(self.bd, small_opts(grid=64))[1]

    def test_failed_fresh_assembly(self, monkeypatch):
        import ccebvp.solver as solver
        from ccebvp.systems import SeriesRecursionError

        real, calls = solver.assemble_collocation, []

        def fails_second_jacobian(*args, want_jac=True, **kwargs):
            calls.append(want_jac)
            if want_jac and calls.count(True) == 2:
                raise SeriesRecursionError("injected at the fresh Jacobian")
            return real(*args, want_jac=want_jac, **kwargs)

        monkeypatch.setattr(solver, "assemble_collocation", fails_second_jacobian)
        rep = self.run()
        assert calls == [True, False, False, True]
        assert rep.failure_reason == "singular linearization" and rep.iterations == 2
        assert rep.counters == {"assemblies": 3, "jacobians": 1, "lu_factorisations": 1}

    def test_singular_factor(self, monkeypatch):
        import ccebvp.solver as solver

        def singular(J, m, N):
            raise np.linalg.LinAlgError("injected singular factor")

        monkeypatch.setattr(solver, "splu", singular)
        rep = self.run()
        assert rep.failure_reason == "singular linearization" and rep.iterations == 0
        assert rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 1}

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_step(self, monkeypatch, value):
        F, J = perturbed_jacobian(self.bd, 12)
        in_use = type(splu(J, self.bd.kind.unknowns, 12))
        monkeypatch.setattr(in_use, "solve", lambda self, rhs: np.full_like(rhs, value))
        rep = self.run()
        assert rep.failure_reason == "singular linearization" and rep.iterations == 0
        assert rep.damping_history == [] and len(rep.residual_history) == 1
        assert rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 1}

    def test_non_finite_trial_residual_is_rejected(self, monkeypatch):
        import ccebvp.solver as solver

        real, calls = solver.assemble_collocation, []

        def nan_first_trial(*args, want_jac=True, **kwargs):
            calls.append(want_jac)
            F, J = real(*args, want_jac=want_jac, **kwargs)
            if calls == [True, False]:
                F = F.copy()
                F[0] = np.nan
            return F, J

        monkeypatch.setattr(solver, "assemble_collocation", nan_first_trial)
        rep = self.run()
        # the full step's trial is rejected and the halved one taken
        assert calls[:3] == [True, False, False] and rep.damping_history[0] == 0.5
        assert rep.fresh_factor_history[0] and len(rep.residual_history) == rep.iterations + 1

    def test_max_iterations(self, monkeypatch):
        import ccebvp.solver as solver

        monkeypatch.setattr(solver, "MAX_ITER", 2)
        rep = self.run()
        assert rep.failure_reason == "max iterations" and rep.iterations == 2
        assert rep.residual_norm > 1e-9 and not rep.converged
        assert rep.counters == {"assemblies": 3, "jacobians": 1, "lu_factorisations": 1}

    def test_polish_factor_fails(self, monkeypatch):
        # a start that meets tol predicts from its start's factor; when that
        # factor raises, the run keeps its point and predicts nothing
        import ccebvp.solver as solver

        opts = small_opts(grid=64)
        prof = solve_bvp(self.bd, opts)[0]
        assert not prof.converged

        def singular(J, m, N):
            raise np.linalg.LinAlgError("injected singular factor")

        monkeypatch.setattr(solver, "splu", singular)
        again, rep = newton_solve(self.bd, prof.mesh, prof, opts)
        assert rep.failure_reason == "constraint drift" and rep.iterations == 0
        assert rep.residual_norm <= 1e-9 and rep.predicted_drift is None
        assert np.array_equal(again.y, prof.y) and np.array_equal(again.yp, prof.yp)
        assert rep.counters == {"assemblies": 1, "jacobians": 1, "lu_factorisations": 1}


class TestRefine:
    def test_halves_every_interval(self):
        bd = BoundaryData(SU, 5, (0.8,))
        mesh = make_mesh(48)
        xs = mesh.nodes
        fine = refine_mesh(seed_profile(bd, mesh, small_opts())).nodes
        assert np.array_equal(fine[::2], xs)
        assert np.array_equal(fine[1::2], 0.5 * (xs[:-1] + xs[1:]))

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
        from ccebvp.series import NonlocalParams, fg_series_origin
        from oracles import evaluate_series
        import ccebvp.systems as S

        bd = BoundaryData(SU, 5, (0.8,))
        sc = fg_series_origin(bd, NonlocalParams((0.3,)), 24, log_k0=np.log(0.95))
        fam = S.family(SU, 5)
        for x in (0.05, 0.1, 0.14):
            y, yp, _ = evaluate_series(sc, x)
            assert abs(S.constraint_residual(fam, x, y, yp)) < 5e-7


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
        from ccebvp.solver import _hermite_weights

        bd = BoundaryData(SU, 5, (0.8,))
        prof, rep = solve_bvp(bd, small_opts(grid=64, tol=1e-9))

        def mid_defect(p):
            # the Hermite state at every interval's midpoint
            fam = S.family(bd.kind, bd.n)
            xs = p.mesh.nodes
            h = np.diff(xs)
            x = xs[:-1] + 0.5 * h
            parts = [p.y[:, :-1].T, p.yp[:, :-1].T, p.y[:, 1:].T, p.yp[:, 1:].T]
            Y, Yp, Ypp = (sum(w[:, None] * q for w, q in zip(wk, parts)) for wk in _hermite_weights(0.5, h))
            r = S.evo_residuals(fam, x, Y, Yp, Ypp) * (x * (1 - x * x))[:, None]
            return np.abs(r).max()

        d0 = mid_defect(prof)
        fine = refine_mesh(prof)
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


class TestReferenceAssembly:
    """assemble_collocation against oracles.reference_assembly: the
    collocation rows evaluated one template equation at a time and the
    interval blocks written one basis slot at a time."""

    @pytest.mark.parametrize("bd", [BoundaryData(SU, 3, (1.5,)), BoundaryData(SU, 5, (0.8,)),
                                    BoundaryData(SU, 7, (2.0,)), BoundaryData(GBERGER, 3, (0.95, 1.02))],
                             ids=["su3", "su5", "su7", "gberger"])
    def test_matches_at_the_seed_and_at_the_root(self, bd):
        from oracles import reference_assembly

        opts = SolveOptions(grid=768, tol=1e-10, refine_rounds=0)
        solved, rep = solve_bvp(bd, opts)
        assert rep.converged
        for prof in (seed_profile(bd, make_mesh(768), opts), solved):
            F, J = assemble_collocation(bd, prof.mesh, prof)
            Fr, Jr = reference_assembly(bd, prof.mesh, prof)
            assert np.abs(F - Fr).max() <= 1e-13
            assert np.abs(J - Jr).max() <= 1e-14 * np.abs(Jr).max()
            # a residual-only assembly takes the same collocation rows (the
            # origin rows' table comes from the plain recursion, not the
            # complex-step one)
            lo = 2 * bd.kind.unknowns - 1
            assert np.array_equal(assemble_collocation(bd, prof.mesh, prof, want_jac=False)[0][lo:], F[lo:])


class TestAssemblyMemory:
    """The bench bounds peak RSS at 10%: an assembly's temporaries stay a few
    Jacobians, and nothing outside a profile keeps its mesh alive."""

    @pytest.mark.parametrize("bd", [BoundaryData(SU, 5, (0.8,)), BoundaryData(GBERGER, 3, (0.95, 1.02))],
                             ids=["su5", "gberger"])
    def test_peak_is_a_few_jacobians(self, bd):
        mesh = make_mesh(1017)
        guess = seed_profile(bd, mesh, SolveOptions())
        assemble_collocation(bd, mesh, guess)  # the mesh geometry and the series operators, built once
        tracemalloc.start()
        try:
            _, J = assemble_collocation(bd, mesh, guess)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * J.nbytes

    def test_no_cache_keeps_a_mesh(self):
        prof, rep = solve_bvp(BoundaryData(SU, 5, (0.8,)), SolveOptions())
        assert rep.converged
        mesh = weakref.ref(prof.mesh)  # its collocation geometry was built by the solve
        del prof
        gc.collect()
        assert mesh() is None
