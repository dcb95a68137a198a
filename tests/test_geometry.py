"""Geometry tests: reconstruction, radial/tangential curvature, the Ricci
formulas, the Weyl component, and the K(0) bounds.  Independent oracles:
hyperbolic identities, Milnor's S^3 Ricci formula, and direct evaluation."""

from types import SimpleNamespace

import numpy as np
import pytest

from ccebvp import geometry as G
from ccebvp import verification as V
from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.structure import slice_structure
from ccebvp.systems import GBERGER, SU, BoundaryData, UsageError

from oracles import radial_trace, ricci_su


def round_profile(kind=SU, n=5, grid=48):
    bd = BoundaryData(kind, n, tuple([1.0] * kind.free_count))
    prof, rep = solve_bvp(bd, SolveOptions(grid=grid, refine_rounds=0, coarse_stage=0))
    assert rep.converged
    return prof


def solved_profile(phi=0.8, n=5, grid=128, tol=1e-7):
    bd = BoundaryData(SU, n, (phi,))
    prof, rep = solve_bvp(bd, SolveOptions(grid=grid, tol=tol, refine_rounds=0, coarse_stage=0))
    assert rep.converged
    return prof


def synthetic_mp(bd, xs, L, Lp, Lpp):
    return G.MetricProfile(bd, np.asarray(xs), np.exp(np.asarray(L)), np.asarray(L),
                           np.asarray(Lp), np.asarray(Lpp))


def coordinate_planes(sc, multiplicities):
    """Every coordinate plane (a, b) of a structure table with its sample name
    and its distinct directions: a pair inside one direction class is a J-pair
    iff its bracket has a component along e_1 (sc.T[a, b, 0] != 0)."""
    full = np.repeat(np.arange(len(multiplicities)), multiplicities)
    out = []
    for a in range(sc.dim):
        for b in range(a + 1, sc.dim):
            ia, ib = full[a], full[b]
            name = f"tangential-{ia + 1}-{ib + 1}"
            if ia == ib and sc.T[a, b, 0] == 0:
                name += "-nonJ"
            out.append(((a, b), name, (ia, ib)))
    return out


def by_plane(samples):
    """{plane: values in node order} of a curvature-samples record."""
    return dict(zip(samples.planes, samples.values))


def su_direction_traces(P, n):
    """Ricci of the SU directions e_1 and e_2 from per-plane samples (equal -n on Einstein profiles)."""
    d1 = P["radial-1"] + (n - 1) * P["tangential-1-2"]
    d2 = P["radial-2"] + P["tangential-1-2"] + P["tangential-2-2"]
    if n >= 5:
        d2 = d2 + (n - 3) * P["tangential-2-2-nonJ"]
    return d1, d2


class TestReconstruct:
    def test_zero_profile_unit_metric(self):
        prof = round_profile()
        mp = G.reconstruct_metric(prof)
        assert np.abs(mp.I - 1.0).max() < 1e-12
        # warped radius a = sinh(r) at every node
        sinh = (1 - mp.x**2) / (2 * mp.x)
        a = np.sqrt(mp.I) * sinh
        np.testing.assert_allclose(a, np.broadcast_to(sinh, a.shape), rtol=1e-12)

    def test_su_inversion(self):
        # K=1, phi=2, n=3: I1 = 2^(-2/3), I2 = 2^(1/3)
        W = G.log_component_matrix(BoundaryData(SU, 3, (0.5,)))
        L = W @ np.array([0.0, np.log(2.0)])
        np.testing.assert_allclose(np.exp(L), [2 ** (-2 / 3), 2 ** (1 / 3)], rtol=1e-14)

    def test_gb_round(self):
        W = G.log_component_matrix(BoundaryData(GBERGER, 3, (1.0, 1.0)))
        np.testing.assert_allclose(W @ np.zeros(3), 0.0, atol=0)

    @pytest.mark.parametrize("call", [G.curvature_samples, V.run_verification])
    def test_nan_in_y_is_infeasible(self, call):
        # exp passes a NaN without overflowing; the finiteness check names it
        prof = round_profile()
        prof.y = prof.y.copy()
        prof.y[1, 5] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(G.InfeasibleProfileError,
                                                          match="^non-finite metric components$"):
            call(prof)


class TestRadial:
    def test_hyperbolic_minus_one(self):
        prof = round_profile()
        mp = G.reconstruct_metric(prof)
        K = G.radial_sectional_all(mp)
        np.testing.assert_allclose(K, -1.0, atol=1e-12)
        assert K[0, 3] == pytest.approx(-1.0, abs=1e-12)

    def test_flat_radial_direction(self):
        # a = r (flat cone): L = 2 log(r / sinh r), K0 = 0
        bd = BoundaryData(SU, 5, (1.0,))
        xs = np.linspace(0.15, 0.8, 9)
        r = -np.log(xs)
        coth = (1 + xs**2) / (1 - xs**2)
        L = 2 * (np.log(r) - np.log((1 - xs**2) / (2 * xs)))
        Lp = -(2 / xs) * (1 / r - coth)
        csch2 = (2 * xs / (1 - xs**2)) ** 2
        Lpp = (2 / xs**2) * (1 / r - coth) - (2 / xs) * (1 / (xs * r**2) - csch2 / xs)
        mp = synthetic_mp(bd, xs, np.tile(L, (2, 1)), np.tile(Lp, (2, 1)), np.tile(Lpp, (2, 1)))
        np.testing.assert_allclose(G.radial_sectional_all(mp), 0.0, atol=1e-10)

    def test_einstein_radial_trace(self):
        prof = solved_profile()
        np.testing.assert_allclose(radial_trace(G.curvature_samples(prof)), -5.0, atol=1e-7)


class TestRicciFormulas:
    def test_su_round(self):
        np.testing.assert_allclose(ricci_su(1.0, 1.0, 5), 4.0, rtol=0)

    def test_su_values(self):
        # (n-1) I1^2/I2^2 and (n+1)-2 I1/I2 at I1=2, I2=1, n=3 give (8, 0, 0)
        np.testing.assert_allclose(ricci_su(2.0, 1.0, 3), [8.0, 0.0, 0.0], atol=1e-14)

    def test_su_scaling_structure(self):
        r1 = ricci_su(2.0, 1.0, 5)
        r2 = ricci_su(4.0, 2.0, 5)
        assert r1[0] == pytest.approx(r2[0])  # first entry depends on I1/I2 only
        assert r1[1] == pytest.approx(r2[1])  # second is affine in I1/I2


class TestSliceAssembly:
    def test_round_s5(self):
        out = G.riemann_from_structure(slice_structure(5), np.ones(5))
        np.testing.assert_allclose(out.ricci, 4.0 * np.eye(5), atol=1e-12)
        off = out.sectional[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off, 1.0, atol=1e-12)

    def test_matches_ricci_su_formula(self):
        rng = np.random.RandomState(42)
        sc = slice_structure(5)
        for _ in range(100):
            I1, I2 = rng.uniform(0.5, 2.0, 2)
            out = G.riemann_from_structure(sc, np.array([I1, I2, I2, I2, I2]))
            target = np.diag(ricci_su(I1, I2, 5))
            assert np.abs(out.ricci - target).max() < 1e-10
            assert np.abs(out.ricci_riemann - target).max() < 1e-10

    def test_gb_matches_milnor(self):
        rng = np.random.RandomState(7)
        sc = slice_structure(3)
        for _ in range(50):
            I = rng.uniform(0.5, 2.0, 3)
            out = G.riemann_from_structure(sc, I)
            milnor = np.array(
                [2 * (I[i] ** 2 - (I[(i + 1) % 3] - I[(i + 2) % 3]) ** 2)
                 / (I[(i + 1) % 3] * I[(i + 2) % 3]) for i in range(3)]
            )
            assert np.abs(np.diag(out.ricci) - milnor).max() < 1e-12
            assert np.abs(out.ricci - out.ricci_riemann).max() < 1e-12

    @pytest.mark.parametrize("kind, n", [(SU, 3), (SU, 5), (GBERGER, 3)])
    def test_closed_forms_match_structure_assembly(self, kind, n):
        # every coordinate plane of the table against its Berger / Milnor closed form
        bd = BoundaryData(kind, n, tuple([1.0] * kind.free_count))
        sc = slice_structure(n)
        mult = G.direction_multiplicities(bd)
        planes = coordinate_planes(sc, mult)
        rng = np.random.RandomState(11)
        for _ in range(200):
            I = np.exp(rng.uniform(-1.5, 1.5, len(mult)))
            sect = G.riemann_from_structure(sc, np.repeat(I, mult)).sectional
            closed = {nm: ((ia, ib), K) for nm, ia, ib, K in G.slice_sectional(bd, I)}
            assert {name for _, name, _ in planes} == set(closed)
            for (a, b), name, dirs in planes:
                assert closed[name][0] == dirs
                assert abs(closed[name][1] - sect[a, b]) <= 1e-13 * max(1.0, abs(sect[a, b]))

    def test_guards(self):
        sc = slice_structure(5)
        with pytest.raises(UsageError):
            G.riemann_from_structure(sc, np.ones(4))
        from ccebvp.structure import StructureConstants

        bad = StructureConstants(sc.name, sc.dim, sc.C, sc.dC, sc.T.copy(), sc.dT)
        bad.T[0, 1, 2] += 1e-3
        with pytest.raises(UsageError):
            G.riemann_from_structure(bad, np.ones(5))


class TestGauss:
    def test_hyperbolic_identity(self):
        # intrinsic 1/sinh^2 minus coth^2 = -1
        prof = round_profile()
        mp = G.reconstruct_metric(prof)
        x = float(mp.x[5])
        sinh2 = ((1 - x * x) / (2 * x)) ** 2
        rat = mp.a_log_deriv_r()
        amb = 1.0 / sinh2 - rat[0, 5] * rat[1, 5]
        assert amb == pytest.approx(-1.0, abs=1e-12)

    def test_zero_second_fundamental_form(self):
        # L_r = -2 coth r makes a'/a = 0: ambient equals intrinsic
        bd = BoundaryData(SU, 5, (1.0,))
        xs = np.array([0.3, 0.5, 0.7])
        coth = (1 + xs**2) / (1 - xs**2)
        Lp = 2 * coth / xs
        mp = synthetic_mp(bd, xs, np.zeros((2, 3)), np.tile(Lp, (2, 1)), np.zeros((2, 3)))
        rat = mp.a_log_deriv_r()
        assert 0.37 - rat[0, 1] * rat[1, 1] == pytest.approx(0.37, abs=1e-12)

    def test_einstein_tangential_consistency(self):
        # sum of all plane curvatures through one direction equals -n
        prof = solved_profile(grid=160)
        mp = G.reconstruct_metric(prof)
        samples = G.curvature_samples(prof)
        for j in (10, 60, 120):
            x = float(mp.x[j])
            at_x = dict(zip(samples.planes, samples.values[:, samples.x == x][:, 0]))
            rad = {nm: v for nm, v in at_x.items() if nm.startswith("radial")}
            tan = {nm: v for nm, v in at_x.items() if nm.startswith("tangential")}
            # direction e_1 (multiplicity-1 slot): radial-1 + (n-1) tangential-(1,2)
            total = rad["radial-1"] + (prof.bd.n - 1) * tan["tangential-1-2"]
            assert total == pytest.approx(-prof.bd.n, abs=2e-6)

    @pytest.mark.parametrize("n, phi", [(3, 0.5), (5, 0.6), (7, 0.8), (7, 1.25), (9, 0.8), (9, 1.25)])
    def test_su_direction_traces(self, n, phi):
        # Ric = -n g along e_1 and e_2.  For n >= 5, e_2 lies in one J-pair
        # plane and n - 3 planes of curvature 1/I2: sampling the J-pair alone
        # leaves the e_2 trace about 1.5 off.  n = 7 and 9 have no structure table.
        prof = solved_profile(phi=phi, n=n, grid=384, tol=1e-8)
        P = by_plane(G.curvature_samples(prof))
        assert ("tangential-2-2-nonJ" in P) == (n >= 5)
        d1, d2 = su_direction_traces(P, n)
        assert np.abs(d1 + n).max() <= 1e-10
        assert np.abs(d2 + n).max() <= 1e-10

    def test_su5_nonJ_plane_carries_the_maximum(self):
        # on su5 0.6 a 1/I2 plane is curved more positively than every other monitored plane
        prof = solved_profile(phi=0.6, n=5, grid=768, tol=1e-10)
        P = by_plane(G.curvature_samples(prof))
        nonj = P.pop("tangential-2-2-nonJ")
        assert nonj.max() > max(v.max() for v in P.values())

    def test_gberger_direction_traces(self):
        # radial-i plus the three tangential planes through e_i equals -3
        prof, rep = solve_bvp(BoundaryData(GBERGER, 3, (0.9, 1.05)),
                              SolveOptions(grid=256, tol=1e-10, refine_rounds=0, coarse_stage=0))
        assert rep.converged
        P = by_plane(G.curvature_samples(prof))
        for i in (1, 2, 3):
            total = P[f"radial-{i}"] + sum(P[f"tangential-{min(i, j)}-{max(i, j)}"] for j in (1, 2, 3) if j != i)
            assert np.abs(total + 3).max() <= 1e-10

    @pytest.mark.parametrize("kind, n, phi0", [(GBERGER, 3, (0.95, 1.02)), (SU, 3, (0.5,)), (SU, 5, (0.6,))])
    def test_batched_samples_match_per_node_oracle(self, kind, n, phi0):
        # every node on its own: riemann_from_structure, then the Gauss equation
        prof, rep = solve_bvp(BoundaryData(kind, n, phi0),
                              SolveOptions(grid=96, tol=1e-6, refine_rounds=0, coarse_stage=0))
        assert rep.converged
        mp = G.reconstruct_metric(prof)
        sc = slice_structure(n)
        rad = G.radial_sectional_all(mp)
        rat = mp.a_log_deriv_r()
        radial, tangential = [], []
        for j, h in enumerate(np.repeat(mp.I, mp.multiplicities, axis=0).T):
            x = float(mp.x[j])
            radial += [(x, f"radial-{i + 1}", float(rad[i, j])) for i in range(len(rad))]
            sect = G.riemann_from_structure(sc, h).sectional
            sinh2 = ((1.0 - mp.x[j] ** 2) / (2.0 * mp.x[j])) ** 2
            seen = set()
            for (a, b), name, (ia, ib) in coordinate_planes(sc, mp.multiplicities):
                if name not in seen:
                    seen.add(name)
                    amb = sect[a, b] / sinh2 - rat[ia, j] * rat[ib, j]
                    tangential.append((x, name, amb))
        want = radial + tangential
        S = G.curvature_samples(prof)
        got = [(float(x), nm, float(v)) for rows in (slice(None, len(rad)), slice(len(rad), None))
               for x, col in zip(S.x, S.values[rows].T) for nm, v in zip(S.planes[rows], col)]
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (_, _, v), (_, _, ref) in zip(got, want):
            assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("kind, n, phi0", [(GBERGER, 3, (0.95, 1.02)), (SU, 3, (0.5,)), (SU, 5, (0.6,))])
    def test_record_shape(self, kind, n, phi0):
        # one row per plane, radial first, one column per mesh node
        bd = BoundaryData(kind, n, phi0)
        prof, rep = solve_bvp(bd, SolveOptions(grid=96, tol=1e-6, refine_rounds=0, coarse_stage=0))
        assert rep.converged
        S = G.curvature_samples(prof)
        mp = G.reconstruct_metric(prof)
        radial = tuple(f"radial-{i + 1}" for i in range(len(mp.I)))
        tangential = tuple(nm for nm, *_ in G.slice_sectional(bd, mp.I))
        assert np.array_equal(S.x, prof.mesh.nodes)
        assert S.planes == radial + tangential
        assert tangential
        assert S.values.shape == (len(S.planes), prof.mesh.n_nodes)

    def test_round_samples_all_minus_one(self):
        for kind, n in ((GBERGER, 3), (SU, 5)):
            prof = round_profile(kind, n)
            vals = G.curvature_samples(prof).values
            np.testing.assert_allclose(vals, -1.0, atol=1e-9)


class TestWeyl:
    def test_constant_metric_zero(self):
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        xs = np.array([0.3, 0.5])
        mp = synthetic_mp(bd, xs, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
        assert G.weyl_mixed_n3(mp, 1, 2, 3)[1] == 0.0

    def test_berger_line(self):
        # I = (t(x), 1, 1): value = 2x^2/(1-x^2) |d/dx sqrt(t)|
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        xs = np.array([0.4])
        t0, tp = 1.3, 0.7  # t and dt/dx at the node
        L = np.array([[np.log(t0)], [0.0], [0.0]])
        Lp = np.array([[tp / t0], [0.0], [0.0]])
        mp = synthetic_mp(bd, xs, L, Lp, np.zeros((3, 1)))
        x = 0.4
        oracle = 2 * x * x / (1 - x * x) * abs(tp / (2 * np.sqrt(t0)))
        assert G.weyl_mixed_n3(mp, 1, 2, 3)[0] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("kind,phi0", [(SU, (1.5,)), (GBERGER, (0.95, 1.02))])
    def test_swapped_pairs_are_bitwise_equal(self, kind, phi0):
        # why weyl_mixed_max_n3 reads the three cyclic permutations only
        prof, rep = solve_bvp(BoundaryData(kind, 3, phi0), SolveOptions(grid=64, tol=1e-7))
        assert rep.converged
        mp = G.reconstruct_metric(prof)
        for i, p, q in G._WEYL_PERMUTATIONS:
            assert np.array_equal(G.weyl_mixed_n3(mp, i, p, q), G.weyl_mixed_n3(mp, p, i, q))
        perms = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
        assert G.weyl_mixed_max_n3(mp) == max(float(G.weyl_mixed_n3(mp, *perm).max()) for perm in perms)

    def test_usage_guards(self):
        prof = round_profile(SU, 5)
        mp = G.reconstruct_metric(prof)
        with pytest.raises(UsageError):
            G.weyl_mixed_n3(mp, 1, 2, 3)
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        mp3 = synthetic_mp(bd, [0.5], np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(UsageError, match="permutation"):
            G.weyl_mixed_n3(mp3, 1, 1, 3)


class TestK0Bounds:
    def test_round_boundary_case(self):
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        rec = V.check_k0_window(SimpleNamespace(bd=bd, k0=1.0))
        assert rec.passed and rec.threshold is None  # on the boundary, not inside
        assert G.k0_lower_bound(bd) == pytest.approx(1.0)

    def test_su_bound_formula(self):
        bd = BoundaryData(SU, 5, (0.8,))
        lb = G.k0_lower_bound(bd)
        oracle = (6 * 0.8 - 1) ** 5 / (5 * 0.8 ** (6 / 5)) ** 5
        assert lb == pytest.approx(oracle, rel=1e-13)

    def test_solved_k0_in_window(self):
        prof = solved_profile()
        rec = V.check_k0_window(prof)
        assert rec.passed and rec.margin > 0.0
        assert G.k0_lower_bound(prof.bd) < prof.k0 < 1.0

    def test_su_bound_no_overflow(self):
        # ((n+1) phi - 1)^n alone overflows a float here; the bound is (8/7)^7 / phi
        lb = G.k0_lower_bound(BoundaryData(SU, 7, (1e50,)))
        assert lb == pytest.approx((8 / 7) ** 7 / 1e50, rel=1e-13)

    def test_outside_window_none(self):
        assert G.k0_lower_bound(BoundaryData(SU, 5, (1e-6,))) is None

    @pytest.mark.parametrize("phi0", [(1e-300, 1.0), (1.0, 1e-200), (1e300, 1.0)])
    def test_gberger_bound_extreme_ratios(self, phi0):
        # the six-power form overflowed, divided by zero or returned inf here
        lb = G.k0_lower_bound(BoundaryData(GBERGER, 3, phi0))
        assert lb is None or np.isfinite(lb)
        if phi0[0] == 1e300:
            # b0 = (4P - 1) / P^(4/3) on the Berger line Q = 1
            assert lb == pytest.approx((4.0 / 3.0) ** 3 / 1e300, rel=1e-13)
