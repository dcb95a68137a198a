"""Verification-check tests: vacuous passes on the zero profile, sensitivity
to deliberate perturbations, hypothesis gating, and the uniqueness ledger."""

import numpy as np
import pytest

from ccebvp import geometry as geom
from ccebvp import verification as V
from ccebvp.solver import SolutionProfile, SolveOptions, make_mesh, newton_solve, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData, UsageError


def solve(kind, n, phi0, grid=96, tol=1e-7):
    prof, rep = solve_bvp(
        BoundaryData(kind, n, phi0),
        SolveOptions(grid=grid, tol=tol, refine_rounds=0, coarse_stage=0),
    )
    assert rep.converged
    return prof


@pytest.fixture(scope="module")
def su_profile():
    return solve(SU, 5, (0.8,))


@pytest.fixture(scope="module")
def round_profile():
    return solve(SU, 5, (1.0,), grid=48)


@pytest.fixture(scope="module")
def gb_profile():
    return solve(GBERGER, 3, (0.95, 1.02))


class TestMonotonicity:
    def test_zero_profile_vacuous(self, round_profile):
        recs = V.check_monotonicity(round_profile)
        assert all(r.ok for r in recs)

    def test_su_increasing(self, su_profile):
        recs = {r.name: r for r in V.check_monotonicity(su_profile)}
        assert recs["monotone-ratio"].passed  # phi rises toward 1
        assert recs["monotone-K"].passed

    def test_gb_hypothesis_gate(self):
        # phi1(0) + phi1(0) phi2(0) < 1: checks must be not-applicable
        prof = solve(GBERGER, 3, (0.45, 1.05), grid=128, tol=3e-7)
        recs = {r.name: r for r in V.check_monotonicity(prof)}
        assert not recs["monotone-ratio-1"].applicable
        assert recs["monotone-ratio-1"].ok
        assert recs["monotone-K"].passed

    def test_gb_applicable(self, gb_profile):
        recs = V.check_monotonicity(gb_profile)
        assert all(r.passed for r in recs if r.applicable)


class TestConstraintDrift:
    def test_zero_profile(self, round_profile):
        rec = V.check_constraint_drift(round_profile)
        assert rec.margin == 0.0 and rec.passed

    def test_converged_within_gate(self, su_profile):
        rec = V.check_constraint_drift(su_profile)
        assert rec.passed and rec.margin <= 10 * su_profile.tol

    def test_perturbation_detected(self, su_profile):
        import copy

        prof = copy.deepcopy(su_profile)
        prof.y[0, prof.mesh.n_nodes // 2] += 1e-4
        rec = V.check_constraint_drift(prof)
        assert not rec.passed


class TestOriginIdentities:
    def test_round_both_sides_zero(self, round_profile):
        recs = V.check_origin_identities(round_profile)
        assert all(r.passed for r in recs)

    def test_gb_identity(self, gb_profile):
        recs = V.check_origin_identities(gb_profile)
        assert all(r.passed for r in recs)
        # the K identity is y1''(0) = 4(3 - Upsilon(0))
        from ccebvp.systems import upsilon

        target = 4.0 * (3.0 - upsilon(gb_profile.k0, *gb_profile.bd.phi0))
        got = 2.0 * gb_profile.origin_series().table[0, 2]
        assert got == pytest.approx(target, rel=1e-6, abs=1e-9)

    def test_su_identity(self, su_profile):
        recs = V.check_origin_identities(su_profile)
        assert all(r.passed for r in recs)


class TestAprioriBounds:
    def test_zero_profile(self, round_profile):
        recs = V.check_apriori_bounds(round_profile)
        assert all(r.ok for r in recs)

    def test_su_bounds_hold(self, su_profile):
        recs = V.check_apriori_bounds(su_profile)
        assert all(r.passed for r in recs)

    def test_synthetic_violation(self, su_profile):
        import copy

        prof = copy.deepcopy(su_profile)
        j = prof.mesh.n_nodes // 2
        x = prof.mesh.nodes[j]
        prof.yp[0, j] = 4 * prof.bd.n * x / (1 - x * x) + 1.0
        recs = {r.name: r for r in V.check_apriori_bounds(prof)}
        assert not recs["apriori-y1-derivative"].passed


class TestNonFiniteProfile:
    def test_weyl_bound_not_applied_to_nan_curvature(self):
        # gberger (1e-300, 1) fails at its start and leaves a profile whose
        # curvature samples hold NaN and inf, so their max is NaN; NaN > 1e-8
        # is False, so the bound was applied and reported a margin of 1.9e195
        prof, rep = solve_bvp(BoundaryData(GBERGER, 3, (1e-300, 1.0)), SolveOptions(grid=64))
        assert rep.failure_reason == "non-finite start"
        with np.errstate(all="ignore"):
            samples = geom.curvature_samples(prof)
            rec = V.check_weyl_bound(prof, samples)
        assert np.isnan(samples.values.max())
        assert not rec.applicable and rec.passed is None


class TestUniqueness:
    def test_identical_profiles_zero(self, su_profile):
        led = V.uniqueness_diagnostic(su_profile, su_profile)
        assert np.all(led.variations == 0.0)
        assert led.forces_zero

    def test_two_seeds(self):
        # the solve from the seed profile against a solve from the zero profile
        bd = BoundaryData(SU, 5, (0.85,))
        p1 = solve(bd.kind, bd.n, bd.phi0)
        mesh = make_mesh(96)
        zero = np.zeros((bd.kind.unknowns, mesh.n_nodes))
        p2, rep = newton_solve(bd, mesh, SolutionProfile(bd, mesh, zero, zero.copy()), SolveOptions(grid=96, tol=1e-7))
        assert rep.converged
        led = V.uniqueness_diagnostic(p1, p2)
        assert led.variations.max() <= 1e-7
        assert led.forces_zero

    def test_gb_contraction_system(self, gb_profile):
        led = V.uniqueness_diagnostic(gb_profile, gb_profile)
        assert led.inequality_residuals is not None
        # at V = 0 the inequalities hold with equality
        np.testing.assert_allclose(led.inequality_residuals, 0.0, atol=1e-12)

    def test_mismatched_data_guard(self, su_profile, gb_profile):
        with pytest.raises(UsageError):
            V.uniqueness_diagnostic(su_profile, gb_profile)

    def test_monotone_decomposition_partitions(self, su_profile):
        led = V.uniqueness_diagnostic(su_profile, solve(SU, 5, (0.8,), grid=80))
        xs = su_profile.mesh.nodes
        for pieces in led.intervals:
            assert pieces[0][0] == xs[0] and pieces[-1][1] == xs[-1]
            for (a, b, s) in pieces:
                assert b >= a


class TestReport:
    def test_full_report_passes(self, su_profile):
        rep = V.run_verification(su_profile)
        assert rep.overall_pass
        names = [r.name for r in rep.records]
        assert names[0] == "constraint-drift" and "pinching" in names

    def test_pinching_values(self, round_profile, su_profile):
        rec = V.pinching_report(round_profile)
        assert rec.margin <= 1e-9
        rec = V.pinching_report(su_profile)
        assert 0.0 < rec.margin < 1.0

    def test_weyl_gate_non_n3(self, su_profile):
        rec = V.check_weyl_bound(su_profile)
        assert not rec.applicable and rec.ok

    def test_weyl_bound_gb(self, gb_profile):
        rec = V.check_weyl_bound(gb_profile)
        assert rec.applicable and rec.passed

    def test_weyl_margin_is_max_of_scalar_components(self, gb_profile):
        from ccebvp import geometry as geom

        mp = geom.reconstruct_metric(gb_profile)
        perms = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1))
        worst = max(float(geom.weyl_mixed_n3(mp, *perm).max()) for perm in perms)
        rec = V.check_weyl_bound(gb_profile)
        assert rec.applicable and rec.margin == worst

    def test_deterministic(self, su_profile):
        r1 = V.run_verification(su_profile)
        r2 = V.run_verification(su_profile)
        assert [(r.name, r.margin, r.passed) for r in r1.records] == [
            (r.name, r.margin, r.passed) for r in r2.records
        ]
