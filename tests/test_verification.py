"""Verification-check tests: vacuous passes on the zero profile, sensitivity
to deliberate perturbations, hypothesis gating, the uniqueness ledger, and a
mutation suite that makes every emitted check fail."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccebvp import geometry as geom
from ccebvp import systems as S
from ccebvp import verification as V
from ccebvp.cli import main
from ccebvp.exports import export_profile_csv
from ccebvp.series import NonlocalParams
from ccebvp.solver import SolutionProfile, SolveOptions, assemble_collocation, make_mesh, newton_solve, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData, UsageError

from oracles import radial_trace


def solve(kind, n, phi0, grid=96, tol=1e-7):
    prof, rep = solve_bvp(
        BoundaryData(kind, n, phi0),
        SolveOptions(grid=grid, tol=tol, refine_rounds=0),
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
        # phi1(0) + phi1(0) phi2(0) < 1: the ratio monotonicity and the
        # ratio-range checks, which follow from it, must be not-applicable
        prof = solve(GBERGER, 3, (0.45, 1.05), grid=128, tol=3e-7)
        assert not V.monotone_hypothesis(prof.bd)
        recs = {r.name: r for r in V.check_monotonicity(prof) + V.check_apriori_bounds(prof)}
        for name in ("monotone-ratio-1", "monotone-ratio-2", "monotone-ratio-product", "range-ratio-1", "range-ratio-2"):
            assert not recs[name].applicable and recs[name].ok, name
        assert recs["monotone-K"].passed and recs["range-K"].applicable

    @pytest.mark.parametrize("phi0, inside", [((0.95, 1.02), True), ((0.45, 1.05), False), ((1.2, 0.9), False),
                                              ((0.9, 1.2), False), ((1.0, 1.0), False)])
    def test_hypothesis_predicate(self, phi0, inside):
        # phi1 < 1, phi1 phi2 < 1 and phi1 + phi1 phi2 > 1; SU data always meet it
        assert V.monotone_hypothesis(BoundaryData(GBERGER, 3, phi0)) is inside
        assert V.monotone_hypothesis(BoundaryData(SU, 3, (phi0[0],)))

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


class TestEliminations:
    """y'' is eliminated through the evolution equations once per verification
    and once per `cce export`, and never to write the profile CSV: the first
    integral does not read it."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = S.evo_residuals

        def evo_residuals(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(S, "evo_residuals", evo_residuals)
        return calls

    def test_one_per_verification(self, monkeypatch, su_profile):
        calls = self.counted(monkeypatch)
        V.run_verification(su_profile)
        assert len(calls) == 1

    def test_one_per_export(self, monkeypatch, su_profile, tmp_path):
        calls = self.counted(monkeypatch)
        p = tmp_path / "profile.csv"
        export_profile_csv(su_profile, str(p))
        assert len(calls) == 0
        assert main(["export", str(p)]) == 0
        assert len(calls) == 1


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


class TestReport:
    def test_full_report_passes(self, su_profile):
        rep = V.run_verification(su_profile)
        assert rep.overall_pass
        names = [r.name for r in rep.records]
        assert names[0] == "constraint-drift" and "pinching" in names

    def test_pinching_values(self, round_profile, su_profile):
        rec = V.pinching_report(geom.curvature_samples(round_profile))
        assert rec.margin <= 1e-9
        rec = V.pinching_report(geom.curvature_samples(su_profile))
        assert 0.0 < rec.margin < 1.0

    def test_weyl_gate_non_n3(self, su_profile):
        rec = V.check_weyl_bound(su_profile, geom.curvature_samples(su_profile))
        assert not rec.applicable and rec.ok

    def test_weyl_bound_gb(self, gb_profile):
        rec = V.check_weyl_bound(gb_profile, geom.curvature_samples(gb_profile))
        assert rec.applicable and rec.passed

    def test_weyl_margin_is_max_of_scalar_components(self, gb_profile):
        mp = geom.reconstruct_metric(gb_profile)
        perms = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1))
        worst = max(float(geom.weyl_mixed_n3(mp, *perm).max()) for perm in perms)
        rec = V.check_weyl_bound(gb_profile, geom.curvature_samples(gb_profile))
        assert rec.applicable and rec.margin == worst

    def test_deterministic(self, su_profile):
        r1 = V.run_verification(su_profile)
        r2 = V.run_verification(su_profile)
        assert [(r.name, r.margin, r.passed) for r in r1.records] == [
            (r.name, r.margin, r.passed) for r in r2.records
        ]


class TestReconstruction:
    @pytest.mark.parametrize("fixture", ["su_profile", "gb_profile"])
    def test_one_metric_per_verification(self, request, monkeypatch, fixture):
        # the curvature samples carry the metric the radial trace and the
        # Weyl bound read; three reconstructions per gberger report before
        profile = request.getfixturevalue(fixture)
        calls = []
        inner = geom.reconstruct_metric

        def counted(prof):
            calls.append(prof)
            return inner(prof)

        monkeypatch.setattr(geom, "reconstruct_metric", counted)
        V.run_verification(profile)
        assert calls == [profile]


# -- the mutation suite: converged default-config profiles, each mutated so
# that the named checks fail ------------------------------------------------

CASES = {
    "su5-0.8": BoundaryData(SU, 5, (0.8,)),
    "gberger-0.95-1.02": BoundaryData(GBERGER, 3, (0.95, 1.02)),
    "su3-1.5": BoundaryData(SU, 3, (1.5,)),
}


@pytest.fixture(scope="module")
def converged():
    out = {}
    for key, bd in CASES.items():
        prof, rep = solve_bvp(bd, SolveOptions())
        assert rep.converged
        out[key] = prof
    return out


def _with_rows(a, i, f):
    """A copy of a whose rows i are replaced by f of them."""
    a = a.copy()
    a[i] = f(a[i])
    return a


def _sin7x(p, amp):
    return amp * np.sin(7.0 * p.mesh.nodes)


# name: (mutation, {case: checks that must fail})
MUTATIONS = {
    "y-times-1.01": (
        lambda p: replace(p, y=p.y * 1.01),
        {key: {"constraint-drift"} for key in CASES},
    ),
    "k0var-plus-1e-4": (
        lambda p: replace(p, k0var=p.k0var + 1e-4),
        {"gberger-0.95-1.02": {"range-K"}},
    ),
    "k0var-plus-0.05": (
        lambda p: replace(p, k0var=p.k0var + 0.05),
        {key: {"range-K", "k0-window"} for key in CASES},
    ),
    "y-plus-1e-3-sin7x": (
        lambda p: replace(p, y=p.y + _sin7x(p, 1e-3)),
        {"gberger-0.95-1.02": {"range-ratio-2"}},
    ),
    "ratios-times-5": (
        lambda p: replace(p, y=_with_rows(p.y, slice(1, None), lambda r: 5.0 * r)),
        {"su5-0.8": {"range-ratio-1"}, "gberger-0.95-1.02": {"range-ratio-1", "range-ratio-2"}},
    ),
    "y1-derivative-minus-1e-3": (
        lambda p: replace(p, yp=_with_rows(p.yp, 0, lambda r: r - 1e-3)),
        {key: {"monotone-K"} for key in CASES},
    ),
    "derivatives-negated": (
        lambda p: replace(p, yp=-p.yp),
        {"su5-0.8": {"monotone-ratio"}, "su3-1.5": {"monotone-ratio"}},
    ),
    "derivatives-plus-0.1-sin7x": (
        lambda p: replace(p, yp=p.yp + _sin7x(p, 0.1)),
        {"gberger-0.95-1.02": {"monotone-ratio-1", "monotone-ratio-2", "monotone-ratio-product"}},
    ),
    "y1-derivative-plus-its-bound": (
        lambda p: replace(p, yp=_with_rows(p.yp, 0, lambda r: r + 4.0 * p.bd.n * p.mesh.nodes / (1.0 - p.mesh.nodes**2))),
        {key: {"apriori-y1-derivative"} for key in CASES},
    ),
    # a narrow window: x 10 still passes (4.85), x 12 turns the curvature
    # positive and the bound no longer applies
    "ratio-derivative-times-10.5": (
        lambda p: replace(p, yp=_with_rows(p.yp, 1, lambda r: 10.5 * r)),
        {"su3-1.5": {"weyl-bound"}},
    ),
}

# mutations that pass every check although the discrete residual says the
# profile is wrong: no check reads the endpoint parameters (ROADMAP item 11)
UNSEEN = {
    "nonlocal-times-1.1": (
        lambda p: replace(p, free=NonlocalParams(tuple(1.1 * c for c in p.free.coeffs))),
        {"su5-0.8": 1.1e-2, "gberger-0.95-1.02": 1.1e-2, "su3-1.5": 4.5e-2},
    ),
    "x1-coefficients-plus-1e-2": (
        lambda p: replace(p, infinity_free=p.infinity_free + 1e-2),
        {"su5-0.8": 3.8e-3, "gberger-0.95-1.02": 3.8e-3, "su3-1.5": 3.7e-3},
    ),
}


def _report(prof):
    with np.errstate(all="ignore"):
        return {r.name: r for r in V.run_verification(prof).records}


class TestMutations:
    def test_unmutated_profiles_pass(self, converged):
        for prof in converged.values():
            assert all(r.ok for r in _report(prof).values())

    @pytest.mark.parametrize(
        "name, case", [(name, case) for name, (_, fails) in MUTATIONS.items() for case in fails]
    )
    def test_mutation_fails_its_checks(self, converged, name, case):
        mutate, fails = MUTATIONS[name]
        report = _report(mutate(converged[case]))
        assert {k for k in fails[case] if report[k].passed is False} == fails[case]

    def test_every_check_has_a_mutation(self, converged):
        # every check that can pass or fail on these profiles is failed by
        # at least one mutation above
        emitted = {name for prof in converged.values() for name, r in _report(prof).items() if r.passed is not None}
        covered = {check for _, fails in MUTATIONS.values() for checks in fails.values() for check in checks}
        assert emitted - covered == set()

    @pytest.mark.parametrize(
        "name, case",
        [
            pytest.param(name, case, marks=pytest.mark.xfail(
                strict=True, reason=f"passes every check at collocation residual {res:.1e} (ROADMAP item 11)"))
            for name, (_, residuals) in UNSEEN.items() for case, res in residuals.items()
        ],
    )
    def test_endpoint_parameter_mutation_fails_a_check(self, converged, name, case):
        mutate, residuals = UNSEEN[name]
        prof = mutate(converged[case])
        F, _ = assemble_collocation(prof.bd, prof.mesh, prof)
        assert np.abs(F).max() == pytest.approx(residuals[case], rel=0.05)
        assert not all(r.ok for r in _report(prof).values())


class TestRadialTraceLaw:
    """Why no check reads the radial Einstein trace: on SU it is a multiple
    of the first integral, on gberger nothing above roundoff."""

    @pytest.mark.parametrize("n, phi0", [(5, 0.8), (3, 1.5), (7, 2.0)])
    def test_su_trace_is_a_multiple_of_the_first_integral(self, n, phi0):
        prof, rep = solve_bvp(BoundaryData(SU, n, (phi0,)), SolveOptions())
        assert rep.converged
        rng = np.random.default_rng(n)
        x = prof.mesh.nodes
        for amp in (1e-3, 0.05):
            p = replace(prof, y=prof.y * (1.0 + amp * rng.standard_normal(prof.y.shape)),
                        yp=prof.yp * (1.0 + amp * rng.standard_normal(prof.yp.shape)))
            trace = radial_trace(geom.curvature_samples(p)) + n
            law = (n - 1) * x * x * p.constraint_values() / (4.0 * n)
            assert np.abs(trace - law).max() <= 1e-10 * np.abs(law).max()

    def test_gberger_trace_is_roundoff_under_every_mutation(self, converged):
        # 4.4e-16 on most mutations; 3.2e-14 where y1' is raised to its bound
        # (up to 37)
        prof = converged["gberger-0.95-1.02"]
        for mutate, _ in list(MUTATIONS.values()) + list(UNSEEN.values()):
            with np.errstate(all="ignore"):
                trace = radial_trace(geom.curvature_samples(mutate(prof)))
            assert np.abs(trace + 3).max() <= 1e-13


class TestDriftGateIsTheRule:
    # converged at a loose tolerance with the drift under DRIFT_GATE * tol:
    # the drift gate alone accepts the first integral, so the report passes
    @pytest.mark.parametrize("n, lam", [(3, 2.2641), (5, 2.8877), (7, 0.6711)])
    def test_loose_tol_solve_passes(self, n, lam):
        prof, rep = solve_bvp(BoundaryData(SU, n, (lam,)), SolveOptions(tol=1e-7))
        assert rep.converged
        assert V.run_verification(prof).overall_pass


class TestReadmeCheckList:
    def test_list_matches_emitted_records(self, converged):
        # the README's record table, read per family, is the emitted order
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme[readme.index("| record | family |"):].split("\n\n", 1)[0]
        rows = [[c.strip().strip("`") for c in line.strip().strip("|").split("|")] for line in table.splitlines()[2:]]
        for case in ("su3-1.5", "gberger-0.95-1.02"):
            fam = converged[case].bd.kind.family
            listed = [name for name, family, *_ in rows if family in (fam, "both")]
            assert listed == list(_report(converged[case])), case
