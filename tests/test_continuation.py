"""Continuation tests: degenerate plans, event detection on manufactured
profiles, synthetic-family bisection, and a short real sweep."""

import numpy as np
import pytest

from ccebvp.continuation import (
    ContinuationTrace,
    EventRecord,
    SweepPlan,
    TraceRecord,
    bisect_event,
    detect_curvature_event,
    sweep,
)
from ccebvp.geometry import CurvatureSample, CurvatureSamples, curvature_samples
from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData, UsageError


def quick_opts(grid=96, tol=1e-6):
    return SolveOptions(grid=grid, tol=tol, refine_rounds=0)


class TestPlan:
    def test_validation(self):
        with pytest.raises(UsageError):
            SweepPlan(SU, 5, lam_end=-0.1)
        with pytest.raises(UsageError):
            SweepPlan(SU, 5, lam_end=0.5, step=0.2, max_step=0.1)
        with pytest.raises(UsageError):
            SweepPlan(SU, 3, lam_end=0.5, step=0.05, min_step=0.2, max_step=0.3)
        with pytest.raises(UsageError):
            SweepPlan(SU, 3, lam_end=0.5, event_tol=0)

    @pytest.mark.parametrize("lam_end", [np.nan, np.inf])
    def test_non_finite_end_rejected(self, lam_end):
        with pytest.raises(UsageError, match="lam_end"):
            SweepPlan(SU, 3, lam_end=lam_end)

    @pytest.mark.parametrize("kw", [{"max_step": np.inf}, {"step": np.inf, "max_step": np.inf},
                                    {"event_tol": np.inf}, {"event_tol": np.nan}])
    def test_non_finite_step_or_tolerance_rejected(self, kw):
        with pytest.raises(UsageError, match="max_step" if "max_step" in kw else "event_tol"):
            SweepPlan(SU, 3, lam_end=0.5, **kw)

    def test_boundary_data_map(self):
        plan = SweepPlan(SU, 5, lam_end=0.5)
        assert plan.boundary_data(0.7).phi0 == (0.7,)


class TestDetect:
    def test_hyperbolic_none(self):
        prof, rep = solve_bvp(BoundaryData(SU, 5, (1.0,)), quick_opts(48))
        assert detect_curvature_event(curvature_samples(prof)) is None

    def test_negative_profile_none(self):
        prof, rep = solve_bvp(BoundaryData(SU, 5, (0.9,)), quick_opts(128))
        assert rep.converged
        assert detect_curvature_event(curvature_samples(prof)) is None

    def test_manufactured_event(self):
        # manufacture a''/a so the radial curvature is +0.1 at exactly one node
        from types import SimpleNamespace

        prof, rep = solve_bvp(BoundaryData(SU, 5, (1.0,)), quick_opts(48))
        j = 20
        x = prof.mesh.nodes[j]
        # with L' = 0: K0 = -1 - x^2 L''/2, so L'' = -2.2/x^2 gives K0 = +0.1
        ypp = prof.ypp.copy()
        W = np.array([[1.0, 1.0 - 5], [1.0, 1.0]]) / 5.0
        ypp[:, j] = np.linalg.solve(W, np.array([-2.2 / (x * x), 0.0]))
        doctored = SimpleNamespace(bd=prof.bd, mesh=prof.mesh, y=prof.y, yp=prof.yp, ypp=ypp)
        sample = detect_curvature_event(curvature_samples(doctored))
        assert sample is not None
        assert sample.x == pytest.approx(x)
        assert sample.value == pytest.approx(0.1, abs=1e-9)

    def test_witness_tie_goes_to_the_first_plane(self):
        # radial-1 and tangential-2-2 agree in exact arithmetic on Einstein SU n=3
        # profiles; 2.5e-15 of roundoff must not pick the witness
        planes = ("radial-1", "radial-2", "tangential-1-2", "tangential-2-2")
        values = np.array([[-0.2, 5.399070961125546e-07],
                           [-0.3, -0.5],
                           [-0.4, -0.6],
                           [-0.25, 5.399070985845356e-07]])
        w = detect_curvature_event(CurvatureSamples(np.array([0.8, 0.85]), planes, values, None))
        assert (w.x, w.plane, w.value) == (0.85, "radial-1", 5.399070961125546e-07)

    def test_thresholding(self):
        # a profile whose largest curvature is about -0.2 has no event
        prof, rep = solve_bvp(BoundaryData(SU, 3, (0.45,)), quick_opts(160))
        assert rep.converged
        samples = curvature_samples(prof)
        assert -1.0 < samples.values.max() < 0.0
        assert detect_curvature_event(samples) is None


def synthetic_trace(lam_lo, lam_hi, event_tol=1e-6):
    plan = SweepPlan(SU, 3, lam_end=lam_hi, event_tol=event_tol)
    w = CurvatureSample(0.5, "radial-1", 0.01)
    records = [
        TraceRecord(lam_lo, True, 1.0, -0.2, (0.0,), True, 1, 1e-3, None),
        TraceRecord(lam_hi, True, 1.0, 0.01, (0.0,), True, 1, 1e-3, None),
    ]
    return ContinuationTrace(plan, records, "event"), w


def proxy(g, plane="radial-1"):
    """A detect seam for solve_at(lam) = lam: the event sample where g >= 0, and g."""

    def detect(lam):
        v = g(lam)
        return (CurvatureSample(0.4, plane, v) if v >= 0 else None), v

    return detect


def bisection_solves(width, tol):
    return int(np.ceil(np.log2(width / tol)))


class TestBisect:
    def test_one_record_rejected(self):
        tr, _ = synthetic_trace(0.5, 0.6)
        tr.records.pop()
        with pytest.raises(UsageError, match="needs a no-event record and an event record"):
            bisect_event(tr, solve_at=lambda lam: lam, detect=proxy(lambda lam: 0.55 - lam))

    def test_already_tight(self):
        tr, w = synthetic_trace(0.5, 0.5 + 1e-7)
        ev = bisect_event(tr, solve_at=lambda lam: object(), detect=lambda p: (None, -1.0))
        assert ev.width <= 1e-6

    def test_synthetic_crossing(self):
        # proxy crosses zero at lambda = 0.5 exactly
        tr, w = synthetic_trace(0.8, 0.3)
        ev = bisect_event(tr, solve_at=lambda lam: lam, detect=proxy(lambda lam: 0.5 - lam))
        assert ev.width <= 1e-6
        assert abs(ev.lam_event - 0.5) <= 1e-6
        assert ev.witness.plane == "radial-1"

    def test_affine_one_estimate_two_certifications(self):
        # g through the records' values (-0.2 at 0.8, 0.01 at 0.3): its secant
        # root is exact, so the two solves beside it certify the bracket
        tr, w = synthetic_trace(0.8, 0.3)
        root = 0.8 - 0.5 * 0.2 / 0.21
        calls = []

        def solve_at(lam):
            calls.append(lam)
            return lam

        ev = bisect_event(tr, solve_at=solve_at, detect=proxy(lambda lam: 0.21 * (0.8 - lam) / 0.5 - 0.2))
        lo, hi = ev.bracket
        assert ev.solves == len(calls) == 2 and ev.annotation == ""
        assert calls[0] > calls[1]  # the no-event side (toward 0.8) is probed first
        assert lo < root < hi and ev.width <= 1e-6 and hi - lo > 0.99e-6
        assert ev.lam_event == pytest.approx(0.5 * (lo + hi), abs=1e-15)
        assert ev.lam_event == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize(
        "g",
        [
            lambda lam: 40.0 * (lam - 0.41) if lam > 0.41 else 0.01 * (lam - 0.41),  # kinked at the root
            lambda lam: -0.2 if lam < 0.41 else 0.01,  # flat on both sides
            lambda lam: -0.2 if lam < 0.41 else (lam - 0.41) ** 3,  # flat, then cubic
        ],
        ids=["kinked", "step", "flat-cubic"],
    )
    def test_rough_proxy_bound(self, g):
        # whatever g is, the ITP projection keeps the solves within two of
        # plain bisection's
        tr, w = synthetic_trace(0.3, 0.8)
        ev = bisect_event(tr, solve_at=lambda lam: lam, detect=proxy(g))
        lo, hi = ev.bracket
        assert ev.annotation == "" and ev.width <= 1e-6
        assert lo < 0.41 <= hi
        assert ev.solves <= bisection_solves(0.5, 1e-6) + 2

    def test_event_record_detected_only_without_midpoint_event(self):
        tr, w = synthetic_trace(0.8, 0.3)
        tr.records[-1].profile = "event-profile"
        seen = []

        def detect(p):
            seen.append(p)
            hit = p == "event-profile" or p <= 0.5
            return (w if hit else None), (0.01 if hit else -0.2)

        ev = bisect_event(tr, solve_at=lambda lam: lam, detect=detect)
        assert "event-profile" not in seen and ev.witness is w
        seen.clear()
        ev = bisect_event(tr, solve_at=lambda lam: lam,
                          detect=lambda p: detect(p) if p == "event-profile" else (None, -0.2))
        assert seen == ["event-profile"] and ev.witness is w

    def test_tolerance_below_float_spacing_stops(self):
        # no bisection can shrink a bracket of adjacent floats to 1e-20
        tr, w = synthetic_trace(2.0, 2.05, event_tol=1e-20)
        calls = []

        def solve_at(lam):
            calls.append(lam)
            if len(calls) > 200:
                raise RuntimeError("bisection did not stop")
            return lam

        ev = bisect_event(tr, solve_at=solve_at, detect=proxy(lambda lam: 0.01 if lam >= 2.03 else -0.2))
        lo, hi = ev.bracket
        assert np.nextafter(lo, np.inf) == hi and lo < 2.03 <= hi
        assert "floating-point" in ev.annotation

    def test_failure_returns_certified_bracket(self):
        tr, w = synthetic_trace(0.8, 0.3)
        ev = bisect_event(tr, solve_at=lambda lam: None, detect=lambda p: (None, -0.2))
        assert ev.annotation != ""
        assert ev.bracket == (0.3, 0.8)

    def test_failure_during_certification(self):
        # the first certification solve passes, the second fails: the bracket
        # certified so far comes back, with the failure named
        tr, w = synthetic_trace(0.8, 0.3)
        calls = []

        def solve_at(lam):
            calls.append(lam)
            return lam if len(calls) == 1 else None

        ev = bisect_event(tr, solve_at=solve_at, detect=proxy(lambda lam: 0.21 * (0.8 - lam) / 0.5 - 0.2))
        assert len(calls) == 2 and ev.solves == 2
        assert ev.bracket == (0.3, calls[0]) and ev.width == calls[0] - 0.3
        assert ev.annotation.startswith(f"solver failure at lambda={calls[1]!r}")
        assert ev.witness is None


class TestSweep:
    def test_degenerate_plan(self):
        plan = SweepPlan(SU, 3, lam_end=1.0, options=quick_opts(48))
        tr = sweep(plan)
        assert tr.stop_reason == "path-end"
        assert len(tr.records) == 1 and tr.event is None
        assert tr.records[0].max_curvature == pytest.approx(-1.0, abs=1e-9)

    def test_short_decreasing_sweep(self):
        plan = SweepPlan(SU, 3, lam_end=0.85, step=0.05)
        tr = sweep(plan)
        assert tr.stop_reason == "path-end"
        lams = [r.lam for r in tr.records]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        k0s = [r.k0 for r in tr.records]
        assert all(b < a + 1e-12 for a, b in zip(k0s, k0s[1:]))
        assert all(r.converged and r.verification_pass for r in tr.records)

    def test_reversed_sweep(self):
        plan = SweepPlan(SU, 3, lam_end=1.15, step=0.05, options=quick_opts())
        tr = sweep(plan)
        assert tr.stop_reason == "path-end"
        lams = [r.lam for r in tr.records]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert all(r.k0 < 1.0 + 1e-12 for r in tr.records)

    def test_generalized_berger_sweep_walks_the_berger_line(self):
        # phi = (lam, 1) is the SU n=3 data: the gberger sweep takes the SU
        # sweep's steps, to its K(0), with a vanishing second nonlocal value
        opts = SolveOptions(grid=96, tol=1e-7, refine_rounds=0)
        gb, su = (sweep(SweepPlan(kind, 3, lam_end=1.2, step=0.05, options=opts)) for kind in (GBERGER, SU))
        assert gb.plan.boundary_data(1.1).phi0 == (1.1, 1.0)
        assert gb.stop_reason == su.stop_reason == "path-end" and gb.rejected == su.rejected == []
        assert [r.lam for r in gb.records] == [r.lam for r in su.records]
        assert len(gb.records) == 5
        assert max(abs(g.k0 - s.k0) for g, s in zip(gb.records, su.records)) < 1e-8
        assert max(abs(r.free[1]) for r in gb.records) < 1e-12

    def test_one_curvature_pass_per_profile(self, monkeypatch):
        from ccebvp import geometry

        seen = []
        inner = geometry.curvature_samples

        def counted(profile):
            seen.append(profile)
            return inner(profile)

        monkeypatch.setattr(geometry, "curvature_samples", counted)
        tr = sweep(SweepPlan(SU, 3, lam_end=0.9, step=0.05, options=quick_opts()))
        assert tr.stop_reason == "path-end" and len(tr.records) == 3
        assert len(seen) == len({id(p) for p in seen}) == len(tr.records)

    def test_warm_start_iteration_sanity(self):
        plan = SweepPlan(SU, 3, lam_end=0.8, step=0.05, options=quick_opts())
        tr = sweep(plan)
        its = [r.iterations for r in tr.records[1:]]
        avg = np.mean(its)
        assert max(its) <= max(3.0 * avg, 6.0)

    def test_rejected_step_is_listed_and_skipped(self, monkeypatch):
        from ccebvp import continuation

        inner = continuation.newton_solve
        failed = []

        def fail_once(bd, *args, **kwargs):
            prof, rep = inner(bd, *args, **kwargs)
            if not failed and bd.phi0[0] < 0.92:
                failed.append(bd.phi0[0])
                rep.converged, rep.failure_reason = False, "injected"
            return prof, rep

        monkeypatch.setattr(continuation, "newton_solve", fail_once)
        plan = SweepPlan(SU, 3, lam_end=0.85, step=0.05, options=quick_opts())
        tr = sweep(plan)
        lams = [r.lam for r in tr.records]
        assert tr.rejected == [(failed[0], "injected")]
        # the failed step to 0.9 is not recorded: the sweep goes on at half the
        # step, and every later target stays short of 0.9, so it is never retried
        assert failed[0] == 0.95 - 0.05 and lams[:3] == [1.0, 0.95, 0.95 - 0.025]
        assert all(lam > failed[0] for lam in lams) and all(r.converged for r in tr.records)
        assert tr.stop_reason == "min-step" and lams[-1] - failed[0] < 2 * plan.min_step

    def test_failed_lambda_is_not_retried(self):
        # SU n=7 at grid 128 fails the drift gate from about 1.51 on; a step
        # that succeeded after a rejection used to aim at the rejected lambda
        # again (1.525 and 1.5125 were each rejected twice, 10 rejections)
        opts = SolveOptions(grid=128, tol=3e-8, refine_rounds=0)
        tr = sweep(SweepPlan(SU, 7, lam_end=3.0, options=opts))
        lams = sorted(lam for lam, _ in tr.rejected)
        assert len(lams) >= 2
        assert all(b - a > 1e-12 for a, b in zip(lams, lams[1:]))


class TestPredictorCorrector:
    @staticmethod
    def counted_sweep(monkeypatch, plan):
        # the sweep, and the reports of every solve after the round start
        from ccebvp import continuation

        inner = continuation.newton_solve
        reports = []

        def counted(*args, **kwargs):
            prof, rep = inner(*args, **kwargs)
            reports.append(rep)
            return prof, rep

        monkeypatch.setattr(continuation, "newton_solve", counted)
        return sweep(plan), reports

    @staticmethod
    def work(reports):
        return {k: sum(r.counters[k] for r in reports) for k in ("jacobians", "lu_factorisations")}

    def test_su3_up_sweep_counts(self, monkeypatch):
        # SU n=3 up sweep as in the sweep-su3 bench: the cubic predictor in
        # log lambda and the certified root-finder bound the work (63 Newton
        # iterations and 17 event solves with warm starts and bisection), and
        # keeping each run's factor while it contracts bounds the Jacobians
        # and factorisations (33 and 17 with a Jacobian at every point)
        opts = SolveOptions(grid=128, tol=3e-8, refine_rounds=0)
        tr, reports = self.counted_sweep(
            monkeypatch, SweepPlan(SU, 3, lam_end=3.0, step=0.05, event_tol=1e-6, options=opts))
        ev = tr.event
        assert tr.stop_reason == "event" and not tr.rejected and ev.annotation == ""
        lo, hi = ev.bracket
        assert ev.width <= 1e-6 and lo < 2.0409746 < hi
        assert ev.lam_event == pytest.approx(0.5 * (lo + hi), abs=1e-15)
        assert ev.solves <= 4 and len(reports) == len(tr.records) - 1 + ev.solves
        assert tr.records[0].iterations == 0
        work = self.work(reports)
        assert work["jacobians"] <= 16 and work["lu_factorisations"] <= 14
        # from the fourth record on, each prediction is a cubic and one
        # iteration on one fresh Jacobian and its factor corrects it
        steps = reports[2 : len(tr.records) - 1]
        assert [r.iterations for r in tr.records[3:]] == [1] * (len(tr.records) - 3)
        assert all(self.work([r]) == {"jacobians": 1, "lu_factorisations": 1} for r in steps)

    def test_su3_down_sweep_counts(self, monkeypatch):
        # the sweep-su3 bench's down sweep
        opts = SolveOptions(grid=384, tol=3e-8, refine_rounds=0)
        tr, reports = self.counted_sweep(monkeypatch, SweepPlan(SU, 3, lam_end=0.3, step=0.05, options=opts))
        assert tr.stop_reason == "path-end" and not tr.rejected and len(tr.records) == 11
        assert len(reports) == len(tr.records) - 1
        assert tr.records[0].iterations == 0
        # each step factors the one Jacobian it builds and corrects on it
        # (28 Jacobians and 18 factorisations with a Jacobian at every point)
        assert all(self.work([r]) == {"jacobians": 1, "lu_factorisations": 1} for r in reports)
