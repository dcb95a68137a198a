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
from ccebvp.systems import SU, BoundaryData, UsageError


def quick_opts(grid=96, tol=1e-6):
    return SolveOptions(grid=grid, tol=tol, refine_rounds=0, coarse_stage=0)


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

    def test_boundary_data_map(self):
        plan = SweepPlan(SU, 5, lam_end=0.5)
        assert plan.boundary_data(0.7).phi0 == (0.7,)


class TestDetect:
    def test_hyperbolic_none(self):
        prof, rep = solve_bvp(BoundaryData(SU, 5, (1.0,)), quick_opts(48))
        assert detect_curvature_event(prof) is None

    def test_negative_profile_none(self):
        prof, rep = solve_bvp(BoundaryData(SU, 5, (0.9,)), quick_opts(128))
        assert rep.converged
        assert detect_curvature_event(prof) is None

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
        sample = detect_curvature_event(doctored)
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
        w = detect_curvature_event(None, CurvatureSamples(np.array([0.8, 0.85]), planes, values))
        assert (w.x, w.plane, w.value) == (0.85, "radial-1", 5.399070961125546e-07)

    def test_thresholding(self):
        # a profile whose largest curvature is about -0.2 has no event
        prof, rep = solve_bvp(BoundaryData(SU, 3, (0.45,)), quick_opts(160))
        assert rep.converged
        assert -1.0 < curvature_samples(prof).values.max() < 0.0
        assert detect_curvature_event(prof) is None


def synthetic_trace(lam_lo, lam_hi, event_tol=1e-6):
    plan = SweepPlan(SU, 3, lam_end=lam_hi, event_tol=event_tol)
    w = CurvatureSample(0.5, "radial-1", 0.01)
    records = [
        TraceRecord(lam_lo, True, 1.0, -0.2, (0.0,), True, 1, None),
        TraceRecord(lam_hi, True, 1.0, 0.01, (0.0,), True, 1, None),
    ]
    return ContinuationTrace(plan, records, "event"), w


class TestBisect:
    def test_already_tight(self):
        tr, w = synthetic_trace(0.5, 0.5 + 1e-7)
        ev = bisect_event(tr, solve_at=lambda lam: object(), detect=lambda p: None)
        assert ev.width <= 1e-6

    def test_synthetic_crossing(self):
        # proxy crosses zero at lambda = 0.5 exactly
        tr, w = synthetic_trace(0.8, 0.3)

        def solve_at(lam):
            return lam

        def detect(lam):
            return CurvatureSample(0.4, "radial-1", 0.5 - lam) if lam <= 0.5 else None

        ev = bisect_event(tr, solve_at=solve_at, detect=detect)
        assert ev.width <= 1e-6
        assert abs(ev.lam_event - 0.5) <= 1e-6
        assert ev.witness.plane == "radial-1"

    def test_event_record_detected_only_without_midpoint_event(self):
        tr, w = synthetic_trace(0.8, 0.3)
        tr.records[-1].profile = "event-profile"
        seen = []

        def detect(p):
            seen.append(p)
            return w if p == "event-profile" or p <= 0.5 else None

        ev = bisect_event(tr, solve_at=lambda lam: lam, detect=detect)
        assert "event-profile" not in seen and ev.witness is w
        seen.clear()
        ev = bisect_event(tr, solve_at=lambda lam: lam,
                          detect=lambda p: detect(p) if p == "event-profile" else None)
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

        ev = bisect_event(tr, solve_at=solve_at, detect=lambda lam: w if lam >= 2.03 else None)
        lo, hi = ev.bracket
        assert np.nextafter(lo, np.inf) == hi and lo < 2.03 <= hi
        assert "floating-point" in ev.annotation

    def test_failure_returns_certified_bracket(self):
        tr, w = synthetic_trace(0.8, 0.3)
        ev = bisect_event(tr, solve_at=lambda lam: None, detect=lambda p: None)
        assert ev.annotation != ""
        assert ev.bracket == (0.3, 0.8)


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
