"""Boundary-parameter continuation from the round sphere.

The sweep walks the ratio parameter away from 1, warm-starting each solve
from the previous converged profile, with adaptive steps (halve on failure,
grow after three straight successes).  It stops at the path end, at the
first curvature-sign event, or on min-step exhaustion; an event is then
bisected in the parameter until the bracket is tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geom
from .solver import SolveOptions, as_guess_for, newton_solve, solve_bvp
from .systems import BoundaryData, SystemKind, UsageError
from .verification import run_verification


@dataclass
class SweepPlan:
    """A path from the round sphere to lam_end.  Without options each step
    solves at grid 384, tol 3e-8 and no refinement rounds."""

    kind: SystemKind
    n: int
    lam_end: float
    step: float = 0.05
    min_step: float = 1e-4
    max_step: float = 0.1
    event_tol: float = 1e-6
    options: SolveOptions = field(
        default_factory=lambda: SolveOptions(grid=384, tol=3e-8, refine_rounds=0)
    )

    def __post_init__(self):
        if not 0 < self.min_step <= self.step <= self.max_step:
            raise UsageError(
                f"need 0 < min_step <= step <= max_step, got {self.min_step}, {self.step}, {self.max_step}"
            )
        if not 0 < self.lam_end < np.inf:
            raise UsageError(f"lam_end must be positive and finite, got {self.lam_end}")
        if not self.event_tol > 0:
            raise UsageError(f"event_tol must be positive, got {self.event_tol}")

    def boundary_data(self, lam: float) -> BoundaryData:
        # SU family: phi(0) = lambda per the continuity-method normalization;
        # generalized Berger sweeps walk the Berger line (phi2 = 1).
        if self.kind.family == "su":
            return BoundaryData(self.kind, self.n, (lam,))
        return BoundaryData(self.kind, self.n, (lam, 1.0))


@dataclass
class TraceRecord:
    lam: float
    converged: bool
    k0: float
    max_curvature: float
    free: tuple
    verification_pass: bool
    iterations: int
    profile: object = None


@dataclass
class EventRecord:
    lam_event: float
    bracket: tuple
    witness: geom.CurvatureSample
    width: float
    annotation: str = ""


@dataclass
class ContinuationTrace:
    plan: SweepPlan
    records: list
    stop_reason: str  # 'event' | 'path-end' | 'min-step'
    event: EventRecord | None = None


def detect_curvature_event(profile, samples=None):
    """First node (in x) where any monitored plane curvature reaches zero.

    samples are the profile's curvature samples, computed here when not given.
    The witness is the first plane, in row order, within 1e-12 of the node's
    largest value: planes equal in exact arithmetic (radial-1 and
    tangential-2-2 on Einstein SU n=3 profiles) differ there by roundoff only.
    """
    if samples is None:
        samples = geom.curvature_samples(profile)
    hits = np.flatnonzero((samples.values >= 0.0).any(axis=0))
    if not hits.size:
        return None
    j = hits[0]
    col = samples.values[:, j]
    p = int(np.argmax(col >= col.max() - 1e-12))
    return geom.CurvatureSample(float(samples.x[j]), samples.planes[p], float(col[p]))


def _solve_at(plan: SweepPlan, lam: float, warm=None):
    bd = plan.boundary_data(lam)
    opts = plan.options
    if warm is not None:
        return newton_solve(bd, warm.mesh, as_guess_for(bd, warm, opts), opts)
    return solve_bvp(bd, opts)


def sweep(plan: SweepPlan) -> ContinuationTrace:
    """Walk the parameter path; returns the trace with its stop reason."""
    lam = 1.0  # every path starts at the round sphere
    direction = 1.0 if plan.lam_end >= lam else -1.0
    prof, rep = _solve_at(plan, lam)
    if not rep.converged:
        raise RuntimeError("the round-sphere solve failed; sweep cannot start")
    records = [_record(plan, lam, prof, rep, geom.curvature_samples(prof))]
    if plan.lam_end == lam:
        return ContinuationTrace(plan, records, "path-end")

    step, streak = plan.step, 0
    prev = prof
    while True:
        target = lam + direction * step
        if direction * (target - plan.lam_end) >= 0.0:
            target = plan.lam_end
        prof, rep = _solve_at(plan, target, warm=prev)
        if not rep.converged:
            step *= 0.5
            streak = 0
            if step < plan.min_step:
                return ContinuationTrace(plan, records, "min-step")
            continue
        samples = geom.curvature_samples(prof)
        rec = _record(plan, target, prof, rep, samples)
        sample = detect_curvature_event(prof, samples)
        if sample is not None:
            records.append(rec)
            event = bisect_event(ContinuationTrace(plan, records, "event"))
            return ContinuationTrace(plan, records, "event", event)
        records.append(rec)
        prev, lam = prof, target
        if lam == plan.lam_end:
            return ContinuationTrace(plan, records, "path-end")
        streak += 1
        if streak >= 3:
            step = min(step * 1.5, plan.max_step)
            streak = 0


def _record(plan, lam, prof, rep, samples):
    ver = run_verification(prof, samples)
    return TraceRecord(
        lam,
        rep.converged,
        prof.k0,
        float(samples.values.max()),
        tuple(float(np.real(c)) for c in prof.free.coeffs),
        ver.overall_pass,
        rep.iterations,
        prof,
    )


def bisect_event(trace: ContinuationTrace, solve_at=None, detect=None) -> EventRecord:
    """Shrink the (no-event, event) parameter bracket by bisection to the
    plan's event_tol.

    Each midpoint is re-solved (warm-started from the nearest converged
    profile); a solver failure inside the bracket returns the widest
    certified bracket with an annotation.  So does a bracket of adjacent
    floats, which no event_tol below their spacing can shrink further.
    """
    plan = trace.plan
    if len(trace.records) < 2:
        raise UsageError("bisection needs a no-event record and an event record")
    lo_rec, hi_rec = trace.records[-2], trace.records[-1]
    lo, hi = lo_rec.lam, hi_rec.lam
    if solve_at is None:
        profiles = {lo: lo_rec.profile, hi: hi_rec.profile}

        def solve_at(lam):
            nearest = profiles[min(profiles, key=lambda mu: abs(mu - lam))]
            prof, rep = _solve_at(plan, lam, warm=nearest)
            if rep.converged:
                profiles[lam] = prof
            return prof if rep.converged else None

    if detect is None:
        detect = detect_curvature_event

    witness = None
    annotation = ""
    while abs(hi - lo) > plan.event_tol:
        mid = 0.5 * (lo + hi)
        if not min(lo, hi) < mid < max(lo, hi):
            annotation = "bracket at floating-point resolution"
            break
        prof = solve_at(mid)
        if prof is None:
            annotation = f"solver failure at lambda={mid!r}; widest certified bracket returned"
            break
        sample = detect(prof)
        if sample is None:
            lo = mid
        else:
            hi = mid
            witness = sample
    if witness is None and hi_rec.profile is not None:
        # no midpoint became the event: the witness is the event record's own
        witness = detect(hi_rec.profile)
    lam_event = 0.5 * (lo + hi)
    return EventRecord(lam_event, (min(lo, hi), max(lo, hi)), witness, abs(hi - lo), annotation)
