"""Boundary-parameter continuation from the round sphere.

The sweep walks the ratio parameter away from 1 as a predictor-corrector:
each solve starts from the linear extrapolation in the parameter of the two
nearest converged profiles (from the previous profile alone on the first
step), with adaptive steps (halve on failure, grow after three straight
successes).  It stops at the path end, at the first curvature-sign event,
or on min-step exhaustion.  An event is then located by a safeguarded
root-finder on the largest monitored curvature and certified by a bracket
of width event_tol centred on the root estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geom
from .solver import SolveOptions, as_guess_for, newton_solve, secant_guess, solve_bvp
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
    solves: int = 0  # solves the location took


@dataclass
class ContinuationTrace:
    plan: SweepPlan
    records: list
    stop_reason: str  # 'event' | 'path-end' | 'min-step'
    event: EventRecord | None = None
    rejected: list = field(default_factory=list)  # (lambda, failure_reason) of each halved step


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


def _solve_at(plan: SweepPlan, lam: float, near=()):
    """Solve at lam: from the seed when near, a collection of converged
    (lambda, profile) pairs on one mesh, is empty; else from the linear
    prediction through the two pairs nearest lam, or from the one pair
    when there is only one."""
    bd = plan.boundary_data(lam)
    opts = plan.options
    if not near:
        return solve_bvp(bd, opts)
    (mu, p), *rest = sorted(near, key=lambda pair: abs(pair[0] - lam))
    if rest:
        nu, q = rest[0]
        guess = secant_guess(bd, p, q, (lam - mu) / (nu - mu), opts)
    else:
        guess = as_guess_for(bd, p, opts)
    return newton_solve(bd, p.mesh, guess, opts)


def sweep(plan: SweepPlan) -> ContinuationTrace:
    """Walk the parameter path; returns the trace with its stop reason."""
    lam = 1.0  # every path starts at the round sphere
    direction = 1.0 if plan.lam_end >= lam else -1.0
    prof, rep = _solve_at(plan, lam)
    if not rep.converged:
        raise RuntimeError("the round-sphere solve failed; sweep cannot start")
    records = [_record(plan, lam, prof, rep, geom.curvature_samples(prof))]
    trace = ContinuationTrace(plan, records, "path-end")
    if plan.lam_end == lam:
        return trace

    step, streak = plan.step, 0
    while True:
        target = lam + direction * step
        if direction * (target - plan.lam_end) >= 0.0:
            target = plan.lam_end
        prof, rep = _solve_at(plan, target, [(r.lam, r.profile) for r in records[-2:]])
        if not rep.converged:
            trace.rejected.append((target, rep.failure_reason))
            step *= 0.5
            streak = 0
            if step < plan.min_step:
                trace.stop_reason = "min-step"
                return trace
            continue
        samples = geom.curvature_samples(prof)
        records.append(_record(plan, target, prof, rep, samples))
        if detect_curvature_event(prof, samples) is not None:
            trace.stop_reason = "event"
            trace.event = bisect_event(trace)
            return trace
        lam = target
        if lam == plan.lam_end:
            return trace
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


def _detect(profile):
    samples = geom.curvature_samples(profile)
    return detect_curvature_event(profile, samples), float(samples.values.max())


def _root_estimate(ends, last):
    """Secant root through the last two points evaluated when it falls
    strictly inside the bracket, else the regula falsi root of the bracket
    ends."""
    (a, ga), (b, gb) = ends
    (p, gp), (q, gq) = last
    if gp != gq:
        x = q - gq * (q - p) / (gq - gp)
        if min(a, b) < x < max(a, b):
            return x
    return b - gb * (b - a) / (gb - ga)


def bisect_event(trace: ContinuationTrace, solve_at=None, detect=None) -> EventRecord:
    """Locate the curvature event between the trace's last two records (no
    event, event) to the plan's event_tol.

    The root-finder works on g(lambda), the largest monitored curvature,
    which is >= 0 exactly where an event is detected.  Each estimate of its
    root (_root_estimate) is projected toward the bracket midpoint as in ITP
    (Oliveira and Takahashi 2020), so that whatever g is, the bracket after
    k solves is under event_tol * 2**(n - k) with
    n = ceil(log2(width / event_tol)) + 2: two solves more than bisection at
    worst.  When the solve budget allows two more solves and an estimate
    lies more than event_tol/2 inside both ends, certification is tried: a
    solve just inside event_tol/2 on either side of it, no-event side first.
    A certified pair is returned with lam_event the estimate.  Otherwise
    (or when certification fails) the search takes a projected or
    bisection step, and if it ends that way lam_event is the midpoint of
    the final bracket.

    Each solve starts from the linear interpolation of the two nearest
    converged profiles.  A solver failure returns the widest certified
    bracket with an annotation; so does a bracket of adjacent floats, which
    no event_tol below their spacing can shrink further.  The seams:
    solve_at(lam) returns a profile or None, and detect(profile) returns the
    event's CurvatureSample (or None) and g.  The name is kept for the span
    continuation.bisect_event that bench/tracing.py records.
    """
    plan = trace.plan
    tol = plan.event_tol
    if len(trace.records) < 2:
        raise UsageError("locating an event needs a no-event record and an event record")
    lo_rec, hi_rec = trace.records[-2], trace.records[-1]
    if solve_at is None:
        near = {lo_rec.lam: lo_rec.profile, hi_rec.lam: hi_rec.profile}

        def solve_at(lam):
            prof, rep = _solve_at(plan, lam, near.items())
            if rep.converged:
                near[lam] = prof
            return prof if rep.converged else None

    if detect is None:
        detect = _detect

    ends = [(lo_rec.lam, lo_rec.max_curvature), (hi_rec.lam, hi_rec.max_curvature)]  # (no event, event)
    last = ends[:]  # the last two (lambda, g) evaluated, latest last
    # the schedule and the certified pairs aim at 2 * half, just under tol,
    # so that rounding cannot push a bracket width over tol
    half = 0.5 * tol * (1.0 - 2.0**-20)
    width = abs(hi_rec.lam - lo_rec.lam)
    n_max = 2 + (math.ceil(math.log2(width / tol)) if width > tol else 0)
    witness = None
    lam_event = None
    annotation = ""
    solves = 0

    def budget(k):
        # the widest bracket allowed after k solves
        return math.ldexp(2 * half, n_max - k)

    def probe(lam):
        # solve at lam and move the bracket end on its side: None on a
        # solver failure, else whether lam shows the event
        nonlocal witness, solves, last
        solves += 1
        prof = solve_at(lam)
        if prof is None:
            return None
        sample, g = detect(prof)
        ends[sample is not None] = (lam, g)
        last = [last[1], (lam, g)]
        if sample is not None:
            witness = sample
        return sample is not None

    while abs(ends[1][0] - ends[0][0]) > tol:
        (a, _), (b, _) = ends
        w, s, mid = abs(b - a), (1.0 if b > a else -1.0), 0.5 * (a + b)
        if not min(a, b) < mid < max(a, b):
            annotation = "bracket at floating-point resolution"
            break
        est = _root_estimate(ends, last)
        d = (est - mid) * s  # offset from the midpoint toward the event end
        pair = (est - s * half, est + s * half)
        # a failed first probe leaves w/2 + d - half after one solve, a
        # failed second one w/2 - d - half after two
        if (
            solves + 2 <= n_max
            and w / 2 - half - budget(solves + 2) <= d <= budget(solves + 1) - w / 2 + half
            and min(a, b) < min(pair) and max(pair) < max(a, b)
            and 0.0 < abs(pair[1] - pair[0]) <= tol
        ):
            for want, lam in zip((False, True), pair):
                hit = probe(lam)
                if hit is not want:
                    break
            else:
                lam_event = est
                break
        else:
            r = max(budget(solves + 1) - w / 2, 0.0)
            lam = mid + s * min(max(d, -r), r)
            if not min(a, b) < lam < max(a, b):
                lam = mid
            hit = probe(lam)
        if hit is None:
            annotation = f"solver failure at lambda={lam!r}; widest certified bracket returned"
            break

    (a, _), (b, _) = ends
    if witness is None and hi_rec.profile is not None:
        # no probe showed the event: the witness is the event record's own
        witness = detect(hi_rec.profile)[0]
    if lam_event is None:
        lam_event = 0.5 * (a + b)
    return EventRecord(lam_event, (min(a, b), max(a, b)), witness, abs(b - a), annotation, solves)
