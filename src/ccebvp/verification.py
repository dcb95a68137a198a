"""Invariant checks against solution profiles and the two-solution
total-variation uniqueness diagnostic.

Every check produces a record (name, anchor slug, measured margin, threshold,
pass flag) through one of three rules: a margin above its threshold, a
measure at most its threshold, or not applicable when the check's
hypotheses fail (such a check is not failed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geom
from .solver import DRIFT_GATE
from .systems import UsageError, family

DEADBAND = 1e-9


@dataclass
class CheckRecord:
    name: str
    anchor: str
    margin: float
    threshold: float | None
    passed: bool | None  # None when informational
    applicable: bool = True

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.passed is not False

    @classmethod
    def above(cls, name, anchor, margin, threshold=-DEADBAND) -> "CheckRecord":
        """Passes when margin exceeds threshold; a NaN margin fails."""
        return cls(name, anchor, float(margin), threshold, bool(margin > threshold))

    @classmethod
    def at_most(cls, name, anchor, measure, threshold) -> "CheckRecord":
        """Passes when measure is at most threshold; a NaN measure fails."""
        return cls(name, anchor, float(measure), threshold, bool(measure <= threshold))

    @classmethod
    def not_applicable(cls, name, anchor) -> "CheckRecord":
        return cls(name, anchor, 0.0, None, None, applicable=False)


@dataclass
class VerificationReport:
    records: list

    @property
    def overall_pass(self) -> bool:
        return all(r.ok for r in self.records)


def _interior(profile):
    return slice(1, profile.mesh.n_nodes - 1)


def monotone_hypothesis(bd) -> bool:
    """Whether the boundary data meet the monotone-solution hypothesis: always
    on SU; on generalized Berger phi1 < 1, phi1 phi2 < 1 and phi1 + phi1 phi2 > 1.
    The ratio monotonicity and ratio-range checks read n/a where it fails."""
    if bd.kind.family == "su":
        return True
    p1, p2 = bd.phi0
    return p1 < 1.0 and p1 * p2 < 1.0 and p1 + p1 * p2 > 1.0


def check_monotonicity(profile) -> list:
    """Derivative sign conditions of the monotone-solution properties at interior nodes."""
    bd = profile.bd
    sl = _interior(profile)
    recs = [CheckRecord.above("monotone-K", "volume-ratio-monotonicity", profile.yp[0, sl].min())]
    if bd.kind.family == "su":
        sign = np.sign(1.0 - bd.phi0[0])
        vals = sign * profile.yp[1, sl] if sign != 0 else np.zeros(1)
        recs.append(CheckRecord.above("monotone-ratio", "ratio-monotonicity", vals.min()))
    else:
        hypothesis = monotone_hypothesis(bd)
        for name, f in (
            ("monotone-ratio-1", profile.yp[1, sl]),
            ("monotone-ratio-2", profile.yp[2, sl]),
            ("monotone-ratio-product", profile.yp[1, sl] + profile.yp[2, sl]),
        ):
            if hypothesis:  # single-signedness
                recs.append(CheckRecord.above(name, "ratio-monotonicity", max(f.min(), (-f).min())))
            else:
                recs.append(CheckRecord.not_applicable(name, "ratio-monotonicity"))
    return recs


def check_constraint_drift(profile) -> CheckRecord:
    """Sup-norm of the first integral at the nodes against DRIFT_GATE times the solve tolerance."""
    drift, thr = np.abs(profile.constraint_values()).max(), DRIFT_GATE * profile.tol
    return CheckRecord.at_most("constraint-drift", "first-integral-propagation", drift, thr)


def check_apriori_bounds(profile) -> list:
    """Interior bound y1' < 4n x/(1-x^2) and ratio-range containment."""
    bd = profile.bd
    n = bd.n
    sl = _interior(profile)
    xs = profile.mesh.nodes[sl]
    bound = 4.0 * n * xs / (1.0 - xs * xs)
    margin = (bound - profile.yp[0, sl]).min()
    recs = [CheckRecord.above("apriori-y1-derivative", "first-derivative-bound", margin, 0.0)]
    m = family(bd.kind, bd.n).m
    hypothesis = monotone_hypothesis(bd)  # containment follows from monotone ratios
    for i in range(1, m):
        if not hypothesis:
            recs.append(CheckRecord.not_applicable(f"range-ratio-{i}", "ratio-range-containment"))
            continue
        phi0 = bd.phi0[i - 1]
        lo, hi = min(phi0, 1.0), max(phi0, 1.0)
        phi = np.exp(profile.y[i, sl])
        margin = min((phi - lo).min(), (hi - phi).min())
        recs.append(CheckRecord.above(f"range-ratio-{i}", "ratio-range-containment", margin))
    K = np.exp(profile.y[0, sl])
    kmargin = min((K - profile.k0).min(), (1.0 - K).min())
    recs.append(CheckRecord.above("range-K", "determinant-ratio-window", kmargin))
    return recs


def check_k0_window(profile) -> CheckRecord:
    """K(0) strictly between k0_lower_bound (0 where there is none) and the
    volume-comparison bound 1; round data sit exactly on the boundary K(0) = 1."""
    k0 = profile.k0
    if profile.bd.is_round and abs(k0 - 1.0) <= 1e-10:
        return CheckRecord("k0-window", "determinant-ratio-window", 0.0, None, True)
    lb = geom.k0_lower_bound(profile.bd)
    margin = min(k0 - (0.0 if lb is None else lb), 1.0 - k0)
    return CheckRecord.above("k0-window", "determinant-ratio-window", margin, 0.0)


def check_weyl_bound(profile, samples) -> CheckRecord:
    """n=3 mixed Weyl components against the nonpositively-curved bound
    2*sqrt(6), on the metric the curvature samples were computed from."""
    # the bound needs n=3 and nonpositive curvature, read from finite samples
    if profile.bd.n != 3 or not (np.all(np.isfinite(samples.values)) and samples.values.max() <= 1e-8):
        return CheckRecord.not_applicable("weyl-bound", "weyl-norm-bound")
    worst = geom.weyl_mixed_max_n3(samples.metric)
    return CheckRecord.at_most("weyl-bound", "weyl-norm-bound", worst, geom.WEYL_BOUND_N3 + 1e-8)


def pinching_report(samples) -> CheckRecord:
    """Max |K + 1| over monitored planes (informational)."""
    worst = np.abs(samples.values + 1.0).max()
    return CheckRecord("pinching", "curvature-pinching", float(worst), None, None)


# the generalized Berger contraction inequalities, in the order of
# VariationLedger.inequality_residuals (each residual is right side less left)
CONTRACTIONS = ("V(z2) <= V(z1)/2 + V(z3)/4", "V(z3) <= V(z1)/2 + V(z2)/4", "V(z1) <= (V(z2) + V(z3))/3")


@dataclass
class VariationLedger:
    variations: np.ndarray  # total variation of each difference z_i
    inequality_residuals: np.ndarray | None  # gberger contraction system
    forces_zero: bool


def uniqueness_diagnostic(p1, p2) -> VariationLedger:
    """Total-variation ledger of the difference of two solutions.

    Computes the total variations of z_i = y_i(p1) - y_i(p2) and, for the
    generalized Berger family, the residuals of the CONTRACTIONS, whose only
    nonnegative solution is zero.  forces_zero holds when every variation is
    within the slack max(1e-12, 100 max tol).
    """
    if p1.bd != p2.bd:
        raise UsageError("uniqueness diagnostic requires identical boundary data")
    xs = p1.mesh.nodes
    z = p1.y - p2.interpolate(xs)[0]  # exact at p2's own nodes
    V = np.abs(np.diff(z, axis=1)).sum(axis=1)
    ineq = None
    if p1.bd.kind.family == "gberger":
        ineq = np.array([0.5 * V[0] + 0.25 * V[2] - V[1], 0.5 * V[0] + 0.25 * V[1] - V[2], (V[1] + V[2]) / 3.0 - V[0]])
    slack = max(1e-12, 100.0 * max(p1.tol, p2.tol))
    return VariationLedger(V, ineq, bool(np.all(V <= slack)))


def run_verification(profile, samples=None) -> VerificationReport:
    """Run every applicable check in a fixed order.

    samples are the profile's curvature samples, computed here when not
    given; every check that reads curvature or the metric reads them.
    """
    if samples is None:
        samples = geom.curvature_samples(profile)
    return VerificationReport(
        [
            check_constraint_drift(profile),
            *check_monotonicity(profile),
            *check_apriori_bounds(profile),
            check_k0_window(profile),
            check_weyl_bound(profile, samples),
            pinching_report(samples),
        ]
    )
