"""The three benchmark workloads: inputs made from a seed, the operations run
on them through ccebvp's public functions, and the checks on every output.

Each workload is a closed loop: one client in one process, no worker pool,
running its operations one after another.  Seed 0 gives the exact inputs
named below and checks results against values frozen in reference.json;
any other seed shuffles the case order, perturbs every boundary ratio within
a relative band of BAND, and checks the result's regime instead.

An operation fails if it raises, returns unconverged, exits with an
unexpected code, or fails an output check.  A failed output check also makes
the run incorrect; a known solver defect (an unconverged case carrying its
named failure_reason) only counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace

from ccebvp import cli, continuation, solver, structure, systems, verification
from ccebvp.solver import SolveOptions
from ccebvp.systems import GBERGER, SU, BoundaryData

BAND = 0.005
# k0 and free parameters may move by discretisation-level amounts (acceptance
# 08 gates grid-to-grid differences at 1e-7) but not by more
REF_TOL = 1e-7
LAMBDA_TOL = 1e-12
EVENT_TOL = 1e-6
KINDS = {"su": SU, "gberger": GBERGER}


@dataclass(frozen=True)
class Case:
    key: str  # stable name, used in reference.json
    family: str
    n: int
    phi0: tuple  # boundary ratios; the end ratio for a sweep
    grid: int | None  # None: leave the CLI config at its default grid

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(KINDS[self.family], self.n, self.phi0)


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    failed: bool = False
    problems: list = field(default_factory=list)  # failed output checks
    observed: dict = field(default_factory=dict)  # what seed 0 freezes

    def problem(self, msg):
        self.problems.append(msg)
        self.failed = True

    def expect(self, ok, msg):
        if not ok:
            self.problem(msg)


def _close(a, b, tol=REF_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_solution(op, ref, converged, reason, k0, free, drift, gate, verified):
    """Checks shared by the library and CLI solves."""
    op.observed = {"converged": converged, "k0": k0, "free": list(free), "failure_reason": reason}
    if not converged:
        op.failed = True
        op.expect(bool(reason), "unconverged without a failure_reason")
        if ref is not None:
            op.expect(not ref["converged"], f"expected to converge, failed with {reason!r}")
            op.expect(ref["converged"] or reason == ref["failure_reason"],
                      f"failure_reason {reason!r}, expected {ref['failure_reason']!r}")
        return
    op.expect(drift <= gate, f"drift {drift:.3e} above the gate {gate:.1e}")
    op.expect(verified, "verification report does not pass")
    if ref is not None and ref["converged"]:
        op.expect(_close(k0, ref["k0"]), f"k0 {k0!r}, reference {ref['k0']!r}")
        op.expect(len(free) == len(ref["free"]) and all(map(_close, free, ref["free"])),
                  f"free parameters {list(free)}, reference {ref['free']}")


class Pass:
    """One pass over a workload's cases; times every operation it runs."""

    def __init__(self, directory, reference, tracer, memo, label):
        self.dir = directory
        self.reference = reference
        self.tracer = tracer
        self.memo = memo  # survives across passes of one run
        self.label = label
        self.ops = []
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)

    @property
    def wall(self):
        return sum(op.seconds for op in self.ops)

    def ref(self, key):
        return None if self.reference is None else self.reference[key]

    def run(self, name, call, check):
        op = Op(name)
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.op = f"{self.label}/{name}"
            span = self.tracer.span("op", case=name)
        t0 = time.perf_counter()
        result = None
        try:
            with span:
                result = call()
        except Exception:
            op.problem("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        op.seconds = time.perf_counter() - t0
        if result is not None:
            try:
                check(op, result)
            except Exception:
                op.problem("check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        self.ops.append(op)
        return op


def make_cases(base, seed):
    if seed == 0:
        return list(base)
    rng = random.Random(seed)
    cases = [replace(c, phi0=tuple(p * (1.0 + rng.uniform(-BAND, BAND)) for p in c.phi0)) for c in base]
    rng.shuffle(cases)
    return cases


def round_case(case):
    """The case at round boundary data on a small grid: a solve that starts
    converged, so warming up a code path costs little."""
    return replace(case, phi0=(1.0,) * len(case.phi0), grid=32)


class Acc768:
    """Acceptance-size solves: SU n=5 at four ratios and gberger n=3, grid 768,
    tol 1e-10, no refinement, each followed by run_verification."""

    tol = 1e-10

    def __init__(self, tiny=False):
        grid = 64 if tiny else 768
        self.base = [Case(f"su5-{p}", "su", 5, (p,), grid) for p in (0.6, 0.8, 1.25, 1.6)]
        self.base.append(Case("gberger-0.95-1.02", "gberger", 3, (0.95, 1.02), grid))

    def tables(self):
        systems.family(SU, 5), systems.family(GBERGER, 3)
        structure.slice_structure(3), structure.slice_structure(5)

    def warm_up(self, directory):
        for case in (self.base[0], self.base[-1]):
            self._solve(round_case(case))

    def _solve(self, case):
        opts = SolveOptions(grid=case.grid, tol=self.tol, refine_rounds=0)
        prof, rep = solver.solve_bvp(case.boundary_data(), opts)
        return prof, rep, verification.run_verification(prof)

    def run_pass(self, cases, ps):
        for case in cases:
            def check(op, result, case=case):
                prof, rep, ver = result
                check_solution(op, ps.ref(case.key), rep.converged, rep.failure_reason, prof.k0,
                               [float(c) for c in prof.free.coeffs], rep.constraint_drift,
                               10.0 * self.tol, ver.overall_pass)

            ps.run(case.key, lambda case=case: self._solve(case), check)


class CliDefault:
    """The default `cce solve` config (grid 128, tol 1e-10, 3 refinement
    rounds) run in-process through ccebvp.cli.main, each solve followed by
    `cce verify` on the profile.csv it wrote.  Every pass after the first
    checks that profile.csv is byte-identical to the first pass's."""

    def __init__(self, tiny=False):
        grid = 64 if tiny else None  # None: the config leaves grid at its default
        self.base = [
            Case("su5-0.8", "su", 5, (0.8,), grid),
            Case("su5-0.25", "su", 5, (0.25,), grid),
            Case("su3-0.3", "su", 3, (0.3,), grid),
            Case("gberger-0.9-1.05", "gberger", 3, (0.9, 1.05), grid),
            Case("su3-1.5", "su", 3, (1.5,), grid),
        ]
        # the CLI does not return the solver's report; keep the last one so an
        # unconverged solve can be checked for its failure_reason
        self.solves = []
        solve = cli.solve_bvp

        def tapped(*args, **kwargs):
            out = solve(*args, **kwargs)
            self.solves.append(out)
            return out

        cli.solve_bvp = tapped

    def tables(self):
        systems.family(SU, 3), systems.family(SU, 5), systems.family(GBERGER, 3)
        structure.slice_structure(3), structure.slice_structure(5)

    def warm_up(self, directory):
        shutil.rmtree(directory, ignore_errors=True)
        for case in (self.base[0], self.base[-2]):
            d = directory / case.key
            self._write_config(d, round_case(case))
            self._solve(d), self._verify(d)

    @staticmethod
    def _write_config(d, case):
        os.makedirs(d, exist_ok=True)
        with open(d / "run.cfg", "w") as f:
            f.write(f"system = {case.family}\nn = {case.n}\nphi0 = {','.join(map(repr, case.phi0))}\n")
            f.write(f"grid = {case.grid}\n" if case.grid else "")

    @staticmethod
    def _main(*argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, err.getvalue().strip()

    def _solve(self, d):
        return self._main("solve", "--config", str(d / "run.cfg"), "--out", str(d), "--quiet")

    def _verify(self, d):
        return self._main("verify", str(d / "profile.csv"), "--out", str(d / "verify"))

    def run_pass(self, cases, ps):
        for case in cases:
            d = ps.dir / case.key
            self._write_config(d, case)
            self.solves.clear()
            ps.run(f"{case.key}/solve", lambda d=d: self._solve(d),
                   lambda op, res, case=case, d=d: self._check_solve(op, res, case, d, ps))
            ps.run(f"{case.key}/verify", lambda d=d: self._verify(d),
                   lambda op, res, d=d: self._check_verify(op, res, d))

    def _check_solve(self, op, res, case, d, ps):
        (rc, err), (_, rep) = res, self.solves[-1]
        with open(d / "report.json") as f:
            doc = json.load(f)
        with open(d / "profile.csv", "rb") as f:
            csv = f.read()
        expected_rc = (0 if doc["overall_pass"] else 2) if rep.converged else 1
        op.expect(rc == expected_rc, f"exit code {rc}, expected {expected_rc} ({err})")
        op.expect(doc["converged"] == rep.converged, "report.json disagrees on convergence")
        drift = next(c for c in doc["checks"] if c["name"] == "constraint-drift")
        free = next(line for line in csv.decode().splitlines() if line.startswith("# free="))
        check_solution(op, ps.ref(case.key), rep.converged, rep.failure_reason, float(doc["boundary"]["K0"]),
                       [float(v) for v in free[len("# free="):].split(",")], float(drift["margin"]),
                       float(drift["threshold"]), doc["overall_pass"])
        first = ps.memo.setdefault(case.key, csv)
        op.expect(csv == first, "profile.csv differs from the first pass")

    def _check_verify(self, op, res, d):
        rc, err = res
        with open(d / "report.json") as f:
            solved = json.load(f)
        with open(d / "verify" / "report.json") as f:
            read_back = json.load(f)
        expected_rc = 0 if solved["overall_pass"] else 2
        op.expect(rc == expected_rc, f"exit code {rc}, expected {expected_rc} ({err})")
        solved.pop("provenance"), read_back.pop("provenance")
        op.expect(read_back == solved, "cce verify report differs from the cce solve report")


class SweepSu3:
    """Two SU n=3 sweeps from the round sphere at tol 3e-8 and step 0.05:
    down to 0.3 at grid 384 (ends path-end), and up to 3.0 at grid 128 (its
    curvature event fires and is bisected to 1e-6).  The grid-64 version
    solves at tol 1e-5: at 64 nodes the constraint drift exceeds the 10*tol
    gate of any tighter tolerance, so every step would be rejected."""

    def __init__(self, tiny=False):
        self.tol = 1e-5 if tiny else 3e-8
        self.base = [
            Case("down-0.3", "su", 3, (0.3,), 64 if tiny else 384),
            Case("up-3.0", "su", 3, (3.0,), 64 if tiny else 128),
        ]

    def tables(self):
        systems.family(SU, 3)
        structure.slice_structure(3)

    def warm_up(self, directory):
        self._sweep(round_case(self.base[0]))

    def _sweep(self, case):
        opts = SolveOptions(grid=case.grid, tol=self.tol, refine_rounds=0, coarse_stage=96)
        plan = continuation.SweepPlan(SU, case.n, lam_end=case.phi0[0], step=0.05,
                                      event_tol=EVENT_TOL, options=opts)
        return continuation.sweep(plan)

    def run_pass(self, cases, ps):
        for case in cases:
            ps.run(case.key, lambda case=case: self._sweep(case),
                   lambda op, trace, case=case: self._check(op, trace, case, ps.ref(case.key)))

    def _check(self, op, trace, case, ref):
        lams = [r.lam for r in trace.records]
        op.observed = {"lams": lams, "stop_reason": trace.stop_reason}
        upward = case.phi0[0] > 1.0
        expected = "event" if upward else "path-end"
        op.expect(trace.stop_reason == expected, f"stop reason {trace.stop_reason}, expected {expected}")
        op.expect(all((b > a) == upward for a, b in zip(lams, lams[1:])), "lambda sequence not monotone")
        op.expect(all(r.converged and r.verification_pass for r in trace.records),
                  "a record is unconverged or fails verification")
        if trace.stop_reason == "path-end":
            op.expect(lams[-1] == case.phi0[0], "path-end short of the end ratio")
        ev = trace.event
        if ev is not None:
            op.observed["bracket"] = list(ev.bracket)
            op.observed["event_lambda"] = round(ev.lam_event, 6)
            op.expect(ev.width <= EVENT_TOL and not ev.annotation, f"event bracket {ev.bracket} {ev.annotation}")
        if ref is None:
            return
        op.expect(trace.stop_reason == ref["stop_reason"], f"stop reason differs from {ref['stop_reason']}")
        op.expect(len(lams) == len(ref["lams"]) and all(_close(a, b, LAMBDA_TOL) for a, b in zip(lams, ref["lams"])),
                  f"lambda sequence {lams}, reference {ref['lams']}")
        if "event_lambda" in ref:
            lo, hi = ev.bracket if ev is not None else (1.0, 0.0)
            op.expect(lo <= ref["event_lambda"] <= hi, f"event bracket excludes {ref['event_lambda']}")


WORKLOADS = {"acc768": Acc768, "cli-default": CliDefault, "sweep-su3": SweepSu3}
