"""Command-line entry point: solve, sweep, verify and export subcommands.

Exit codes: 0 converged with every applicable check passing, 1 solver
failure, 2 converged-but-flagged (or a sweep stopping on min-step), 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import ParseError, parse_config
from .continuation import SweepPlan, sweep
from .exports import (
    config_hash,
    event_document,
    export_json,
    export_profile_csv,
    export_trace_csv,
    load_profile_csv,
    report_document,
)
from .solver import solve_bvp
from .systems import DomainError, UsageError
from .verification import run_verification, uniqueness_diagnostic


def _fail(code, msg):
    print(msg, file=sys.stderr)
    raise SystemExit(code)


def _load(path):
    try:
        return load_profile_csv(path)
    except (OSError, ValueError, KeyError) as e:
        _fail(3, f"cannot load profile: {e}")


def _write(*jobs):
    """Run each (writer, obj, path) job in turn; a failed write exits 3."""
    try:
        for writer, obj, path in jobs:
            writer(obj, path)
    except OSError as e:
        _fail(3, f"write failed: {e}")


def _load_config(args):
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as e:
        _fail(3, f"cannot read config: {e}")
    try:
        cfg = parse_config(text)
        flags = {k: getattr(args, k) for k in ("grid", "tol") if getattr(args, k) is not None}
        cfg.options = replace(cfg.options, **flags)
    except (ParseError, UsageError) as e:
        _fail(1, f"config error: {e}")
    if args.out is not None:
        cfg.out = args.out
    if args.quiet:
        cfg.quiet = True
    return cfg, config_hash(text)


def _say(cfg, *msg):
    if not cfg.quiet:
        print(*msg)


def cmd_solve(args) -> int:
    cfg, digest = _load_config(args)
    try:
        prof, rep = solve_bvp(cfg.boundary_data(), cfg.options)
    except (UsageError, DomainError) as e:
        _fail(1, f"solve error: {e}")
    report = run_verification(prof)
    _write(
        (export_profile_csv, prof, os.path.join(cfg.out, "profile.csv")),
        (export_json, report_document(report, prof, digest), os.path.join(cfg.out, "report.json")),
    )
    _say(cfg, f"converged={rep.converged} iterations={rep.iterations} "
              f"residual={rep.residual_norm:.3e} drift={rep.constraint_drift:.3e}")
    for r in report.records:
        status = "n/a" if not r.applicable else ("pass" if r.ok else "FAIL")
        _say(cfg, f"  {r.name}: {status} (margin {r.margin:.3e})")
    if not rep.converged:
        return 1
    return 0 if report.overall_pass else 2


def cmd_sweep(args) -> int:
    cfg, digest = _load_config(args)
    if "lam_end" not in cfg.sweep:
        _fail(1, "config error: sweep_end is required for the sweep command")
    plan = SweepPlan(cfg.kind, cfg.n, options=replace(cfg.options, refine_rounds=0), **cfg.sweep)
    try:
        trace = sweep(plan)
    except (UsageError, DomainError, RuntimeError) as e:
        _fail(1, f"sweep error: {e}")
    jobs = [(export_trace_csv, trace, os.path.join(cfg.out, "trace.csv"))]
    if trace.event is not None:
        jobs.append((export_json, event_document(trace.event, digest), os.path.join(cfg.out, "event.json")))
    _write(*jobs)
    _say(cfg, f"stop_reason={trace.stop_reason} records={len(trace.records)} rejected={len(trace.rejected)}")
    for lam, reason in trace.rejected:
        _say(cfg, f"  rejected lambda={lam!r}: {reason}")
    if trace.event is not None:
        ev = trace.event
        _say(cfg, f"event bracket={ev.bracket} width={ev.width:.3e} solves={ev.solves}")
    return 2 if trace.stop_reason == "min-step" else 0


def cmd_verify(args) -> int:
    prof = _load(args.profile)
    if args.profile2 is not None:
        other = _load(args.profile2)
        try:
            ledger = uniqueness_diagnostic(prof, other)
        except UsageError as e:
            _fail(1, f"verify error: {e}")
        for i, v in enumerate(ledger.variations):
            print(f"V(z{i + 1}) = {v:.6e}")
        print(f"forces_zero={ledger.forces_zero}")
        return 0 if ledger.forces_zero else 2
    report = run_verification(prof)
    out = args.out or os.path.dirname(os.path.abspath(args.profile))
    _write((export_json, report_document(report, prof), os.path.join(out, "report.json")))
    for r in report.records:
        status = "n/a" if not r.applicable else ("pass" if r.ok else "FAIL")
        print(f"  {r.name}: {status} (margin {r.margin:.3e})")
    return 0 if report.overall_pass else 2


def cmd_export(args) -> int:
    prof = _load(args.profile)
    names_doc = {
        "schema": "cce-profile-json-v1",
        "system": prof.bd.kind.family,
        "n": prof.bd.n,
        "phi0": list(prof.bd.phi0),
        "K0": prof.k0,
        "converged": prof.converged,
        "x": list(prof.mesh.nodes),
        "y": [list(row) for row in prof.y],
        "yp": [list(row) for row in prof.yp],
        "free": [float(c) for c in prof.free.coeffs],
        "infinity_free": list(prof.infinity_free),
    }
    out = args.out or os.path.dirname(os.path.abspath(args.profile))
    _write((export_json, names_doc, os.path.join(out, "profile.json")))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="cce", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("solve", help="solve one boundary-value problem and verify it")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="continuation sweep over the boundary parameter")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="re-verify a stored profile, or compare two")
    p.add_argument("profile")
    p.add_argument("profile2", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="convert a stored profile CSV to JSON")
    p.add_argument("profile")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
