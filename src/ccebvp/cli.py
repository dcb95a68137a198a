"""Command-line entry point: solve, sweep, verify and export subcommands.

Exit codes: 0 converged with every applicable check passing, 1 solver
failure, 2 converged-but-flagged (or a sweep stopping on min-step), 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .solver import SolveOptions, solve_bvp
from .systems import DomainError, UsageError
from .verification import run_verification, uniqueness_diagnostic


def _load_config(args):
    try:
        text = open(args.config).read()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        raise SystemExit(3)
    try:
        cfg = parse_config(text)
    except ParseError as e:
        print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(1)
    if args.out is not None:
        cfg.out = args.out
    if args.grid is not None:
        cfg.grid = args.grid
    if args.tol is not None:
        cfg.tol = args.tol
    if args.quiet:
        cfg.quiet = True
    return cfg, config_hash(text)


def _options(cfg) -> SolveOptions:
    return SolveOptions(
        grid=cfg.grid,
        tol=cfg.tol,
        seed_mode=cfg.seed_mode,
        experimental_sp=cfg.experimental_sp,
    )


def _say(cfg, *msg):
    if not cfg.quiet:
        print(*msg)


def cmd_solve(args) -> int:
    cfg, digest = _load_config(args)
    try:
        prof, rep = solve_bvp(cfg.boundary_data(), _options(cfg))
    except (UsageError, DomainError) as e:
        print(f"solve error: {e}", file=sys.stderr)
        return 1
    report = run_verification(prof)
    try:
        export_profile_csv(prof, os.path.join(cfg.out, "profile.csv"))
        export_json(report_document(report, prof, digest), os.path.join(cfg.out, "report.json"))
    except OSError as e:
        print(f"write failed: {e}", file=sys.stderr)
        return 3
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
    if cfg.sweep_end is None:
        print("config error: sweep_end is required for the sweep command", file=sys.stderr)
        return 1
    opts = _options(cfg)
    opts.refine_rounds = 0
    plan = SweepPlan(
        cfg.kind,
        cfg.n,
        lam_end=cfg.sweep_end,
        step=cfg.sweep_step,
        min_step=cfg.sweep_min_step,
        max_step=cfg.sweep_max_step,
        event_tol=cfg.event_tol,
        options=opts,
    )
    try:
        trace = sweep(plan)
    except (UsageError, DomainError, RuntimeError) as e:
        print(f"sweep error: {e}", file=sys.stderr)
        return 1
    try:
        export_trace_csv(trace, os.path.join(cfg.out, "trace.csv"))
        if trace.event is not None:
            export_json(event_document(trace.event, digest), os.path.join(cfg.out, "event.json"))
    except OSError as e:
        print(f"write failed: {e}", file=sys.stderr)
        return 3
    _say(cfg, f"stop_reason={trace.stop_reason} records={len(trace.records)}")
    if trace.event is not None:
        _say(cfg, f"event bracket={trace.event.bracket} width={trace.event.width:.3e}")
    return 2 if trace.stop_reason == "min-step" else 0


def cmd_verify(args) -> int:
    try:
        prof = load_profile_csv(args.profile)
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot load profile: {e}", file=sys.stderr)
        return 3
    if args.profile2 is not None:
        try:
            other = load_profile_csv(args.profile2)
        except (OSError, ValueError, KeyError) as e:
            print(f"cannot load profile: {e}", file=sys.stderr)
            return 3
        try:
            ledger = uniqueness_diagnostic(prof, other)
        except UsageError as e:
            print(f"verify error: {e}", file=sys.stderr)
            return 1
        for i, v in enumerate(ledger.variations):
            print(f"V(z{i + 1}) = {v:.6e}")
        print(f"forces_zero={ledger.forces_zero}")
        return 0 if ledger.forces_zero else 2
    report = run_verification(prof)
    out = args.out or os.path.dirname(os.path.abspath(args.profile))
    try:
        export_json(report_document(report, prof), os.path.join(out, "report.json"))
    except OSError as e:
        print(f"write failed: {e}", file=sys.stderr)
        return 3
    for r in report.records:
        status = "n/a" if not r.applicable else ("pass" if r.ok else "FAIL")
        print(f"  {r.name}: {status} (margin {r.margin:.3e})")
    return 0 if report.overall_pass else 2


def cmd_export(args) -> int:
    try:
        prof = load_profile_csv(args.profile)
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot load profile: {e}", file=sys.stderr)
        return 3
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
    try:
        export_json(names_doc, os.path.join(out, "profile.json"))
    except OSError as e:
        print(f"write failed: {e}", file=sys.stderr)
        return 3
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
