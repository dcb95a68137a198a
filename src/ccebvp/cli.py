"""Command-line entry point: solve, sweep, verify and export subcommands.

Exit codes: 0 converged with every applicable check passing (or --help),
1 solver failure, config error or command-line usage error, 2
converged-but-flagged (or a sweep stopping on min-step), 3 I/O failure or a
stored profile that cannot be loaded, verified or exported.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import geometry
from .config import ParseError, parse_config
from .continuation import sweep
from .exports import (
    config_hash,
    event_document,
    export_json,
    export_profile_csv,
    export_trace_csv,
    finite_derived,
    load_profile_csv,
    profile_document,
    report_document,
)
from .solver import solve_bvp
from .systems import DomainError, UsageError
from .verification import CONTRACTIONS, run_verification, uniqueness_diagnostic


# a solve that fails on extreme data can leave a profile whose sources
# overflow; its report and CSV carry the non-finite values (the checks fail
# or read n/a), so numpy need not warn about them
_NONFINITE_OK = dict(over="ignore", invalid="ignore", divide="ignore")


def _fail(code, msg):
    print(msg, file=sys.stderr)
    raise SystemExit(code)


def _load(path):
    try:
        return load_profile_csv(path)
    except (OSError, ValueError) as e:
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
    except (OSError, ValueError) as e:
        _fail(3, f"cannot read config: {e}")
    flags = {k: getattr(args, k) for k in ("out", "grid", "tol", "quiet") if getattr(args, k) is not None}
    try:
        cfg = parse_config(text, flags)
    except ParseError as e:
        _fail(1, f"config error: {e}")
    # --grid and --tol change what is solved, so the hash reads them as lines
    # after the text; --out and --quiet change no number that is written
    lines = "".join(f"{k} = {flags[k]}\n" for k in ("grid", "tol") if k in flags)
    if lines and not text.endswith("\n"):
        text += "\n"
    return cfg, config_hash(text + lines)


def _say(cfg, *msg):
    if not cfg.quiet:
        print(*msg)


def _check_lines(report):
    """One line per check: n/a, info (no threshold), pass or FAIL, with its margin."""
    for r in report.records:
        status = "n/a" if not r.applicable else "info" if r.passed is None else "pass" if r.ok else "FAIL"
        yield f"  {r.name}: {status} (margin {r.margin:.3e})"


def cmd_solve(args) -> int:
    cfg, digest = _load_config(args)
    try:
        prof, rep = solve_bvp(cfg.bd, cfg.options)
        with np.errstate(**_NONFINITE_OK):
            # the solve's one curvature pass; an overflow is a solve error
            report = run_verification(prof)
    except (UsageError, DomainError) as e:
        _fail(1, f"solve error: {e}")
    with np.errstate(**_NONFINITE_OK):
        _write(
            (export_profile_csv, prof, os.path.join(cfg.out, "profile.csv")),
            (export_json, report_document(report, prof, digest), os.path.join(cfg.out, "report.json")),
        )
    _say(cfg, f"converged={rep.converged} iterations={rep.iterations} "
              f"residual={rep.residual_norm:.3e} drift={rep.constraint_drift:.3e}")
    for line in _check_lines(report):
        _say(cfg, line)
    if not rep.converged:
        return 1
    return 0 if report.overall_pass else 2


def cmd_sweep(args) -> int:
    cfg, digest = _load_config(args)
    if cfg.plan is None:
        _fail(1, "config error: sweep_end is required for the sweep command")
    try:
        trace = sweep(cfg.plan)
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
        if ledger.inequality_residuals is not None:
            for label, r in zip(CONTRACTIONS, ledger.inequality_residuals):
                print(f"{label}: residual {r:.6e}")
        print(f"forces_zero={ledger.forces_zero}")
        return 0 if ledger.forces_zero else 2
    with np.errstate(**_NONFINITE_OK):
        try:
            samples, _ = finite_derived(prof)
        except geometry.InfeasibleProfileError as e:
            _fail(3, f"cannot verify profile: {e}")
        report = run_verification(prof, samples)
    # verify/ beside the profile, so the solve's report.json is kept
    out = args.out or os.path.join(os.path.dirname(os.path.abspath(args.profile)), "verify")
    _write((export_json, report_document(report, prof), os.path.join(out, "report.json")))
    for line in _check_lines(report):
        print(line)
    return 0 if report.overall_pass else 2


def cmd_export(args) -> int:
    prof = _load(args.profile)
    with np.errstate(**_NONFINITE_OK):
        try:
            doc = profile_document(prof)
        except geometry.InfeasibleProfileError as e:
            _fail(3, f"cannot export profile: {e}")
    out = args.out or os.path.dirname(os.path.abspath(args.profile))
    _write((export_json, doc, os.path.join(out, "profile.json")))
    return 0


@functools.cache
def build_parser():
    """The one parser of the process, built on first use."""
    ap = argparse.ArgumentParser(prog="cce", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        # every flag but --config overrides the config key of its name
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--grid")
        p.add_argument("--tol")
        p.add_argument("--quiet", action="store_const", const="true")

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if e.code else 0
    try:
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
