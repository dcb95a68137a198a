"""The ROADMAP baseline, measured by hand with cProfile before this benchmark
existed, set next to the traced numbers of a run.

Each row names the baseline claim, the traced value, whether the two agree,
and, where they do not, what the trace shows instead.
"""

from __future__ import annotations

from tracing import SpanIndex

SERIES = ("series.origin", "series.infinity")
REFINED = [128, 255, 509, 1017]
RSS_MB = 448.0


def _ops(spans):
    """Top-level 'op' span of each operation, by case name."""
    return {s.attrs["case"]: s for s in spans if s.name == "op"}


def _within(spans, op, name):
    return [s for s in spans if s.op == op.op and s.name == name]


def _row(baseline, traced, agree, reason):
    return {"baseline": baseline, "traced": traced, "agree": agree, "reason": "" if agree else reason}


def gberger_series_share(spans, rss_mb):
    op = _ops(spans).get("gberger-0.95-1.02")
    if op is None:
        return None
    solve = _within(spans, op, "solver.solve_bvp")[0]
    series = sum(s.seconds for name in SERIES for s in _within(spans, op, name))
    share = series / solve.seconds
    return _row("series share above 0.8 of the gberger-768 solve (84% under cProfile)",
                f"series {series:.3f} s of a {solve.seconds:.3f} s solve = {share:.3f}", share > 0.8,
                "the series builds take a smaller share of this solve than at the baseline; "
                "cProfile, used for the baseline, charges its per-call cost to the many "
                "pure-Python calls of the recursion")


def sweep_curvature_calls(spans, rss_mb):
    op = _ops(spans).get("down-0.3")
    if op is None:
        return None
    records = len(_within(spans, op, "verification.run_verification"))
    calls = len(_within(spans, op, "geometry.curvature_samples"))
    callers = {}
    ix = SpanIndex(spans)
    for s in _within(spans, op, "geometry.curvature_samples"):
        parent = ix.parent_name(s)
        callers[parent] = callers.get(parent, 0) + 1
    return _row("32 curvature_samples calls for the 11 records of sweep (a)",
                f"{calls} calls for {records} records", calls == 32 and records == 11,
                f"calls by caller: {callers}")


def refinement_sequence(spans, rss_mb):
    ix = SpanIndex(spans)
    seqs = {}
    for case, op in _ops(spans).items():
        steps = [s for s in ix.by_name["solver.refine_mesh"] if s.op == op.op]
        if steps:
            seqs[case] = [steps[0].attrs["old"]] + [s.attrs["new"] for s in steps]
    if not seqs:
        return None
    off = [c for c, seq in seqs.items() if seq != REFINED[: len(seq)]]
    return _row("refine_mesh picks every interval: 128 -> 255 -> 509 -> 1017 nodes",
                "; ".join(f"{c}: {' -> '.join(map(str, s))}" for c, s in seqs.items()),
                not off and REFINED in seqs.values(),
                f"refinement did not halve every interval for {off}" if off
                else "no solve needed all three refinement rounds")


def cli_peak_rss(spans, rss_mb):
    if not any(s.name == "exports.export_profile_csv" for s in spans):
        return None
    jac_mb = max(s.attrs.get("jac_bytes", 0) for s in spans if s.name == "solver.assemble") / 2**20
    agree = abs(rss_mb - RSS_MB) <= 0.1 * RSS_MB
    return _row("default stress runs peaked at 448 MB RSS",
                f"peak RSS {rss_mb:.1f} MB for the traced process; largest dense Jacobian {jac_mb:.1f} MB",
                agree, "peak RSS moved by more than a tenth; compare the largest Jacobian above")


def reconcile(spans, rss_mb):
    rows = [f(spans, rss_mb) for f in (gberger_series_share, sweep_curvature_calls,
                                         refinement_sequence, cli_peak_rss)]
    return [r for r in rows if r is not None]
