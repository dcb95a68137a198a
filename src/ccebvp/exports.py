"""Bit-stable CSV and JSON export of profiles, traces and reports.

Numbers are serialized as shortest round-trip decimals (17 significant
digits at most), lines end with LF, the decimal separator is '.', and JSON
keys are ordered lexicographically with all numerics as decimal strings.
Writes are whole-file atomic (write-temp-then-rename); timestamps appear
only inside the provenance object.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict

import numpy as np

from . import __version__, geometry
from .series import NonlocalParams
from .solver import INFINITY_ORDER, Mesh, SolutionProfile, origin_order
from .systems import KINDS, BoundaryData

PROFILE_SCHEMA = "cce-profile-v2"
PROFILE_JSON_SCHEMA = "cce-profile-json-v2"
TRACE_SCHEMA = "cce-trace-v1"
REPORT_SCHEMA = "cce-report-v1"
EVENT_SCHEMA = "cce-event-v1"


def fmt(x) -> str:
    """Shortest round-trip decimal, capped at 17 significant digits."""
    return repr(float(x))


def _atomic_write(path, text):
    """Write text to a hidden temp file beside path, then rename it over path.
    open() gives the temp file the mode of any new file, which the rename keeps."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, ".cce-" + os.urandom(8).hex())
    f = open(tmp, "x", newline="\n")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def stored_columns(m):
    """Names of the profile CSV's columns for m unknowns: the nodes, y and y'.
    Everything else about a profile is derived from them and its header."""
    return ["x"] + [f"y{i + 1}" for i in range(m)] + [f"yp{i + 1}" for i in range(m)]


def export_profile_csv(profile: SolutionProfile, path: str) -> None:
    """The header, then the columns of stored_columns: what load_profile_csv reads."""
    names = stored_columns(profile.y.shape[0])
    rows = np.vstack([profile.mesh.nodes, profile.y, profile.yp]).T
    meta = [
        f"# schema={PROFILE_SCHEMA}",
        f"# system={profile.bd.kind.family}",
        f"# n={profile.bd.n}",
        "# phi0=" + ",".join(fmt(p) for p in profile.bd.phi0),
        f"# k0var={fmt(profile.k0var)}",
        "# free=" + ",".join(fmt(c) for c in profile.free.coeffs),
        "# infinity_free=" + ",".join(fmt(c) for c in profile.infinity_free),
        f"# tol={fmt(profile.tol)}",
        f"# converged={str(profile.converged).lower()}",
        "# grading=endpoint-clustered",
        f"# origin_order={origin_order(profile.bd.n)}",
        f"# infinity_order={INFINITY_ORDER}",
    ]
    # repr of a Python float is fmt's shortest round-trip decimal
    lines = meta + [",".join(names)] + [",".join(map(repr, row)) for row in rows.tolist()]
    _atomic_write(path, "\n".join(lines) + "\n")


def _header(meta, key, count=None):
    """Header value of key; with count, its comma-separated floats, which must
    number count and be finite."""
    if key not in meta:
        raise ValueError(f"profile header {key!r} is missing")
    if count is None:
        return meta[key]
    vals = [float(v) for v in meta[key].split(",")]
    if len(vals) != count:
        raise ValueError(f"profile header {key!r} needs {count} values, got {len(vals)}")
    if not np.isfinite(vals).all():
        raise ValueError(f"profile header {key!r} is not finite: {meta[key]}")
    return vals


def load_profile_csv(path: str) -> SolutionProfile:
    meta, names, rows = {}, None, []
    with open(path, "r") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    if k.strip() in meta:
                        raise ValueError(f"profile header {k.strip()!r} is repeated")
                    meta[k.strip()] = v.strip()
            elif names is None:
                names = line.split(",")
                for i, name in enumerate(names):
                    if name in names[:i]:
                        raise ValueError(f"profile column {name!r} is repeated")
            elif line:
                rows.append(line.split(","))
    if names is None or not rows:
        raise ValueError(f"{path} does not contain a profile table")
    # columns as text, cut to the shortest row; only the stored ones are converted
    col = dict(zip(names, zip(*rows)))

    def column(name):
        if name not in col:
            raise ValueError(f"profile column {name!r} is missing")
        vals = np.array(list(map(float, col[name])))
        if not np.isfinite(vals).all():
            raise ValueError(f"profile column {name!r} is not finite")
        return vals

    system = _header(meta, "system")
    if system not in KINDS:
        raise ValueError(f"unknown system {system!r}, expected one of {sorted(KINDS)}")
    kind = KINDS[system]
    m = kind.unknowns
    bd = BoundaryData(kind, int(_header(meta, "n")), tuple(_header(meta, "phi0", kind.free_count)))
    x, *stored = map(column, stored_columns(m))
    # the tol sets the drift gate and the uniqueness slack, so it must be a real one
    tol, converged = float(_header(meta, "tol")), _header(meta, "converged")
    if not 0 < tol < np.inf:
        raise ValueError(f"profile header 'tol' must be positive and finite, got {tol}")
    if converged not in ("true", "false"):
        raise ValueError(f"profile header 'converged' must be true or false, got {converged!r}")
    return SolutionProfile(
        bd,
        Mesh(x),
        np.vstack(stored[:m]),
        np.vstack(stored[m:]),
        k0var=_header(meta, "k0var", 1)[0],
        free=NonlocalParams(tuple(_header(meta, "free", kind.free_count))),
        infinity_free=np.array(_header(meta, "infinity_free", m - 1)),
        converged=converged == "true",
        tol=tol,
    )


def export_trace_csv(trace, path: str) -> None:
    """One row per record, then a '# rejected=lambda,failure_reason' line per
    rejected step and the stop reason."""
    names = ["lambda", "converged", "K0", "max_curvature", "verification_pass", "iterations", "start_residual"]
    nfree = len(trace.records[0].free)
    names += [f"free{i + 1}" for i in range(nfree)]
    lines = [
        f"# schema={TRACE_SCHEMA}",
        f"# system={trace.plan.kind.family}",
        f"# n={trace.plan.n}",
        ",".join(names),
    ]
    for r in trace.records:
        row = [fmt(r.lam), str(r.converged).lower(), fmt(r.k0), fmt(r.max_curvature),
               str(r.verification_pass).lower(), str(r.iterations), fmt(r.start_residual)]
        row += [fmt(c) for c in r.free]
        lines.append(",".join(row))
    lines += [f"# rejected={fmt(lam)},{reason}" for lam, reason in trace.rejected]
    lines.append(f"# stop_reason={trace.stop_reason}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def provenance(config_hash=""):
    return {
        "tool_version": __version__,
        "config_hash": config_hash,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def config_hash(text: str) -> str:
    """First 16 hex digits of the sha256 of text."""
    # CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before): hashlib
    # maps OpenSSL's libcrypto (about 3.5 MB RSS) to hash a text of a few
    # dozen bytes.  hashlib only on a build that has neither module.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


def _boundary(profile):
    """The boundary data and K(0) that profile.json and report.json record."""
    return {"system": profile.bd.kind.family, "n": profile.bd.n, "phi0": profile.bd.phi0, "K0": profile.k0}


def finite_derived(profile):
    """(samples, derived): profile's curvature samples, and the values
    profile.json derives at its nodes, by name: K0, K, phi_i, the first
    integral Phi and the largest radial curvature.  Raises
    geometry.InfeasibleProfileError when the metric or a derived value,
    which it names, is not finite."""
    samples = geometry.curvature_samples(profile)
    derived = {
        "K0": profile.k0,
        "K": np.exp(profile.y[0]),
        "phi": np.exp(profile.y[1:]),
        "Phi": profile.constraint_values(),
        "max_radial_curvature": samples.values[: len(samples.metric.I)].max(axis=0),
    }
    for name, value in derived.items():
        if not np.isfinite(value).all():
            raise geometry.InfeasibleProfileError(f"{name} is not finite")
    return samples, derived


def profile_document(profile):
    """`cce export`'s profile.json: the boundary block, the stored unknowns,
    the metric components I_i, and the values of finite_derived, whose
    error it raises."""
    samples, derived = finite_derived(profile)
    return {
        "schema": PROFILE_JSON_SCHEMA,
        **_boundary(profile),
        "converged": profile.converged,
        "x": profile.mesh.nodes,
        "y": profile.y,
        "yp": profile.yp,
        "free": profile.free.coeffs,
        "infinity_free": profile.infinity_free,
        "I": samples.metric.I,
        **derived,  # K0 again, equal to _boundary's
    }


def report_document(report, profile, config_digest=""):
    return {
        "schema": REPORT_SCHEMA,
        "boundary": _boundary(profile),
        "checks": [asdict(r) for r in report.records],
        "converged": profile.converged,
        "overall_pass": report.overall_pass,
        "provenance": provenance(config_digest),
    }


def event_document(event, config_digest=""):
    return {
        "schema": EVENT_SCHEMA,
        "lambda_event": event.lam_event,
        "bracket": list(event.bracket),
        "width": event.width,
        "witness": None if event.witness is None else asdict(event.witness),
        "annotation": event.annotation,
        "solves": event.solves,
        "provenance": provenance(config_digest),
    }


def export_json(doc: dict, path: str) -> None:
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2)
    _atomic_write(path, text + "\n")
