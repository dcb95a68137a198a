"""The benchmark's tracer wraps ccebvp functions by module attribute; every
attribute it names must exist, so a rename fails here rather than in the
benchmark."""

import importlib.util
from pathlib import Path

import ccebvp
import ccebvp.cli  # noqa: F401  (traced too; the package does not import it itself)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_sites_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = tracing.sites(ccebvp)
    assert sites
    for mod, attr, name, _ in sites:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} (traced as {name})"
