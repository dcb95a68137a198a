"""The default config's outcome across the admissible window.

Each point runs `solve_bvp(bd, SolveOptions())` (grid 128, tol 1e-10, three
refinement rounds) and asserts its (converged, failure_reason).  A known
failure is a strict xfail whose reason names its ROADMAP item and the drift
or residual measured there; any other outcome fails outright.  A point whose
outcome follows roundoff is skipped as unpinned.  Run with -rxs for the
table of known failures and unpinned points.
"""

import numpy as np
import pytest

from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData

DRIFT, STALL = "constraint drift", "line search stalled"

# id -> (the failure the default config ends with, its ROADMAP item and measurement)
KNOWN = {
    "su3-0.2625": (DRIFT, "items 7 and 1: drift 2.2e-9 at 1017 nodes"),
    "su3-0.3436": (DRIFT, "items 7 and 1: drift 1.2e-9 at 1017 nodes"),
    "su5-0.175": (DRIFT, "items 7 and 1: drift 1.2e-8 at 1017 nodes"),
    "su5-0.2484": (DRIFT, "items 7 and 1: drift 6.1e-9 at 1017 nodes"),
    "su5-0.3527": (DRIFT, "items 7 and 1: drift 2.2e-9 at 1017 nodes"),
    "su7-0.1313": (DRIFT, "items 7 and 1: drift 3.5e-8 at 1017 nodes"),
    "su7-0.1974": (DRIFT, "items 7 and 1: drift 1.6e-8 at 1017 nodes"),
    "su7-0.2968": (DRIFT, "items 7 and 1: drift 5.2e-9 at 1017 nodes"),
    "su7-0.4463": (DRIFT, "items 7 and 1: drift 1.3e-9 at 1017 nodes"),
    "gberger-3,3": (STALL, "item 10: residual 41 at 128 nodes"),
}

# Unpinned until ROADMAP item 10 lands: su7 stalls just above tol before
# refinement starts, and whether it does follows roundoff (2.28 converges,
# 2.2806 stalls; 3.43 and 7.76 stall at residuals 6.3e-10 and 6.4e-10).
UNPINNED = {"su7-2.282", "su7-3.432", "su7-7.76"}


def _points():
    for n in (3, 5, 7):
        for lam in np.geomspace(1.05 / (n + 1), 0.97 * (n + 1), 11):
            yield f"su{n}-{lam:.4g}", BoundaryData(SU, n, (float(lam),))
    for phi in ((0.6, 1.3), (0.9, 1.05), (0.95, 1.02), (1.2, 0.9), (1.5, 1.5), (3.0, 3.0), (0.5, 0.5)):
        yield f"gberger-{phi[0]:g},{phi[1]:g}", BoundaryData(GBERGER, 3, phi)


def _params():
    for key, bd in _points():
        if key in KNOWN:
            reason, why = KNOWN[key]
            mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{reason}, ROADMAP {why}")
            yield pytest.param(bd, (False, reason), id=key, marks=mark)
        elif key in UNPINNED:
            mark = pytest.mark.skip(reason="unpinned: converges or stalls by roundoff until ROADMAP item 10")
            yield pytest.param(bd, None, id=key, marks=mark)
        else:
            yield pytest.param(bd, (True, ""), id=key)


def test_ids_cover_the_tables():
    ids = {key for key, _ in _points()}
    assert len(ids) == 40 and set(KNOWN) <= ids and UNPINNED <= ids


@pytest.mark.parametrize("bd, pinned", _params())
def test_default_config_outcome(bd, pinned):
    prof, rep = solve_bvp(bd, SolveOptions())
    outcome = (rep.converged, rep.failure_reason)
    measured = (f"{outcome} at {prof.mesh.n_nodes} nodes: drift {rep.constraint_drift:.1e}, "
                f"residual {rep.residual_norm:.1e}")
    if outcome != pinned:
        # pytest.fail is not an AssertionError, so a known failure that
        # changes fails outright instead of reading as its xfail
        pytest.fail(f"pinned {pinned}, got {measured}")
    assert rep.converged, measured
