"""The default config's outcome across the admissible window.

Each point runs `solve_bvp(bd, SolveOptions())` (grid 128, tol 1e-10, three
refinement rounds) and asserts its (converged, failure_reason).  A known
failure is a strict xfail whose reason names its ROADMAP item and the drift
or residual measured there; any other outcome fails outright.  Run with -rx
for the table of known failures.
"""

import numpy as np
import pytest

from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData

DRIFT = "constraint drift"

# id -> (the failure the default config ends with, its ROADMAP item and measurement)
KNOWN = {
    "su3-0.2625": (DRIFT, "items 7 and 1: drift 2.2e-9 at 1017 nodes"),
    "su3-0.3436": (DRIFT, "items 7 and 1: drift 1.2e-9 at 1017 nodes"),
    "su5-0.175": (DRIFT, "items 7 and 1: drift 1.2e-8 at 1017 nodes"),
    "su5-0.2484": (DRIFT, "items 7 and 1: drift 6.0e-9 at 1017 nodes"),
    "su5-0.3527": (DRIFT, "items 7 and 1: drift 2.2e-9 at 1017 nodes"),
    "su7-0.1313": (DRIFT, "items 7 and 1: drift 3.5e-8 at 1017 nodes"),
    "su7-0.1974": (DRIFT, "items 7 and 1: drift 1.6e-8 at 1017 nodes"),
    "su7-0.2968": (DRIFT, "items 7 and 1: drift 5.2e-9 at 1017 nodes"),
    "su7-0.4463": (DRIFT, "items 7 and 1: drift 1.3e-9 at 1017 nodes"),
    "gberger-3,3": (DRIFT, "item 1: drift 3.5e-9 at 1017 nodes"),
}


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
        else:
            yield pytest.param(bd, (True, ""), id=key)


def test_ids_cover_the_tables():
    ids = {key for key, _ in _points()}
    assert len(ids) == 40 and set(KNOWN) <= ids


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
