"""Write series_tables.npz: endpoint coefficient tables frozen for regression.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_series_tables.py

For each case it stores the origin table at order n+23 and the infinity table
at order 26, each real and once per complex-step perturbation (log K(0) and
every free value at the origin, every free value at infinity).  The public
constructors take real inputs only, so each perturbed table is stored as
table + i*h*tangent from their tangent tables.  The file in the repository
was written by the recompute-everything recursion that preceded the
incremental engine, one complex call per column; tests/test_series.py checks
the current engine against it.
"""

import os

import numpy as np

from ccebvp.series import NonlocalParams, fg_series_origin, series_infinity
from ccebvp.systems import GBERGER, SU, BoundaryData

H = 1e-80  # the solver's complex-step width
INFINITY_ORDER = 26

# name: (kind, n, phi0, log K(0), origin free values, infinity free values)
CASES = {
    "su3": (SU, 3, (1.5,), -0.009731616523333497, (14.291592639433226,), (0.25,)),
    "su5": (SU, 5, (0.6,), -0.018389013244901647, (956.9062342070822,), (-0.25,)),
    "su7": (SU, 7, (0.9,), -0.0021, (-412.5,), (-0.07,)),
    "gberger_095_102": (
        GBERGER, 3, (0.95, 1.02), -0.00011452892498390524,
        (-3.348264183511841, 1.1129560792945348), (-0.02550531, 0.01031441),
    ),
    "gberger_090_105": (
        GBERGER, 3, (0.9, 1.05), -0.0004760897, (-6.889446967100944, 2.393599695950305),
        (-0.051, 0.024),
    ),
}


def stepped(sc):
    """The table and its complex-step tables table + i*h*tangent."""
    return sc.table, sc.table + 1j * H * sc.tangents


def origin_tables(bd, log_k0, free):
    return stepped(fg_series_origin(bd, NonlocalParams(free), bd.n + 23, log_k0=log_k0, tangents=True))


def infinity_tables(kind, n, free):
    return stepped(series_infinity(kind, n, INFINITY_ORDER, np.asarray(free, dtype=float), tangents=True))


def main():
    out = {"h": np.array(H), "cases": np.array(sorted(CASES))}
    for name, (kind, n, phi0, log_k0, free, ifree) in sorted(CASES.items()):
        bd = BoundaryData(kind, n, phi0)
        out[f"{name}/family"] = np.array(kind.family)
        out[f"{name}/n"] = np.array(n)
        out[f"{name}/phi0"] = np.array(phi0)
        out[f"{name}/log_k0"] = np.array(log_k0)
        out[f"{name}/free"] = np.array(free)
        out[f"{name}/infinity_free"] = np.array(ifree)
        out[f"{name}/origin"], out[f"{name}/origin_cstep"] = origin_tables(bd, log_k0, free)
        out[f"{name}/infinity"], out[f"{name}/infinity_cstep"] = infinity_tables(kind, n, ifree)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "series_tables.npz")
    np.savez_compressed(path, **out)


if __name__ == "__main__":
    main()
