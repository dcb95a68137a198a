"""Write profile_v1.csv and profile_v1_gberger.csv: profile CSVs in the first
format, frozen for regression.

The first format (schema cce-profile-v1) followed the stored columns x, y_i
and yp_i with the derived K, phi_i, Phi, I_i and max_radial_curvature
columns.  The current writer no longer emits them, so the file must be
written by a checkout of the last commit with the v1 writer, c4b42e4.
Run from the repository root:

    v1=$(mktemp -d) && git archive c4b42e4 src | tar -x -C "$v1"
    PYTHONPATH="$v1/src" python3 tests/data/make_profile_v1.py

Each is a 16-node solve at tol 1e-4: SU n=5 at phi0 = 0.85, and gberger at
(0.95, 1.02).  tests/test_cli.py checks that each loads bit for bit, that
`cce verify` reports the same on it and on its re-export, and that
`cce export` writes exactly its derived column text.
"""

import os

from ccebvp.exports import PROFILE_SCHEMA, export_profile_csv
from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData

CASES = {
    "profile_v1.csv": BoundaryData(SU, 5, (0.85,)),
    "profile_v1_gberger.csv": BoundaryData(GBERGER, 3, (0.95, 1.02)),
}


def main():
    if PROFILE_SCHEMA != "cce-profile-v1":
        raise SystemExit(f"this writer writes {PROFILE_SCHEMA}: run against the v1 writer (see the docstring)")
    for name, bd in CASES.items():
        prof, rep = solve_bvp(bd, SolveOptions(grid=16, tol=1e-4, refine_rounds=0))
        if not rep.converged:
            raise SystemExit(f"{name}: the solve did not converge ({rep.failure_reason})")
        export_profile_csv(prof, os.path.join(os.path.dirname(os.path.abspath(__file__)), name))


if __name__ == "__main__":
    main()
