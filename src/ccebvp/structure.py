"""Structure constants of the invariant Killing frames at the base point.

Each frame field has components of the form c * sqrt(1 - |theta|^2) + linear
terms, so values and first and second derivatives at theta=0 are exact
rational data.  From the frame matrix X and its inverse Z the tables

    C_ij^p = Z_i^q  d_j X_q^p
    dC_sij^p = -C_is^b C_bj^p - delta_ip delta_sj

follow in closed form; they feed geometry.riemann_from_structure, the slice
curvature assembly that checks the closed-form slice curvatures, and only the
tests and the benchmark import them.  Tables are provided for S^3 (the
SU(2)-invariant frame used by the generalized Berger and n=3 families) and
S^5 = SU(3)/SU(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import UsageError


@dataclass(frozen=True)
class KillingFrame:
    """Frame fields near the base point: X_a^p = sq[a,p] sqrt(1-|th|^2) + lin[a,p,m] th^m."""

    dim: int
    sq: np.ndarray  # (nfields, dim)
    lin: np.ndarray  # (nfields, dim, dim)


def su2_frame() -> KillingFrame:
    """SU(2)-invariant frame on S^3 in the chart theta = (y1, x2, y2)."""
    d = 3
    sq = np.zeros((3, d))
    lin = np.zeros((3, d, d))
    # X1 = (sqrt, th3, -th2); X2 = (th3, -sqrt, -th1); X3 = (th2, -th1, sqrt)
    sq[0, 0] = 1.0
    lin[0, 1, 2] = 1.0
    lin[0, 2, 1] = -1.0
    sq[1, 1] = -1.0
    lin[1, 0, 2] = 1.0
    lin[1, 2, 0] = -1.0
    sq[2, 2] = 1.0
    lin[2, 0, 1] = 1.0
    lin[2, 1, 0] = -1.0
    return KillingFrame(d, sq, lin)


def su3_frame() -> KillingFrame:
    """SU(3)-invariant frame on S^5 in the chart theta = (y1, x2, y2, x3, y3).

    Fields 1..5 span the tangent space at the base point; 6..8 are the
    isotropy fields (vanishing there) kept for the Lie-bracket cross-checks.
    """
    d = 5
    sq = np.zeros((8, d))
    lin = np.zeros((8, d, d))
    # X1 = (2 sqrt, th3, -th2, th5, -th4)
    sq[0, 0] = 2.0
    for p, m, v in ((1, 2, 1.0), (2, 1, -1.0), (3, 4, 1.0), (4, 3, -1.0)):
        lin[0, p, m] = v
    # X2 = (th3, -sqrt, -th1, 0, 0)
    sq[1, 1] = -1.0
    lin[1, 0, 2] = 1.0
    lin[1, 2, 0] = -1.0
    # X3 = (th2, -th1, sqrt, 0, 0)
    sq[2, 2] = 1.0
    lin[2, 0, 1] = 1.0
    lin[2, 1, 0] = -1.0
    # X4 = (th5, 0, 0, -sqrt, -th1)
    sq[3, 3] = -1.0
    lin[3, 0, 4] = 1.0
    lin[3, 4, 0] = -1.0
    # X5 = (th4, 0, 0, -th1, sqrt)
    sq[4, 4] = 1.0
    lin[4, 0, 3] = 1.0
    lin[4, 3, 0] = -1.0
    # X6 = (0, -th3, th2, th5, -th4)
    for p, m, v in ((1, 2, -1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, -1.0)):
        lin[5, p, m] = v
    # X7 = (0, th4, th5, -th2, -th3)
    for p, m, v in ((1, 3, 1.0), (2, 4, 1.0), (3, 1, -1.0), (4, 2, -1.0)):
        lin[6, p, m] = v
    # X8 = (0, -th5, th4, -th3, th2)
    for p, m, v in ((1, 4, -1.0), (2, 3, 1.0), (3, 2, -1.0), (4, 1, 1.0)):
        lin[7, p, m] = v
    return KillingFrame(d, sq, lin)


@dataclass
class StructureConstants:
    """C and its theta-derivatives dC at the base point."""

    dim: int
    C: np.ndarray  # (d, d, d): C[i, j, p]
    dC: np.ndarray  # (s, i, j, p)


def structure_from_frame(frame: KillingFrame) -> StructureConstants:
    d = frame.dim
    X0 = frame.sq[:d, :]  # frame matrix at the base point
    Z = np.linalg.inv(X0)
    # C[i,j,p] = Z[i,q] lin[q,p,j]
    C = np.einsum("iq,qpj->ijp", Z, frame.lin[:d])
    # dC[s,i,j,p] = -C[i,s,b] C[b,j,p] - delta_ip delta_sj
    dC = -np.einsum("isb,bjp->sijp", C, C)
    eye = np.eye(d)
    dC -= np.einsum("ip,sj->sijp", eye, eye)
    return StructureConstants(d, C, dC)


def slice_structure(n: int) -> StructureConstants:
    """Structure constants for the homogeneous slice of dimension n (3 or 5)."""
    if n == 3:
        return structure_from_frame(su2_frame())
    if n == 5:
        return structure_from_frame(su3_frame())
    raise UsageError(f"no structure-constant table for slice dimension {n}")

