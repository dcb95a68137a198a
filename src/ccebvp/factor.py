"""Factors of the collocation Jacobian that assemble_collocation returns.

BandLU writes the block values into LAPACK band storage and factors the band
by LU with partial pivoting, through dgbtrf and dgbtrs of the LAPACK that
numpy.linalg links, bound with ctypes on the first factor (lapack_gbtrf).
CyclicReduction factors the blocks by block cyclic reduction in numpy alone:
it is the factor where that LAPACK exports no dgbtrf, and the tests' reference
for BandLU.  Both store O(N) values and raise np.linalg.LinAlgError on an
exactly singular system.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np


# the forms of LAPACK's band LU that lapack_gbtrf looks for, in order:
# (factor, solve, integer type of every integer argument)
_GBTRF_FORMS = (
    ("scipy_dgbtrf_64_", "scipy_dgbtrs_64_", ctypes.c_int64),
    ("dgbtrf_64_", "dgbtrs_64_", ctypes.c_int64),
    ("dgbtrf_", "dgbtrs_", ctypes.c_int32),
)


@functools.cache
def lapack_gbtrf():
    """(dgbtrf, dgbtrs, integer ctype) bound from the LAPACK that
    numpy.linalg links, or None when it exports neither form.  Looked up on
    the first factor, not at import; the lookup searches the libraries that
    numpy's own linalg extension loaded, so it maps nothing new."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for trf_name, trs_name, cint in _GBTRF_FORMS:
        if not (hasattr(lib, trf_name) and hasattr(lib, trs_name)):
            continue
        trf, trs = getattr(lib, trf_name), getattr(lib, trs_name)
        pint, ptr = ctypes.POINTER(cint), ctypes.c_void_p
        # dgbtrf(M, N, KL, KU, AB, LDAB, IPIV, INFO)
        trf.argtypes, trf.restype = [pint, pint, pint, pint, ptr, pint, ptr, pint], None
        # dgbtrs(TRANS, N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO), then
        # the hidden Fortran length of the character argument TRANS
        trs.argtypes = [ctypes.c_char_p, pint, pint, pint, pint, ptr, pint, ptr, ptr, pint, pint, ctypes.c_size_t]
        trs.restype = None
        return trf, trs, cint
    return None


def _address(a, dtype, size):
    """a's data pointer, once a is checked to be a C-contiguous array of
    size elements of dtype; the caller holds a for the whole native call."""
    if a.dtype != dtype or not a.flags.c_contiguous or a.size != size:
        raise ValueError(f"buffer must be C-contiguous {np.dtype(dtype)} of {size} elements")
    return a.ctypes.data


class BandLU:
    """LU factor, with partial pivoting, of the collocation Jacobian in
    LAPACK band storage (dgbtrf; Ascher, Mattheij and Russell 1988, ch. 7).

    With the unknowns ordered [origin parameters (m), nodes (2mN), x=1
    parameters (m-1)] and the rows in assemble_collocation's order, the
    matrix is an almost-block-diagonal band with kl = 3m-2 sub- and ku = 3m
    superdiagonals: interval block t's entry (a, b) is row 2m-1+2mt+a and
    column m+2mt+b, so it lies on band row kl+ku+m-1+a-b, a fixed row for
    every t, and one strided slice per block column fills the band.  The
    band is (2kl+ku+1) x n doubles in LAPACK's column-major layout, which is
    the C-order array ab[column, band row]; its first kl band rows take the
    pivoting's fill-in.  The matching rows' unit coefficients on their node
    slots, which J leaves out, are placed here.  A zero pivot (dgbtrf's info
    > 0) raises np.linalg.LinAlgError.
    """

    def __init__(self, J, m, N, lapack):
        trf, self._trs, self._cint = lapack
        w, cint = 2 * m, self._cint
        n, kl, ku = w * N + w - 1, 3 * m - 2, 3 * m
        d = kl + ku  # the band row of the diagonal
        no, ni = (w - 1) * m, (w - 1) * m + (N - 1) * 2 * w * w
        ab = np.zeros((n, 2 * kl + ku + 1))
        JL = J[:no].reshape(w - 1, m)
        for c in range(m):
            ab[c, d - c : d - c + w - 1] = JL[:, c]
        ab[m:w, d - m] = 1.0  # the origin's y matches on node 0's y slots
        ab[w + 1 : w + m, d - m - 1] = 1.0  # its y' matches (y1' shed) on the y' slots after the first
        blocks = J[no:ni].reshape(N - 1, w, 2 * w)
        for b in range(2 * w):
            ab[m + b : m + b + w * (N - 1) : w, d + m - 1 - b : d + m - 1 - b + w] = blocks[:, :, b]
        last = m + w * (N - 1)  # node N-1's first column
        ab[last : last + w, d + m - 1] = 1.0  # the x=1 matches on node N-1
        JR = J[ni:].reshape(w, m - 1)
        for c in range(m - 1):
            ab[last + w + c, d - m - 1 - c : d - m - 1 - c + w] = JR[:, c]
        ipiv = np.empty(n, np.dtype(cint))
        info = cint()
        trf(cint(n), cint(n), cint(kl), cint(ku), _address(ab, np.float64, ab.size), cint(ab.shape[1]),
            _address(ipiv, ipiv.dtype, n), info)
        if info.value < 0:
            raise ValueError(f"dgbtrf rejected argument {-info.value}")
        if info.value > 0:
            raise np.linalg.LinAlgError(f"zero pivot in column {info.value} of the band factor")
        self.ab, self.ipiv = ab, ipiv
        self.m, self.N, self.kl, self.ku = m, N, kl, ku

    def solve(self, rhs):
        """x with J x = rhs, for rhs in assemble_collocation's row order."""
        m, w, cint, ab = self.m, 2 * self.m, self._cint, self.ab
        n = ab.shape[0]
        x = np.array(rhs, dtype=np.float64)  # dgbtrs overwrites it
        info = cint()
        self._trs(b"N", cint(n), cint(self.kl), cint(self.ku), cint(1), _address(ab, np.float64, ab.size),
                  cint(ab.shape[1]), _address(self.ipiv, self.ipiv.dtype, n), _address(x, np.float64, n), cint(n),
                  info, 1)
        if info.value:
            raise ValueError(f"dgbtrs rejected argument {-info.value}")
        # back from the band's column order to the unknowns'
        return np.concatenate([x[m : m + w * self.N], x[:m], x[m + w * self.N :]])


class CyclicReduction:
    """Factor of the collocation Jacobian by block cyclic reduction, in numpy
    alone: splu's factor where numpy's LAPACK exports no dgbtrf, and the
    tests' reference for BandLU.

    The interval blocks [A_j | B_j] (A_j on node j, B_j on node j+1) are
    reduced pairwise, level by level: stacking [B_j; A_{j+1}] for even j and
    applying the transpose of its complete QR factor to the two block rows
    eliminates node j+1, leaving a block that links node j to node j+2 (an
    odd last block carries over unchanged).  When one block is left it links
    the first node to the last, and together with the endpoint matching rows
    (their unit coefficients on the end nodes, which J leaves out, placed
    here) it forms one dense (6m-1)-square system in the two end nodes and
    the endpoint parameters.  Each eliminated node is then recovered, level
    by level in reverse, through its stored operator
    R^-1 [Q_top^T | -Q_top^T [A;0] | -Q_top^T [0;B]] applied to its pair's
    right-hand side and its two neighbours (Wright 1992; the orthogonal
    reduction keeps it stable without pivoting across blocks).  Storage is
    O(N).  An exactly singular system raises np.linalg.LinAlgError.
    """

    def __init__(self, J, m, N):
        w = 2 * m
        no = (w - 1) * m
        ni = no + (N - 1) * 2 * w * w
        JL, JR = J[:no].reshape(w - 1, m), J[ni:].reshape(w, m - 1)
        blocks = J[no:ni].reshape(N - 1, w, 2 * w)
        A, B = blocks[:, :, :w], blocks[:, :, w:]
        nodes = np.arange(N)
        # per level: (Q_bot^T, back-substitution operator, left, eliminated, right node indices)
        self.levels = []
        while len(A) > 1:
            k = len(A) // 2
            Q, R = np.linalg.qr(np.concatenate([B[: 2 * k : 2], A[1 : 2 * k : 2]], axis=1), mode="complete")
            Qt = Q.transpose(0, 2, 1)
            QA = Qt[:, :, :w] @ A[: 2 * k : 2]
            QB = Qt[:, :, w:] @ B[1 : 2 * k : 2]
            ops = np.linalg.inv(R[:, :w]) @ np.concatenate([Qt[:, :w], -QA[:, :w], -QB[:, :w]], axis=2)
            self.levels.append((Qt[:, w:].copy(), ops, nodes[: 2 * k : 2], nodes[1 : 2 * k : 2], nodes[2 : 2 * k + 1 : 2]))
            A = np.concatenate([QA[:, w:], A[2 * k :]])
            B = np.concatenate([QB[:, w:], B[2 * k :]])
            nodes = np.concatenate([nodes[: 2 * k + 1 : 2], nodes[2 * k + 1 :]])
        # unknowns (first node, last node, origin parameters, x=1 parameters);
        # rows (origin matching, the last block, x=1 matching)
        E = np.zeros((3 * w - 1, 3 * w - 1))
        E[: w - 1, :w] = np.delete(np.eye(w), m, axis=0)
        E[: w - 1, 2 * w : 2 * w + m] = JL
        E[w - 1 : 2 * w - 1, :w] = A[0]
        E[w - 1 : 2 * w - 1, w : 2 * w] = B[0]
        E[2 * w - 1 :, w : 2 * w] = np.eye(w)
        E[2 * w - 1 :, 2 * w + m :] = JR
        self.ends = E
        self.m, self.N = m, N

    def solve(self, rhs):
        """x with J x = rhs, for rhs in assemble_collocation's row order."""
        w, N = 2 * self.m, self.N
        f = rhs[w - 1 : -w].reshape(N - 1, w)
        pairs = []
        for Qb, ops, *_ in self.levels:
            k = len(ops)
            pair = f[: 2 * k].reshape(k, 2 * w)
            pairs.append(pair)
            f = np.concatenate([(Qb @ pair[:, :, None])[:, :, 0], f[2 * k :]])
        z = np.linalg.solve(self.ends, np.concatenate([rhs[: w - 1], f[0], rhs[-w:]]))
        x = np.empty((N, w))
        x[0], x[-1] = z[:w], z[w : 2 * w]
        for (_, ops, left, mid, right), pair in zip(self.levels[::-1], pairs[::-1]):
            v = np.concatenate([pair, x[left], x[right]], axis=1)
            x[mid] = (ops @ v[:, :, None])[:, :, 0]
        return np.concatenate([x.ravel(), z[2 * w :]])
