"""Truncated series solutions at the two singular endpoints.

At x=0 the coefficients below order n are determined recursively from the
equations and the boundary ratios; the order-n coefficients of the non-K
unknowns are the free nonlocal parameters (the K coefficient at order n is
forced by trace-freeness).  At x=1 (series in u = 1-x) the second-order
coefficients of the non-K unknowns are free and everything else, including
the whole K series, is slaved to them.

Both recursions share one engine over the regularized residual series of
the closing equations (the first integral for y1 at the origin, the quadratic
y1 equation at infinity, the phi/t equations for the rest).  Its operators
depend only on (family, endpoint, order) and are built once and cached: a
kernel over the lags between orders that maps the history of lower orders
(table columns, Cauchy coefficients of the quadratic terms, exponential
source terms) onto each order's residual coefficient, and per order the
negated inverse of the exactly-linear indicial map onto the order-k
coefficients.  Each order then costs one product for its residual and one
for its column, one for its i c_i and one each for Miller's sum and the
Cauchy products.  A batch axis carries the complex-step perturbations that
give the origin tables' input tangents in one pass; the three linear
products, whose operators are real, act on float views of it.

At x=1 the recursion's table is a polynomial in the free values (column k
of total degree k//2), so series_infinity evaluates that polynomial instead:
it is interpolated from one batched recursion per (family, order, box of
free values) and cached, and each call costs a short basis evaluation and
one product for the table and one for its tangents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .systems import (
    BoundaryData,
    Family,
    SeriesRecursionError,
    SystemKind,
    UsageError,
    family,
)

TRUST_RADIUS = 0.15

# consistency tolerance for the residual coefficient at a free (resonant)
# order, relative to the source-weight scale
_CONSISTENCY_RTOL = 1e-8

CSTEP = 1e-80  # complex-step width of the tangent tables


@dataclass(frozen=True)
class NonlocalParams:
    """Free coefficients entering the origin expansion at order x^n, as floats."""

    coeffs: tuple

    def __post_init__(self):
        if any(map(np.iscomplexobj, self.coeffs)):
            raise UsageError(f"nonlocal parameters must be real, got {self.coeffs}")
        object.__setattr__(self, "coeffs", tuple(map(float, self.coeffs)))

    @staticmethod
    def zeros(kind: SystemKind) -> "NonlocalParams":
        return NonlocalParams((0.0,) * kind.free_count)

    def validate(self, kind: SystemKind) -> None:
        if len(self.coeffs) != kind.free_count:
            raise UsageError(
                f"{kind.family} expects {kind.free_count} nonlocal parameters, got {len(self.coeffs)}"
            )


@dataclass
class SeriesCoefficients:
    """Truncated endpoint expansion; table[i, k] multiplies x^k (origin) or (1-x)^k (infinity)."""

    endpoint: str
    order: int
    table: np.ndarray
    consistency: float = 0.0
    # d table / d input, one (m, order+1) table per input (origin: log K(0)
    # then the free values; infinity: the free values), when requested
    tangents: np.ndarray | None = None


# -- the per-order operators --------------------------------------------------
#
# Every closing row is a sum of four convolutions of a fixed multiplier series
# with a state series: y'' and y' of its own unknown, a quadratic form in y',
# and the exponential source.  Each state is linear in a history that the
# recursion keeps one row per order t: D_t = t C_t and Y_t = t(t-1) C_t (the
# y' and y'' coefficients of column t), the Cauchy coefficients t-1 of every
# product y_a' y_c', and the exponential terms E_t.  Each convolution then
# weighs order t by a multiplier coefficient that depends on k-t alone, so
# residual coefficient k-1, less its part in column k, is one product of the
# rows of orders k..0 with the first k+1 lags of one kernel that folds the
# multipliers, the quadratic forms and the source weights W.  The history is
# kept in reverse order so that those rows are one contiguous block.  Column
# k enters coefficient k-1 through an indicial matrix; its negated inverse,
# scaled to (D_k, Y_k), is the second product of the order.  Kernel and
# inverses are built once per (Family object, endpoint, order) and cached; a
# leading batch axis of the history carries complex-step perturbations of
# the inputs.


def _closing_rows(fam: Family, endpoint, L):
    """Multipliers (4, m, L) of the y'', y', quadratic and source terms, and the
    quadratic forms (m, m, m) of each row in y' (the family's, but for the
    constraint row at the origin).

    Origin, in x: row 0 is x*Phi/cphi, rows i are x(1-x^2)E_{i+1}; the source
    state is F itself.  Dividing by cphi leaves every source multiplier dyadic,
    so its products with the integer source weights are exact and the sources
    cancel exactly at y=0 (round data) inside the operators as well.

    Infinity, in u=1-x: row 0 is x(1-x^2)E_1, rows i are x(1-x^2)E_{i+1}; the
    source term x(1-x^2)^-1 F is (1-u)(2-u)^-1 (F/u), so the source state is
    F shifted by one (its constant coefficient vanishes identically because
    the source weights cancel at y=0).
    """
    m = fam.m
    a, b = fam.sing[:m, 0], fam.sing[:m, 1]
    j = np.arange(L)
    odd = (j % 2 == 1).astype(float)
    mult = np.zeros((4, m, L))
    quad = np.stack([eq.quad for eq in fam.eqs[:m]])
    if endpoint == "origin":
        x1mx2 = np.zeros(L)  # x(1-x^2)
        x1mx2[1], x1mx2[3] = 1.0, -1.0
        mult[0, 1:] = x1mx2
        mult[1, 0] = -4.0 * fam.n / fam.cphi * np.where(j == 0, 1.0, 2.0 - 2.0 * odd)  # (1+x^2)/(1-x^2)
        mult[1, 1:, 0] = -a[1:]
        mult[1, 1:, 2] = -b[1:]
        mult[2, 0, 1] = 1.0  # x
        mult[2, 1:] = x1mx2
        mult[3, 0] = odd * (j + 1) / 2  # x(1-x^2)^-2
        mult[3, 1:] = odd  # x(1-x^2)^-1
        quad[0] = -fam.rmat / fam.cphi
        quad[0, 0, 0] += 1.0 / fam.cphi
    else:
        x1mx2 = np.zeros(L)  # u(1-u)(2-u)
        x1mx2[1:4] = 2.0, -3.0, 1.0
        mult[0] = x1mx2
        mult[1, :, 0] = -(a + b)  # -(a + b x^2), x = 1-u
        mult[1, :, 1] = 2.0 * b
        mult[1, :, 2] = -b
        mult[2] = x1mx2
        mult[3, 1:] = np.where(j == 0, 0.5, -(0.5 ** (j + 1)))  # (1-u)(2-u)^-1
    return mult, quad


def _exp_terms(fam: Family):
    """All exponential terms of the row sources: exponents V (T, m), weights W
    (m, T); row 0 carries eq 2's source (the constraint's at the origin; eq 1,
    row 0 at infinity, has none and its source multiplier is zero)."""
    tables = [fam.eqs[i].src for i in (fam.m, *range(1, fam.m))]
    V = np.concatenate([v for _, v in tables])
    W = np.zeros((fam.m, len(V)))
    off = 0
    for i, (w, _) in enumerate(tables):
        W[i, off : off + len(w)] = w
        off += len(w)
    return V, W


@dataclass(frozen=True)
class _Operators:
    """The recursion's fixed operators for one (Family, endpoint, order).

    History features per order: D (:m), Y (m:2m), the Cauchy coefficients
    (2m:2m+m*m, pair (a, c) at 2m + a*m + c), the exponential terms (the rest).
    """

    start: int  # first order the recursion solves for
    free_order: int  # order whose non-K block is singular (the free values)
    shift: int  # source coefficient j is W E_{j+shift}
    # (order+1) lags of (features, m), flattened; its first k+1 lags map the
    # history rows of orders k..0 to residual coefficient k-1 without column k
    kernel: np.ndarray
    # solve[k]: (m, 2m), that residual -> (D_k, Y_k); at free_order the y1
    # entries alone
    solve: list
    free_block: np.ndarray  # non-K indicial block at free_order (consistency check)
    singular: int | None  # order whose indicial factor vanishes, if any
    VT: np.ndarray  # (m, T) exponents of the source terms
    wsum: float  # source-weight scale of the consistency tolerance


def _build_operators(fam: Family, endpoint, order) -> _Operators:
    m, L = fam.m, order + 1
    origin = endpoint == "origin"
    start, free_order, shift, dsign = (1, fam.n, 0, 1.0) if origin else (2, 2, 1, -1.0)
    mult, quad = _closing_rows(fam, endpoint, L + 1)  # y'' at lag l reads coefficient l+1
    V, W = _exp_terms(fam)
    fc, fe = 2 * m, 2 * m + m * m  # first Cauchy and first exponential feature
    i = np.arange(m)
    # lag l = k - t >= 1 for the column states (lag 0 is column k itself):
    # y' coefficient k-1-l is dsign D_{k-l}, y'' coefficient k-2-l is Y_{k-l},
    # the Cauchy coefficient k-1-l sits in order k-l; source coefficient j is
    # W E_{j+shift}, so the source reaches lag 1-shift (partial E_k at
    # infinity), and at infinity the history holds no E_0
    kernel = np.zeros((L, fe + len(V), m))
    kernel[1:, i, i] = dsign * mult[1][:, 1:L].T
    kernel[1:, m + i, i] = mult[0][:, 2 : L + 1].T
    kernel[1:, fc:fe] = mult[2][:, 1:L].T[:, None, :] * quad.reshape(m, m * m).T
    lags = np.arange(1 - shift, L)
    kernel[lags, fe:] = mult[3][:, lags - 1 + shift].T[:, None, :] * W.T
    lin = 0.5 * (W[1:] @ V)[:, 1:]  # half the source linearization at y=0
    solve = [None] * L
    singular = free_block = None
    for k in range(start, L):
        # column k enters residual coefficient k-1 through y'' and y' of its own
        # unknown and, at infinity, through the source as c_k E_0 with E_0 = 1
        ind = np.diag(k * (k - 1.0) * mult[0, :, 1] + dsign * k * mult[1, :, 0])
        if not origin:
            ind[1:, 1:] += lin
        if k == free_order:  # y1 alone; the free values fill the rest
            free_block = ind[1:, 1:]
            inv = np.zeros((m, m))
            inv[0, 0] = 1.0 / ind[0, 0]
        elif origin and np.any(np.diag(ind) == 0.0):
            singular = k
            break
        else:
            inv = np.linalg.inv(ind)
        solve[k] = np.concatenate([-k * inv.T, -k * (k - 1.0) * inv.T], axis=1)
    wsum = 1.0 + np.abs(W).sum(axis=1).max()
    return _Operators(
        start, free_order, shift, kernel.reshape(-1, m), solve, free_block, singular, V.T.copy(), wsum
    )


@functools.cache  # by Family object, not by (kind, n): an edited copy of a family gets its own
def _operators(fam: Family, endpoint, order) -> _Operators:
    return _build_operators(fam, endpoint, order)


def _consistency_tol(ops: _Operators, cmax):
    """Tolerance of the residual at the resonant order: relative to the
    source-weight scale and the largest lower coefficient cmax."""
    k = ops.free_order
    return _CONSISTENCY_RTOL * ops.wsum * k * k * (1.0 + cmax * cmax)


def _inconsistent(ops: _Operators, residual):
    """The error for a resonant-order residual above its tolerance."""
    return SeriesRecursionError(f"inconsistent resonant order {ops.free_order}: residual {residual:.3e}")


class _Workspace:
    """The buffers of one batch shape's recursion, and per order the views
    and operators that its products read and write (the history H and the
    i c_i table ic, both zeroed on every call).  The three linear products
    (the kernel, the indicial inverse and V D) act on float views of the
    buffers: on a complex-step batch each real operator A acts as
    kron(A, I_2) on the interleaved real and imaginary parts, which real
    BLAS does faster than complex BLAS on these shapes.  Two threads
    recursing at once would share it; the package starts none."""

    def __init__(self, ops: _Operators, order, B, dtype):
        m = ops.kernel.shape[1]
        T = ops.VT.shape[1]
        F = ops.kernel.shape[0] // (order + 1)
        pair = np.dtype(dtype).kind == "c"  # floats per entry: 1 + pair

        def as_real(A):
            return np.kron(A, np.eye(2)) if pair else A

        def fv(a):  # the float view
            return a.view(np.float64)

        self.H = H = np.zeros((B, order + 1, F), dtype=dtype)  # row order - t holds order t
        self.ic = ic = np.zeros((B, order + 1, T), dtype=dtype)  # row i holds i c_i, c = V C
        self.D, self.E = D, E = H[..., :m], H[..., F - T :]
        self.t = np.arange(1.0, order + 1)[:, None]  # D_t -> C_t
        self.res = np.empty((B, m), dtype=dtype)  # residual coefficient k-1 without column k
        self.tmp = np.empty((B, T), dtype=dtype)
        self.VTf = as_real(ops.VT)
        kernel = as_real(ops.kernel)
        # Miller's sum at order k completes E_(k-lag): at the origin, whose
        # kernel reads no lag 0, E_(k-1) with its E_0 term; at x=1 the
        # partial E_k that lag 0 reads, completed once column k is known
        lag = 1 - ops.shift
        self.orders = []
        for k in range(ops.start, order + 1):
            r = order - k  # the row of order k; rows r+1..order-1 hold orders k-1..1
            miller = (ic[:, None, 1:k].transpose(0, 3, 1, 2), E[:, r + 1 + lag : order + lag].transpose(0, 2, 1)[..., None],
                      E[:, r + lag, :, None, None], k - lag)
            cauchy = (D[:, order - 1 : r : -1].transpose(0, 2, 1), D[:, r + 1 : order],
                      H[:, r + 1, 2 * m : 2 * m + m * m].reshape(B, m, m))
            solve = None if ops.solve[k] is None else as_real(ops.solve[k])
            DY = H[:, r, : 2 * m]
            self.orders.append((k, r, miller, cauchy, fv(H[:, r:].reshape(B, -1)), kernel[: (k + 1) * F * (1 + pair)],
                                solve, DY, fv(DY), fv(DY[:, :m]), E[:, r], ic[:, k], fv(ic[:, k])))


@functools.cache  # the origin's batches only: one real, and one complex-step per family and order
def _origin_workspace(fam: Family, order, B, dtype) -> _Workspace:
    return _Workspace(_operators(fam, "origin", order), order, B, dtype)


def _solve_recursion(fam: Family, endpoint, order, col0, free_vals):
    """Tables (B, m, order+1) of a batch with column 0 col0 (B, m), filled
    order by order, and the consistency residual of each batch member.

    The recursion starts at order 1 at the origin and at order 2 at infinity,
    where columns 0 and 1 vanish.  The residual coefficient at order k-1 is
    exactly linear in column k with an analytic indicial map (the y1 row
    decouples, and the non-K block is diagonal at the origin and diagonal
    plus half the source linearization at infinity).  At the resonant order
    (n at the origin, 2 at infinity) the non-K block is singular: free_vals
    (B, m-1) are inserted and the residual coefficients checked for
    consistency.  The exponential terms advance by J.C.P. Miller's
    power-series recurrence E_j = (1/j) sum_i i c_i E_{j-i}, where i c_i = V D_i.
    The origin's kernel reads E_j from order j+1 on, so order k completes
    E_(k-1), E_0 term included, before its residual; at x=1 the residual of
    order k reads the partial E_k, which column k completes through
    c_k E_0.  Every product writes into the batch shape's workspace, built
    once for the origin and per call for the x=1 polynomial's one-off
    batches.
    """
    ops = _operators(fam, endpoint, order)
    B, m = col0.shape
    if endpoint == "origin":
        ws = _origin_workspace(fam, order, B, col0.dtype)
    else:
        ws = _Workspace(ops, order, B, col0.dtype)
    ws.H[...] = 0.0
    ws.ic[...] = 0.0
    D, res, tmp, VTf = ws.D, ws.res, ws.tmp, ws.VTf
    resf = res.view(np.float64)
    if not ops.shift:  # E_0 is a source state at the origin only
        ws.E[:, order] = np.exp(col0 @ ops.VT)
    consistency = np.zeros(B)
    for k, r, miller, cauchy, hist, kernel, solve, DY, DYf, DY_m, E_r, ic_k, ic_kf in ws.orders:
        if k == ops.singular:
            raise SeriesRecursionError(f"vanishing indicial factor at order {k}")
        if k >= 2:
            np.matmul(miller[0], miller[1], out=miller[2])
            np.divide(miller[2], miller[3], out=miller[2])
            np.matmul(cauchy[0], cauchy[1], out=cauchy[2])
        np.matmul(hist, kernel, out=resf)
        np.matmul(resf, solve, out=DYf)
        if k == ops.free_order:
            consistency = np.abs(res[:, 1:] + free_vals @ ops.free_block.T).max(axis=1)
            low = np.abs(D[:, r + 1 : order]) / ws.t[k - 2 :: -1]
            cmax = np.maximum(np.abs(col0).max(axis=1), low.max(axis=(1, 2)))
            if np.any(consistency > _consistency_tol(ops, cmax)):
                raise _inconsistent(ops, consistency.max())
            DY[:, 1:m] = k * free_vals
            DY[:, m + 1 :] = k * (k - 1.0) * free_vals
        np.matmul(DY_m, VTf, out=ic_kf)
        if ops.shift:  # at x=1: E_k += c_k E_0 / k, with E_0 = 1
            np.divide(ic_k, k, out=tmp)
            np.add(E_r, tmp, out=E_r)
    C = np.empty((B, m, order + 1), dtype=col0.dtype)
    C[:, :, 0] = col0
    C[:, :, 1:] = (D[:, order - 1 :: -1] / ws.t).transpose(0, 2, 1)
    return C, consistency


def _batch(inputs, tangents):
    """The real inputs (count,) as a batch (B, count): alone, or with tangents
    followed by one complex-step perturbation i*h of each input in turn."""
    if np.iscomplexobj(inputs):
        raise UsageError(f"series inputs must be real, got {inputs}")
    if not tangents:
        return inputs[None]
    return inputs + np.vstack([np.zeros(len(inputs)), 1j * CSTEP * np.eye(len(inputs))])


def _split(C, tangents):
    """Table and tangent tables of a filled batch."""
    if not tangents:
        return C[0], None
    return C[0].real.copy(), C[1:].imag / CSTEP


# -- the x=1 tables as a polynomial in the free values ------------------------
#
# At x=1 columns 0 and 1 vanish and E_0 = 1, so every later column is built
# from earlier ones by linear maps, Cauchy products and Miller's recurrence,
# and column k is a polynomial of total degree k//2 in the m-1 free u^2
# values.  The table is interpolated once per (Family object, order, box) in
# the tensor Chebyshev basis of the box, from one batched recursion on a
# unisolvent set of the total-degree space whose interpolant has an explicit
# formula (_interpolation_weights), so no linear solve; the coefficients
# above each column's degree, roundoff only, are dropped, and the tangents
# are the interpolant's derivatives.  Each call then evaluates the basis, less its
# value at free = 0 (so round data give an exactly zero table), and takes one
# product for the table and one for its tangents.
#
# The interpolation's roundoff is relative to the largest table on the box,
# and the high columns grow like |free|^(k/2), much faster toward one sign
# than the other: on [-2, 2] SU n=3 reaches 4e3 times its table at
# free = 1.5.  So each free value gets its own one-signed box, [0, S] or
# [-S, 0] with S = 2^(j/4) the least at or above |free| (at least 1/8), which
# bounds that ratio near (2^(1/4))^13 = 10.  Zero is a corner of every box.

# boxes per octave of |free|, and the exponent j of the smallest (S = 1/8)
_BOX_STEPS = 4
_BOX_FLOOR = -12
# polynomials kept over all families, least recently used dropped first (a
# gberger box holds 0.2 MB)
_BOX_CACHE = 32


def _interpolation_points(d, n):
    """A unisolvent set (P, d) of the total-degree-n polynomials on [-1, 1]^d
    for the families' d = 1 or 2 free values: Chebyshev-Lobatto points, or
    the first family of Padua points (Bos, Caliari, De Marchi, Vianello and
    Xu, 2006)."""
    if d == 1:
        return np.cos(np.pi * np.arange(n + 1) / n)[:, None]
    j, k = np.meshgrid(np.arange(n + 1), np.arange(n + 2), indexing="ij")
    keep = (j + k) % 2 == 0
    return np.stack([np.cos(np.pi * j[keep] / n), np.cos(np.pi * k[keep] / (n + 1))], axis=1)


def _interpolation_weights(z, n, rows):
    """The interpolant's explicit formula on the points z of
    _interpolation_points(d, n): weights w (P,) and scales s (rows,) with
    coefficients s * (V.T @ (w * f)) on the kept tensor rows, V the basis at
    z.  In 1-D it is a DCT-I: weights 2/n, halved at both ends, and the
    degree 0 and n coefficients halved.  On the Padua points it is the
    cubature of Caliari, De Marchi and Vianello (2008): weights 1/(n(n+1))
    times 1/2 at the corners, 1 at the other edge points and 2 inside; each
    nonzero degree scales by 2 (their basis is sqrt(2) T_j for j > 0), and
    the (n, 0) coefficient is halved."""
    d = z.shape[1]
    ends = np.isclose(np.abs(z), 1.0).sum(axis=1)  # coordinates at +-1: 0 inside, 1 on an edge, 2 at a corner
    deg = np.indices((n + 1,) * d).reshape(d, -1)[:, rows]
    if d == 1:
        return 2.0 / n * 0.5**ends, np.where(deg[0] % n == 0, 0.5, 1.0)
    s = 2.0 ** (deg > 0).sum(axis=0)
    s[(deg[0] == n) & (deg[1] == 0)] /= 2.0
    return 2.0 / (n * (n + 1)) * 0.5**ends, s


def _chebyshev_basis(z, k):
    """The tensor Chebyshev basis of degrees k = 0, 1, ..., n at one point z
    (d numbers) of [-1, 1]^d, flattened to ((n+1)^d,) with the last
    coordinate fastest, from T_k(cos t) = cos(k t): as accurate as the
    three-term recurrence."""
    out = np.cos(np.arccos(z[0]) * k)
    for x in z[1:]:
        out = np.multiply.outer(out, np.cos(np.arccos(x) * k)).ravel()
    return out


def _chebyshev_derivative(c, axis):
    """Chebyshev coefficients of the derivative of the series c along axis
    (same length; the last entry is zero)."""
    c = np.moveaxis(c, axis, 0)
    d = np.zeros((len(c) + 1,) + c.shape[1:])
    for k in range(len(c) - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] /= 2.0
    return np.moveaxis(d[:-1], 0, axis)


@dataclass(frozen=True)
class _InfinityPoly:
    """The x=1 table, flattened, as a polynomial on one box of free values:
    coefficients on the rows of _chebyshev_basis(z, k) of total degree at
    most order//2, at z = free / half - 1."""

    half: tuple  # signed half-widths: the box is free = half * (z + 1), z in [-1, 1]^(m-1)
    k: np.ndarray  # 0, 1, ..., order//2
    rows: np.ndarray  # the rows of the tensor basis kept
    zero: np.ndarray  # (rows,) the basis at free = 0, the box's corner z = -1
    coef: np.ndarray  # (rows, m*(order+1)), zero above each column's degree
    dcoef: np.ndarray  # (rows, (m-1)*m*(order+1)) the derivatives in the free values, in turn
    dzero: np.ndarray  # ((m-1)*m*(order+1),) the derivatives at free = 0


def _build_infinity_poly(fam: Family, order, half) -> _InfinityPoly:
    d, n, m = fam.m - 1, order // 2, fam.m
    k = np.arange(n + 1)
    total = np.add.reduce(np.indices((n + 1,) * d)).ravel()  # total degree of each tensor row
    rows = np.flatnonzero(total <= n)
    z = _interpolation_points(d, n)
    C, _ = _solve_recursion(fam, "infinity", order, np.zeros((len(z), m)), np.array(half) * (z + 1.0))
    V = np.array([_chebyshev_basis(p, k)[rows] for p in z])
    w, s = _interpolation_weights(z, n, rows)
    coef = (s[:, None] * (V.T @ (w[:, None] * C.reshape(len(z), -1)))).reshape(-1, m, order + 1)
    # column j has degree j//2: drop the roundoff above it, which the derivative would amplify
    coef = (coef * (total[rows, None, None] <= np.arange(order + 1) // 2)).reshape(len(rows), -1)
    full = np.zeros((len(total), coef.shape[1]))
    full[rows] = coef
    full = full.reshape((n + 1,) * d + (-1,))
    dcoef = [_chebyshev_derivative(full, a).reshape(len(total), -1)[rows] / half[a] for a in range(d)]
    dcoef = np.concatenate(dcoef, axis=1)
    zero = _chebyshev_basis([-1.0] * d, k)[rows]
    return _InfinityPoly(half, k, rows, zero, coef, dcoef, zero @ dcoef)


def _box_exponent(a):
    """The least j >= _BOX_FLOOR with 2^(j/_BOX_STEPS) >= a, for a finite a >= 0."""
    j = max(_BOX_FLOOR, math.ceil(_BOX_STEPS * math.log2(a))) if a > 0 else _BOX_FLOOR
    return j + (2.0 ** (j / _BOX_STEPS) < a)


@functools.lru_cache(maxsize=_BOX_CACHE)
def _box_poly(fam: Family, order, box) -> _InfinityPoly:
    """The polynomial of one box: (exponent j, negative) per free value."""
    half = tuple((-0.5 if neg else 0.5) * 2.0 ** (j / _BOX_STEPS) for j, neg in box)
    return _build_infinity_poly(fam, order, half)


# -- public constructors -----------------------------------------------------


def fg_series_origin(
    bd: BoundaryData, free: NonlocalParams, order: int, log_k0, tangents: bool = False
) -> SeriesCoefficients:
    """Origin expansion to x^order with boundary ratios from bd and
    y1(0) = log_k0, the log of the determinant ratio K(0).

    Coefficients below order n are determined recursively; the order-n
    coefficients of the non-K unknowns carry the free nonlocal parameters.
    With tangents, the m tables d table / d (log K(0), free...) come from the
    same batched pass.
    """
    fam = family(bd.kind, bd.n)
    if order < bd.n + 2:
        raise UsageError(f"origin series order must be >= n+2 = {bd.n + 2}")
    free.validate(bd.kind)
    inputs = _batch(np.array([log_k0, *free.coeffs]), tangents)
    col0 = np.empty((len(inputs), fam.m), dtype=inputs.dtype)
    col0[:, 0] = inputs[:, 0]
    col0[:, 1:] = bd.y_boundary()
    C, cons = _solve_recursion(fam, "origin", order, col0, inputs[:, 1:])
    table, tan = _split(C, tangents)
    return SeriesCoefficients("origin", order, table, float(cons[0]), tan)


def series_infinity(
    kind: SystemKind, n: int, order: int, free=None, tangents: bool = False
) -> SeriesCoefficients:
    """Expansion at x=1 in powers of u=1-x, to u^order.

    The free values are the u^2 coefficients of the non-K unknowns; the K
    series is slaved to them (its local solution manifold at the center has
    no second-order freedom), and y_i(1)=0, y_i'(1)=0 hold by construction.
    The table is the recursion's, evaluated as the cached polynomial of the
    free values' box (built on first use) less its value at zero, so round
    data give an exactly zero table; with tangents, the m-1 tables
    d table / d free are its derivatives.  The resonant-order consistency is
    checked on every call; non-finite free values give a non-finite table
    and build nothing.
    """
    fam = family(kind, n)  # validates n
    if order < 3:
        raise UsageError("infinity series order must be >= 3")
    free = np.zeros(fam.m - 1) if free is None else np.asarray(free)
    if free.shape != (fam.m - 1,):
        raise UsageError(f"expected {fam.m - 1} free infinity coefficients")
    if np.iscomplexobj(free):
        raise UsageError(f"free infinity coefficients must be real, got {free}")
    ops = _operators(fam, "infinity", order)
    # every lower column vanishes, so the resonant residual is the free values' alone
    values = free.tolist()
    consistency = max(abs(sum(b * f for b, f in zip(row, values))) for row in ops.free_block.tolist())
    if consistency > _consistency_tol(ops, 0.0):
        raise _inconsistent(ops, consistency)
    shape = (fam.m, order + 1)
    if not all(map(math.isfinite, values)):  # no box holds them
        table = np.full(shape, np.nan)
        tan = np.full((fam.m - 1, *shape), np.nan) if tangents else None
    else:
        poly = _box_poly(fam, order, tuple((_box_exponent(abs(f)), f < 0) for f in values))
        basis = _chebyshev_basis([f / h - 1.0 for f, h in zip(values, poly.half)], poly.k)[poly.rows] - poly.zero
        table = (basis @ poly.coef).reshape(shape)
        tan = (basis @ poly.dcoef + poly.dzero).reshape(fam.m - 1, *shape) if tangents else None
    return SeriesCoefficients("infinity", order, table, consistency, tan)


# -- evaluation ---------------------------------------------------------------


def evaluate_closure(sc: SeriesCoefficients, x):
    """(y, y', d(y, y')/d input) of the series at one point x: shapes (m,),
    (m,) and (2m, inputs), the last None when sc has no tangents.  The table
    and its tangent tables share one product with the power vector at x and
    one with the derivative-power vector, with no y''."""
    t, dsign = (x, 1.0) if sc.endpoint == "origin" else (1.0 - x, -1.0)
    tables = sc.table[None] if sc.tangents is None else np.concatenate([sc.table[None], sc.tangents])
    powers, dpowers = power_vectors(t, tables.shape[-1], 2)
    y = powers @ np.swapaxes(tables, -1, -2)
    yp = dsign * (dpowers @ np.swapaxes(tables, -1, -2))
    jac = None if sc.tangents is None else np.concatenate([y[1:].T, yp[1:].T])
    return y[0], yp[0], jac


def power_vectors(t, L, count):
    """The first count of t^k, k t^(k-1), k(k-1) t^(k-2), ... for k < L, each
    shaped t.shape + (L,): the rows that take a coefficient table to its
    value and derivatives at t."""
    k = np.arange(L)
    out = np.zeros((count, *np.shape(t), L))
    out[0] = np.asarray(t)[..., None] ** k
    for d in range(1, count):
        out[d, ..., d:] = k[d:] * out[d - 1, ..., d - 1 : -1]
    return out


# -- the solution near round data, to second order ----------------------------
#
# At y = 0 every ratio equation of both families linearises to
#   f'' - x^-1 ((n-1) + (n+1) x^2)(1-x^2)^-1 f' - 8(n+1)(1-x^2)^-2 f = 0
# (Family.sing of the phi rows, and -8(n+1), the slope of their sources),
# and y1 has no linear term.  So to first order in eps = log phi each ratio
# unknown is eps f_n(x) with f_n(0) = 1, and y1 = O(eps^2); for n = 3 it is
# Pedersen's metric to first order.  In s = rho^2, rho = (1-x)/(1+x), the
# equation times (1-s)(1-x^2)^2/8 reads
#   2 s^2 (1-s) g'' + s((n+1) + (n-3) s) g' - (n+1)(1-s) g = r,
# whose solution regular at s = 0 (x = 1) is sum_j a_j s^j with
#   (j-1)(2j+n+1) a_j = j(2j-n-3) a_(j-1) + r_j,  a_0 = 0.
# With r = 0 it terminates at degree (n+1)/2, and f_n(0) = g(1) = 1 fixes a_1.
#
# At second order an SU ratio unknown gains eps^2 g_n: the same equation,
# forced by the sources' quadratic term r = -(1-s)(n+1)(n+2)/(2n) f_n^2, with
# g_n(1) = 0 fixing a_1.  y1 gains eps^2 h_n from eq 2's linearisation
#   2 s^2 (1-s) h'' + s((2n+1) + (2n-3) s) h' + (n-1)(1-s) h = q,
# q = -(1-s)(n-1)(n+1)/(2n) f_n^2, which maps s^j to
# (2j+1)(j+n-1) s^j - (2j-1)(j-n+1) s^(j+1), so
#   (2j+1)(j+n-1) c_j = (2j-3)(j-n) c_(j-1) + q_j,  c_0 = 0,
# with no free constant: both indicial roots, -1/2 and 1-n, are negative.
# Both terms have degree n+1 in s; for n = 3 they are Pedersen's eps^2
# terms.  The generalized Berger family (n = 3) takes g_3 and h_3 times
# quadratic forms in (eps_1, eps_2) (second_order_weights).


@dataclass(frozen=True)
class RoundTerm:
    """One term sum_j num[j] s^j / den of the solution near round data,
    exactly: in integers (so every float below is correctly rounded;
    fractions would import decimal), with its endpoint parameters per unit of
    its power of eps: its x^n Taylor coefficient (the nonlocal coefficient),
    its (1-x)^2 coefficient num[1]/(4 den) (the x=1 free value), and its
    value at x = 0 (log K(0), for y1's term)."""

    num: tuple  # num[0] = 0: every term vanishes at x = 1
    den: int
    origin: float
    infinity: float
    value0: float

    def __call__(self, x):
        """(value, d/dx) at x in [0, 1], by Horner's rule in s."""
        x = np.asarray(x, dtype=float)
        rho = (1.0 - x) / (1.0 + x)
        s = rho * rho
        a = [c / self.den for c in self.num]
        da = [j * c / self.den for j, c in enumerate(self.num)][1:]  # d/ds
        g, dg = a[-1], da[-1]
        for c in reversed(a[:-1]):
            g = c + g * s
        for c in reversed(da[:-1]):
            dg = c + dg * s
        return g, dg * (-4.0 * rho / (1.0 + x) ** 2)  # ds/dx = 2 rho rho'


def _times(p, q):
    """The product of two integer coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _two_term(top, bottom, start, forcing):
    """The exact solution c of bottom(j) c_j = top(j) c_(j-1) + forcing[j]
    for j = len(start), ..., len(forcing)-1, from c_j = start[j] below, as
    integer numerators over one denominator (in the units of forcing)."""
    c, den = list(start) + [0] * (len(forcing) - len(start)), 1
    for j in range(len(start), len(forcing)):
        cj = top(j) * c[j - 1] + forcing[j] * den
        c = [v * bottom(j) for v in c]
        c[j], den = cj, den * bottom(j)
    return c, den


def _round_term(num, den, n) -> RoundTerm:
    """The RoundTerm of sum_j num[j] s^j / den (integers), in lowest terms."""
    d = math.gcd(den, *num) * (1 if den > 0 else -1)
    num, den = [c // d for c in num], den // d
    # Taylor series to x^n of rho = 1 + 2 sum_k (-x)^k, of s = rho^2, and of den g(s) by Horner
    rho = [1] + [2 * (-1) ** k for k in range(1, n + 1)]
    s = _times(rho, rho)[: n + 1]
    g = [0] * (n + 1)
    for c in reversed(num):
        g = _times(g, s)[: n + 1]
        g[0] += c
    return RoundTerm(tuple(num), den, g[n] / den, num[1] / (4 * den), sum(num) / den)


def _ratio_recurrence(n):
    """(top, bottom) of the ratio equation's recurrence in s."""
    return (lambda j: j * (2 * j - n - 3)), (lambda j: (j - 1) * (2 * j + n + 1))


@functools.cache
def first_order_solution(n) -> RoundTerm:
    """f_n for the odd boundary dimension n >= 3."""
    num, _ = _two_term(*_ratio_recurrence(n), [0, 1], [0] * ((n + 3) // 2))
    return _round_term(num, sum(num), n)  # f_n(0) = g(1) = 1


@functools.cache
def second_order_solution(n) -> tuple:
    """(g_n, h_n), the eps^2 terms of an SU ratio unknown and of y1, for the
    odd boundary dimension n >= 3, built on first use."""
    f = first_order_solution(n)
    sq = _times([1, -1], _times(f.num, f.num))[: n + 2]  # (1-s) f_n^2, times den^2, to degree n+1
    scale = 2 * n * f.den**2
    p, dp = _two_term(*_ratio_recurrence(n), [0, 0], [-(n + 1) * (n + 2) * c for c in sq])
    a = list(f.num) + [0] * (len(p) - len(f.num))
    g = [c * f.den - sum(p) * b for c, b in zip(p, a)]  # p - p(1) f_n: g_n(1) = 0
    h, dh = _two_term(lambda j: (2 * j - 3) * (j - n), lambda j: (2 * j + 1) * (j + n - 1), [0],
                      [-(n - 1) * (n + 1) * c for c in sq])
    return _round_term(g, dp * scale * f.den, n), _round_term(h, dh * scale, n)


def second_order_weights(bd: BoundaryData):
    """The eps^2 weight of each unknown's term (y1's h_n, then the ratio
    unknowns' g_n), a quadratic form in eps = log phi: eps^2 for SU; for the
    generalized Berger family, with eps = (a, b), a^2 + ab + b^2 for y1,
    a^2 + 2ab for y2 and -(2ab + b^2) for y3.  None on round data and where
    max |eps| > 1, where eps^2 > |eps| and the term is no correction."""
    eps = bd.y_boundary()
    if bd.is_round or np.abs(eps).max() > 1.0:
        return None
    if bd.kind.family == "gberger":
        a, b = eps
        return np.array([a * a + a * b + b * b, a * a + 2.0 * a * b, -(2.0 * a * b + b * b)])
    return np.full(2, eps[0] * eps[0])


def seed_values(bd: BoundaryData, xs):
    """The Newton start's values at xs: the solution near round data to
    second order in eps = log phi.  Each ratio unknown is eps f_n(x) plus its
    eps^2 weight times g_n(x), and y1 is its weight times h_n(x) (see
    second_order_weights, which drops the eps^2 term where max |eps| > 1).
    Exact to O(eps^3) near round data and zero on it; y_i(1) = y_i'(1) = 0,
    and y_i(0) = eps, y_i'(0) = 0 to roundoff."""
    fam = family(bd.kind, bd.n)
    f, fp = first_order_solution(bd.n)(xs)
    y = np.zeros((fam.m,) + f.shape)
    yp = np.zeros_like(y)
    for i, eps in enumerate(bd.y_boundary(), start=1):
        y[i] = eps * f
        yp[i] = eps * fp
    w = second_order_weights(bd)
    if w is not None:
        g, h = second_order_solution(bd.n)
        (gv, gp), (hv, hp) = g(xs), h(xs)
        y[0], yp[0] = w[0] * hv, w[0] * hp
        y[1:] += np.multiply.outer(w[1:], gv)
        yp[1:] += np.multiply.outer(w[1:], gp)
    return y, yp


def seed_parameters(bd: BoundaryData):
    """The endpoint parameters of seed_values' solution: log K(0), the
    nonlocal coefficients and the x=1 free values.  To first order they are
    0, [x^n] f_n eps and n/(n+3) eps; the eps^2 terms add their weights
    times h_n(x=0), [x^n] g_n and n/(2(n+3)).  Round data give +0.0, never
    -0.0."""
    law, eps = first_order_solution(bd.n), bd.y_boundary()
    k0, free, infinity = 0.0, law.origin * eps, law.infinity * eps
    w = second_order_weights(bd)
    if w is not None:
        g, h = second_order_solution(bd.n)
        k0, free, infinity = float(h.value0 * w[0]), free + g.origin * w[1:], infinity + g.infinity * w[1:]
    return k0, free + 0.0, infinity
