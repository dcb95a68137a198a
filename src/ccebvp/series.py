"""Truncated series solutions at the two singular endpoints.

At x=0 the coefficients below order n are determined recursively from the
equations and the boundary ratios; the order-n coefficients of the non-K
unknowns are the free nonlocal parameters (the K coefficient at order n is
forced by trace-freeness).  At x=1 (series in u = 1-x) the second-order
coefficients of the non-K unknowns are free and everything else, including
the whole K series, is slaved to them.

Both recursions share one incremental engine over the regularized residual
series of the closing equations (the first integral for y1 at the origin, the
quadratic y1 equation at infinity, the phi/t equations for the rest): each
order forms one residual coefficient per row, applies the exactly-linear map
onto the order-k coefficients, and solves.  A batch axis carries the
complex-step perturbations that give the tables' input tangents in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import (
    BoundaryData,
    DomainError,
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
    """Free coefficients entering the origin expansion at order x^n."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) if isinstance(c, complex) else float(c) for c in self.coeffs))

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
    kind: SystemKind
    n: int
    order: int
    table: np.ndarray
    free: NonlocalParams | None = None
    consistency: float = 0.0
    # d table / d input, one (m, order+1) table per input (origin: log K(0)
    # then the free values; infinity: the free values), when requested
    tangents: np.ndarray | None = None


# -- the incremental engine ---------------------------------------------------
#
# Every closing row is a sum of four convolutions of a fixed multiplier series
# with a state series: y'' (of its own unknown), y' (of its own unknown), a
# quadratic form in y', and the exponential source.  Column k of the table
# enters row coefficient k-1 linearly through an indicial map, so each order
# forms that one coefficient per row (a dot product per term), solves for
# column k and then appends the state coefficients that column k completes.
# A leading batch axis carries complex-step perturbations of the inputs.


def _pderiv(c):
    """Derivative of coefficient series along the last axis (same length)."""
    out = np.zeros_like(c)
    out[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1])
    return out


def _closing_rows(fam: Family, endpoint, L):
    """Multipliers (4, m, L) of the y'', y', quadratic and source terms, and the
    quadratic forms (m, m, m) of each row in y'.

    Origin, in x: row 0 is x*Phi, rows i are x(1-x^2)E_{i+1}; the source state
    is F itself.  Infinity, in u=1-x: row 0 is x(1-x^2)E_1, rows i are
    x(1-x^2)E_{i+1}; the source term x(1-x^2)^-1 F is (1-u)(2-u)^-1 (F/u), so
    the source state is F shifted by one (its constant coefficient vanishes
    identically because the source weights cancel at y=0).
    """
    m = fam.m
    a, b = fam.sing[:m, 0], fam.sing[:m, 1]
    j = np.arange(L)
    odd = (j % 2 == 1).astype(float)
    mult = np.zeros((4, m, L))
    quad = np.zeros((m, m, m))
    quad[np.arange(1, m), 0, np.arange(1, m)] = 1.0  # y1' y_i'
    if endpoint == "origin":
        x1mx2 = np.zeros(L)  # x(1-x^2)
        x1mx2[1], x1mx2[3] = 1.0, -1.0
        mult[0, 1:] = x1mx2
        mult[1, 0] = -4.0 * fam.n * np.where(j == 0, 1.0, 2.0 - 2.0 * odd)  # (1+x^2)/(1-x^2)
        mult[1, 1:, 0] = -a[1:]
        mult[1, 1:, 2] = -b[1:]
        mult[2, 0, 1] = 1.0  # x
        mult[2, 1:] = 0.5 * x1mx2
        mult[3, 0] = fam.cphi * odd * (j + 1) / 2  # x(1-x^2)^-2
        mult[3, 1:] = odd  # x(1-x^2)^-1
        quad[0] = -fam.rmat
        quad[0, 0, 0] += 1.0
    else:
        x1mx2 = np.zeros(L)  # u(1-u)(2-u)
        x1mx2[1:4] = 2.0, -3.0, 1.0
        mult[0] = x1mx2
        mult[1, :, 0] = -(a + b)  # -(a + b x^2), x = 1-u
        mult[1, :, 1] = 2.0 * b
        mult[1, :, 2] = -b
        mult[2, 0] = x1mx2
        mult[2, 1:] = 0.5 * x1mx2
        mult[3, 1:] = np.where(j == 0, 0.5, -(0.5 ** (j + 1)))  # (1-u)(2-u)^-1
        quad[0] = fam.q1
    return mult, quad


def _exp_terms(fam: Family):
    """All exponential terms of the row sources: exponents V (T, m), weights W (m, T)."""
    tables = (fam.s2, *fam.src)
    V = np.concatenate([v for _, v in tables])
    W = np.zeros((fam.m, len(V)))
    off = 0
    for i, (w, _) in enumerate(tables):
        W[i, off : off + len(w)] = w
        off += len(w)
    return V, W


def _solve_recursion(fam: Family, C, endpoint, free_vals):
    """Fill the batch of tables C (B, m, P+1) order by order, in place.

    Columns below the start order (1 at the origin, 2 at infinity) are given.
    The residual coefficient at order k-1 is exactly linear in column k with an
    analytic indicial map (the y1 row decouples, and the non-K block is
    diagonal at the origin and diagonal plus half the source linearization at
    infinity).  At the resonant order (n at the origin, 2 at infinity) the
    non-K block is singular: free_vals (B, m-1) are inserted and the residual
    coefficients checked for consistency.  The exponential sources advance by
    J.C.P. Miller's power-series recurrence E_j = (1/j) sum_i i c_i E_{j-i};
    column k enters E_k only through c_k E_0, added once the column is known.
    Returns the consistency residual of each batch member.
    """
    B, m, L = C.shape
    P = L - 1
    origin = endpoint == "origin"
    start, free_order, shift, dsign = (1, fam.n, 0, 1.0) if origin else (2, 2, 1, -1.0)
    mult, quad = _closing_rows(fam, endpoint, L)
    V, W = _exp_terms(fam)
    wsum = 1.0 + np.abs(W).sum(axis=1).max()
    ab = fam.sing[1:m, 0] + fam.sing[1:m, 1]
    lin = 0.5 * (W[1:] @ V)[:, 1:]  # half the source linearization at y=0

    state = np.zeros((B, 4, m, L), dtype=C.dtype)  # y'', y', quadratic, source
    ypp, yp, q, src = (state[:, s] for s in range(4))
    E = np.zeros((B, len(V), L), dtype=C.dtype)
    ic = np.zeros_like(E)  # i * c_i, c = V @ y

    def commit(k):
        ck = C[..., k] @ V.T
        ic[..., k] = k * ck
        if k == 0:
            E[..., 0] = np.exp(ck)
        else:
            E[..., k] += ck * E[..., 0]
        if k >= shift:
            src[..., k - shift] = E[..., k] @ W.T
        if k >= 1:
            yp[..., k - 1] = dsign * k * C[..., k]
        if k >= 2:
            ypp[..., k - 2] = k * (k - 1.0) * C[..., k]

    def row_coefficients(k):
        return np.einsum("sil,bsil->bi", mult[..., :k], state[..., k - 1 :: -1])

    for k in range(start):
        commit(k)
    consistency = np.zeros(B)
    for k in range(start, P + 1):
        E[..., k] = (ic[..., 1:k] * E[..., k - 1 : 0 : -1]).sum(axis=-1) / k
        src[..., k - shift] = E[..., k] @ W.T
        if k >= 2:
            q[..., k - 2] = np.einsum("iac,bat,bct->bi", quad, yp[..., : k - 1], yp[..., k - 2 :: -1])
        base = row_coefficients(k)
        C[:, 0, k] = -base[:, 0] / (-4.0 * fam.n * k if origin else 2.0 * k * (k + 1.0))
        if k == free_order:
            C[:, 1:, k] = free_vals
        elif origin:
            diag = k * (k - 1.0 - fam.sing[1:m, 0])
            if np.any(diag == 0.0):
                raise SeriesRecursionError(f"vanishing indicial factor at order {k}")
            C[:, 1:, k] = -base[:, 1:] / diag
        else:
            A = np.diag(2.0 * k * (k - 1.0) + ab * k) + lin
            C[:, 1:, k] = np.linalg.solve(A, -base[:, 1:].T).T
        commit(k)
        if k == free_order:
            consistency = np.abs(row_coefficients(k)[:, 1:]).max(axis=1)
            cmax = np.abs(C[..., :k]).max(axis=(1, 2))
            scale = wsum * k * k * (1.0 + cmax * cmax)
            if np.any(consistency > _CONSISTENCY_RTOL * scale):
                raise SeriesRecursionError(
                    f"inconsistent resonant order {k}: residual {consistency.max():.3e}"
                )
    return consistency


def _batch(inputs, tangents):
    """The inputs (count,) as a batch (B, count): alone, or with tangents
    followed by one complex-step perturbation i*h of each input in turn."""
    inputs = inputs.astype(np.result_type(inputs, float))
    if not tangents:
        return inputs[None]
    if np.iscomplexobj(inputs):
        raise UsageError("tangent tables need real series inputs")
    return inputs + np.vstack([np.zeros(len(inputs)), 1j * CSTEP * np.eye(len(inputs))])


def _split(C, tangents):
    """Table and tangent tables of a filled batch."""
    if not tangents:
        return C[0], None
    return C[0].real.copy(), C[1:].imag / CSTEP


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
    C = np.zeros((len(inputs), fam.m, order + 1), dtype=inputs.dtype)
    C[:, 0, 0] = inputs[:, 0]
    C[:, 1:, 0] = bd.y_boundary()
    cons = _solve_recursion(fam, C, "origin", inputs[:, 1:])
    table, tan = _split(C, tangents)
    return SeriesCoefficients("origin", bd.kind, bd.n, order, table, free, float(cons[0]), tan)


def series_infinity(
    kind: SystemKind, n: int, order: int, free=None, tangents: bool = False
) -> SeriesCoefficients:
    """Expansion at x=1 in powers of u=1-x, to u^order.

    The free values are the u^2 coefficients of the non-K unknowns; the K
    series is slaved to them (its local solution manifold at the center has
    no second-order freedom), and y_i(1)=0, y_i'(1)=0 hold by construction.
    With tangents, the m-1 tables d table / d free come from the same batched
    pass.
    """
    kind.validate_dimension(n)
    fam = family(kind, n)
    if order < 3:
        raise UsageError("infinity series order must be >= 3")
    if free is None:
        free = np.zeros(fam.m - 1)
    free = np.asarray(free)
    if free.shape != (fam.m - 1,):
        raise UsageError(f"expected {fam.m - 1} free infinity coefficients")
    inputs = _batch(free, tangents)
    D = np.zeros((len(inputs), fam.m, order + 1), dtype=inputs.dtype)
    cons = _solve_recursion(fam, D, "infinity", inputs)
    table, tan = _split(D, tangents)
    return SeriesCoefficients("infinity", kind, n, order, table, None, float(cons[0]), tan)


# -- evaluation ---------------------------------------------------------------


def _eval_table(table, t, dsign):
    """Evaluate values and first two derivatives of the coefficient rows at t.

    dsign = -1 converts d/du into d/dx for the infinity series; the second
    derivative is sign-free either way.
    """
    t = np.asarray(t)
    d1 = _pderiv(table)
    d2 = _pderiv(d1)
    powers = t[..., None] ** np.arange(table.shape[-1])
    y, yp, ypp = (powers @ np.swapaxes(a, -1, -2) for a in (table, d1, d2))
    return y, dsign * yp, ypp


def evaluate_tangents(sc: SeriesCoefficients, x):
    """d(y, y')/d input at one point x, shape (2m, inputs); needs sc.tangents."""
    t, dsign = (x, 1.0) if sc.endpoint == "origin" else (1.0 - x, -1.0)
    ty, typ, _ = _eval_table(sc.tangents, t, dsign)
    return np.concatenate([ty.T, typ.T])


def evaluate_series(sc: SeriesCoefficients, x):
    """(y, y', y'') of the series at x, inside its trust radius: each (m,) at a
    scalar x, (m,) + x.shape at an array x."""
    xs = np.asarray(x, dtype=float)
    if sc.endpoint == "origin":
        if np.any(xs < 0) or np.any(xs > TRUST_RADIUS):
            raise DomainError(f"x={x} outside origin series trust radius {TRUST_RADIUS}")
        y, yp, ypp = _eval_table(sc.table, xs, 1.0)
    else:
        if np.any(xs > 1) or np.any(xs < 1.0 - TRUST_RADIUS):
            raise DomainError(f"x={x} outside infinity series trust radius")
        y, yp, ypp = _eval_table(sc.table, 1.0 - xs, -1.0)
    return y.T, yp.T, ypp.T


def seed_values(bd: BoundaryData, xs):
    """Smooth monotone blend of the log boundary offsets; the initial guess.

    Satisfies y_i(0)=log phi_(i-1)(0), y_i(1)=0, y_i'(0)=y_i'(1)=0 exactly.
    """
    fam = family(bd.kind, bd.n)
    xs = np.asarray(xs, dtype=float)
    psi = (1.0 + 2.0 * xs) * (1.0 - xs) ** 2
    dpsi = -6.0 * xs * (1.0 - xs)
    y = np.zeros((fam.m,) + xs.shape)
    yp = np.zeros_like(y)
    logs = bd.y_boundary()
    for i in range(1, fam.m):
        y[i] = logs[i - 1] * psi
        yp[i] = logs[i - 1] * dpsi
    return y, yp
