"""Two-point BVP solver: Hermite collocation on an interior mesh, closed at
both singular endpoints by truncated series, solved by damped Newton that
keeps each factor while the iteration contracts (simplified Newton).

Unknowns are the node values and first derivatives of every y_i plus the
endpoint parameters (log K(0), the nonlocal order-n coefficients, and the
free second-order coefficients at x=1).  Each interval contributes two
Gauss-point collocations of the regularized evolution equations per unknown.
The first integral is imposed at no interior node: the endpoint series
satisfy it identically, the redundant y1-derivative match at the origin is
shed, and its nodal drift (pure propagation) is checked after the solve.

The Jacobian is kept as its blocks.  splu factors them (ccebvp.factor) by
banded LU with partial pivoting in LAPACK band storage (BandLU: dgbtrf and
dgbtrs of the LAPACK that numpy.linalg links, bound with ctypes on the first
factor), or by block cyclic reduction in numpy alone (CyclicReduction) where
that LAPACK exports no dgbtrf: O(N) storage and work, and no sparse-matrix
library to import.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import systems as sysm
from .factor import BandLU, CyclicReduction, lapack_gbtrf
from .series import (
    TRUST_RADIUS,
    NonlocalParams,
    evaluate_closure,
    fg_series_origin,
    seed_parameters,
    seed_values,
    series_infinity,
)
from .systems import BoundaryData, DomainError, UsageError, family

# the two Gauss-Legendre points on [0,1], as a column against the intervals
_GAUSS = np.array([[0.5 - np.sqrt(3.0) / 6.0], [0.5 + np.sqrt(3.0) / 6.0]])

# the interior mesh spans [XL, XR]; the endpoint series close it on both sides
XL, XR = 0.1, 0.85
# density ratio of the endpoint-clustered grading toward x=1
STRETCH = 1.5
# truncation orders of the endpoint series: origin_order(n) at x=0, INFINITY_ORDER at x=1
INFINITY_ORDER = 26
# fewest nodes a collocation mesh may have
MIN_NODES = 4
# intervals whose Jacobian blocks an assembly forms at a time
BLOCK_CHUNK = 256
# a solve converges when its first-integral drift is within DRIFT_GATE * tol
DRIFT_GATE = 10.0
# Newton steps a solve may take before it fails with "max iterations"
MAX_ITER = 40
# a full step whose contraction |dbar|/|step| is below THETA_MAX is followed
# by the chord step dbar on the same factor; otherwise a fresh one is built
THETA_MAX = 1.0 / 20.0


def origin_order(n: int) -> int:
    return n + 23


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray  # a read-only copy of the nodes it was given

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < MIN_NODES:
            raise UsageError(f"mesh needs at least {MIN_NODES} nodes")
        if not np.all(np.diff(nodes) > 0):  # a NaN node fails this too
            raise UsageError("mesh nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
            raise DomainError("mesh must lie strictly inside (0,1)")
        if nodes[0] > TRUST_RADIUS or nodes[-1] < 1.0 - TRUST_RADIUS:
            raise DomainError("mesh endpoints must lie inside the series trust radii")

    @property
    def n_nodes(self):
        return len(self.nodes)

    @functools.cached_property
    def collocation(self):
        """The collocation geometry at both Gauss points of every interval,
        built on first use (a Collocation)."""
        h = np.diff(self.nodes)
        x = self.nodes[:-1] + _GAUSS * h
        wts = np.stack(_hermite_weights(_GAUSS, h), axis=1)  # (basis slot, value / d/dx / d2/dx2, point, interval)
        return Collocation(x, wts, x * (1.0 - x * x) * h, sysm.x_factors(x.ravel()))


class Collocation(NamedTuple):
    """A mesh's collocation geometry, every array shaped (..., point,
    interval) over the two Gauss points of each interval."""

    x: np.ndarray  # (2, N-1)
    # Hermite weights (basis slot (ya, pa, yb, pb), value / d/dx / d2/dx2, ...)
    wts: np.ndarray
    # the cell-width weight x(1-x^2)h of the collocation rows
    W: np.ndarray
    xf: tuple  # systems.x_factors of the points, flattened


def make_mesh(num) -> Mesh:
    """Endpoint-clustered mesh of num nodes on [XL, XR].

    The grading blends a cosine map (mild refinement toward both series
    interfaces; the first-integral sensitivity grows like 1/x at the left,
    the solution derivatives at the right) with a uniform map, then stretches
    toward x=1 by the density ratio STRETCH.  The blend keeps the smallest
    spacing proportional to 1/num so the 1/h^2 roundoff floor of the
    collocation residual stays below tight tolerances.
    """
    s = np.linspace(0.0, 1.0, num)
    w = 0.4
    g = (1.0 - w) * s + w * 0.5 * (1.0 - np.cos(np.pi * s))
    beta = np.log(STRETCH)
    g = 1.0 - (np.exp(beta * (1.0 - g)) - 1.0) / (np.exp(beta) - 1.0)
    return Mesh(XL + (XR - XL) * g)


@dataclass
class SolveOptions:
    grid: int = 128
    tol: float = 1e-10
    refine_rounds: int = 3
    # read by no solve: bench/workloads.py still passes it, so it stays a
    # validated field until the bench half of ROADMAP item 19 removes it
    coarse_stage: int = 96

    def __post_init__(self):
        for name in ("grid", "refine_rounds", "coarse_stage"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.grid < MIN_NODES:
            raise UsageError(f"grid must be at least {MIN_NODES}, got {self.grid}")
        if not 0 < self.tol < np.inf:
            raise UsageError(f"tol must be positive and finite, got {self.tol}")
        if not (self.coarse_stage == 0 or self.coarse_stage >= MIN_NODES):
            raise UsageError(f"coarse_stage must be 0 or at least {MIN_NODES}, got {self.coarse_stage}")
        if not self.refine_rounds >= 0:
            raise UsageError(f"refine_rounds must be at least 0, got {self.refine_rounds}")


def _zero_counters():
    return dict.fromkeys(("assemblies", "jacobians", "lu_factorisations"), 0)


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0
    residual_norm: float = np.inf
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    # per step (line search, then polish): the contraction |dbar|/|step|,
    # and whether the step's factor was built for it
    contraction_history: list = field(default_factory=list)
    fresh_factor_history: list = field(default_factory=list)
    refinements: int = 0
    constraint_drift: float = np.inf
    # drift at the simplified Newton point u + dbar of the final iterate
    # (None when the run took no step): what a polish step could reach
    predicted_drift: float | None = None
    failure_reason: str = ""
    # work done over the whole solve (every Newton run of a solve_bvp call)
    counters: dict = field(default_factory=_zero_counters)


@dataclass
class SolutionProfile:
    bd: BoundaryData
    mesh: Mesh
    y: np.ndarray  # (m, N)
    yp: np.ndarray
    k0var: float = 0.0  # y1(0) = log K(0)
    free: NonlocalParams | None = None
    infinity_free: np.ndarray | None = None
    converged: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        fam = family(self.bd.kind, self.bd.n)
        if self.free is None:
            self.free = NonlocalParams.zeros(self.bd.kind)
        if self.infinity_free is None:
            self.infinity_free = np.zeros(fam.m - 1)

    @property
    def k0(self) -> float:
        return float(np.exp(self.k0var))

    @property
    def ypp(self) -> np.ndarray:
        """Second derivatives at the nodes, eliminated through the evolution equations."""
        fam = family(self.bd.kind, self.bd.n)
        z = np.zeros_like(self.y)
        return -sysm.evo_residuals(fam, self.mesh.nodes, self.y.T, self.yp.T, z.T).T

    def constraint_values(self) -> np.ndarray:
        """First integral at every node; it reads no second derivatives."""
        fam = family(self.bd.kind, self.bd.n)
        return sysm.constraint_residual(fam, self.mesh.nodes, self.y.T, self.yp.T)

    def interpolate(self, xq):
        """Hermite-cubic values and derivatives at query points inside the mesh."""
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        xs = self.mesh.nodes
        j = np.clip(np.searchsorted(xs, xq) - 1, 0, len(xs) - 2)
        h = xs[j + 1] - xs[j]
        wv, wd, _ = _hermite_weights((xq - xs[j]) / h, h)
        parts = [self.y[:, j], self.yp[:, j], self.y[:, j + 1], self.yp[:, j + 1]]
        return sum(w * p for w, p in zip(wv, parts)), sum(w * p for w, p in zip(wd, parts))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _pack(profile: SolutionProfile) -> np.ndarray:
    """The Newton unknowns of profile.  A nonlocal coefficient c enters the
    matching at XL as c * x^n, so it is carried as its contribution c * XL^n
    there: its Jacobian columns are then the size of the others' (cond(J)
    about 3e4 on SU n = 3, 5, 7 at 144 nodes, against 1e9 for n=7 on c)."""
    m, N = profile.y.shape
    u = np.empty(2 * m * N + 2 * m - 1)
    blk = np.concatenate([profile.y, profile.yp], axis=0)  # (2m, N)
    u[: 2 * m * N] = blk.T.ravel()
    u[2 * m * N] = profile.k0var
    u[2 * m * N + 1 : 2 * m * N + m] = np.asarray(profile.free.coeffs, dtype=float) * XL**profile.bd.n
    u[2 * m * N + m :] = profile.infinity_free
    return u


def _unpack(bd, mesh, u, opts):
    fam = family(bd.kind, bd.n)
    m, N = fam.m, mesh.n_nodes
    blk = u[: 2 * m * N].reshape(N, 2 * m).T
    return SolutionProfile(
        bd,
        mesh,
        y=blk[:m].copy(),
        yp=blk[m:].copy(),
        k0var=float(u[2 * m * N]),
        free=NonlocalParams(tuple(u[2 * m * N + 1 : 2 * m * N + m] / XL**bd.n)),
        infinity_free=u[2 * m * N + m :].copy(),
        tol=opts.tol,
    )


# ---------------------------------------------------------------------------
# collocation assembly
# ---------------------------------------------------------------------------


def _hermite_weights(t, h):
    """Basis weights for (ya, pa, yb, pb) at local coordinate t: value, d/dx, d2/dx2."""
    one = np.ones_like(h)
    wv = np.array(
        [(2 * t**3 - 3 * t**2 + 1) * one, (t**3 - 2 * t**2 + t) * h, (-2 * t**3 + 3 * t**2) * one, (t**3 - t**2) * h]
    )
    wd = np.array(
        [(6 * t**2 - 6 * t) / h, (3 * t**2 - 4 * t + 1) * one, (-6 * t**2 + 6 * t) / h, (3 * t**2 - 2 * t) * one]
    )
    ws = np.array([(12 * t - 6) / h**2, (6 * t - 4) / h, (-12 * t + 6) / h**2, (6 * t - 2) / h])
    return wv, wd, ws


def assemble_collocation(
    bd: BoundaryData,
    mesh: Mesh,
    guess: SolutionProfile,
    counters: dict | None = None,
    *,
    want_jac: bool = True,
):
    """Residual vector and Jacobian values of the square discrete system;
    with want_jac=False the residual alone, as (F, None).

    Rows: matching to the origin series, regularized evolution collocation at
    two Gauss points per interval, and matching to the x=1 series.  The
    y1-derivative match at x0 is shed: the first integral holds identically
    on both endpoint series, so that row is redundant in the continuum (the
    constraint propagates inward from the x=1 closure, and the propagation
    toward the origin is contracting).  The constraint is never imposed at
    any interior node; its nodal drift is pure propagation and is checked
    after the solve.  Each assembly makes one call per endpoint series (the
    origin recursion, and the x=1 series' cached polynomial in its free
    values), with their tangent tables only when want_jac, and is tallied in
    counters["assemblies"] (and in counters["jacobians"] when want_jac).

    The Jacobian is returned as the 1-D array of the values that vary, block
    by block: the (2m-1) x m origin rows on log K(0) and the nonlocal
    coefficients, the (N-1, 2m, 4m) interval blocks (columns :2m on node j,
    2m: on node j+1), and the 2m x (m-1) rows at x=1 on the free
    coefficients.  The matching rows' coefficient 1 on their own node slot
    is not stored; splu places it.  Unknowns: node j holds y at 2m*j + k and
    y' at 2m*j + m + k, then the 2m-1 endpoint parameters.  Both Gauss
    points are collocated in one pass; the evolution rows' identity y''
    partial enters each block's diagonal as W * (second-derivative weight).
    """
    if counters is None:
        counters = _zero_counters()
    fam = family(bd.kind, bd.n)
    m, N = fam.m, mesh.n_nodes
    if guess.y.shape != (m, N) or guess.yp.shape != (m, N):
        raise UsageError("guess dimensions do not match the mesh")
    counters["assemblies"] += 1
    counters["jacobians"] += want_jac
    xs = mesh.nodes
    y, yp = guess.y, guess.yp

    # --- endpoint matching
    scL = fg_series_origin(bd, guess.free, origin_order(bd.n), log_k0=guess.k0var, tangents=want_jac)
    yL, ypL, jacL = evaluate_closure(scL, xs[0])
    scR = series_infinity(bd.kind, bd.n, INFINITY_ORDER, guess.infinity_free, tangents=want_jac)
    yR, ypR, jacR = evaluate_closure(scR, xs[-1])

    # --- collocation rows at both Gauss points, unknown-major: arrays (...,
    # point, interval); the cell-width weighting W keeps the 1/h^2 roundoff
    # of the Hermite second derivative out of the residual norm
    # (defect-integral scaling)
    col = mesh.collocation
    parts = (y[:, :-1], yp[:, :-1], y[:, 1:], yp[:, 1:])
    state = col.wts[0, :, None] * parts[0][:, None]  # (Y, Y', Y'') of every unknown, (3, m, 2, N-1)
    for s in range(1, 4):
        state += col.wts[s, :, None] * parts[s][:, None]
    rows = sysm._template_rows(fam, col.xf, *state.reshape(3, m, -1), m, jac=want_jac)
    res = (rows[0] if want_jac else rows).reshape(m, 2, N - 1)
    lo, hi = 2 * m - 1, 2 * m - 1 + 2 * m * (N - 1)  # the collocation rows
    F = np.empty(hi + 2 * m)
    F[:m], F[m:lo] = y[:, 0] - yL, (yp[:, 0] - ypL)[1:]
    # rows in (interval, Gauss point, equation) order; the origin's y1' match (row m) is shed
    np.multiply(res, col.W, out=F[lo:hi].reshape(N - 1, 2, m).T)
    F[hi : hi + m], F[hi + m :] = y[:, -1] - yR, yp[:, -1] - ypR
    if not want_jac:
        return F, None

    # matching rows: minus the closure's derivative in the series inputs
    no, ni = (2 * m - 1) * m, (2 * m - 1) * m + 8 * m * m * (N - 1)
    J = np.empty(ni + 2 * m * (m - 1))
    J[:no], J[ni:] = np.delete(-jacL, m, axis=0).ravel(), -jacR.ravel()
    J[:no].reshape(2 * m - 1, m)[:, 1:] *= XL**-bd.n  # the unknowns are c * XL^n (_pack)
    # the blocks as (equation, basis slot (ya, pa, yb, pb), unknown, point,
    # interval) products with the W-weighted Hermite weights, BLOCK_CHUNK
    # intervals at a time so that their temporaries stay in cache, each
    # chunk written into J's order (interval, point, equation, slot,
    # unknown) by one transposing copy; the evolution rows' identity y''
    # partial enters each block's diagonal as W * (second-derivative weight)
    dy, dyp = (d.reshape(m, m, 2, N - 1) for d in rows[1:])
    del state, rows, res  # freed before the blocks, which set the assembly's peak memory
    Jc = J[no:ni].reshape(N - 1, 2, m, 4, m)
    k = np.arange(m)
    for a in range(0, N - 1, BLOCK_CHUNK):
        c = slice(a, a + BLOCK_CHUNK)
        Wwts = col.W[..., c] * col.wts[..., c]
        blocks = dy[:, None, ..., c] * Wwts[:, 0, None]
        blocks += dyp[:, None, ..., c] * Wwts[:, 1, None]
        blocks[k, :, k] += Wwts[:, 2]
        Jc[c] = blocks.transpose(4, 3, 0, 1, 2)
    return F, J


def splu(J, m, N):
    """LU factor of the collocation Jacobian whose values J come from
    assemble_collocation (m unknowns, N nodes); the returned factor's
    .solve(rhs) solves J x = rhs.  It is BandLU, LAPACK's banded LU with
    partial pivoting, or CyclicReduction where numpy's LAPACK exports no
    dgbtrf."""
    lapack = lapack_gbtrf()
    return CyclicReduction(J, m, N) if lapack is None else BandLU(J, m, N, lapack)


def factor_name():
    """(factor, dgbtrf symbol) of what splu runs: ("BandLU", the symbol
    lapack_gbtrf bound) or ("CyclicReduction", None)."""
    lapack = lapack_gbtrf()
    return ("CyclicReduction", None) if lapack is None else ("BandLU", lapack[0].__name__)


# ---------------------------------------------------------------------------
# Newton iteration and drivers
# ---------------------------------------------------------------------------


def seed_profile(bd: BoundaryData, mesh: Mesh, opts: SolveOptions) -> SolutionProfile:
    """Initial guess: the solution near round data to second order in
    eps = log phi, at the mesh nodes (seed_values) and at both endpoints
    (seed_parameters)."""
    y, yp = seed_values(bd, mesh.nodes)
    k0var, free, infinity = seed_parameters(bd)
    return SolutionProfile(bd, mesh, y, yp, k0var=k0var, free=NonlocalParams(tuple(free)), infinity_free=infinity,
                           tol=opts.tol)


def newton_solve(bd, mesh, guess, opts: SolveOptions, counters=None):
    """Damped Newton (Armijo halving, minimum damping 2^-20) on the collocation
    system, to opts.tol within MAX_ITER steps, reusing the run's factor while
    it contracts (simplified Newton).

    The start point is assembled in full; after it a Jacobian is assembled
    only where it is factored, and every line-search trial assembles the
    residual alone.  The natural monotonicity test of a trial computes the
    simplified Newton correction dbar = -lu^-1 F(trial) on the factor lu of
    its step (Deuflhard's NLEQ-ERR), and with it the contraction
    |dbar|/|step|.
    After a full step that contracts below THETA_MAX, dbar is the next step,
    on the same factor (a chord step, as in QNERR); after a damped step or a
    weaker contraction, the next step assembles and factors a fresh Jacobian
    at its point.  A line search that stalls on a reused factor retries once
    on a fresh one before the run reports "line search stalled".  counters,
    when given, is shared with the other Newton runs of one solve.

    An iterate that meets tol with its drift above DRIFT_GATE * tol is
    polished by one chord step u + dbar, taken when the drift it predicts
    meets the gate and kept when the residual does not grow: dbar estimates
    the distance to the discrete root, so the step lands on the point whose
    drift (the report's predicted_drift) was read; when the mesh sets the
    drift it stays above the gate and no step is taken.  A run that met
    tol without a step takes its dbar from its start's factor.
    """
    tol = opts.tol
    gate = DRIFT_GATE * tol
    rep = SolveReport() if counters is None else SolveReport(counters=counters)
    counters = rep.counters
    m, N = bd.kind.unknowns, mesh.n_nodes
    if guess.y.shape != (m, N):
        raise UsageError("guess dimensions do not match the mesh")
    u = _pack(guess)

    def trial(uv, lu=None, bound=np.inf, want_jac=False):
        # (F, J, dbar) at uv when F is finite and, given the current
        # factorization lu, the simplified Newton correction dbar = -lu^-1 F(uv)
        # passes the affine-invariant (natural) monotonicity test
        # |dbar| <= bound (dbar is None without lu, J None without want_jac);
        # otherwise None.  Extreme states can overflow the exponential
        # sources, break the series recursion or overflow that norm; any of
        # it is a rejection, not a RuntimeWarning
        try:
            with np.errstate(over="raise", invalid="raise"):
                point = _unpack(bd, mesh, uv, opts)
                F, J = assemble_collocation(bd, mesh, point, counters=counters, want_jac=want_jac)
                if not np.all(np.isfinite(F)):
                    return None
                dbar = None if lu is None else lu.solve(-F)
                if dbar is not None and not float(np.linalg.norm(dbar)) <= bound:
                    return None
        except (sysm.SeriesRecursionError, FloatingPointError, np.linalg.LinAlgError):
            return None
        return F, J, dbar

    def refresh(uv, F, J):
        # (F, J, lu, step) of a fresh factor lu at uv, with the Jacobian
        # assembled there when J is None; None when either fails
        if J is None:
            FJ = trial(uv, want_jac=True)
            if FJ is None:
                return None
            F, J, _ = FJ
        counters["lu_factorisations"] += 1
        try:
            lu = splu(J, m, N)
            return F, J, lu, lu.solve(-F)
        except np.linalg.LinAlgError:
            return None

    def drift_at(uv):
        return float(np.abs(_unpack(bd, mesh, uv, opts).constraint_values()).max())

    def predict(uv, dbar):
        # drift at the simplified Newton point uv + dbar; inf when it overflows
        if dbar is None:
            return None
        try:
            with np.errstate(over="raise", invalid="raise"):
                return drift_at(uv + dbar)
        except FloatingPointError:
            return np.inf

    def record(dbar, dnorm, fresh):
        rep.contraction_history.append(float(np.linalg.norm(dbar)) / dnorm)
        rep.fresh_factor_history.append(fresh)
        rep.iterations += 1

    FJ = trial(u, want_jac=True)
    if FJ is None:
        rep.failure_reason = "non-finite start"
        return _unpack(bd, mesh, u, opts), rep
    F, J, dbar = FJ
    norm = float(np.abs(F).max())
    rep.residual_history.append(norm)
    step = None  # the next step on the factor lu; None when a fresh factor is due
    while norm > tol and rep.iterations < MAX_ITER:
        fresh = step is None
        if fresh:
            got = refresh(u, F, J)
            if got is None:
                rep.failure_reason = "singular linearization"
                break
            F, J, lu, step = got
        # Armijo halving on the natural monotonicity test, floor 2^-20
        dnorm = float(np.linalg.norm(step))
        if not np.isfinite(dnorm) or dnorm == 0.0:
            rep.failure_reason = "singular linearization"
            break
        lam = 1.0
        while lam >= 2.0**-20:
            FJ = trial(u + lam * step, lu, (1.0 - 0.5 * lam) * dnorm)
            if FJ is not None:
                break
            lam *= 0.5
        else:
            if fresh:
                rep.failure_reason = "line search stalled"
                break
            step = None  # a reused factor stalled: retry on a fresh one
            continue
        u = u + lam * step
        F, J, dbar = FJ
        rep.damping_history.append(lam)
        record(dbar, dnorm, fresh)
        norm = float(np.abs(F).max())
        rep.residual_history.append(norm)
        step = dbar if lam == 1.0 and rep.contraction_history[-1] < THETA_MAX else None

    # polish: an iterate that just crossed tol may still sit well off the
    # discrete root, but no step lowers a drift that the mesh sets
    drift, fresh = drift_at(u), dbar is None
    if fresh and norm <= tol and drift > gate:  # met tol at its start
        got = refresh(u, F, J)
        if got is not None:
            F, J, lu, dbar = got
    predicted = predict(u, dbar)
    if norm <= tol and drift > gate and dbar is not None and predicted <= gate:
        FJ = trial(u + dbar, lu)
        nt = np.inf if FJ is None else float(np.abs(FJ[0]).max())
        if nt <= norm:
            dnorm = float(np.linalg.norm(dbar))
            u, dbar, norm = u + dbar, FJ[2], nt
            record(dbar, dnorm, fresh)
            rep.residual_history.append(norm)
            # the step lands on the point its prediction read
            drift, predicted = predicted, predict(u, dbar)

    prof = _unpack(bd, mesh, u, opts)
    rep.residual_norm = norm
    rep.constraint_drift = drift
    rep.predicted_drift = predicted
    prof.converged = bool(norm <= tol and drift <= gate)
    rep.converged = prof.converged
    if not rep.converged and not rep.failure_reason:
        rep.failure_reason = "max iterations" if norm > tol else "constraint drift"
    return prof, rep


def refine_mesh(profile: SolutionProfile) -> Mesh:
    """profile's mesh with every interval halved at its midpoint."""
    xs = profile.mesh.nodes
    return Mesh(np.sort(np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])])))


def guess_from(bd, profiles, weights, opts, mesh=None):
    """The guess for bd at opts.tol whose unknowns (values, endpoint
    parameters) are the weighted sum of the profiles' (all on one mesh),
    Hermite-interpolated onto mesh when one is given, which is exact at the
    profiles' own nodes.  A single profile with weight 1.0 is reproduced
    exactly."""
    u = weights[0] * _pack(profiles[0])
    for w, p in zip(weights[1:], profiles[1:]):
        u = u + w * _pack(p)
    guess = _unpack(bd, profiles[0].mesh, u, opts)
    if mesh is None:
        return guess
    y, yp = guess.interpolate(mesh.nodes)
    return replace(guess, mesh=mesh, y=y, yp=yp)


def solve_bvp(bd: BoundaryData, opts: SolveOptions):
    """Newton-solve from the seed profile on make_mesh(opts.grid), then halve
    every mesh interval and re-solve, up to refine_rounds times, while the
    residual meets tol and the drift gate is unmet.  A solve that fails keeps
    its failure_reason.
    """
    mesh = make_mesh(opts.grid)
    counters = _zero_counters()
    prof, rep = newton_solve(bd, mesh, seed_profile(bd, mesh, opts), opts, counters)
    while rep.residual_norm <= opts.tol and not prof.converged and rep.refinements < opts.refine_rounds:
        rounds = rep.refinements + 1
        mesh = refine_mesh(prof)
        prof, rep = newton_solve(bd, mesh, guess_from(bd, [prof], [1.0], opts, mesh), opts, counters)
        rep.refinements = rounds
    return prof, rep
