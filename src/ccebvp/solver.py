"""Two-point BVP solver: Hermite collocation on an interior mesh, closed at
both singular endpoints by truncated series, solved by damped Newton.

Unknowns are the node values and first derivatives of every y_i plus the
endpoint parameters (log K(0), the nonlocal order-n coefficients, and the
free second-order coefficients at x=1).  Each interval contributes two
Gauss-point collocations of the regularized evolution equations per unknown;
the first integral is anchored once, at the mid node, in exchange for the two
y1 collocations of the adjacent interval (constraint propagation makes them
redundant there).

The Jacobian is kept as its blocks and factored by block cyclic reduction
with orthogonal pair eliminations (CyclicReduction), in numpy alone: O(N)
storage and work, and no sparse-matrix library to import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import systems as sysm
from .series import (
    TRUST_RADIUS,
    NonlocalParams,
    evaluate_series,
    evaluate_tangents,
    fg_series_origin,
    seed_values,
    series_infinity,
)
from .systems import BoundaryData, DomainError, UsageError, family

# Gauss-Legendre points on [0,1]
_G1 = 0.5 - np.sqrt(3.0) / 6.0
_G2 = 0.5 + np.sqrt(3.0) / 6.0

# the interior mesh spans [XL, XR]; the endpoint series close it on both sides
XL, XR = 0.1, 0.85
# density ratio of the endpoint-clustered grading toward x=1
STRETCH = 1.5
# truncation orders of the endpoint series: origin_order(n) at x=0, INFINITY_ORDER at x=1
INFINITY_ORDER = 26
# fewest nodes a collocation mesh may have
MIN_NODES = 4
# a solve converges when its first-integral drift is within DRIFT_GATE * tol
DRIFT_GATE = 10.0
# Newton steps a solve may take before it fails with "max iterations"
MAX_ITER = 40


def origin_order(n: int) -> int:
    return n + 23


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < MIN_NODES:
            raise UsageError(f"mesh needs at least {MIN_NODES} nodes")
        if np.any(np.diff(nodes) <= 0):
            raise UsageError("mesh nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
            raise DomainError("mesh must lie strictly inside (0,1)")
        if nodes[0] > TRUST_RADIUS or nodes[-1] < 1.0 - TRUST_RADIUS:
            raise DomainError("mesh endpoints must lie inside the series trust radii")

    @property
    def n_nodes(self):
        return len(self.nodes)


def make_mesh(num=128) -> Mesh:
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
    seed_mode: str = "blend"  # 'blend' | 'zero'
    coarse_stage: int = 96  # warm-start grids larger than ~1.5x this

    def __post_init__(self):
        if self.grid < MIN_NODES:
            raise UsageError(f"grid must be at least {MIN_NODES}, got {self.grid}")
        if not self.tol > 0:
            raise UsageError(f"tol must be positive, got {self.tol}")
        if self.seed_mode not in ("blend", "zero"):
            raise UsageError(f"seed_mode must be 'blend' or 'zero', got {self.seed_mode!r}")


def _zero_counters():
    return dict.fromkeys(("assemblies", "lu_factorisations"), 0)


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0
    residual_norm: float = np.inf
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    refinements: int = 0
    constraint_drift: float = np.inf
    failure_reason: str = ""
    wall_time: float = 0.0
    # work done over the whole solve (every Newton run of a solve_bvp call)
    counters: dict = field(default_factory=_zero_counters)

    def summary(self):
        """Deterministic fields only (wall time excluded)."""
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "residual_history": list(self.residual_history),
            "damping_history": list(self.damping_history),
            "refinements": self.refinements,
            "constraint_drift": self.constraint_drift,
            "failure_reason": self.failure_reason,
            "counters": dict(self.counters),
        }


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
    residual_norm: float = np.inf
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

    def origin_series(self):
        """The origin series to order n+2, the lowest the recursion accepts:
        enough for the x^2 coefficients the origin identities read."""
        return fg_series_origin(self.bd, self.free, self.bd.n + 2, k0=self.k0)

    def constraint_values(self) -> np.ndarray:
        """First integral at every node (uses the eliminated second derivatives)."""
        fam = family(self.bd.kind, self.bd.n)
        return sysm.constraint_residual(fam, self.mesh.nodes, self.y.T, self.yp.T, self.ypp.T)

    def interpolate(self, xq):
        """Hermite-cubic values and derivatives at query points inside the mesh."""
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        xs = self.mesh.nodes
        j = np.clip(np.searchsorted(xs, xq) - 1, 0, len(xs) - 2)
        h = xs[j + 1] - xs[j]
        t = (xq - xs[j]) / h
        ya, yb = self.y[:, j], self.y[:, j + 1]
        pa, pb = self.yp[:, j], self.yp[:, j + 1]
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        y = h00 * ya + h10 * h * pa + h01 * yb + h11 * h * pb
        d00 = 6 * t**2 - 6 * t
        d10 = 3 * t**2 - 4 * t + 1
        d01 = -6 * t**2 + 6 * t
        d11 = 3 * t**2 - 2 * t
        yp = (d00 * ya + d01 * yb) / h + d10 * pa + d11 * pb
        return y, yp


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _pack(profile: SolutionProfile) -> np.ndarray:
    m, N = profile.y.shape
    u = np.empty(2 * m * N + 2 * m - 1)
    blk = np.concatenate([profile.y, profile.yp], axis=0)  # (2m, N)
    u[: 2 * m * N] = blk.T.ravel()
    u[2 * m * N] = profile.k0var
    u[2 * m * N + 1 : 2 * m * N + m] = np.asarray(profile.free.coeffs, dtype=float)
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
        free=NonlocalParams(tuple(u[2 * m * N + 1 : 2 * m * N + m])),
        infinity_free=u[2 * m * N + m :].copy(),
        tol=opts.tol,
    )


# ---------------------------------------------------------------------------
# endpoint closures with their endpoint-parameter derivatives
# ---------------------------------------------------------------------------


def _closure(sc, x):
    """Series value and derivative at x, and their Jacobian (2m, inputs) in
    the series inputs, from sc's tangent tables."""
    y, yp, _ = evaluate_series(sc, np.array([x]))
    return y[:, 0], yp[:, 0], evaluate_tangents(sc, x)


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


def _collocation_state(y, yp, xs, t):
    """State (x, y, yp, ypp) at local point t of every interval; shapes (N-1, m)."""
    h = np.diff(xs)
    x = xs[:-1] + t * h
    wv, wd, ws = _hermite_weights(t, h)  # rows are interval arrays
    parts = [y[:, :-1], yp[:, :-1], y[:, 1:], yp[:, 1:]]
    Y = sum(w * p for w, p in zip(wv, parts)).T
    Yp = sum(w * p for w, p in zip(wd, parts)).T
    Ypp = sum(w * p for w, p in zip(ws, parts)).T
    return x, Y, Yp, Ypp, (wv, wd, ws)


def assemble_collocation(
    bd: BoundaryData,
    mesh: Mesh,
    guess: SolutionProfile,
    counters: dict | None = None,
):
    """Residual vector and Jacobian values of the square discrete system.

    Rows: matching to the origin series, regularized evolution collocation at
    two Gauss points per interval, and matching to the x=1 series.  The
    y1-derivative match at x0 is shed: the first integral holds identically
    on both endpoint series, so that row is redundant in the continuum (the
    constraint propagates inward from the x=1 closure, and the propagation
    toward the origin is contracting).  The constraint is never imposed at
    any interior node; its nodal drift is pure propagation and is checked
    after the solve.  Each assembly builds both endpoint series once, with
    their tangent tables, and is tallied in counters["assemblies"].

    The Jacobian is returned as the 1-D array of its values, block by block:
    the (2m-1) x (1+m) origin rows (node 0's matching slot, then log K(0) and
    the nonlocal coefficients), the (N-1, 2m, 4m) interval blocks (columns
    :2m on node j, 2m: on node j+1), and the 2m x m rows at x=1 (node N-1's
    slot, then the free coefficients).  Unknowns: node j holds y at 2m*j + k
    and y' at 2m*j + m + k, then the 2m-1 endpoint parameters.  splu factors
    it.
    """
    if counters is None:
        counters = _zero_counters()
    fam = family(bd.kind, bd.n)
    m, N = fam.m, mesh.n_nodes
    if guess.y.shape != (m, N) or guess.yp.shape != (m, N):
        raise UsageError("guess dimensions do not match the mesh")
    counters["assemblies"] += 1
    xs = mesh.nodes
    y, yp = guess.y, guess.yp

    # --- endpoint matching
    scL = fg_series_origin(bd, guess.free, origin_order(bd.n), log_k0=guess.k0var, tangents=True)
    yL, ypL, jacL = _closure(scL, xs[0])
    scR = series_infinity(bd.kind, bd.n, INFINITY_ORDER, guess.infinity_free, tangents=True)
    yR, ypR, jacR = _closure(scR, xs[-1])

    # --- collocation rows, in (interval, Gauss point, equation) order
    Fc = np.empty((N - 1, 2, m))
    Jc = np.empty((N - 1, 2, m, 4, m))
    hj = np.diff(xs)
    for g, t in enumerate((_G1, _G2)):
        x, Y, Yp, Ypp, (wv, wd, ws) = _collocation_state(y, yp, xs, t)
        # cell-width weighting keeps the 1/h^2 roundoff of the Hermite second
        # derivative out of the residual norm (defect-integral scaling)
        W = x * (1.0 - x * x) * hj
        Fc[:, g] = sysm.evo_residuals(fam, x, Y, Yp, Ypp) * W[:, None]
        dJ = sysm.evo_jacobian(fam, x, Y, Yp, Ypp)
        dy, dyp, dypp = (d[:, :, None, :] * W[:, None, None, None] for d in dJ)
        # axis 2: basis slots (ya, pa, yb, pb)
        Jc[:, g] = dy * wv.T[:, None, :, None] + dyp * wd.T[:, None, :, None] + dypp * ws.T[:, None, :, None]

    # the origin's y1' match (row m) is shed
    F = np.concatenate([y[:, 0] - yL, (yp[:, 0] - ypL)[1:], Fc.ravel(), y[:, -1] - yR, yp[:, -1] - ypR])
    # matching rows: 1 on the node slot, then minus the closure's derivative in the series inputs
    ones = np.ones((2 * m, 1))
    JL = np.delete(np.hstack([ones, -jacL]), m, axis=0)
    return F, np.concatenate([JL.ravel(), Jc.ravel(), np.hstack([ones, -jacR]).ravel()])


class CyclicReduction:
    """Factor of the collocation Jacobian by block cyclic reduction.

    The interval blocks [A_j | B_j] (A_j on node j, B_j on node j+1) are
    reduced pairwise, level by level: stacking [B_j; A_{j+1}] for even j and
    applying the transpose of its complete QR factor to the two block rows
    eliminates node j+1, leaving a block that links node j to node j+2 (an
    odd last block carries over unchanged).  When one block is left it links
    the first node to the last, and together with the endpoint matching rows
    it forms one dense (6m-1)-square system in the two end nodes and the
    endpoint parameters.  Each eliminated node is then recovered, level by
    level in reverse, through its stored operator
    R^-1 [Q_top^T | -Q_top^T [A;0] | -Q_top^T [0;B]] applied to its pair's
    right-hand side and its two neighbours (Wright 1992; the orthogonal
    reduction keeps it stable without pivoting across blocks).  Storage is
    O(N).  An exactly singular system raises np.linalg.LinAlgError.
    """

    def __init__(self, J, m, N):
        w = 2 * m
        no = (w - 1) * (m + 1)
        ni = no + (N - 1) * 2 * w * w
        JL, JR = J[:no].reshape(w - 1, m + 1), J[ni:].reshape(w, m)
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
        E[: w - 1, :w] = np.delete(np.eye(w), m, axis=0) * JL[:, :1]
        E[: w - 1, 2 * w : 2 * w + m] = JL[:, 1:]
        E[w - 1 : 2 * w - 1, :w] = A[0]
        E[w - 1 : 2 * w - 1, w : 2 * w] = B[0]
        E[2 * w - 1 :, w : 2 * w] = np.eye(w) * JR[:, :1]
        E[2 * w - 1 :, 2 * w + m :] = JR[:, 1:]
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


def splu(J, m, N):
    """Factor the collocation Jacobian whose values J come from
    assemble_collocation (m unknowns, N nodes) by block cyclic reduction;
    the returned CyclicReduction's .solve(rhs) solves J x = rhs.  The name
    is kept for the span solver.splu that bench/tracing.py records."""
    return CyclicReduction(J, m, N)


# ---------------------------------------------------------------------------
# Newton iteration and drivers
# ---------------------------------------------------------------------------


def seed_profile(bd: BoundaryData, mesh: Mesh, opts: SolveOptions | None = None) -> SolutionProfile:
    """Initial guess: smooth blend of the log boundary offsets (see seed_values)."""
    if opts is None:
        opts = SolveOptions()
    if opts.seed_mode == "zero":
        fam = family(bd.kind, bd.n)
        y = np.zeros((fam.m, mesh.n_nodes))
        yp = np.zeros_like(y)
    else:
        y, yp = seed_values(bd, mesh.nodes)
    return SolutionProfile(bd, mesh, y, yp, tol=opts.tol)


def newton_solve(bd, mesh, guess, opts: SolveOptions | None = None, counters=None):
    """Damped Newton (Armijo halving, minimum damping 2^-20) on the collocation
    system, to opts.tol within MAX_ITER steps.

    Every point is assembled once, residual and Jacobian together: the
    accepted line-search trial's assembly drives the next step.  counters,
    when given, is shared with the other Newton runs of one solve.
    """
    if opts is None:
        opts = SolveOptions()
    tol = opts.tol
    t0 = time.perf_counter()
    rep = SolveReport() if counters is None else SolveReport(counters=counters)
    counters = rep.counters
    u = _pack(guess)

    def assemble(uv):
        return assemble_collocation(bd, mesh, _unpack(bd, mesh, uv, opts), counters=counters)

    m, N = guess.y.shape

    def factor(J):
        counters["lu_factorisations"] += 1
        return splu(J, m, N)

    def trial(uv, lu, bound):
        # affine-invariant (natural) monotonicity: accept uv when
        # |J^-1 F(uv)|, with the current factorization, is within bound.
        # Extreme trial states can overflow the exponential sources, break the
        # series recursion or overflow that norm; the line search treats any
        # of it as a rejection
        try:
            with np.errstate(over="raise", invalid="raise"):
                F, J = assemble(uv)
                accept = np.all(np.isfinite(F)) and float(np.linalg.norm(lu.solve(-F))) <= bound
        except (sysm.SeriesRecursionError, FloatingPointError, np.linalg.LinAlgError):
            return None
        return (F, J) if accept else None

    F, J = assemble(u)
    norm = float(np.abs(F).max())
    rep.residual_history.append(norm)
    for it in range(MAX_ITER):
        if norm <= tol:
            break
        try:
            lu = factor(J)
            step = lu.solve(-F)
        except np.linalg.LinAlgError:
            rep.failure_reason = "singular linearization"
            break
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
            rep.failure_reason = "line search stalled"
            break
        u = u + lam * step
        F, J = FJ
        rep.damping_history.append(lam)
        rep.iterations = it + 1
        norm = float(np.abs(F).max())
        rep.residual_history.append(norm)

    prof = _unpack(bd, mesh, u, opts)
    drift = float(np.abs(prof.constraint_values()).max())
    # polish: an iterate that just crossed tol may still sit well off the
    # discrete root; extra full steps in the quadratic basin are cheap and
    # bring the drift down to the root's own value
    polish = 0
    while norm <= tol and drift > DRIFT_GATE * tol and polish < 2:
        try:
            lu = factor(J)
            ut = u + lu.solve(-F)
            Ft, Jt = assemble(ut)
        except (np.linalg.LinAlgError, sysm.SeriesRecursionError):
            break
        nt = float(np.abs(Ft).max())
        if not np.isfinite(nt) or nt > norm:
            break
        u, F, J, norm = ut, Ft, Jt, nt
        rep.residual_history.append(norm)
        rep.iterations += 1
        polish += 1
        prof = _unpack(bd, mesh, u, opts)
        drift = float(np.abs(prof.constraint_values()).max())

    prof.residual_norm = norm
    rep.residual_norm = norm
    rep.constraint_drift = drift
    prof.converged = bool(norm <= tol and drift <= DRIFT_GATE * tol)
    rep.converged = prof.converged
    if not rep.converged and not rep.failure_reason:
        rep.failure_reason = "max iterations" if norm > tol else "constraint drift"
    rep.wall_time = time.perf_counter() - t0
    return prof, rep


def refine_mesh(profile: SolutionProfile, target: float) -> Mesh:
    """Insert midpoints of intervals whose interior equation residual exceeds target."""
    fam = family(profile.bd.kind, profile.bd.n)
    xs = profile.mesh.nodes
    x, Y, Yp, Ypp, _ = _collocation_state(profile.y, profile.yp, xs, 0.5)
    res = np.abs(sysm.evo_residuals(fam, x, Y, Yp, Ypp) * (x * (1 - x * x))[:, None]).max(axis=1)
    bad = res > target
    if not np.any(bad):
        return profile.mesh
    mids = 0.5 * (xs[:-1] + xs[1:])[bad]
    return Mesh(np.sort(np.concatenate([xs, mids])))


def as_guess_for(bd, prof, opts, mesh=None):
    """prof's unknowns (values, endpoint parameters) as the guess for bd at
    opts.tol, Hermite-interpolated onto mesh when its nodes differ."""
    if mesh is None:
        mesh = prof.mesh
    if np.array_equal(mesh.nodes, prof.mesh.nodes):
        y, yp = prof.y.copy(), prof.yp.copy()
    else:
        y, yp = prof.interpolate(mesh.nodes)
    return replace(
        prof, bd=bd, mesh=mesh, y=y, yp=yp, infinity_free=prof.infinity_free.copy(), tol=opts.tol,
        converged=False, residual_norm=np.inf,
    )


def secant_guess(bd, p, q, t, opts):
    """The unknowns of p + t (q - p) (values, endpoint parameters) as the
    guess for bd at opts.tol: the linear interpolation (0 <= t <= 1) or
    extrapolation of two profiles on one mesh."""
    u = _pack(p)
    return _unpack(bd, p.mesh, u + t * (_pack(q) - u), opts)


def solve_bvp(bd: BoundaryData, opts: SolveOptions | None = None):
    """Newton-solve from one start, then refine while the drift gate is unmet.

    The start is the seed profile.  On non-round data with a grid above
    1.5*coarse_stage it is instead the coarse_stage-node solve (at tol
    max(tol, 1e-9)) interpolated onto the mesh, when that solve's residual
    is within 1e3 of its tol.  A solve that fails keeps its failure_reason.
    """
    if opts is None:
        opts = SolveOptions()
    mesh = make_mesh(opts.grid)
    counters = _zero_counters()
    start = seed_profile(bd, mesh, opts)
    if opts.coarse_stage and opts.grid > 1.5 * opts.coarse_stage and not bd.is_round:
        cmesh = make_mesh(opts.coarse_stage)
        copts = replace(opts, tol=max(opts.tol, 1e-9), grid=opts.coarse_stage)
        cprof, crep = newton_solve(bd, cmesh, seed_profile(bd, cmesh, copts), copts, counters)
        if crep.residual_norm <= 1e3 * copts.tol:
            start = as_guess_for(bd, cprof, opts, mesh)
    prof, rep = newton_solve(bd, mesh, start, opts, counters)

    rounds = 0
    while rep.residual_norm <= opts.tol and not prof.converged and rounds < opts.refine_rounds:
        # converged in residual but the constraint drift gate failed: refine
        newmesh = refine_mesh(prof, DRIFT_GATE * opts.tol)
        if newmesh.n_nodes == prof.mesh.n_nodes:
            break
        prof2, rep2 = newton_solve(bd, newmesh, as_guess_for(bd, prof, opts, newmesh), opts, counters)
        rounds += 1
        rep2.refinements = rounds
        prof, rep = prof2, rep2
        if rep.residual_norm > opts.tol:
            break
    return prof, rep
