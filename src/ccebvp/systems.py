"""Pointwise residual, constraint and Jacobian evaluators for the reduced
Einstein ODE systems at x strictly inside (0,1); the endpoint series cover
the singular ends.

Two families are supported, written in the log variables y_i:

* generalized Berger sphere (n=3, unknowns y1=log K, y2=log phi1, y3=log phi2)
* SU-invariant spheres (n=2k+1, unknowns y1=log K, y2=log phi)

Every second-order equation of each family fits the template

    y_u'' - x^-1 (a_i + b_i x^2) (1-x^2)^-1 y_u' + y'^T Q_i y' + (1-x^2)^-2 F_i(y) = 0

for its unknown u, where F_i is a weighted sum of exponentials of linear
combinations of the y_j, and the first integral is

    Phi = (y1')^2 - y'^T R y' - 4n x^-1 (1+x^2)(1-x^2)^-1 y1'
          + (1-x^2)^-2 S(y),      S = (2n/(n-1)) * (eq-2 source).

Family.eqs holds one entry (u, Q_i, F_i) per template equation: eq 1 (the
quadratic y1 equation), the phi equations and eq 2 (the sourced y1
equation).  Family stacks these entries once into row tables, and one
evaluator reads them for every row at once: the evolution rows, their
Jacobian, and any single template equation.  The constraint takes R and S
from the entries, and the endpoint series recursions take their closing
rows' quadratic forms and sources from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UsageError(ValueError):
    """Structurally invalid call (wrong sizes, wrong family, ...)."""


class SeriesRecursionError(RuntimeError):
    """Endpoint series recursion hit a vanishing indicial factor or inconsistency."""


_UNKNOWNS = {"gberger": 3, "su": 2}  # family name -> number of unknowns


@dataclass(frozen=True)
class SystemKind:
    """Which reduced system: 'gberger' or 'su'."""

    family: str

    def __post_init__(self):
        if self.family not in _UNKNOWNS:
            raise UsageError(f"unknown family {self.family!r}, expected one of {tuple(_UNKNOWNS)}")

    @property
    def unknowns(self) -> int:
        return _UNKNOWNS[self.family]

    @property
    def free_count(self) -> int:
        """Number of free nonlocal parameters at the origin (one per non-K unknown)."""
        return self.unknowns - 1

    def validate_dimension(self, n: int) -> None:
        if n % 2 == 0 or n < 3:
            raise UsageError(f"boundary dimension must be odd and >= 3, got {n}")
        if self.family == "gberger" and n != 3:
            raise UsageError("generalized Berger system requires n = 3")


GBERGER = SystemKind("gberger")
SU = SystemKind("su")
# family name (as in configs and profile headers) -> system kind
KINDS = {"gberger": GBERGER, "su": SU}


@dataclass(frozen=True)
class BoundaryData:
    """Problem instance: family, dimension and the boundary ratios at x=0."""

    kind: SystemKind
    n: int
    phi0: tuple

    def __post_init__(self):
        self.kind.validate_dimension(self.n)
        phi0 = tuple(float(p) for p in self.phi0)
        object.__setattr__(self, "phi0", phi0)
        if len(phi0) != self.kind.free_count:
            raise UsageError(
                f"{self.kind.family} needs {self.kind.free_count} boundary ratios, got {len(phi0)}"
            )
        if not all(0.0 < p < np.inf for p in phi0):
            raise DomainError(f"boundary ratios must be positive and finite, got {phi0}")

    @property
    def is_round(self) -> bool:
        return all(p == 1.0 for p in self.phi0)

    def y_boundary(self) -> np.ndarray:
        """Values of (y_2, ..., y_m) at x = 0."""
        return np.log(np.asarray(self.phi0))


@dataclass(frozen=True)
class Equation:
    """One template equation, y_u'' - (singular term) y_u' + y'^T quad y'
    + (1-x^2)^-2 sum_a w_a exp(v_a . y), for its unknown u; src is the
    source table (weights w, exponent rows v), None for the sourceless eq 1."""

    unknown: int
    quad: np.ndarray  # (m, m)
    src: tuple | None


class Family:
    """Numeric tables for one (kind, n) pair; see the module docstring.

    eqs[i] is template equation i and sing[i] its singular coefficient
    (a_i, b_i): index 0 is the quadratic y1 equation (eq 1), 1..m-1 the phi
    equations, m the sourced y1 equation (eq 2).  evo_rows names the
    equation of each evolution row: rows 1..m-1 are the phi equations and
    row 0 is eq 1 for the generalized Berger family and eq 2 for SU (the
    form whose source term feeds the origin curvature identity).  The row_*
    and src_* tables stack the equations in the order of row_of (the
    evolution rows, then the other y1 equation) for _template_rows.
    """

    def __init__(self, kind: SystemKind, n: int):
        kind.validate_dimension(n)
        self.kind = kind
        self.n = n
        self.m = kind.unknowns
        m, fam = self.m, kind.family

        self.sing = np.zeros((m + 1, 2))
        self.sing[0] = (1.0, 3.0)
        self.sing[m] = (2 * n - 1.0, 2 * n + 1.0)
        q1 = np.zeros((m, m))  # eq 1's quadratic form
        q1[0, 0] = 1.0 / (2 * n)
        if fam == "gberger":
            q1[1:, 1:] = np.array([[1.0, 0.5], [0.5, 1.0]]) / 3.0
            self.sing[1] = self.sing[2] = (2.0, 4.0)
        else:
            q1[1, 1] = (n - 1.0) / (2 * n)
            self.sing[1] = (n - 1.0, n + 1.0)

        self.eqs = [Equation(0, q1, None)]
        # every sourced equation's quadratic term is y1' y_u' / 2
        for u, (w, v) in zip((*range(1, m), 0), _source_tables(fam, n)):
            quad = np.zeros((m, m))
            quad[0, u] = 0.5
            self.eqs.append(Equation(u, quad, (np.asarray(w), np.asarray(v))))
        self.evo_rows = (0 if fam == "gberger" else m, *range(1, m))

        # constraint: Phi = (y1')^2 - y'^T R y' - ... + cphi (eq-2 source),
        # the source scaled after summation so that the exact integer
        # cancellation at the zero state survives
        self.cphi = 2.0 * n / (n - 1.0)
        self.rmat = np.zeros((m, m))
        self.rmat[1:, 1:] = self.cphi * self.eqs[0].quad[1:, 1:]

        # the stacked row tables of _template_rows: every template equation,
        # the evolution rows first, then the other y1 equation
        rows = [*self.evo_rows, next(i for i in (0, m) if i not in self.evo_rows)]
        self.row_of = {i: r for r, i in enumerate(rows)}
        self.row_unknown = np.array([self.eqs[i].unknown for i in rows])
        self.row_sing = self.sing[rows, :, None]  # (a, b) of each row, against the points
        quads = np.stack([self.eqs[i].quad for i in rows])
        self.row_quad = np.concatenate(quads, axis=1)  # (m, rows*m): y'^T Q of every row
        # d/dy' of the evolution rows' quadratic forms, as (row, y' partial) by y'
        self.evo_dquad = (quads[:m] + quads[:m].transpose(0, 2, 1)).reshape(m * m, m)
        # one source table: every row's exponent rows in turn (T, m), each
        # row's weights on its own span of them, and the evolution rows' y
        # partials as (row, y partial) by term: each weight times its
        # exponent row
        srcs = [self.eqs[i].src for i in rows]
        self.src_vT = np.concatenate([v for _, v in filter(None, srcs)]).T.copy()
        self.src_spans, T = [], 0
        for src in srcs:
            self.src_spans.append(src and (T, T + len(src[0]), src[0]))
            T += len(src[0]) if src else 0
        dy = np.zeros((m, m, T))
        for r, span in enumerate(self.src_spans[:m]):
            if span:
                a, b, w = span
                dy[r, :, a:b] = w * self.src_vT[:, a:b]
        self.src_dy = dy.reshape(m * m, T)


def _source_tables(fam: str, n: int):
    """Weight/exponent tables of the sourced equations: the phi equations, then eq 2."""
    if fam == "gberger":
        ups = [  # Upsilon exponent terms: K^(-1/3) phi1^p phi2^q
            (2.0, (-1 / 3, 2 / 3, 1 / 3)),
            (2.0, (-1 / 3, -1 / 3, 1 / 3)),
            (2.0, (-1 / 3, -1 / 3, -2 / 3)),
            (-1.0, (-1 / 3, -4 / 3, -2 / 3)),
            (-1.0, (-1 / 3, 2 / 3, -2 / 3)),
            (-1.0, (-1 / 3, 2 / 3, 4 / 3)),
        ]
        s2_w = [48.0] + [-16.0 * w for w, _ in ups]
        s2_v = [(0.0, 0.0, 0.0)] + [v for _, v in ups]
        src2 = (
            [32.0, -32.0, -32.0, 32.0],
            [
                (-1 / 3, 2 / 3, 1 / 3),
                (-1 / 3, -1 / 3, 1 / 3),
                (-1 / 3, 2 / 3, -2 / 3),
                (-1 / 3, -4 / 3, -2 / 3),
            ],
        )
        src3 = (
            [32.0, -32.0, -32.0, 32.0],
            [
                (-1 / 3, -1 / 3, 1 / 3),
                (-1 / 3, -1 / 3, -2 / 3),
                (-1 / 3, 2 / 3, 4 / 3),
                (-1 / 3, 2 / 3, -2 / 3),
            ],
        )
        return [src2, src3, (s2_w, s2_v)]

    c = 8.0 * (n + 1.0)
    src2 = ([c, -c], [(-1.0 / n, -(n + 1.0) / n), (-1.0 / n, -1.0 / n)])
    d = 8.0 * (n - 1.0)
    s2 = (
        [d * n, -d * (n + 1.0), d],
        [(0.0, 0.0), (-1.0 / n, -1.0 / n), (-1.0 / n, -(n + 1.0) / n)],
    )
    return [src2, s2]


@functools.cache
def family(kind: SystemKind, n: int) -> Family:
    return Family(kind, n)


# ---------------------------------------------------------------------------
# vectorised evaluators for x strictly inside (0, 1)
# (x: (...,), y/yp/ypp: (..., m); only the evolution residuals read ypp)
# ---------------------------------------------------------------------------


def _sing_coeff(a, b, x):
    """Coefficient x^-1 (a + b x^2)(1-x^2)^-1 of y' in a singular term."""
    x = np.asarray(x, dtype=float)
    c = a + b * x * x
    return c / (x * (1.0 - x * x))


def _source_term(src, x, y):
    """(1-x^2)^-2 sum_a w_a exp(v_a . y) for the source table src = (w, v)."""
    w, v = src
    x = np.asarray(x, dtype=float)
    return np.exp(y @ v.T) @ w / (1.0 - x * x) ** 2


def x_factors(x):
    """The x-only factors of the template rows at x: x, x(1-x^2) and (1-x^2)^2."""
    return x, x * (1.0 - x * x), (1.0 - x * x) ** 2


def _template_rows(fam, xf, y, yp, ypp, rows, jac=False):
    """The first `rows` stacked template equations (fam.row_of: the
    evolution rows, then the other y1 equation) at once, from unknown-major
    states (m, P) at P points with x-only factors xf (x_factors): the
    residuals (rows, P); with jac also the evolution rows' partials w.r.t. y
    and y', each (m, m, P) as (row, unknown, point).

    Each row is y_u'' - (a + b x^2)/(x(1-x^2)) y_u' + y'^T Q y' + (its
    source sum)/(1-x^2)^2, summed in that order, so each row is what its
    template equation gives alone, whichever rows are evaluated: one
    product takes y' to y'^T Q of every row, one exp makes every row's
    exponential terms, and each row sums its own span of them.  Its integer
    weights thus cancel exactly at the zero state.  The partials take one
    product each: the weighted exponent rows with the exponentials, and the
    quadratic forms' gradients with y'."""
    m, P = y.shape
    x, den, g2 = xf
    Qyp = (fam.row_quad[:, : rows * m].T @ yp).reshape(rows, m, P)  # (y'^T Q)_j of every row
    q = Qyp[:, 0] * yp[0] + 0.0  # the sum over j from +0.0, as np.sum takes it
    for j in range(1, m):
        q += Qyp[:, j] * yp[j]
    del Qyp
    sing = (fam.row_sing[:rows, 0] + fam.row_sing[:rows, 1] * x * x) / den
    res = ypp[fam.row_unknown[:rows]] - sing * yp[fam.row_unknown[:rows]]
    res += q
    spans = fam.src_spans[:rows]
    E = np.exp(y.T @ fam.src_vT[:, : max((s[1] for s in spans if s), default=0)])  # (P, terms)
    for r, span in enumerate(spans):
        if span is not None:
            res[r] += E[:, span[0] : span[1]] @ span[2] / g2
    if not jac:
        return res
    dy = fam.src_dy[:, : E.shape[1]] @ E.T
    del E
    dy /= g2
    dyp = (fam.evo_dquad @ yp).reshape(m, m, P)
    dyp[np.arange(m), fam.row_unknown[:m]] -= sing[:m]
    return res, dy.reshape(m, m, P), dyp


def _unknown_major(x, *arrays):
    """x_factors(x) and the arrays (..., m) as views (m, P), all broadcast
    to one point shape of P points, and that shape."""
    shape = np.broadcast_shapes(np.shape(x), arrays[0].shape[:-1])
    x = np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1)
    out = [np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1]).T for a in arrays]
    return shape, x_factors(x), *out


def equation_residual(fam, i, x, y, yp, ypp):
    """Residual of template equation i (indexed as fam.eqs)."""
    shape, *args = _unknown_major(x, y, yp, ypp)
    return _template_rows(fam, *args, fam.m + 1)[fam.row_of[i]].reshape(shape)


def constraint_residual(fam, x, y, yp):
    """First integral Phi; vanishes identically on exact solutions.  It does
    not depend on y''."""
    quad = yp[..., 0] ** 2 - np.sum((yp @ fam.rmat) * yp, axis=-1)
    lin = -4.0 * fam.n * (_sing_coeff(1.0, 1.0, x) * yp[..., 0])
    return quad + lin + fam.cphi * _source_term(fam.eqs[fam.m].src, x, y)


def evo_residuals(fam, x, y, yp, ypp):
    """Per-unknown evolution residuals, stacked on the last axis: row r is
    template equation fam.evo_rows[r]."""
    shape, *args = _unknown_major(x, y, yp, ypp)
    return _template_rows(fam, *args, fam.m).T.reshape(*shape, fam.m)


def evo_jacobian(fam, x, y, yp):
    """Partials of evo_residuals w.r.t. (y, yp): two (..., m, m) arrays.
    Every row is y_u'' plus terms in (x, y, y'), so the ypp partial is the
    identity and is not returned; the collocation assembly adds it."""
    shape, xf, y, yp = _unknown_major(x, y, yp)
    _, dy, dyp = _template_rows(fam, xf, y, yp, yp, fam.m, jac=True)
    m = fam.m
    return dy.transpose(2, 0, 1).reshape(*shape, m, m), dyp.transpose(2, 0, 1).reshape(*shape, m, m)
