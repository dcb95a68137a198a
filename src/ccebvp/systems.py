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
equation).  One evaluator reads it for every evolution row and its
Jacobian, the constraint takes R and S from it, and the endpoint series
recursions take their closing rows' quadratic forms and sources from it.
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
    form whose source term feeds the origin curvature identity).
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


def _source_term_jac(src, x, y):
    """Partial of _source_term w.r.t. y, shaped (..., m)."""
    w, v = src
    x = np.asarray(x, dtype=float)
    return np.exp(y @ v.T) @ (w[:, None] * v) / np.asarray((1.0 - x * x) ** 2)[..., None]


def equation_residual(fam, i, x, y, yp, ypp):
    """Residual of template equation i (indexed as fam.eqs)."""
    eq = fam.eqs[i]
    u = eq.unknown
    r = ypp[..., u] - _sing_coeff(*fam.sing[i], x) * yp[..., u] + np.sum((yp @ eq.quad) * yp, axis=-1)
    return r if eq.src is None else r + _source_term(eq.src, x, y)


def constraint_residual(fam, x, y, yp):
    """First integral Phi; vanishes identically on exact solutions.  It does
    not depend on y''."""
    quad = yp[..., 0] ** 2 - np.sum((yp @ fam.rmat) * yp, axis=-1)
    lin = -4.0 * fam.n * (_sing_coeff(1.0, 1.0, x) * yp[..., 0])
    return quad + lin + fam.cphi * _source_term(fam.eqs[fam.m].src, x, y)


def evo_residuals(fam, x, y, yp, ypp):
    """Per-unknown evolution residuals, stacked on the last axis: row r is
    template equation fam.evo_rows[r]."""
    return np.stack([equation_residual(fam, i, x, y, yp, ypp) for i in fam.evo_rows], axis=-1)


def evo_jacobian(fam, x, y, yp):
    """Partials of evo_residuals w.r.t. (y, yp): two (..., m, m) arrays.
    Every row is y_u'' plus terms in (x, y, y'), so the ypp partial is the
    identity and is not returned; the collocation assembly adds it."""
    shape = np.broadcast_shapes(np.shape(x), y.shape[:-1])
    dy, dyp = np.zeros((2, *shape, fam.m, fam.m))
    for r, i in enumerate(fam.evo_rows):
        eq = fam.eqs[i]
        if eq.src is not None:
            dy[..., r, :] = _source_term_jac(eq.src, x, y)
        dyp[..., r, :] = yp @ (eq.quad + eq.quad.T)
        dyp[..., r, eq.unknown] -= _sing_coeff(*fam.sing[i], x)
    return dy, dyp

