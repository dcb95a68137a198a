"""Pointwise residual, constraint and Jacobian evaluators for the reduced
Einstein ODE systems at x strictly inside (0,1); the endpoint series cover
the singular ends.

Two families are supported, written in the log variables y_i:

* generalized Berger sphere (n=3, unknowns y1=log K, y2=log phi1, y3=log phi2)
* SU-invariant spheres (n=2k+1, unknowns y1=log K, y2=log phi)

Every second-order equation of each family fits the template

    y_i'' - x^-1 (a_i + b_i x^2) (1-x^2)^-1 y_i' + Q_i(y') + (1-x^2)^-2 F_i(y) = 0

where F_i is a weighted sum of exponentials of linear combinations of the y_j,
and the first integral is

    Phi = (y1')^2 - y'^T R y' - 4n x^-1 (1+x^2)(1-x^2)^-1 y1'
          + (1-x^2)^-2 S(y),      S = (2n/(n-1)) * (eq-2 source).

The tables below encode each family once; residuals, constraints, state
Jacobians and the endpoint series recursions are all driven from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UsageError(ValueError):
    """Structurally invalid call (wrong sizes, wrong family, ...)."""


class InfeasibleStateError(DomainError):
    """State violates an inequality required for a closed form (3 - Upsilon > 0)."""


class SeriesRecursionError(RuntimeError):
    """Endpoint series recursion hit a vanishing indicial factor or inconsistency."""


_FAMILIES = ("gberger", "su")
_UNKNOWNS = {"gberger": 3, "su": 2}


@dataclass(frozen=True)
class SystemKind:
    """Which reduced system: 'gberger' or 'su'."""

    family: str

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UsageError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")

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
    def in_admissible_window(self) -> bool:
        """SU admissible window 1/(n+1) < phi(0) < n+1; gberger unrestricted."""
        if self.kind.family == "su":
            return 1.0 / (self.n + 1) < self.phi0[0] < self.n + 1
        return True

    @property
    def is_round(self) -> bool:
        return all(p == 1.0 for p in self.phi0)

    def y_boundary(self) -> np.ndarray:
        """Values of (y_2, ..., y_m) at x = 0."""
        return np.log(np.asarray(self.phi0))


class Family:
    """Numeric tables for one (kind, n) pair; see the module docstring."""

    def __init__(self, kind: SystemKind, n: int):
        kind.validate_dimension(n)
        self.kind = kind
        self.n = n
        self.m = kind.unknowns
        m, fam = self.m, kind.family

        # singular coefficient (a_i, b_i) per equation; index 0 is the
        # quadratic y1 equation, index m is the sourced y1 equation (eq 2).
        self.sing = np.zeros((m + 1, 2))
        self.sing[0] = (1.0, 3.0)
        self.sing[m] = (2 * n - 1.0, 2 * n + 1.0)

        # quadratic form of eq-1 (coefficient matrix over y'):
        q1 = np.zeros((m, m))
        q1[0, 0] = 1.0 / (2 * n)
        if fam == "gberger":
            q1[1:, 1:] = np.array([[1.0, 0.5], [0.5, 1.0]]) / 3.0
            self.sing[1] = self.sing[2] = (2.0, 4.0)
        else:
            q1[1, 1] = (n - 1.0) / (2 * n)
            self.sing[1] = (n - 1.0, n + 1.0)
        self.q1 = q1

        # constraint quadratic form: Phi = (y1')^2 - y'^T R y' - ...
        self.rmat = np.zeros((m, m))
        self.rmat[1:, 1:] = (2.0 * n / (n - 1.0)) * q1[1:, 1:]

        srcs, s2 = _source_tables(fam, n)
        # per-equation sources for unknowns 2..m: (weights, exponent matrix)
        self.src = [(np.asarray(w), np.asarray(v)) for w, v in srcs]
        self.s2 = (np.asarray(s2[0]), np.asarray(s2[1]))
        # constraint source = cphi * (eq-2 source); applied after summation so
        # the exact integer cancellation at the zero state survives
        self.cphi = 2.0 * n / (n - 1.0)

        # which equation the reported evo_1 is: eq 1 for gberger, eq 2 for su
        self.evo1_is_eq1 = fam == "gberger"

    # -- source sums ---------------------------------------------------------

    @staticmethod
    def expsum(table, y):
        """sum_a w_a exp(v_a . y) for y of shape (..., m)."""
        w, v = table
        return np.exp(y @ v.T) @ w

    @staticmethod
    def expsum_grad(table, y):
        """Gradient of expsum w.r.t. y, shape (..., m)."""
        w, v = table
        return np.exp(y @ v.T) @ (w[:, None] * v)


def _source_tables(fam: str, n: int):
    """Weight/exponent tables: per-equation sources and the eq-2 source."""
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
        return [src2, src3], (s2_w, s2_v)

    c = 8.0 * (n + 1.0)
    src2 = ([c, -c], [(-1.0 / n, -(n + 1.0) / n), (-1.0 / n, -1.0 / n)])
    d = 8.0 * (n - 1.0)
    s2 = (
        [d * n, -d * (n + 1.0), d],
        [(0.0, 0.0), (-1.0 / n, -1.0 / n), (-1.0 / n, -(n + 1.0) / n)],
    )
    return [src2], s2


_family_cache: dict = {}


def family(kind: SystemKind, n: int) -> Family:
    key = (kind.family, n)
    if key not in _family_cache:
        _family_cache[key] = Family(kind, n)
    return _family_cache[key]


# ---------------------------------------------------------------------------
# singular and source terms, for x strictly inside (0, 1)
# ---------------------------------------------------------------------------


def _sing_coeff(a, b, x):
    """Coefficient x^-1 (a + b x^2)(1-x^2)^-1 of y' in a singular term."""
    x = np.asarray(x, dtype=float)
    c = a + b * x * x
    return c / (x * (1.0 - x * x))


def _source_term(fam, table, x, y):
    """(1-x^2)^-2 F(y)."""
    x = np.asarray(x, dtype=float)
    return fam.expsum(table, y) / (1.0 - x * x) ** 2


def _source_term_jac(fam, table, x, y):
    """Partial of _source_term w.r.t. y, shaped (..., m)."""
    x = np.asarray(x, dtype=float)
    return fam.expsum_grad(table, y) / np.asarray((1.0 - x * x) ** 2)[..., None]


# ---------------------------------------------------------------------------
# vectorised residual cores (x: (...,), y/yp/ypp: (..., m))
# ---------------------------------------------------------------------------


def eq1_residual(fam, x, y, yp, ypp):
    """Quadratic y1 equation (no source)."""
    quad = np.sum((yp @ fam.q1) * yp, axis=-1)
    return ypp[..., 0] - _sing_coeff(*fam.sing[0], x) * yp[..., 0] + quad


def eq2_residual(fam, x, y, yp, ypp):
    """Sourced y1 equation."""
    return (
        ypp[..., 0]
        - _sing_coeff(*fam.sing[fam.m], x) * yp[..., 0]
        + 0.5 * yp[..., 0] ** 2
        + _source_term(fam, fam.s2, x, y)
    )


def eqi_residual(fam, i, x, y, yp, ypp):
    """Equation for unknown i (2-based: i in 2..m)."""
    k = i - 1
    return (
        ypp[..., k]
        - _sing_coeff(*fam.sing[k], x) * yp[..., k]
        + 0.5 * yp[..., 0] * yp[..., k]
        + _source_term(fam, fam.src[k - 1], x, y)
    )


def constraint_residual(fam, x, y, yp, ypp):
    """First integral Phi; vanishes identically on exact solutions.  It does
    not depend on ypp, which is taken for the evaluators' common signature."""
    quad = yp[..., 0] ** 2 - np.sum((yp @ fam.rmat) * yp, axis=-1)
    lin = -4.0 * fam.n * (_sing_coeff(1.0, 1.0, x) * yp[..., 0])
    return quad + lin + fam.cphi * _source_term(fam, fam.s2, x, y)


def evo_residuals(fam, x, y, yp, ypp):
    """Per-unknown evolution residuals, stacked on the last axis.

    Row 0 is eq 1 for the generalized Berger family and eq 2 for SU (the
    form whose source term feeds the origin curvature identity); rows
    1..m-1 are the phi equations.
    """
    first = eq1_residual if fam.evo1_is_eq1 else eq2_residual
    rows = [first(fam, x, y, yp, ypp)]
    for i in range(2, fam.m + 1):
        rows.append(eqi_residual(fam, i, x, y, yp, ypp))
    return np.stack(rows, axis=-1)


def evo_jacobian(fam, x, y, yp, ypp):
    """Partials of evo_residuals w.r.t. (y, yp, ypp): three (..., m, m) arrays.
    Every row is y_i'' plus terms in (x, y, y'), so the ypp partial is the
    identity."""
    m = fam.m
    shape = np.broadcast_shapes(np.shape(x), y.shape[:-1])
    dy = np.zeros(shape + (m, m))
    dyp = np.zeros(shape + (m, m))

    # row 0
    if fam.evo1_is_eq1:
        dyp[..., 0, :] = 2.0 * (yp @ fam.q1)
        dyp[..., 0, 0] -= _sing_coeff(*fam.sing[0], x)
    else:
        dy[..., 0, :] = _source_term_jac(fam, fam.s2, x, y)
        dyp[..., 0, 0] = yp[..., 0] - _sing_coeff(*fam.sing[m], x)

    for i in range(2, m + 1):
        k = i - 1
        dy[..., k, :] = _source_term_jac(fam, fam.src[k - 1], x, y)
        dyp[..., k, 0] += 0.5 * yp[..., k]
        dyp[..., k, k] += 0.5 * yp[..., 0] - _sing_coeff(*fam.sing[k], x)
    return dy, dyp, np.broadcast_to(np.eye(m), dy.shape).copy()


def constraint_jacobian(fam, x, y, yp, ypp):
    """Partials of the first integral w.r.t. (y, yp, ypp), each (..., m); the
    ypp partial is zero."""
    dy = fam.cphi * _source_term_jac(fam, fam.s2, x, y)
    dyp = -2.0 * (yp @ fam.rmat)
    dyp[..., 0] += 2.0 * yp[..., 0] - 4.0 * fam.n * _sing_coeff(1.0, 1.0, x)
    return dy, dyp, np.zeros_like(dy)


# ---------------------------------------------------------------------------
# public pointwise operations
# ---------------------------------------------------------------------------


def upsilon(K, phi1, phi2):
    """The scalar Upsilon(K, phi1, phi2) controlling the n=3 origin identity."""
    if K <= 0 or phi1 <= 0 or phi2 <= 0:
        raise DomainError("upsilon requires strictly positive arguments")
    y = np.log([K, phi1, phi2])
    fam = family(GBERGER, 3)
    # S2 = 16*(3 - Upsilon): recover Upsilon from the eq-2 source table.
    return 3.0 - fam.expsum(fam.s2, y) / 16.0


def y1prime_closed_form_gb(x, yp2, yp3, ups):
    """Closed form for y1' from the n=3 first integral (minus-root branch)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0,1), got {x}")
    quad = yp2 * yp2 + yp2 * yp3 + yp3 * yp3
    rad = (1 + x * x) ** 2 + x * x * (1 - x * x) ** 2 * quad / 36.0 - 4.0 * x * x * (3.0 - ups) / 3.0
    if rad < 0:
        raise InfeasibleStateError("negative radicand: state violates 3 - Upsilon > 0")
    return 6.0 / (x * (1.0 - x * x)) * (1.0 + x * x - np.sqrt(rad))

