"""Test oracles: closed forms and evaluators the package itself never calls.

The solver, sweep, verification and CLI read none of these; the tests check
the package against them.
"""

from fractions import Fraction
from math import comb

import numpy as np

from ccebvp.series import TRUST_RADIUS, SeriesCoefficients, evaluate_closure, fg_series_origin, power_vectors, series_infinity
from ccebvp.solver import _GAUSS, INFINITY_ORDER, XL, _hermite_weights, origin_order
from ccebvp.systems import GBERGER, SU, DomainError, _sing_coeff, _source_term, family


class InfeasibleStateError(DomainError):
    """State violates an inequality required for a closed form (3 - Upsilon > 0)."""


# -- endpoint series -----------------------------------------------------------


def _eval_table(table, t, dsign):
    """Evaluate values and first two derivatives of the coefficient rows at t.

    dsign = -1 converts d/du into d/dx for the infinity series; the second
    derivative is sign-free either way.
    """
    powers = power_vectors(t, table.shape[-1], 3)
    y, yp, ypp = (p @ np.swapaxes(table, -1, -2) for p in powers)
    return y, dsign * yp, ypp


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


# -- pointwise closed forms ----------------------------------------------------


def _source_term_jac(src, x, y):
    """Partial of systems._source_term w.r.t. y, shaped (..., m)."""
    w, v = src
    x = np.asarray(x, dtype=float)
    return np.exp(y @ v.T) @ (w[:, None] * v) / np.asarray((1.0 - x * x) ** 2)[..., None]


def constraint_jacobian(fam, x, y, yp):
    """Partials of the first integral w.r.t. (y, yp), each (..., m); it does
    not depend on y''."""
    dy = fam.cphi * _source_term_jac(fam.eqs[fam.m].src, x, y)
    dyp = -2.0 * (yp @ fam.rmat)
    dyp[..., 0] += 2.0 * yp[..., 0] - 4.0 * fam.n * _sing_coeff(1.0, 1.0, x)
    return dy, dyp


# -- the collocation rows, one template equation at a time ----------------------
#
# The readable form of what systems._template_rows and
# solver.assemble_collocation compute at once: each template equation
# evaluated alone on point-major arrays (..., m), and the interval blocks
# written one basis slot at a time.


def equation_residual(fam, i, x, y, yp, ypp):
    """Residual of template equation i (indexed as fam.eqs), alone."""
    eq = fam.eqs[i]
    u = eq.unknown
    r = ypp[..., u] - _sing_coeff(*fam.sing[i], x) * yp[..., u] + np.sum((yp @ eq.quad) * yp, axis=-1)
    return r if eq.src is None else r + _source_term(eq.src, x, y)


def evo_residuals(fam, x, y, yp, ypp):
    """The evolution rows (fam.evo_rows), stacked on the last axis."""
    return np.stack([equation_residual(fam, i, x, y, yp, ypp) for i in fam.evo_rows], axis=-1)


def evo_jacobian(fam, x, y, yp):
    """Partials of evo_residuals w.r.t. (y, yp), each (..., m, m), row by row."""
    shape = np.broadcast_shapes(np.shape(x), y.shape[:-1])
    dy, dyp = np.zeros((2, *shape, fam.m, fam.m))
    for r, i in enumerate(fam.evo_rows):
        eq = fam.eqs[i]
        if eq.src is not None:
            dy[..., r, :] = _source_term_jac(eq.src, x, y)
        dyp[..., r, :] = yp @ (eq.quad + eq.quad.T)
        dyp[..., r, eq.unknown] -= _sing_coeff(*fam.sing[i], x)
    return dy, dyp


def reference_assembly(bd, mesh, guess):
    """(F, J) of solver.assemble_collocation, with the collocation rows
    evaluated by the row-by-row evaluators above and each interval block
    written one basis slot at a time, in point-major arrays (point,
    interval, ...)."""
    fam = family(bd.kind, bd.n)
    m, N = fam.m, mesh.n_nodes
    xs, y, yp = mesh.nodes, guess.y, guess.yp
    scL = fg_series_origin(bd, guess.free, origin_order(bd.n), log_k0=guess.k0var, tangents=True)
    yL, ypL, jacL = evaluate_closure(scL, xs[0])
    scR = series_infinity(bd.kind, bd.n, INFINITY_ORDER, guess.infinity_free, tangents=True)
    yR, ypR, jacR = evaluate_closure(scR, xs[-1])
    h = np.diff(xs)
    x = xs[:-1] + _GAUSS * h
    wts = np.stack([np.array(w) for w in _hermite_weights(_GAUSS, h)], axis=1)  # (slot, value / d / d2, point, interval)
    W = (x * (1.0 - x * x) * h)[..., None]
    parts = [y[:, :-1].T, yp[:, :-1].T, y[:, 1:].T, yp[:, 1:].T]
    Y, Yp, Ypp = (sum(wts[s, k, ..., None] * parts[s] for s in range(4)) for k in range(3))
    Fc = (evo_residuals(fam, x, Y, Yp, Ypp) * W).transpose(1, 0, 2)
    F = np.concatenate([y[:, 0] - yL, (yp[:, 0] - ypL)[1:], Fc.ravel(), y[:, -1] - yR, yp[:, -1] - ypR])
    no, ni = (2 * m - 1) * m, (2 * m - 1) * m + 8 * m * m * (N - 1)
    J = np.empty(ni + 2 * m * (m - 1))
    J[:no], J[ni:] = np.delete(-jacL, m, axis=0).ravel(), -jacR.ravel()
    J[:no].reshape(2 * m - 1, m)[:, 1:] *= XL**-bd.n
    Jc = J[no:ni].reshape(N - 1, 2, m, 4, m).transpose(1, 0, 2, 3, 4)
    dy, dyp = (d * W[..., None] for d in evo_jacobian(fam, x, Y, Yp))
    for s in range(4):
        Jc[..., s, :] = dy * wts[s, 0, ..., None, None] + dyp * wts[s, 1, ..., None, None]
        for k in range(m):
            Jc[:, :, k, s, k] += W[..., 0] * wts[s, 2]
    return F, J


def upsilon(K, phi1, phi2):
    """The scalar Upsilon(K, phi1, phi2) controlling the n=3 origin identity."""
    if K <= 0 or phi1 <= 0 or phi2 <= 0:
        raise DomainError("upsilon requires strictly positive arguments")
    y = np.log([K, phi1, phi2])
    fam = family(GBERGER, 3)
    # eq 2's source at x = 0 is S2 = 16*(3 - Upsilon)
    return 3.0 - _source_term(fam.eqs[fam.m].src, 0.0, y) / 16.0


def y1prime_closed_form_gb(x, yp2, yp3, ups):
    """Closed form for y1' from the n=3 first integral (minus-root branch)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0,1), got {x}")
    quad = yp2 * yp2 + yp2 * yp3 + yp3 * yp3
    rad = (1 + x * x) ** 2 + x * x * (1 - x * x) ** 2 * quad / 36.0 - 4.0 * x * x * (3.0 - ups) / 3.0
    if rad < 0:
        raise InfeasibleStateError("negative radicand: state violates 3 - Upsilon > 0")
    return 6.0 / (x * (1.0 - x * x)) * (1.0 + x * x - np.sqrt(rad))


# -- slice geometry ------------------------------------------------------------


def ricci_su(I1, I2, n) -> np.ndarray:
    """Closed-form diagonal Ricci of the SU slice: ((n-1)I1^2/I2^2, (n+1)-2I1/I2, ...)."""
    first = (n - 1.0) * I1 * I1 / (I2 * I2)
    rest = (n + 1.0) - 2.0 * I1 / I2
    return np.array([first] + [rest] * (n - 1))


def radial_trace(samples) -> np.ndarray:
    """Multiplicity-weighted sum of the radial rows of curvature samples at
    every node (equals -n on Einstein profiles).  It restates the first
    integral: on SU the sum plus n is (n-1) x^2 Phi / (4n), and on the
    generalized Berger family it is -n to roundoff on any profile."""
    mult = samples.metric.multiplicities
    return mult @ samples.values[: len(mult)]


# Lie brackets [Y_c, Y_b] = sum_a alpha[(c,b)][a] Y_a for the S^5 frame
# (1-based indices); a cross-check oracle for dT.
SU3_BRACKETS = {
    (1, 2): {3: -3.0},
    (1, 3): {2: 3.0},
    (1, 4): {5: -3.0},
    (1, 5): {4: 3.0},
    (2, 3): {1: -1.0, 6: 1.0},
    (2, 4): {7: 1.0},
    (2, 5): {8: 1.0},
    (3, 4): {8: -1.0},
    (3, 5): {7: 1.0},
    (4, 5): {1: -1.0, 6: -1.0},
}


# -- Pedersen's metric: the exact SU(2)-invariant filling of the Berger S^3 ----
#
# Pedersen (Math. Ann. 274, 1986) gives the self-dual Einstein filling of the
# Berger sphere with ratio lambda; with mu^2 = lambda - 1, in this package's
# variables (g = dr^2 + sinh^2 r sum I_i sigma_i^2, x = e^-r, SU n = 3):
#
#   r(rho) = 2 int_0^rho sqrt(f(s)) ds / (1 - s^2),  f = (1 + mu^2 s^2) / (1 + mu^2 s^4),
#   I2 = 4 rho^2 (1 + mu^2 rho^2) / ((1 - rho^2)^2 sinh^2 r),
#   I1 = 4 rho^2 (1 + mu^2 rho^4) / ((1 + mu^2 rho^2) (1 - rho^2)^2 sinh^2 r),
#   y1 = log(I1 I2^2),  y2 = log(I2 / I1).
#
# r(rho) = log((1 + rho)/(1 - rho)) + c(rho) with c the integral of the
# regular integrand 2 (sqrt f - 1)/(1 - s^2) = 2 mu^2 s^2 / ((1 + mu^2 s^4)(sqrt f + 1)),
# and as rho -> 1, log K(0) = y1(0) = 2 log lambda - 6 c(1).

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_PANELS = 4


class Pedersen:
    """Pedersen's filling for the SU n=3 ratio lam > 0."""

    def __init__(self, lam):
        if not lam > 0.0:
            raise DomainError(f"Pedersen's filling needs lambda > 0, got {lam}")
        self.lam, self.mu2 = float(lam), float(lam) - 1.0

    def _f(self, s):
        return (1.0 + self.mu2 * s * s) / (1.0 + self.mu2 * s**4)

    def _c(self, rho):
        """c(rho) for an array rho in [0, 1], by composite Gauss-Legendre."""
        rho = np.asarray(rho, dtype=float)
        edges = rho[..., None] * np.linspace(0.0, 1.0, _GL_PANELS + 1)
        lo, half = edges[..., :-1, None], 0.5 * np.diff(edges, axis=-1)[..., None]
        s = lo + half * (_GL_NODES + 1.0)
        g = 2.0 * self.mu2 * s * s / ((1.0 + self.mu2 * s**4) * (np.sqrt(self._f(s)) + 1.0))
        return (half * _GL_WEIGHTS * g).sum(axis=(-2, -1))

    def rho(self, x):
        """rho at x = e^-r in (0, 1), by Newton on r(rho) = -log x to roundoff."""
        x = np.asarray(x, dtype=float)
        target = -np.log(x)
        rho = (1.0 - x) / (1.0 + x)  # the round metric's (mu = 0)
        for _ in range(50):
            r = np.log1p(rho) - np.log1p(-rho) + self._c(rho)
            step = (r - target) * (1.0 - rho * rho) / (2.0 * np.sqrt(self._f(rho)))
            rho = rho - step
            if np.all(np.abs(step) <= 1e-15 * rho):
                return rho
        raise RuntimeError("Pedersen rho(x) did not converge")

    def log_k0(self):
        """log K(0) in closed form: 2 log lambda - 6 c(1)."""
        return 2.0 * np.log(self.lam) - 6.0 * float(self._c(1.0))

    def y(self, x):
        """(y, y'): each (2,) + x.shape, at x in (0, 1)."""
        x = np.asarray(x, dtype=float)
        rho, mu2 = self.rho(x), self.mu2
        a, b = 1.0 + mu2 * rho * rho, 1.0 + mu2 * rho**4
        y2 = 2.0 * np.log(a) - np.log(b)
        # y1 = A(rho) - 6 log sinh r, with sinh r = (1 - x^2)/(2x)
        A = 3.0 * np.log(4.0) + 6.0 * np.log(rho) - 6.0 * np.log1p(-rho * rho) + np.log(b) + np.log(a)
        y1 = A - 6.0 * (np.log1p(-x * x) - np.log(2.0 * x))
        drho = -(1.0 - rho * rho) / (2.0 * x * np.sqrt(a / b))  # d rho / dx
        dA = 6.0 / rho + 12.0 * rho / (1.0 - rho * rho) + 4.0 * mu2 * rho**3 / b + 2.0 * mu2 * rho / a
        y1p = dA * drho + 6.0 * (2.0 * x / (1.0 - x * x) + 1.0 / x)
        y2p = (4.0 * mu2 * rho / a - 4.0 * mu2 * rho**3 / b) * drho
        return np.array([y1, y2]), np.array([y1p, y2p])


# -- the first-order solution near round data ----------------------------------
#
# At y = 0 every ratio equation linearises to
#   f'' - x^-1 ((n-1) + (n+1) x^2)(1-x^2)^-1 f' - 8(n+1)(1-x^2)^-2 f = 0,
# and each ratio unknown is eps f_n(x) to first order in eps = log phi.  f_n is
# a polynomial in s = rho^2, rho = (1-x)/(1+x), regular at x=1, with
# f_n(0) = 1: in Pochhammer form, with p = (n-1)/2 and q = (n+5)/2,
#   f_n = a_1 s sum_{k=0}^{p+1} (k+1) (-p)_k / (q)_k s^k.


def _pochhammer(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def first_order_coeffs(n):
    """Exact coefficients (a_0 = 0, a_1, ..., a_((n+1)/2)) of f_n in s."""
    p, q = Fraction(n - 1, 2), Fraction(n + 5, 2)
    a = [Fraction(0)] + [(k + 1) * _pochhammer(-p, k) / _pochhammer(q, k) for k in range((n + 1) // 2)]
    return [c / sum(a) for c in a]


def s_taylor(coeffs, k):
    """[x^k] sum_j coeffs[j] s^j, exact: s^j = (1-x)^(2j) (1+x)^(-2j), expanded by binomials."""
    return (-1) ** k * sum(
        a * sum(comb(2 * j, i) * comb(2 * j + k - i - 1, k - i) for i in range(min(2 * j, k) + 1))
        for j, a in enumerate(coeffs)
        if j
    )


def first_order_taylor(n, k):
    """[x^k] f_n, exact."""
    return s_taylor(first_order_coeffs(n), k)


def first_order_exact(coeffs, x):
    """(f, f', f'') of sum_j coeffs[j] s^j at a rational x, exact."""
    x = Fraction(x)
    s = ((1 - x) / (1 + x)) ** 2
    ds, d2s = -4 * (1 - x) / (1 + x) ** 3, (16 - 8 * x) / (1 + x) ** 4
    g = sum(a * s**j for j, a in enumerate(coeffs))
    dg = sum(j * a * s ** (j - 1) for j, a in enumerate(coeffs) if j)
    d2g = sum(j * (j - 1) * a * s ** (j - 2) for j, a in enumerate(coeffs) if j > 1)
    return g, dg * ds, d2g * ds * ds + dg * d2s


def first_order_residual(n, coeffs, x):
    """The linearised ratio equation's residual for sum_j coeffs[j] s^j at a rational x, exact."""
    x = Fraction(x)
    f, fp, fpp = first_order_exact(coeffs, x)
    return fpp - ((n - 1) + (n + 1) * x * x) / (x * (1 - x * x)) * fp - 8 * (n + 1) / (1 - x * x) ** 2 * f


def s_values(coeffs, x):
    """(g, g') of sum_j coeffs[j] s^j at x in [0, 1], floats, from exact coefficients."""
    x = np.asarray(x, dtype=float)
    rho = (1.0 - x) / (1.0 + x)
    s = rho * rho
    g = sum(float(c) * s**j for j, c in enumerate(coeffs))
    dgds = sum(float(j * c) * s ** (j - 1) for j, c in enumerate(coeffs) if j)
    return g, dgds * (-4.0 * rho / (1.0 + x) ** 2)


def first_order(n, x):
    """(f_n, f_n') at x in [0, 1], floats, from the exact coefficients."""
    return s_values(first_order_coeffs(n), x)


# -- the second-order solution near round data ---------------------------------
#
# With y = eps Y1 + eps^2 Y2, each template equation's eps^2 coefficient is
#   Y2_u'' - x^-1 (a + b x^2)(1-x^2)^-1 Y2_u' + Y1'^T Q Y1'
#     + (1-x^2)^-2 sum_a w_a (v_a . Y2 + (v_a . Y1)^2 / 2),
# read off the family's own tables.  The SU terms (g_n in the ratio unknown,
# h_n in y1) are polynomials of degree n+1 in s that vanish at x = 1; the
# oracle finds them by collocating the phi row (with g_n(0) = 0) and eq 2 at
# rational points, in Fractions, so it shares no recurrence with the package.


def _rational(v):
    """A table entry (a float such as -1/3 or 6/5) as the exact rational it stands for."""
    return Fraction(float(v)).limit_denominator(1000)


def second_order_residual(fam, x, first, second):
    """The eps^2 coefficient of every template equation (in fam.eqs order)
    at a rational x, exact, for y = eps Y1 + eps^2 Y2 with each unknown of
    Y1 and Y2 given as its coefficients in s."""
    x = Fraction(x)
    y1 = [first_order_exact(c, x) for c in first]
    y2 = [first_order_exact(c, x) for c in second]
    out = []
    for i, eq in enumerate(fam.eqs):
        u = eq.unknown
        a, b = map(_rational, fam.sing[i])
        r = y2[u][2] - (a + b * x * x) / (x * (1 - x * x)) * y2[u][1]
        r += sum(_rational(eq.quad[p, q]) * y1[p][1] * y1[q][1] for p in range(fam.m) for q in range(fam.m))
        if eq.src is not None:
            for w, v in zip(*eq.src):
                v2 = sum(_rational(c) * t[0] for c, t in zip(v, y2))
                v1 = sum(_rational(c) * t[0] for c, t in zip(v, y1))
                r += _rational(w) * (v2 + v1 * v1 / 2) / (1 - x * x) ** 2
        out.append(r)
    return out


def _solve_exact(rows, rhs):
    """x with rows @ x = rhs, by Gaussian elimination in Fractions."""
    n = len(rhs)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for k in range(n):
        p = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[p] = aug[p], aug[k]
        for i in range(k + 1, n):
            t = aug[i][k] / aug[k][k]
            aug[i] = [a - t * c for a, c in zip(aug[i], aug[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (aug[k][n] - sum(aug[k][j] * x[j] for j in range(k + 1, n))) / aug[k][k]
    return x


def second_order_coeffs(n):
    """Exact coefficients in s of (g_n, h_n), each (c_0 = 0, c_1, ..., c_(n+1))."""
    fam = family(SU, n)
    zero, f = [Fraction(0)], first_order_coeffs(n)
    xs = [Fraction(k, n + 2) - Fraction(1, 1000) for k in range(1, n + 2)]
    basis = [[Fraction(0)] * j + [Fraction(1)] for j in range(1, n + 2)]
    terms = []
    for unknown, row in ((1, 1), (0, fam.m)):  # g_n from the phi row, h_n from eq 2

        def eps2(x, first, c):
            second = [c, zero] if unknown == 0 else [zero, c]
            return second_order_residual(fam, x, first, second)[row]

        rows = [[eps2(x, [zero, zero], c) for c in basis] for x in xs]
        rhs = [-eps2(x, [zero, f], zero) for x in xs]
        if unknown == 1:  # g_n(0) = g_n(s = 1) = 0 replaces the last point
            rows[-1], rhs[-1] = [Fraction(1)] * (n + 1), Fraction(0)
        terms.append([Fraction(0)] + _solve_exact(rows, rhs))
    return tuple(terms)
