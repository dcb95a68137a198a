"""Evaluator tests against independent oracles.

Expected numbers are frozen from direct term-by-term evaluation of the
closed-form expressions (oracles written here, not via the package code).
"""

import re

import numpy as np
import pytest

from ccebvp import systems as S
from ccebvp.systems import (
    GBERGER,
    SU,
    BoundaryData,
    DomainError,
    SystemKind,
    UsageError,
    family,
)

import oracles
from oracles import InfeasibleStateError, constraint_jacobian, upsilon, y1prime_closed_form_gb


def upsilon_oracle(K, p1, p2):
    # independent term-by-term evaluation of the Upsilon formula
    return K ** (-1 / 3) * (
        2 * (p1**2 * p2) ** (1 / 3)
        + 2 * (p2 / p1) ** (1 / 3)
        + 2 * (p1 * p2**2) ** (-1 / 3)
        - p1 ** (-4 / 3) * p2 ** (-2 / 3)
        - p1 ** (2 / 3) * p2 ** (-2 / 3)
        - p1 ** (2 / 3) * p2 ** (4 / 3)
    )


def state(fam, x, y=None, yp=None, ypp=None):
    """Point state (x, y, y', y''), zero where not given."""
    z = np.zeros(fam.m)
    return x, z if y is None else y, z if yp is None else yp, z if ypp is None else ypp


def stacked_jacobian(fam, x, y, yp, ypp):
    """Partials of (evo rows, constraint) w.r.t. (y, yp, ypp): shape (m+1, 3, m),
    row r, block b (0=y, 1=yp, 2=ypp).  The evaluators return the (y, yp)
    partials; the ypp block is what they leave implicit: the identity for
    the evolution rows (each is y_u'' plus terms in (x, y, y')) and zero for
    the constraint."""
    evo = np.stack([*S.evo_jacobian(fam, x, y, yp), np.eye(fam.m)], axis=1)
    con = np.stack([*constraint_jacobian(fam, x, y, yp), np.zeros(fam.m)])
    return np.concatenate([evo, con[None]])


class TestUpsilon:
    def test_round(self):
        assert upsilon(1.0, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_tabulated(self):
        # (1,1,8) -> -8 and (8,1,1) -> 1.5, plus random cross-checks
        assert upsilon(1.0, 1.0, 8.0) == pytest.approx(-8.0, abs=1e-12)
        assert upsilon(8.0, 1.0, 1.0) == pytest.approx(1.5, abs=1e-12)
        rng = np.random.RandomState(7)
        for _ in range(25):
            K, p1, p2 = np.exp(rng.uniform(-1, 1, 3))
            assert upsilon(K, p1, p2) == pytest.approx(upsilon_oracle(K, p1, p2), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            upsilon(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            upsilon(1.0, 0.0, 1.0)


class TestZeroState:
    @pytest.mark.parametrize(
        "kind,n", [(GBERGER, 3), (SU, 3), (SU, 5), (SU, 7)]
    )
    def test_zero_state_is_root(self, kind, n):
        fam = family(kind, n)
        for x in (1e-5, 0.3, 0.5, 0.9, 1.0 - 1e-5):
            s = state(fam, x)
            evo = S.evo_residuals(fam, *s)
            con = S.constraint_residual(fam, *s[:3])
            assert np.all(evo == 0.0)
            assert con == 0.0


class TestGBerger:
    def test_constraint_plugin(self):
        # y1'=1, rest zero, x=1/2: Phi = 1 - 12*2*(5/4)*(4/3) = -39
        fam = family(GBERGER, 3)
        s = state(fam, 0.5, yp=np.array([1.0, 0.0, 0.0]))
        assert S.constraint_residual(fam, *s[:3]) == pytest.approx(-39.0, abs=1e-12)

    def test_polynomial_probe(self):
        # y1 = c x^2 near x=0: eq-1 residual = (-8c + 2c^2/3) x^2 - 8c x^4 + O(x^6)
        c = 1.7
        fam = family(GBERGER, 3)
        for x in (0.02, 0.04):
            s = state(
                fam,
                x,
                y=np.array([c * x * x, 0, 0]),
                yp=np.array([2 * c * x, 0, 0]),
                ypp=np.array([2 * c, 0, 0]),
            )
            r = S.evo_residuals(fam, *s)[0]
            oracle = (-8 * c + 2 * c * c / 3) * x * x - 8 * c * x**4
            assert r == pytest.approx(oracle, abs=40 * c * x**6)

    def test_relabel_equivariance(self):
        # (y2,y3) -> (y2+y3,-y3) maps residuals onto (evo2+evo3, -evo3),
        # fixing evo1 and the constraint
        fam = family(GBERGER, 3)
        rng = np.random.RandomState(3)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            y, yp, ypp = rng.uniform(-0.5, 0.5, (3, 3))
            P = np.array([[1, 0, 0], [0, 1, 1], [0, 0, -1]])
            s = state(fam, x, y, yp, ypp)
            t = state(fam, x, P @ y, P @ yp, P @ ypp)
            r, rt = S.evo_residuals(fam, *s), S.evo_residuals(fam, *t)
            assert rt[0] == pytest.approx(r[0], rel=1e-12, abs=1e-12)
            assert rt[1] == pytest.approx(r[1] + r[2], rel=1e-12, abs=1e-12)
            assert rt[2] == pytest.approx(-r[2], rel=1e-12, abs=1e-12)
            c, ct = S.constraint_residual(fam, *s[:3]), S.constraint_residual(fam, *t[:3])
            assert ct == pytest.approx(c, rel=1e-12, abs=1e-12)


class TestSU:
    def test_source_examples(self):
        # x=1/2, y=(0, log 2), derivatives zero, n=3: the sources times (1-x^2)^-2 = 16/9
        fam = family(SU, 3)
        s = state(fam, 0.5, y=np.array([0.0, np.log(2.0)]))
        r = S.evo_residuals(fam, *s)
        evo2_oracle = 16 / 9 * 32.0 * 2 ** (-1 / 3) * (0.5 - 1.0)
        evo1_oracle = 16 / 9 * 16.0 * (3.0 - 4.0 * 2 ** (-1 / 3) + 2 ** (-4 / 3))
        assert r[1] == pytest.approx(evo2_oracle, rel=1e-13)
        assert r[0] == pytest.approx(evo1_oracle, rel=1e-13)

    def test_bad_n(self):
        with pytest.raises(UsageError):
            family(SU, 4)
        with pytest.raises(UsageError):
            family(SU, 1)

    def test_constraint_propagation_identity(self):
        # Phi == (2n/(n-1)) * (E2 - E1) pointwise, every family
        rng = np.random.RandomState(11)
        for kind, n in ((GBERGER, 3), (SU, 5)):
            fam = family(kind, n)
            for _ in range(10):
                x = rng.uniform(0.05, 0.95)
                y, yp, ypp = rng.uniform(-0.4, 0.4, (3, fam.m))
                e1 = S.equation_residual(fam, 0, x, y, yp, ypp)
                e2 = S.equation_residual(fam, fam.m, x, y, yp, ypp)
                phi = S.constraint_residual(fam, x, y, yp)
                assert phi == pytest.approx(2 * n / (n - 1) * (e2 - e1), rel=1e-11, abs=1e-11)


def singular_coeff(a, b, x):
    return (a + b * x * x) / (x * (1 - x * x))


def template_oracles(kind, n):
    """Term-by-term residual of each template equation, indexed as
    Family.eqs: eq 1, the phi equations, eq 2."""

    def su(x, y, yp, ypp):
        K, phi = np.exp(y)
        s = (1 - x * x) ** -2
        return [
            ypp[0] - singular_coeff(1, 3, x) * yp[0] + yp[0] ** 2 / (2 * n) + (n - 1) / (2 * n) * yp[1] ** 2,
            ypp[1] - singular_coeff(n - 1, n + 1, x) * yp[1] + 0.5 * yp[0] * yp[1]
            + s * 8 * (n + 1) * K ** (-1 / n) * (phi ** (-(n + 1) / n) - phi ** (-1 / n)),
            ypp[0] - singular_coeff(2 * n - 1, 2 * n + 1, x) * yp[0] + 0.5 * yp[0] ** 2
            + s * 8 * (n - 1) * (n - (n + 1) * (K * phi) ** (-1 / n) + K ** (-1 / n) * phi ** (-(n + 1) / n)),
        ]

    def gberger(x, y, yp, ypp):
        K, p1, p2 = np.exp(y)
        s = (1 - x * x) ** -2
        c = 32 * s * K ** (-1 / 3)
        return [
            ypp[0] - singular_coeff(1, 3, x) * yp[0] + yp[0] ** 2 / 6 + (yp[1] ** 2 + yp[1] * yp[2] + yp[2] ** 2) / 3,
            ypp[1] - singular_coeff(2, 4, x) * yp[1] + 0.5 * yp[0] * yp[1]
            + c * ((p1 * p1 * p2) ** (1 / 3) - (p2 / p1) ** (1 / 3) - (p1 / p2) ** (2 / 3) + (p1 * p1 * p2) ** (-2 / 3)),
            ypp[2] - singular_coeff(2, 4, x) * yp[2] + 0.5 * yp[0] * yp[2]
            + c * ((p2 / p1) ** (1 / 3) - (p1 * p2 * p2) ** (-1 / 3) - (p1 * p1 * p2 ** 4) ** (1 / 3) + (p1 / p2) ** (2 / 3)),
            ypp[0] - singular_coeff(5, 7, x) * yp[0] + 0.5 * yp[0] ** 2 + s * 16 * (3 - upsilon_oracle(K, p1, p2)),
        ]

    return gberger if kind == GBERGER else su


class TestTemplateEquations:
    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 3), (SU, 5), (SU, 7)])
    def test_every_equation_matches_its_oracle(self, kind, n):
        fam = family(kind, n)
        oracle = template_oracles(kind, n)
        rng = np.random.RandomState(n)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            y, yp, ypp = rng.uniform(-0.5, 0.5, (3, fam.m))
            want = oracle(x, y, yp, ypp)
            assert len(want) == len(fam.eqs) == fam.m + 1
            for i, w in enumerate(want):
                assert S.equation_residual(fam, i, x, y, yp, ypp) == pytest.approx(w, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 5)])
    def test_evolution_rows(self, kind, n):
        # row 0 is eq 1 on gberger and eq 2 on SU; rows 1..m-1 the phi equations
        fam = family(kind, n)
        first = 0 if kind == GBERGER else fam.m
        assert fam.evo_rows == (first, *range(1, fam.m))
        rng = np.random.RandomState(5)
        x = rng.uniform(0.05, 0.95, 7)
        y, yp, ypp = rng.uniform(-0.5, 0.5, (3, 7, fam.m))
        evo = S.evo_residuals(fam, x, y, yp, ypp)
        for r, i in enumerate(fam.evo_rows):
            assert np.array_equal(evo[:, r], S.equation_residual(fam, i, x, y, yp, ypp))


class TestLayout:
    """The evaluators read (..., m) arrays in any memory layout: C-ordered, or
    the transposed views of unknown-major arrays that the assembly passes."""

    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 3), (SU, 5), (SU, 7)])
    def test_layout_proof(self, kind, n):
        fam = family(kind, n)
        rng = np.random.RandomState(11)
        x = rng.uniform(0.05, 0.95, 40)
        views = list(rng.uniform(-0.5, 0.5, (3, fam.m, 40)).copy())  # unknown-major, then viewed as (40, m)
        views = [a.T for a in views]
        c_ordered = [np.ascontiguousarray(a) for a in views]
        assert not views[0].flags.c_contiguous and c_ordered[0].flags.c_contiguous
        assert np.array_equal(S.evo_residuals(fam, x, *views), S.evo_residuals(fam, x, *c_ordered))
        for a, b in zip(S.evo_jacobian(fam, x, *views[:2]), S.evo_jacobian(fam, x, *c_ordered[:2])):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 3), (SU, 5), (SU, 7)])
    def test_rows_are_the_readable_rows(self, kind, n):
        # each stacked row is its template equation alone, bit for bit (the
        # y'' that cce export derives and the first integral's source term
        # depend on it); the partials agree to roundoff
        fam = family(kind, n)
        rng = np.random.RandomState(13)
        x = rng.uniform(0.05, 0.95, 40)
        y, yp, ypp = rng.uniform(-0.5, 0.5, (3, 40, fam.m))
        assert np.array_equal(S.evo_residuals(fam, x, y, yp, ypp), oracles.evo_residuals(fam, x, y, yp, ypp))
        for i in range(fam.m + 1):
            assert np.array_equal(S.equation_residual(fam, i, x, y, yp, ypp),
                                  oracles.equation_residual(fam, i, x, y, yp, ypp))
        for a, b in zip(S.evo_jacobian(fam, x, y, yp), oracles.evo_jacobian(fam, x, y, yp)):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.abs(b).max())


class TestConservation:
    # The Sp(k+1)-invariant system, once part of this package, failed this
    # check: its relative rate was 1.06 at n = 7 and 0.70 at n = 11, so its
    # first integral was not a first integral of its own equations.
    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 3), (SU, 5), (SU, 7), (SU, 9)])
    def test_first_integral_is_conserved(self, kind, n):
        # on Phi = 0 with the evolution rows solved for y'', dPhi/dx vanishes
        fam = family(kind, n)
        rng = np.random.RandomState(17)
        h = 1e-5
        rates = []
        for _ in range(50):
            x = rng.uniform(0.05, 0.95)
            y, yp = rng.uniform(-0.5, 0.5, (2, fam.m))
            zero = np.zeros(fam.m)
            # Phi = (y1')^2 + b y1' + c: take the minus root of Phi = 0
            yp[0] = 0.0
            c = S.constraint_residual(fam, x, y, yp)
            b = constraint_jacobian(fam, x, y, yp)[1][0]
            disc = b * b - 4.0 * c
            if disc < 0:
                continue
            yp[0] = (-b - np.sqrt(disc)) / 2.0
            # each evolution row is y_u'' plus terms in (x, y, y')
            ypp = -S.evo_residuals(fam, x, y, yp, zero)
            cy, cyp = constraint_jacobian(fam, x, y, yp)
            dx = (S.constraint_residual(fam, x + h, y, yp) - S.constraint_residual(fam, x - h, y, yp)) / (2 * h)
            along_y, along_yp = cy @ yp, cyp @ ypp
            rates.append(abs(dx + along_y + along_yp) / (1.0 + abs(along_y) + abs(along_yp)))
        assert len(rates) >= 25
        assert max(rates) <= 1e-6


class TestClosedForm:
    def test_trivial_zero(self):
        assert y1prime_closed_form_gb(0.5, 0.0, 0.0, 3.0) == pytest.approx(0.0, abs=1e-14)

    def test_small_x_limit(self):
        # bounded yp2, yp3 and fixed ups: y1' -> 0 as x -> 0+
        vals = [y1prime_closed_form_gb(x, 0.3, -0.2, 2.9) for x in (1e-3, 1e-4, 1e-5)]
        assert abs(vals[-1]) < 1e-4
        assert abs(vals[-1]) < abs(vals[0])

    def test_direct_evaluation(self):
        # oracle: explicit evaluation of the quoted formula
        x, yp2, yp3, ups = 0.5, 1.0, 0.0, 3.0
        rad = (1 + x * x) ** 2 + x * x * (1 - x * x) ** 2 * (yp2**2 + yp2 * yp3 + yp3**2) / 36.0
        oracle = 6.0 / (x * (1 - x * x)) * (1 + x * x - np.sqrt(rad))
        assert y1prime_closed_form_gb(x, yp2, yp3, ups) == pytest.approx(oracle, rel=1e-14)

    def test_infeasible(self):
        # 3 - ups large positive drives the radicand negative
        with pytest.raises(InfeasibleStateError):
            y1prime_closed_form_gb(0.5, 0.0, 0.0, -100.0)


class TestJacobian:
    @pytest.mark.parametrize("kind,n", [(GBERGER, 3), (SU, 5)])
    def test_matches_central_differences(self, kind, n):
        fam = family(kind, n)
        rng = np.random.RandomState(13)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0.05, 0.95)
            y, yp, ypp = rng.uniform(-0.5, 0.5, (3, fam.m))
            jac = stacked_jacobian(fam, x, y, yp, ypp)

            def full(yv, ypv, yppv):
                r = S.evo_residuals(fam, x, yv, ypv, yppv)
                c = S.constraint_residual(fam, x, yv, ypv)
                return np.append(r, c)

            fd = np.zeros_like(jac)
            for b, base in enumerate((y, yp, ypp)):
                for j in range(fam.m):
                    e = np.zeros(fam.m)
                    e[j] = h
                    args = [y.copy(), yp.copy(), ypp.copy()]
                    args[b] = base + e
                    rp = full(*args)
                    args[b] = base - e
                    rm = full(*args)
                    fd[:, b, j] = (rp - rm) / (2 * h)
            scale = max(1.0, np.abs(jac).max())
            worst = max(worst, np.abs(fd - jac).max() / scale)
        assert worst <= 1e-6

    def test_tabulated_entries(self):
        # zero state, SU n=3: d evo1 / d ypp1 = 1 (coefficient of y1'')
        fam = family(SU, 3)
        jac = stacked_jacobian(fam, *state(fam, 0.5))
        assert jac[0, 2, 0] == pytest.approx(1.0, abs=1e-14)
        # zero state, gberger: d Phi / d yp1 = -12 x^-1 (1+x^2)(1-x^2)^-1
        for x in (0.3, 0.5, 0.7):
            jac = stacked_jacobian(family(GBERGER, 3), *state(family(GBERGER, 3), x))
            oracle = -12.0 / x * (1 + x * x) / (1 - x * x)
            assert jac[3, 1, 0] == pytest.approx(oracle, rel=1e-14)


class TestBoundaryData:
    def test_validation(self):
        with pytest.raises(UsageError):
            BoundaryData(SU, 4, (0.8,))
        with pytest.raises(UsageError):
            BoundaryData(GBERGER, 5, (0.9, 1.1))
        with pytest.raises(DomainError):
            BoundaryData(SU, 5, (-1.0,))
        for ratio in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                BoundaryData(SU, 5, (ratio,))
            with pytest.raises(DomainError, match="finite"):
                BoundaryData(GBERGER, 3, (0.9, ratio))
        with pytest.raises(UsageError):
            BoundaryData(SU, 5, (0.9, 1.0))

    def test_removed_family_rejected(self):
        with pytest.raises(UsageError, match=re.escape("unknown family 'sp', expected one of ('gberger', 'su')")):
            SystemKind("sp")

    def test_window_flag(self):
        assert BoundaryData(SU, 5, (1.0,)).is_round
