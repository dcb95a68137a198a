"""Endpoint series tests: closed-form origin identities, locality of the
nonlocal parameters, constructional boundary conditions at x=1, convergence
order of the truncation error, and the x=1 tables as a cached polynomial in
their free values."""

import copy
import dataclasses
import os

import numpy as np
import pytest

from ccebvp import series
from ccebvp import systems as S
from ccebvp.series import (
    NonlocalParams,
    SeriesCoefficients,
    evaluate_closure,
    fg_series_origin,
    seed_values,
    series_infinity,
)
from ccebvp.solver import SolveOptions, make_mesh, seed_profile
from ccebvp.systems import (
    GBERGER,
    SU,
    BoundaryData,
    DomainError,
    SeriesRecursionError,
    SystemKind,
    UsageError,
    family,
)

from oracles import (
    _eval_table,
    evaluate_series,
    first_order,
    first_order_coeffs,
    first_order_taylor,
    s_taylor,
    s_values,
    second_order_coeffs,
)

TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "series_tables.npz")


def gb_second_coeffs_oracle(k0, p1, p2):
    """Closed-form origin identities for n=3 (independent evaluation)."""
    ups0 = k0 ** (-1 / 3) * (
        2 * (p1**2 * p2) ** (1 / 3)
        + 2 * (p2 / p1) ** (1 / 3)
        + 2 * (p1 * p2**2) ** (-1 / 3)
        - p1 ** (-4 / 3) * p2 ** (-2 / 3)
        - p1 ** (2 / 3) * p2 ** (-2 / 3)
        - p1 ** (2 / 3) * p2 ** (4 / 3)
    )
    y1pp = 4.0 * (3.0 - ups0)
    y2pp = (
        32.0
        * k0 ** (-1 / 3)
        * (
            p1 ** (2 / 3) * p2 ** (1 / 3)
            - p1 ** (-1 / 3) * p2 ** (1 / 3)
            - p1 ** (2 / 3) * p2 ** (-2 / 3)
            + p1 ** (-4 / 3) * p2 ** (-2 / 3)
        )
    )
    y3pp = (
        32.0
        * k0 ** (-1 / 3)
        * (
            p1 ** (-1 / 3) * p2 ** (1 / 3)
            - p1 ** (-1 / 3) * p2 ** (-2 / 3)
            - p1 ** (2 / 3) * p2 ** (4 / 3)
            + p1 ** (2 / 3) * p2 ** (-2 / 3)
        )
    )
    return y1pp, y2pp, y3pp


class TestOrigin:
    def test_round_zero(self):
        bd = BoundaryData(GBERGER, 3, (1.0, 1.0))
        sc = fg_series_origin(bd, NonlocalParams.zeros(GBERGER), 7, log_k0=0.0)
        assert np.all(sc.table == 0.0)

    def test_gb_origin_identities(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            p1, p2, k0 = np.exp(rng.uniform(-0.3, 0.3, 3))
            bd = BoundaryData(GBERGER, 3, (p1, p2))
            sc = fg_series_origin(bd, NonlocalParams.zeros(GBERGER), 7, log_k0=np.log(k0))
            y1pp, y2pp, y3pp = gb_second_coeffs_oracle(k0, p1, p2)
            assert 2 * sc.table[0, 2] == pytest.approx(y1pp, rel=1e-11, abs=1e-11)
            assert 2 * sc.table[1, 2] == pytest.approx(y2pp, rel=1e-11, abs=1e-11)
            assert 2 * sc.table[2, 2] == pytest.approx(y3pp, rel=1e-11, abs=1e-11)

    def test_su_origin_identities(self):
        # y2''(0) = 8(n+1)/(n-2) K0^(-1/n) phi0^(-(n+1)/n) (1 - phi0)
        for n, phi0, k0 in ((5, 0.8, 0.9), (7, 1.3, 0.95), (3, 0.7, 0.8)):
            bd = BoundaryData(SU, n, (phi0,))
            sc = fg_series_origin(bd, NonlocalParams.zeros(SU), n + 4, log_k0=np.log(k0))
            y2pp = 8 * (n + 1) / (n - 2) * k0 ** (-1 / n) * phi0 ** (-(n + 1) / n) * (1 - phi0)
            assert 2 * sc.table[1, 2] == pytest.approx(y2pp, rel=1e-11)
            g0 = n - (n + 1) * (phi0 * k0) ** (-1 / n) + k0 ** (-1 / n) * phi0 ** (-(n + 1) / n)
            assert 2 * sc.table[0, 2] == pytest.approx(4 * g0, rel=1e-11, abs=1e-13)

    def test_even_below_n_and_locality(self):
        bd = BoundaryData(SU, 5, (0.8,))
        z = fg_series_origin(bd, NonlocalParams((0.0,)), 9, log_k0=0.0)
        f = fg_series_origin(bd, NonlocalParams((0.37,)), 9, log_k0=0.0)
        # odd/low coefficients vanish below order n
        for k in (1, 3):
            np.testing.assert_allclose(z.table[:, k], 0.0, atol=1e-13)
        # free parameters change nothing below order n
        np.testing.assert_allclose(z.table[:, :5], f.table[:, :5], atol=1e-13)
        assert f.table[1, 5] == pytest.approx(0.37)
        # K coefficient at order n is forced (trace-free nonlocal term)
        assert abs(f.table[0, 5]) < 1e-13

    @pytest.mark.parametrize(
        "kind,n,phi0",
        [(GBERGER, 3, (0.9, 1.1)), (SU, 5, (0.8,))],
    )
    def test_residual_convergence_order(self, kind, n, phi0):
        # The series closes {first integral, phi equations}; the remaining y1
        # equations follow by constraint propagation.
        bd = BoundaryData(kind, n, phi0)
        free = NonlocalParams(tuple(0.1 * (i + 1) for i in range(kind.free_count)))
        sc = fg_series_origin(bd, free, n + 4, log_k0=np.log(0.93))
        fam = family(kind, n)
        xs = np.array([0.08, 0.04, 0.02])
        res = []
        for x in xs:
            y, yp, ypp = evaluate_series(sc, float(x))
            evo = S.evo_residuals(fam, float(x), y, yp, ypp)
            con = S.constraint_residual(fam, float(x), y, yp)
            res.append(max(abs(con), np.abs(evo[1:]).max(), abs(evo[0])))
        res = np.array(res)
        order = np.polyfit(np.log(xs), np.log(res + 1e-300), 1)[0]
        # truncation at order P leaves residual O(x^(P-1))
        assert order > sc.order - 2.5
        assert res[-1] < res[0]

    def test_high_order_closure(self):
        # the solver leans on deep truncations: residual below 1e-12 at x=0.05
        for kind, n, phi0 in ((SU, 5, (0.6,)), (GBERGER, 3, (0.95, 1.02))):
            bd = BoundaryData(kind, n, phi0)
            free = NonlocalParams(tuple(0.2 for _ in range(kind.free_count)))
            sc = fg_series_origin(bd, free, n + 15, log_k0=np.log(0.9))
            y, yp, ypp = evaluate_series(sc, 0.05)
            fam = family(kind, n)
            evo = S.evo_residuals(fam, 0.05, y, yp, ypp)
            con = S.constraint_residual(fam, 0.05, y, yp)
            assert max(np.abs(evo).max(), abs(con)) < 5e-12

    def test_guards(self):
        bd = BoundaryData(SU, 5, (0.8,))
        with pytest.raises(UsageError):
            fg_series_origin(bd, NonlocalParams.zeros(SU), 5, log_k0=0.0)
        with pytest.raises(UsageError):
            fg_series_origin(bd, NonlocalParams((0.1, 0.2)), 9, log_k0=0.0)


@pytest.mark.parametrize("kind,n", [(SU, 3), (SU, 5), (SU, 7), (SU, 11), (SU, 13), (GBERGER, 3)])
def test_round_tables_are_exactly_zero(kind, n):
    # the integer source weights cancel exactly at y=0 inside the per-order
    # operators, also where cphi = 2n/(n-1) is not a dyadic number (n=7, 11, 13)
    bd = BoundaryData(kind, n, (1.0,) * kind.free_count)
    for tangents in (False, True):
        sc = fg_series_origin(bd, NonlocalParams.zeros(kind), n + 23, log_k0=0.0, tangents=tangents)
        si = series_infinity(kind, n, 26, tangents=tangents)
        assert np.all(sc.table == 0.0) and np.all(si.table == 0.0)


class TestInfinity:
    def test_zero_free_zero_series(self):
        sc = series_infinity(SU, 5, 6)
        assert np.all(sc.table == 0.0)

    def test_bad_order_or_free_count_rejected(self):
        with pytest.raises(UsageError, match="infinity series order must be >= 3"):
            series_infinity(SU, 5, 2)
        with pytest.raises(UsageError, match="expected 2 free infinity coefficients"):
            series_infinity(GBERGER, 3, 6, np.array([0.1]))
        with pytest.raises(UsageError, match="expected 1 free infinity coefficients"):
            series_infinity(SU, 5, 6, np.array([0.1, 0.2]))

    @pytest.mark.parametrize(
        "kind,n", [(GBERGER, 3), (SU, 5)]
    )
    def test_boundary_conditions_exact(self, kind, n):
        rng = np.random.RandomState(4)
        free = rng.uniform(-0.5, 0.5, kind.unknowns - 1)
        sc = series_infinity(kind, n, 6, free)
        y, yp, _ = evaluate_series(sc, 1.0)
        assert np.all(y == 0.0)
        assert np.all(yp == 0.0)
        # second-order coefficients of the non-K unknowns are the free values
        np.testing.assert_allclose(sc.table[1:, 2], free, atol=1e-14)

    def test_residual_convergence_order(self):
        free = np.array([0.3, -0.2])
        sc = series_infinity(GBERGER, 3, 6, free)
        fam = family(GBERGER, 3)
        us = np.array([0.04, 0.02, 0.01])
        res = []
        for u in us:
            y, yp, ypp = evaluate_series(sc, 1.0 - float(u))
            evo = S.evo_residuals(fam, 1.0 - float(u), y, yp, ypp)
            res.append(np.abs(evo).max())
        order = np.polyfit(np.log(us), np.log(np.array(res) + 1e-300), 1)[0]
        assert order > sc.order - 2.5

    def test_constraint_vanishes_on_local_family(self):
        # the first integral is automatic for the slaved K series
        for kind, n, free in ((SU, 5, [0.25]), (GBERGER, 3, [0.2, -0.1])):
            sc = series_infinity(kind, n, 6, np.asarray(free))
            fam = family(kind, n)
            for u in (0.05, 0.02):
                y, yp, _ = evaluate_series(sc, 1.0 - u)
                con = S.constraint_residual(fam, 1.0 - u, y, yp)
                assert abs(con) < 200 * u ** (sc.order - 1)

    def test_even_in_geodesic_distance(self):
        # y(x(r)) is even in r at the center: odd r-derivatives vanish
        sc = series_infinity(SU, 5, 6, np.array([0.4]))
        for r in (0.02, 0.05):
            up, um = 1.0 - np.exp(-r), 1.0 - np.exp(r)
            yp_, _, _ = _eval_table(sc.table, np.array([up]), 1.0)
            ym_, _, _ = _eval_table(sc.table, np.array([um]), 1.0)
            assert np.abs(yp_ - ym_).max() < 50 * r ** (sc.order + 1) + 1e-13


class TestEvaluate:
    def test_monomial(self):
        c = 3.3
        table = np.zeros((1, 5))
        table[0, 2] = c
        sc = SeriesCoefficients("origin", 4, table)
        y, yp, ypp = evaluate_series(sc, 0.1)
        assert y.shape == yp.shape == ypp.shape == (1,)
        assert y[0] == pytest.approx(0.01 * c, rel=1e-15)
        assert yp[0] == pytest.approx(0.2 * c, rel=1e-15)
        assert ypp[0] == pytest.approx(2.0 * c, rel=1e-15)

    def test_matches_naive_polynomial_oracle(self):
        rng = np.random.RandomState(9)
        table = rng.uniform(-1, 1, (2, 9))
        sc = SeriesCoefficients("origin", 8, table)
        x = 0.12
        got = evaluate_series(sc, x)
        for i in range(2):
            y = sum(table[i, k] * x**k for k in range(9))
            yp = sum(k * table[i, k] * x ** (k - 1) for k in range(1, 9))
            ypp = sum(k * (k - 1) * table[i, k] * x ** (k - 2) for k in range(2, 9))
            assert got[0][i] == pytest.approx(y, rel=1e-14)
            assert got[1][i] == pytest.approx(yp, rel=1e-14)
            assert got[2][i] == pytest.approx(ypp, rel=1e-14)

    @pytest.mark.parametrize("endpoint", ["origin", "infinity"])
    @pytest.mark.parametrize("kind,n,phi0", [(SU, 5, (0.6,)), (GBERGER, 3, (0.95, 1.02))])
    def test_closure_matches_separate_evaluations(self, endpoint, kind, n, phi0):
        # one pass gives bit for bit what evaluate_series and a separate
        # evaluation of the tangent tables give
        if endpoint == "origin":
            free = NonlocalParams(tuple(0.3 * (i + 1) for i in range(kind.free_count)))
            sc = fg_series_origin(BoundaryData(kind, n, phi0), free, n + 23, log_k0=-0.01, tangents=True)
            points = [(x, x, 1.0) for x in (0.1, 0.05, 0.1234567)]
        else:
            sc = series_infinity(kind, n, 26, np.linspace(-0.2, 0.1, kind.unknowns - 1), tangents=True)
            points = [(x, 1.0 - x, -1.0) for x in (0.85, 0.9, 0.8765432)]
        for x, t, dsign in points:
            y, yp, jac = evaluate_closure(sc, x)
            ys, yps, _ = evaluate_series(sc, np.array([x]))
            ty, typ, _ = _eval_table(sc.tangents, t, dsign)
            assert np.array_equal(y, ys[:, 0]) and np.array_equal(yp, yps[:, 0])
            assert np.array_equal(jac, np.concatenate([ty.T, typ.T]))

    def test_trust_radius(self):
        sc = fg_series_origin(BoundaryData(SU, 5, (0.8,)), NonlocalParams.zeros(SU), 9, log_k0=0.0)
        with pytest.raises(DomainError):
            evaluate_series(sc, 0.3)
        si = series_infinity(SU, 5, 6)
        with pytest.raises(DomainError):
            evaluate_series(si, 0.5)


class TestSeed:
    def test_round_is_zero(self):
        bd = BoundaryData(SU, 5, (1.0,))
        y, yp = seed_values(bd, np.linspace(0.05, 0.95, 11))
        assert np.all(y == 0.0) and np.all(yp == 0.0)

    def test_boundary_values(self):
        bd = BoundaryData(SU, 5, (0.8,))
        xs = np.array([0.0, 0.5, 1.0])
        y, yp = seed_values(bd, xs)
        assert y[1, 0] == pytest.approx(np.log(0.8), rel=1e-15)
        assert y[1, -1] == 0.0
        assert yp[1, 0] == 0.0 and yp[1, -1] == 0.0
        # monotone between the endpoints
        fine = np.linspace(0, 1, 200)
        yf, _ = seed_values(bd, fine)
        assert np.all(np.diff(yf[1]) >= -1e-15) or np.all(np.diff(yf[1]) <= 1e-15)

    @pytest.mark.parametrize("bd", [BoundaryData(SU, 3, (0.7,)), BoundaryData(SU, 9, (1.3,)),
                                    BoundaryData(GBERGER, 3, (0.95, 1.02))], ids=str)
    def test_first_order_solution(self, bd):
        # the eps^2 weights are even in eps, so the part of the seed odd in
        # eps is the first-order solution: each ratio row is log(phi) f_n
        # (f_3 for both gberger rows), y1 is zero, and the endpoint
        # parameters are the first-order ones
        mesh = make_mesh(32)
        eps = np.log(bd.phi0)
        flip = dataclasses.replace(bd, phi0=tuple(np.exp(-eps)))
        (y, yp), (ym, ypm) = seed_values(bd, mesh.nodes), seed_values(flip, mesh.nodes)
        f, fp = first_order(bd.n, mesh.nodes)
        odd = lambda a, b: (a - b) / 2.0  # noqa: E731
        for got, want in ((odd(y, ym), np.outer(eps, f)), (odd(yp, ypm), np.outer(eps, fp))):
            assert np.abs(got[0]).max() <= 1e-16
            assert np.allclose(got[1:], want, rtol=1e-14, atol=1e-16)
        prof, profm = seed_profile(bd, mesh, SolveOptions()), seed_profile(flip, mesh, SolveOptions())
        assert abs(odd(prof.k0var, profm.k0var)) <= 1e-16
        free = odd(np.array(prof.free.coeffs), np.array(profm.free.coeffs))
        assert free == pytest.approx(float(first_order_taylor(bd.n, bd.n)) * eps, rel=1e-14)
        inf = odd(np.asarray(prof.infinity_free), np.asarray(profm.infinity_free))
        assert inf == pytest.approx(bd.n / (bd.n + 3.0) * eps, rel=1e-14)

    @pytest.mark.parametrize("bd", [BoundaryData(SU, 3, (0.7,)), BoundaryData(SU, 9, (1.3,)),
                                    BoundaryData(GBERGER, 3, (0.95, 1.02))], ids=["su3", "su9", "gberger"])
    def test_second_order_solution(self, bd):
        # each ratio row is log(phi) f_n plus its eps^2 weight times g_n, y1
        # is its weight times h_n (the oracle's terms; SU weighs both by
        # eps^2, gberger by the quadratic forms below), and the seed profile
        # carries the matching endpoint parameters
        mesh, n = make_mesh(32), bd.n
        eps = np.log(bd.phi0)
        if bd.kind == GBERGER:
            a, b = eps
            w = np.array([a * a + a * b + b * b, a * a + 2 * a * b, -(2 * a * b + b * b)])
        else:
            w = np.full(2, eps[0] ** 2)
        g, h = second_order_coeffs(n)
        (f, fp), (gv, gp), (hv, hp) = (s_values(c, mesh.nodes) for c in (first_order_coeffs(n), g, h))
        y, yp = seed_values(bd, mesh.nodes)
        for got, want in ((y, np.vstack([w[0] * hv, np.outer(eps, f) + np.outer(w[1:], gv)])),
                          (yp, np.vstack([w[0] * hp, np.outer(eps, fp) + np.outer(w[1:], gp)]))):
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15 * np.abs(want).max())
        prof = seed_profile(bd, mesh, SolveOptions())
        assert np.array_equal(prof.y, y) and np.array_equal(prof.yp, yp)
        assert prof.k0var == pytest.approx(w[0] * float(sum(h)), rel=1e-14)
        free = float(first_order_taylor(n, n)) * eps + float(s_taylor(g, n)) * w[1:]
        assert prof.free.coeffs == pytest.approx(free, rel=1e-14)
        assert prof.infinity_free == pytest.approx(n / (n + 3) * eps + n / (2 * (n + 3)) * w[1:], rel=1e-14)

    @pytest.mark.parametrize("bd", [BoundaryData(GBERGER, 3, (3.0, 3.0)), BoundaryData(SU, 7, (0.01,)),
                                    BoundaryData(GBERGER, 3, (1e-300, 1.0)), BoundaryData(GBERGER, 3, (1.0, 1e-200))],
                             ids=["gberger-3-3", "su7-0.01", "gberger-1e-300", "gberger-1e-200"])
    def test_gate_keeps_the_first_order_seed(self, bd):
        # where some |eps| > 1 the eps^2 term would outgrow the eps term, so
        # the seed stays the first-order solution: y1 = 0 and eps f_n, with
        # its endpoint parameters, bit for bit
        assert series.second_order_weights(bd) is None
        mesh = make_mesh(32)
        law, eps = series.first_order_solution(bd.n), bd.y_boundary()
        f, fp = law(mesh.nodes)
        prof = seed_profile(bd, mesh, SolveOptions())
        assert np.all(prof.y[0] == 0.0) and np.all(prof.yp[0] == 0.0) and prof.k0var == 0.0
        assert np.array_equal(prof.y[1:], np.outer(eps, f)) and np.array_equal(prof.yp[1:], np.outer(eps, fp))
        assert prof.free.coeffs == tuple(law.origin * eps)
        assert np.array_equal(prof.infinity_free, law.infinity * eps)

    def test_gate_edge(self):
        # |eps| = 1 still takes the eps^2 term; just above it does not
        assert series.second_order_weights(BoundaryData(SU, 5, (np.exp(1.0),))) is not None
        assert series.second_order_weights(BoundaryData(SU, 5, (np.exp(-1.0 - 1e-12),))) is None

    @pytest.mark.parametrize("kind,n", [(SU, 3), (SU, 5), (SU, 9), (GBERGER, 3)])
    def test_round_profile_has_no_negative_zero(self, kind, n):
        # [x^n] f_n < 0 for n = 5, 9: a round seed still carries +0.0, as
        # NonlocalParams.zeros does
        bd = BoundaryData(kind, n, (1.0,) * kind.free_count)
        prof = seed_profile(bd, make_mesh(16), SolveOptions())
        assert not np.signbit(prof.free.coeffs).any() and not np.signbit(prof.infinity_free).any()


class TestFrozenTables:
    """The engine against tables frozen from the recompute-everything recursion
    (tests/data/make_series_tables.py), real and per complex-step column."""

    @pytest.fixture(scope="class")
    def frozen(self):
        with np.load(TABLES) as d:
            return {k: d[k] for k in d.files}

    @staticmethod
    def assert_table(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("case", ["su3", "su5", "su7", "gberger_095_102", "gberger_090_105"])
    def test_matches_frozen(self, frozen, case):
        kind, n = SystemKind(str(frozen[f"{case}/family"])), int(frozen[f"{case}/n"])
        bd = BoundaryData(kind, n, tuple(frozen[f"{case}/phi0"]))
        free = NonlocalParams(tuple(frozen[f"{case}/free"]))
        log_k0 = float(frozen[f"{case}/log_k0"])
        h = float(frozen["h"])

        plain = fg_series_origin(bd, free, n + 23, log_k0=log_k0)
        batched = fg_series_origin(bd, free, n + 23, log_k0=log_k0, tangents=True)
        assert plain.tangents is None and plain.table.dtype == float
        assert batched.table.dtype == float and batched.tangents.shape == (kind.unknowns,) + plain.table.shape
        for got in (plain.table, batched.table):
            self.assert_table(got, frozen[f"{case}/origin"])
        self.assert_table(batched.tangents, frozen[f"{case}/origin_cstep"].imag / h)

        ifree = frozen[f"{case}/infinity_free"]
        plain = series_infinity(kind, n, 26, ifree)
        batched = series_infinity(kind, n, 26, ifree, tangents=True)
        assert batched.tangents.shape == (kind.unknowns - 1,) + plain.table.shape
        for got in (plain.table, batched.table):
            self.assert_table(got, frozen[f"{case}/infinity"])
        self.assert_table(batched.tangents, frozen[f"{case}/infinity_cstep"].imag / h)

    def test_tangents_match_finite_differences(self):
        bd = BoundaryData(GBERGER, 3, (0.95, 1.02))
        free, log_k0, order, x, eps = (-3.3, 1.1), 0.01, 26, 0.1, 1e-7
        sc = fg_series_origin(bd, NonlocalParams(free), order, log_k0=log_k0, tangents=True)
        jac = evaluate_closure(sc, x)[2]
        inputs = np.array([log_k0, *free])
        for j in range(len(inputs)):
            cols = []
            for sgn in (1.0, -1.0):
                p = inputs.copy()
                p[j] += sgn * eps
                y, yp, _ = evaluate_series(fg_series_origin(bd, NonlocalParams(p[1:]), order, log_k0=p[0]), np.array([x]))
                cols.append(np.concatenate([y[:, 0], yp[:, 0]]))
            np.testing.assert_allclose(jac[:, j], (cols[0] - cols[1]) / (2 * eps), rtol=1e-6, atol=1e-6)

    def test_complex_inputs_are_rejected(self):
        # the public inputs are real; complex numbers live only inside the
        # recursion's complex-step batch
        bd, step = BoundaryData(SU, 5, (0.8,)), 1e-80j
        for value in (0.1 + step, np.complex64(0.1)):
            with pytest.raises(UsageError, match="nonlocal parameters must be real"):
                NonlocalParams((value,))
        for tangents in (False, True):
            with pytest.raises(UsageError, match="series inputs must be real"):
                fg_series_origin(bd, NonlocalParams((0.1,)), 9, log_k0=step, tangents=tangents)
            with pytest.raises(UsageError, match="free infinity coefficients must be real"):
                series_infinity(SU, 5, 26, np.array([0.25 + step]), tangents=tangents)
            with pytest.raises(UsageError, match="free infinity coefficients must be real"):
                series_infinity(GBERGER, 3, 26, [0.1, 0.0j], tangents=tangents)


def with_phi_source_weights(fam, scale):
    """A copy of fam whose first phi equation has its source weights scaled
    termwise; the table entry is replaced, fam's own is left as it was."""
    edited = copy.copy(fam)
    w, v = fam.eqs[1].src
    edited.eqs = [*fam.eqs]
    edited.eqs[1] = dataclasses.replace(fam.eqs[1], src=(w * scale, v))
    return edited


class TestRecursionErrors:
    """Hard cases for the two guards, on perturbed copies of a family."""

    @staticmethod
    def builds(monkeypatch, fam, tangents):
        monkeypatch.setattr(series, "family", lambda kind, n: fam)
        return (
            lambda: fg_series_origin(BoundaryData(SU, 5, (0.8,)), NonlocalParams((0.3,)), 9, log_k0=0.0, tangents=tangents),
            lambda: series_infinity(SU, 5, 26, np.array([0.25]), tangents=tangents),
        )

    @pytest.mark.parametrize("tangents", [False, True])
    def test_vanishing_indicial_factor(self, monkeypatch, tangents):
        # a_1 = 1 makes the origin indicial factor k(k-1-a_1) vanish at order 2 < n
        fam = copy.copy(family(SU, 5))
        fam.sing = fam.sing.copy()
        fam.sing[1, 0] = 1.0
        origin, _ = self.builds(monkeypatch, fam, tangents)
        with pytest.raises(SeriesRecursionError, match="vanishing indicial factor at order 2"):
            origin()

    @pytest.mark.parametrize("tangents", [False, True])
    def test_inconsistent_resonant_order(self, monkeypatch, tangents):
        # a 1% source weight breaks the cancellation that makes the u^2
        # coefficients at x=1 free
        fam = with_phi_source_weights(family(SU, 5), np.array([1.0, 1.01]))
        _, infinity = self.builds(monkeypatch, fam, tangents)
        with pytest.raises(SeriesRecursionError, match="inconsistent resonant order 2"):
            infinity()

    @pytest.mark.parametrize("tangents", [False, True])
    def test_consistency_recorded(self, monkeypatch, tangents):
        # a perturbation far inside the tolerance is accepted and reported: the
        # u^1 residual is half the weight change times its y2 exponent times
        # the free u^2 value
        fam = with_phi_source_weights(family(SU, 5), np.array([1.0, 1.0 + 1e-12]))
        w, v = family(SU, 5).eqs[1].src
        _, infinity = self.builds(monkeypatch, fam, tangents)
        expected = 0.5 * abs(w[1] * 1e-12 * v[1, 1]) * 0.25
        assert infinity().consistency == pytest.approx(expected, rel=1e-3)


class TestOperatorCache:
    """The per-order operators are cached by (Family object, endpoint, order)."""

    @pytest.mark.parametrize("kind,n,phi0", [(SU, 3, (1.5,)), (SU, 5, (0.6,)), (SU, 7, (0.9,)), (GBERGER, 3, (0.95, 1.02))])
    def test_truncated_builds_match(self, kind, n, phi0):
        # plain and tangent builds of both endpoints at several orders,
        # interleaved; each matches the highest-order build truncated
        bd = BoundaryData(kind, n, phi0)
        free = NonlocalParams(tuple(0.4 * (-1) ** i for i in range(kind.free_count)))
        ifree = np.linspace(-0.2, 0.15, kind.unknowns - 1)
        builds = {
            "origin": lambda order, tan: fg_series_origin(bd, free, order, log_k0=-0.01, tangents=tan),
            "infinity": lambda order, tan: series_infinity(kind, n, order, ifree, tangents=tan),
        }
        orders = {"origin": (n + 2, n + 23, n + 40), "infinity": (3, 16, 26, 40)}
        plan = [(e, order, tan) for e in orders for order in orders[e] for tan in (False, True)]
        got = {}
        for i in np.random.RandomState(n).permutation(len(plan)):
            endpoint, order, tan = plan[i]
            got[plan[i]] = builds[endpoint](order, tan)
        for (endpoint, order, tan), sc in got.items():
            top = got[endpoint, max(orders[endpoint]), tan]
            TestFrozenTables.assert_table(sc.table, top.table[:, : order + 1])
            if tan:
                TestFrozenTables.assert_table(sc.tangents, top.tangents[..., : order + 1])
            else:
                assert sc.tangents is None

    def test_second_build_reuses_operators(self, monkeypatch):
        fam = copy.copy(family(SU, 5))
        monkeypatch.setattr(series, "family", lambda kind, n: fam)
        built = []
        real = series._build_operators

        def counted(f, endpoint, order):
            built.append((endpoint, order))
            return real(f, endpoint, order)

        monkeypatch.setattr(series, "_build_operators", counted)
        bd = BoundaryData(SU, 5, (0.8,))
        for tangents in (False, True, False):
            fg_series_origin(bd, NonlocalParams((0.3,)), 12, log_k0=0.0, tangents=tangents)
            series_infinity(SU, 5, 12, np.array([0.25]), tangents=tangents)
        fg_series_origin(bd, NonlocalParams((0.3,)), 13, log_k0=0.0)
        assert built == [("origin", 12), ("infinity", 12), ("origin", 13)]

    def test_edited_copies_get_their_own_operators(self, monkeypatch):
        # copy.copy shares nothing with the cache of the family it copies:
        # an edit breaks the copy's builds, and the original's stay as they were
        bd = BoundaryData(SU, 5, (0.8,))

        def builds():
            return (
                fg_series_origin(bd, NonlocalParams((0.3,)), 9, log_k0=0.0).table,
                series_infinity(SU, 5, 26, np.array([0.25])).table,
            )

        before = builds()
        singular = copy.copy(family(SU, 5))
        singular.sing = singular.sing.copy()
        singular.sing[1, 0] = 1.0
        inconsistent = with_phi_source_weights(family(SU, 5), np.array([1.0, 1.01]))
        monkeypatch.setattr(series, "family", lambda kind, n: singular)
        with pytest.raises(SeriesRecursionError, match="vanishing indicial factor at order 2"):
            builds()
        monkeypatch.setattr(series, "family", lambda kind, n: inconsistent)
        with pytest.raises(SeriesRecursionError, match="inconsistent resonant order 2"):
            series_infinity(SU, 5, 26, np.array([0.25]))
        monkeypatch.undo()
        for got, want in zip(builds(), before):
            assert np.array_equal(got, want)


class TestOriginWorkspace:
    """The origin recursion writes into buffers built once per (Family, order,
    batch size, dtype); no call may see what an earlier one left there."""

    # (boundary data, free values, log K(0)); each is called plain and with tangents
    CALLS = [
        (BoundaryData(SU, 3, (0.5,)), (30.0,), 0.01),
        (BoundaryData(SU, 5, (0.8,)), (200.0,), -0.003),
        (BoundaryData(GBERGER, 3, (0.95, 1.02)), (-3.3, 1.1), 0.0),
    ]

    @staticmethod
    def call(bd, free, log_k0, tangents):
        sc = fg_series_origin(bd, NonlocalParams(free), bd.n + 23, log_k0=log_k0, tangents=tangents)
        return sc.table, sc.tangents, sc.consistency

    @staticmethod
    def overflow(bd, tangents):
        # a free value that a wild Newton trial can reach: the recursion
        # overflows part-way, with its buffers half filled, or, where
        # overflow does not raise, runs on and leaves them non-finite
        free = NonlocalParams((1e200,) * bd.kind.free_count)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            fg_series_origin(bd, free, bd.n + 23, 0.0, tangents=tangents)
        with np.errstate(all="ignore"):
            assert not np.isfinite(fg_series_origin(bd, free, bd.n + 23, 0.0, tangents=tangents).table).all()

    def test_calls_share_no_state(self):
        fresh = {}
        for bd, free, log_k0 in self.CALLS:
            for tangents in (False, True):
                series._origin_workspace.cache_clear()
                fresh[bd, tangents] = self.call(bd, free, log_k0, tangents)
        series._origin_workspace.cache_clear()
        for _ in range(2):
            for bd, free, log_k0 in self.CALLS + self.CALLS[::-1]:
                for tangents in (True, False):
                    table, tan, cons = self.call(bd, free, log_k0, tangents)
                    want = fresh[bd, tangents]
                    assert np.array_equal(table, want[0]) and cons == want[2]
                    assert (tan is None) == (want[1] is None) and (tan is None or np.array_equal(tan, want[1]))
                    self.overflow(bd, not tangents)
        # the returned tables are the caller's: the next call leaves them as they were
        bd, free, log_k0 = self.CALLS[1]
        table, tan, _ = self.call(bd, free, log_k0, True)
        self.call(bd, (-free[0],), 0.2, True)
        assert np.array_equal(table, fresh[bd, True][0]) and np.array_equal(tan, fresh[bd, True][1])


def direct_infinity(kind, n, order, free):
    """Table and tangent tables of the x=1 recursion itself, run on free and
    its complex-step perturbations (what series_infinity interpolates)."""
    fam = family(kind, n)
    inputs = series._batch(np.asarray(free, dtype=float), True)
    C, _ = series._solve_recursion(fam, "infinity", order, np.zeros((len(inputs), fam.m), dtype=complex), inputs)
    return series._split(C, True)


class TestInfinityPolynomial:
    """series_infinity evaluates the recursion's tables as a cached polynomial
    in the free values, one per (Family object, order, box)."""

    @pytest.mark.parametrize("kind,n", [(SU, 3), (SU, 5), (SU, 7), (GBERGER, 3)])
    def test_degree_law(self, kind, n):
        # column k of the recursion's table is a polynomial of total degree
        # k//2 in the free values: a least-squares fit holds to roundoff at
        # that degree and fails at the degree below, for every k
        from numpy.polynomial import chebyshev

        fam = family(kind, n)
        d = fam.m - 1
        z = np.random.RandomState(n + d).uniform(-1.0, 1.0, (120, d))
        tables, _ = series._solve_recursion(fam, "infinity", 26, np.zeros((len(z), fam.m)), z)

        def misfit(k, deg):
            if d == 1:
                V = chebyshev.chebvander(z[:, 0], deg)
            else:
                V = chebyshev.chebvander2d(z[:, 0], z[:, 1], [deg, deg])
                i, j = np.divmod(np.arange(V.shape[1]), deg + 1)
                V = V[:, i + j <= deg]
            vals = tables[:, :, k]
            fit = V @ np.linalg.lstsq(V, vals, rcond=None)[0]
            return np.abs(fit - vals).max() / np.abs(vals).max()

        for k in range(2, 27):
            assert misfit(k, k // 2) < 1e-12, k
            assert misfit(k, k // 2 - 1) > 1e-9, k

    @pytest.mark.parametrize(
        "kind,n,frees",
        [
            # boxes of both signs from the floor [0, 1/8] to [-2, 0], inside
            # them and at their edges 2^(j/4)
            (SU, 5, [[1e-3], [-0.05], [0.125], [-0.1251], [2.0**-1.75], [-1.001 * 2.0**-1.75], [0.2],
                     [-0.25], [0.3], [0.5], [-0.75], [1.0], [-2.0]]),
            # the admissible window: SU n=3 at (lambda-1)/2, SU n=9 up to about 6.7
            (SU, 3, [[(lam - 1.0) / 2.0] for lam in np.geomspace(0.25, 4.0, 9)]),
            (SU, 9, [[-0.66], [0.9], [3.0], [4.0], [6.675]]),
            # gberger: solves at the corners of (1/2, 2)^2 reach free values of about
            # +-1/2; other solved free values, and box edges
            (GBERGER, 3, [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5], [-0.266, 0.185],
                          [0.086, -0.262], [-0.098, -0.48], [0.341, 0.098], [0.25, 0.0], [1e-3, -2e-3]]),
        ],
    )
    def test_matches_the_recursion(self, kind, n, frees):
        # tables, tangents and the closure at the x=1 matching point, within
        # the frozen-table tolerance
        assert_table = TestFrozenTables.assert_table
        for free in map(np.array, frees):
            table, tangents = direct_infinity(kind, n, 26, free)
            plain = series_infinity(kind, n, 26, free)
            sc = series_infinity(kind, n, 26, free, tangents=True)
            assert np.array_equal(plain.table, sc.table)
            assert_table(sc.table, table)
            assert_table(sc.tangents, tangents)
            direct = SeriesCoefficients("infinity", 26, table, tangents=tangents)
            for got, want in zip(evaluate_closure(sc, 0.85), evaluate_closure(direct, 0.85)):
                assert_table(got, want)

    @staticmethod
    def fitted(kind, n, order, half):
        """A box's polynomial, the basis V at its interpolation points and the
        recursion's tables C there."""
        fam = family(kind, n)
        d, deg = fam.m - 1, order // 2
        poly = series._build_infinity_poly(fam, order, half)
        z = series._interpolation_points(d, deg)
        C, _ = series._solve_recursion(fam, "infinity", order, np.zeros((len(z), fam.m)), np.array(half) * (z + 1.0))
        V = np.array([series._chebyshev_basis(p, poly.k)[poly.rows] for p in z])
        return poly, V, C.reshape(len(z), -1)

    BOXES = [(SU, 3, (0.5,)), (SU, 5, (-0.5 * 2.0**-1.5,)), (SU, 7, (2.0**-4,)), (GBERGER, 3, (0.25, -0.5)),
             (GBERGER, 3, (-2.0**-3.75, -2.0**-3.75))]

    @pytest.mark.parametrize("kind,n,half", BOXES)
    @pytest.mark.parametrize("order", [16, 26])
    def test_fit_matches_a_dense_solve(self, kind, n, half, order):
        # the explicit interpolation formula gives the coefficients a dense
        # solve of the basis at the points gives, less those above each
        # column's degree
        poly, V, C = self.fitted(kind, n, order, half)
        degree = np.add.reduce(np.indices((order // 2 + 1,) * len(half))).reshape(-1)[poly.rows]
        dense = np.linalg.solve(V, C).reshape(len(V), -1, order + 1)
        dense = (dense * (degree[:, None, None] <= np.arange(order + 1) // 2)).reshape(len(V), -1)
        assert np.abs(poly.coef - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("kind,n,half", BOXES)
    def test_fit_reproduces_its_data(self, kind, n, half):
        poly, V, C = self.fitted(kind, n, 26, half)
        assert np.abs(V @ poly.coef - C).max() <= 1e-14 * np.abs(C).max()

    def test_second_call_in_a_box_runs_no_recursion(self, monkeypatch):
        fam = copy.copy(family(SU, 5))
        monkeypatch.setattr(series, "family", lambda kind, n: fam)
        runs = []
        real = series._solve_recursion

        def counted(*args):
            runs.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(series, "_solve_recursion", counted)
        # the box of 0.3 is [0, 2^(-6/4)]: free values in (2^(-7/4), 2^(-6/4)] share it
        for free, tangents in ((0.3, False), (0.31, True), (2.0**-1.5, False), (0.2974, True)):
            series_infinity(SU, 5, 26, np.array([free]), tangents=tangents)
        assert runs == [("infinity", 26)]
        series_infinity(SU, 5, 26, np.array([-0.3]))  # the other sign
        series_infinity(SU, 5, 26, np.array([0.36]))  # the next box
        series_infinity(SU, 5, 16, np.array([0.3]))  # another order
        assert runs == [("infinity", 26)] * 3 + [("infinity", 16)]
        # the cache keeps the _BOX_CACHE most recently used boxes over all
        # families: the box of 0.3 at order 16, built first but used again
        # before the cache fills, stays; the least recently used box is
        # rebuilt after _BOX_CACHE others
        built = []
        real_build = series._build_infinity_poly

        def build(f, order, half):
            built.append(half)
            return real_build(f, order, half)

        monkeypatch.setattr(series, "_build_infinity_poly", build)
        box = (0.5 * 2.0**-1.5,)
        others = [s * 0.9 * 2.0 ** (j / 4) for j in range(-12, 5) for s in (1.0, -1.0) if (j, s) != (-6, 1.0)]
        others = others[: series._BOX_CACHE]
        for free in (*others[:-1], 0.3, others[-1], 0.3, others[0]):
            series_infinity(SU, 5, 16, np.array([free]))
        assert len(set(built)) == len(built) - 1 == series._BOX_CACHE
        assert box not in built and built[-1] == built[0]

    @pytest.mark.parametrize(
        "kind,n,free",
        [(SU, 5, [np.inf]), (SU, 5, [-np.inf]), (SU, 5, [np.nan]), (SU, 3, [np.inf]),
         (GBERGER, 3, [np.nan, 0.1]), (GBERGER, 3, [0.1, -np.inf])],
    )
    @pytest.mark.parametrize("tangents", [False, True])
    def test_non_finite_free_values_build_nothing(self, monkeypatch, kind, n, free, tangents):
        # rejected as the recursion rejects them, by SeriesRecursionError or a
        # non-finite table, and no box is built
        def outcome(build):
            try:
                return "finite" if np.isfinite(build()).all() else "non-finite"
            except SeriesRecursionError:
                return "raised"

        fam = copy.copy(family(kind, n))
        monkeypatch.setattr(series, "family", lambda kind, n: fam)
        built = []
        monkeypatch.setattr(series, "_build_infinity_poly", lambda *args: built.append(args))
        with np.errstate(invalid="ignore", over="ignore"):
            direct = outcome(lambda: series._solve_recursion(fam, "infinity", 26, np.zeros((1, fam.m)), np.array([free]))[0])
            sc = lambda: series_infinity(kind, n, 26, np.array(free), tangents=tangents)
            got = outcome(lambda: sc().table)
            if tangents and got == "non-finite":
                assert outcome(lambda: sc().tangents) == "non-finite"
        assert got == direct != "finite"
        assert built == []
