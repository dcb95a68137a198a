"""The solver against exact solutions and closed-form laws, not against itself.

SU n=3 has an exact filling, Pedersen's metric (tests/oracles.py); every SU
n has the x=1 coefficient law infinity_free[0] = n(lambda-1)/(n+3).  Every
solve is `solve_bvp(bd, SolveOptions())`, the default config (grid 128,
tol 1e-10, three refinement rounds).  Known gaps are strict xfails naming
their ROADMAP item and the measured error: near the window's lower edge the
origin series' fixed order n+23 truncates (item 7; order n+40 brings su3
0.5 to 1.5e-11 in y').  su7 4.0 ends `line search stalled` at 128 nodes
(item 10) and is not solved here.
"""

from functools import lru_cache

import numpy as np
import pytest

from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import SU, BoundaryData, constraint_residual, family
from oracles import Pedersen

TOL = 1e-9


@lru_cache(maxsize=None)
def solved(n, lam):
    return solve_bvp(BoundaryData(SU, n, (lam,)), SolveOptions())


@lru_cache(maxsize=None)
def pedersen_errors(lam):
    """Max nodal errors of the su3 solve at lam against Pedersen: (y, y', log K(0))."""
    prof, _ = solved(3, lam)
    exact = Pedersen(lam)
    y, yp = exact.y(prof.mesh.nodes)
    return np.abs(prof.y - y).max(), np.abs(prof.yp - yp).max(), abs(prof.k0var - exact.log_k0())


def known_gap(*values, reason):
    """A case that fails today, as a strict xfail with its ROADMAP item and measured error."""
    return pytest.param(*values, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


class TestPedersenOracle:
    """The oracle on its own: round data, the boundary limits and the first integral."""

    def test_round_metric_is_zero(self):
        y, yp = Pedersen(1.0).y(np.linspace(0.05, 0.95, 19))
        assert np.abs(y).max() <= 1e-14 and np.abs(yp).max() <= 1e-12
        assert Pedersen(1.0).log_k0() == 0.0

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.5, 3.5])
    def test_boundary_limits(self, lam):
        # y2(0) = log lambda, and y1(0) = log K(0) in closed form; y1 nears it
        # as x^2, so its limit is the Richardson extrapolation from x = 1e-3, 5e-4
        exact = Pedersen(lam)
        y, _ = exact.y(np.array([1e-6, 1e-3, 5e-4]))
        assert y[1, 0] == pytest.approx(np.log(lam), abs=TOL)
        assert (4.0 * y[0, 2] - y[0, 1]) / 3.0 == pytest.approx(exact.log_k0(), abs=TOL)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.5, 2.5, 3.5])
    def test_first_integral_vanishes(self, lam):
        x = np.linspace(0.1, 0.85, 31)
        y, yp = Pedersen(lam).y(x)
        assert np.abs(constraint_residual(family(SU, 3), x, y.T, yp.T)).max() <= 1e-11


class TestSolverMatchesPedersen:
    """su3 at the default config against Pedersen, within 1e-9."""

    @pytest.mark.parametrize("lam", [
        known_gap(0.3, reason="ROADMAP item 7: origin-series truncation, nodal y error 3.9e-5"),
        0.5, 1.5, 2.5, 3.5,
    ])
    def test_nodal_values_and_k0(self, lam):
        ey, _, ek = pedersen_errors(lam)
        assert ey <= TOL, ey
        assert ek <= TOL, ek
        assert solved(3, lam)[1].converged

    @pytest.mark.parametrize("lam", [
        known_gap(0.3, reason="ROADMAP item 7: origin-series truncation, nodal y' error 2.2e-4"),
        known_gap(0.5, reason="ROADMAP item 7: origin-series truncation, nodal y' error 2.1e-9"),
        1.5, 2.5, 3.5,
    ])
    def test_nodal_derivatives(self, lam):
        _, eyp, _ = pedersen_errors(lam)
        assert eyp <= TOL, eyp


class TestInfinityLaw:
    """A converged SU solve has infinity_free[0] = n(lambda-1)/(n+3) (ROADMAP
    items 2, 11 and 20), measured to 2.7e-12 relative or better."""

    @pytest.mark.parametrize("n, lam", [
        known_gap(3, 0.5, reason="ROADMAP item 7: origin-series truncation, relative error 7.0e-10"),
        (3, 1.5), (3, 2.5), (5, 0.8), (5, 1.6), (5, 3.0), (7, 0.6), (7, 2.0),
    ])
    def test_free_coefficient(self, n, lam):
        prof, rep = solved(n, lam)
        assert rep.converged
        law = n * (lam - 1.0) / (n + 3.0)
        assert abs(prof.infinity_free[0] / law - 1.0) <= 1e-10
