"""Structure-constant tables against tabulated literal values and the Lie-bracket
route as an independent oracle for the theta-derivatives."""

import numpy as np
import pytest

from ccebvp.structure import (
    StructureConstants,
    slice_structure,
    structure_from_frame,
    su3_frame,
)
from ccebvp.systems import UsageError

from oracles import SU3_BRACKETS


def test_su3_c_table_literals():
    C = slice_structure(5).C  # classical table for this frame
    expected = {
        (1, 2, 3): -0.5,
        (1, 3, 2): 0.5,
        (1, 4, 5): -0.5,
        (1, 5, 4): 0.5,
        (2, 1, 3): 1.0,
        (2, 3, 1): -1.0,
        (3, 1, 2): -1.0,
        (3, 2, 1): 1.0,
        (4, 1, 5): 1.0,
        (5, 1, 4): -1.0,
        (5, 4, 1): 1.0,
        (4, 5, 1): -1.0,
    }
    for (i, j, p), v in expected.items():
        assert C[i - 1, j - 1, p - 1] == pytest.approx(v, abs=1e-14)
    mask = np.ones_like(C, dtype=bool)
    for (i, j, p) in expected:
        mask[i - 1, j - 1, p - 1] = False
    assert np.abs(C[mask]).max() < 1e-14


@pytest.mark.parametrize("n", [3, 5])
def test_t_antisymmetry(n):
    sc = slice_structure(n)
    # T is built as C - C^t, and IEEE subtraction makes it exactly antisymmetric
    assert np.array_equal(sc.T, -sc.T.swapaxes(0, 1))
    sc.validate()


def test_antisymmetry_guard():
    sc = slice_structure(5)
    bad = StructureConstants(sc.name, sc.dim, sc.C, sc.dC, sc.T.copy(), sc.dT)
    bad.T[0, 1, 2] += 0.1
    with pytest.raises(UsageError):
        bad.validate()


def test_dT_against_bracket_route():
    """The Lie brackets of the S^5 frame give T and dT independently."""
    frame = su3_frame()
    sc = slice_structure(5)
    d = 5
    X0 = frame.sq  # (8, 5): values at the base point
    lin = frame.lin  # (8, 5, 5): d_s X_a^p = lin[a, p, s]
    Z = np.linalg.inv(X0[:d])
    alpha = np.zeros((5, 5, 8))  # brackets of the tangent fields, images in all 8
    for (c, b), terms in SU3_BRACKETS.items():
        for a, v in terms.items():
            alpha[c - 1, b - 1, a - 1] = v
            alpha[b - 1, c - 1, a - 1] = -v
    # T_ij^p = -alpha_cba Z_i^c Z_j^b X_a^p
    T = -np.einsum("cba,ic,jb,ap->ijp", alpha, Z, Z, X0)
    np.testing.assert_allclose(T, sc.T, atol=1e-13)
    # dT_sij^p = alpha_cba (C_is^q Z_q^c Z_j^b X_a^p + Z_i^c C_js^q Z_q^b X_a^p)
    #            - alpha_cba Z_i^c Z_j^b d_s X_a^p
    dT = (
        np.einsum("cba,isq,qc,jb,ap->sijp", alpha, sc.C, Z, Z, X0)
        + np.einsum("cba,ic,jsq,qb,ap->sijp", alpha, Z, sc.C, Z, X0)
        - np.einsum("cba,ic,jb,aps->sijp", alpha, Z, Z, lin)
    )
    np.testing.assert_allclose(dT, sc.dT, atol=1e-13)


def test_unknown_dimension():
    with pytest.raises(UsageError):
        slice_structure(7)
