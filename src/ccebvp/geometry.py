"""Metric reconstruction and curvature computations.

The solution profile's log variables are converted to the slice components
I_i(x); warped radii a_i = sinh(r) sqrt(I_i) give the radial sectional
curvatures K0_i = -(d^2 a_i/dr^2)/a_i exactly, and tangential plane
curvatures come from the slice's intrinsic sectional curvatures through the
Gauss equation.  The intrinsic curvatures are closed forms in the I_i: the
Berger-sphere formulas (O'Neill's, for the canonical variation of the Hopf
fibration) on the SU slices and Milnor's left-invariant formula on the
generalized Berger S^3.  The structure-constant assembly of the full slice
Riemann tensor (riemann_from_structure) is kept as their oracle.
curvature_samples returns every monitored plane at every node as one
(plane x node) array with its node x and plane names.
r-derivatives always use the chain rule dx/dr = -x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import StructureConstants
from .systems import BoundaryData, DomainError, UsageError


class InfeasibleProfileError(DomainError):
    """Profile produced non-finite metric components."""


def log_component_matrix(bd: BoundaryData) -> np.ndarray:
    """Matrix W with log I = W y for the distinct slice directions."""
    if bd.kind.family == "gberger":
        return np.array([[1.0, -2.0, -1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 2.0]]) / 3.0
    n = bd.n
    return np.array([[1.0, 1.0 - n], [1.0, 1.0]]) / n


def direction_multiplicities(bd: BoundaryData) -> np.ndarray:
    if bd.kind.family == "gberger":
        return np.array([1, 1, 1])
    return np.array([1, bd.n - 1])


@dataclass
class MetricProfile:
    """Distinct slice components I_i(x) with x-derivatives of log I_i."""

    bd: BoundaryData
    x: np.ndarray  # (N,)
    I: np.ndarray  # (ndistinct, N)
    L: np.ndarray
    Lp: np.ndarray
    Lpp: np.ndarray

    @property
    def multiplicities(self):
        return direction_multiplicities(self.bd)

    def a_log_deriv_r(self):
        """(a_i'/a_i) in r at every node: coth(r) - x L'/2."""
        coth = (1.0 + self.x**2) / (1.0 - self.x**2)
        return coth[None, :] - self.x[None, :] * self.Lp / 2.0


def reconstruct_metric(profile) -> MetricProfile:
    """I_i, warped radii data and log-derivatives from a solution profile."""
    bd = profile.bd
    W = log_component_matrix(bd)
    L = W @ profile.y
    Lp = W @ profile.yp
    Lpp = W @ profile.ypp
    with np.errstate(over="raise"):
        try:
            I = np.exp(L)
        except FloatingPointError as e:
            raise InfeasibleProfileError("metric components overflow") from e
    if not np.all(np.isfinite(I)):
        raise InfeasibleProfileError("non-finite metric components")
    return MetricProfile(bd, profile.mesh.nodes.copy(), I, L, Lp, Lpp)


def radial_sectional_all(mp: MetricProfile) -> np.ndarray:
    """K0_i = -(a_i''/a_i) in r for every distinct direction, all nodes."""
    x, Lp, Lpp = mp.x, mp.Lp, mp.Lpp
    coth = (1.0 + x * x) / (1.0 - x * x)
    return (
        -1.0
        - (x * x * Lpp + x * Lp) / 2.0
        + (x * coth) * Lp
        - (x * Lp) ** 2 / 4.0
    )


@dataclass
class SliceCurvature:
    """Curvature data of one homogeneous slice at the base point."""

    ricci: np.ndarray  # from the invariant-frame R_ij formula
    ricci_riemann: np.ndarray  # contracted from the assembled Riemann tensor
    sectional: np.ndarray  # (n, n), coordinate-plane sectional curvatures


def riemann_from_structure(sc: StructureConstants, h: np.ndarray) -> SliceCurvature:
    """Slice curvature at the base point from (C, T, dT) and diagonal metric h.

    The Ricci tensor is assembled with the invariant-frame homogeneous-space
    formula; the full Riemann tensor comes from the Christoffel symbols and
    their theta-derivatives, giving the coordinate-plane sectional curvatures.
    This is the oracle for the closed forms of slice_sectional.
    """
    sc.validate()
    d = sc.dim
    h = np.asarray(h, dtype=float)
    if h.shape != (d,) or np.any(h <= 0):
        raise UsageError(f"need {d} positive diagonal metric entries")
    ric = _ricci_invariant_frame(sc.C, sc.T, sc.dT, np.diag(h), np.diag(1.0 / h))
    Rup = _riemann_up(sc.C, sc.dC, h)
    return SliceCurvature(ric, np.einsum("ijki->jk", Rup), _sectional(Rup, h))


def _riemann_up(C, dC, h):
    """Rup[i, j, k, l], the components of R(d_i, d_j)d_k, for the diagonal metric h."""
    Gam, dGam = _christoffels(C, dC, h)
    # dGam[s,i,j,p] = d_s Gam_ij^p;  R(d_i,d_j)d_k has components
    # Rup[i,j,k,l] = d_i Gam_jk^l - d_j Gam_ik^l + Gam_ie^l Gam_jk^e - Gam_je^l Gam_ik^e
    return (
        dGam
        - np.swapaxes(dGam, 0, 1)
        + np.einsum("iel,jke->ijkl", Gam, Gam)
        - np.einsum("jel,ike->ijkl", Gam, Gam)
    )


def _sectional(Rup, h):
    """Coordinate-plane sectional curvatures R_ijji / (h_i h_j), with R_ijji = Rup[i,j,j,i] h_i."""
    hi, hj = h[:, None], h[None, :]
    return np.einsum("ijji->ij", Rup) * hi / (hi * hj)


def _christoffels(C, dC, h):
    """Gam[i, j, p] = Gam_ij^p and dGam[s, i, j, p] = d_s Gam_ij^p for the
    diagonal metric h; a contraction with g or g^-1 picks one term, so it is
    a product with h or 1/h."""
    hinv = 1.0 / h
    hi = h[:, None, None]  # h on the first of three axes
    hj = h[None, :, None]  # on the second
    hk = h[None, None, :]  # on the third
    Ct = C.transpose(0, 2, 1)
    # dg[q, i, j] = d_q g_ij = -C_qi^m g_mj - C_qj^m g_mi
    dg = -(C * hk) - Ct * hj
    dginv = -(hinv[None, :, None] * dg) * hinv[None, None, :]
    sym = -(C + C.transpose(1, 0, 2))  # -(C_ij^p + C_ji^p)
    # inner[i, j, q] = -C_iq^m g_mj - C_jq^m g_mi + C_qi^m g_mj + C_qj^m g_mi
    inner = -(Ct * hj) - C.transpose(2, 0, 1) * hi + C.transpose(1, 2, 0) * hj + C.transpose(2, 1, 0) * hi
    Gam = 0.5 * (sym + hinv * inner)
    # derivative: product rule through dC and dg
    dsym = -(dC + dC.transpose(0, 2, 1, 3))
    dinner = (
        -(dC.transpose(0, 1, 3, 2) * hj)
        - np.einsum("iqm,smj->sijq", C, dg)
        - dC.transpose(0, 3, 1, 2) * hi
        - np.einsum("jqm,smi->sijq", C, dg)
        + dC.transpose(0, 2, 3, 1) * hj
        + np.einsum("qim,smj->sijq", C, dg)
        + dC.transpose(0, 3, 2, 1) * hi
        + np.einsum("qjm,smi->sijq", C, dg)
    )
    dGam = 0.5 * (dsym + np.einsum("spq,ijq->sijp", dginv, inner) + hinv * dinner)
    return Gam, dGam


def _ricci_invariant_frame(C, T, dT, g, ginv):
    """Homogeneous-slice Ricci from the frame data (C, T, dT), term by term."""
    trC = np.einsum("qpp->q", C)
    trT = np.einsum("psp->s", T)
    t1 = 0.5 * (
        np.einsum("pijp->ij", dT)
        + np.einsum("ipq,qjp->ij", C, T)
        + np.einsum("qjp,ipq->ij", C, T)
        + np.einsum("q,jiq->ij", trC, T)
    )
    B = (
        dT
        + np.einsum("ips,sqm->piqm", C, T)
        + np.einsum("pqs,ism->piqm", C, T)
        - np.einsum("psm,iqs->piqm", C, T)
    )
    t2 = -0.5 * np.einsum("pq,piqm,mj->ij", ginv, B, g)
    t3 = -0.5 * np.einsum("pq,pjqm,mi->ij", ginv, B, g)
    t4 = 0.25 * np.einsum("pis,sjp->ij", T, T)
    t5 = -0.25 * np.einsum("pq,pis,sqm,mj->ij", ginv, T, T, g)
    t6 = -0.25 * np.einsum("pq,pjs,sqm,mi->ij", ginv, T, T, g)
    t7 = -0.5 * np.einsum("sq,s,iqm,mj->ij", ginv, trT, T, g)
    t8 = -0.5 * np.einsum("sq,s,jqm,mi->ij", ginv, trT, T, g)
    t9 = 0.25 * np.einsum("pq,pjs,iqm,sm->ij", ginv, T, T, g)
    t10 = 0.25 * np.einsum("pq,pis,jqm,sm->ij", ginv, T, T, g)
    U = np.einsum("jlm,ms->jls", T, g) + np.einsum("slm,mj->jls", T, g)
    V = np.einsum("pqm,mi->pqi", T, g) + np.einsum("iqm,mp->pqi", T, g)
    t11 = -0.25 * np.einsum("pl,jls,sq,pqi->ij", ginv, U, ginv, V)
    return t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9 + t10 + t11


@dataclass
class CurvatureSample:
    """A curvature event's witness: the plane, its node x and its value there."""

    x: float
    plane: str
    value: float


def slice_sectional(bd: BoundaryData, I) -> list:
    """Intrinsic sectional curvatures of the slice metric with distinct
    components I (rows of any common shape), in closed form: one
    (plane, ia, ib, K) per monitored plane class, where plane is the sample
    name and ia, ib are the plane's distinct directions (0-based).

    SU, t = I1/I2: the fibre with a horizontal direction t/I2, a J-pair of
    horizontal directions (4 - 3t)/I2, and any other horizontal pair 1/I2
    (n >= 5 only).  Generalized Berger: Milnor's formula with
    lam_i = 2 sqrt(I_i/(I_j I_k)), mu_i = sum(lam)/2 - lam_i, r_i = 2 mu_j mu_k
    and K_ij = (r_i + r_j - r_k)/2.
    """
    if bd.kind.family == "gberger":
        lam = 2.0 * np.sqrt(I / (np.roll(I, -1, axis=0) * np.roll(I, -2, axis=0)))
        mu = lam.sum(axis=0) / 2.0 - lam
        r = 2.0 * np.roll(mu, -1, axis=0) * np.roll(mu, -2, axis=0)
        pairs = ((0, 1), (0, 2), (1, 2))
        return [(f"tangential-{i + 1}-{j + 1}", i, j, (r[i] + r[j] - r[3 - i - j]) / 2.0) for i, j in pairs]
    I1, I2 = I
    t = I1 / I2
    planes = [("tangential-1-2", 0, 1, t / I2), ("tangential-2-2", 1, 1, (4.0 - 3.0 * t) / I2)]
    if bd.n >= 5:
        planes.append(("tangential-2-2-nonJ", 1, 1, 1.0 / I2))
    return planes


@dataclass
class CurvatureSamples:
    """Sectional curvatures of one profile: values[p, j] is plane planes[p]
    at node x[j]; the radial planes come first, one per distinct direction.
    metric is the reconstruction they were computed from."""

    x: np.ndarray  # (N,)
    planes: tuple
    values: np.ndarray  # (P, N)
    metric: MetricProfile


def curvature_samples(profile) -> CurvatureSamples:
    """Sectional curvatures at every node: one row per radial plane, then one
    per tangential plane class of slice_sectional.  Each tangential row is
    the closed-form intrinsic curvature over sinh^2 r minus the second
    fundamental form term of the Gauss equation.  The profile's metric is
    reconstructed once, here, and kept on the result for its other readers."""
    mp = reconstruct_metric(profile)
    rad = radial_sectional_all(mp)
    tangential = slice_sectional(profile.bd, mp.I)
    sinh2 = ((1.0 - mp.x**2) / (2.0 * mp.x)) ** 2
    rat = mp.a_log_deriv_r()
    planes = [f"radial-{i + 1}" for i in range(len(rad))] + [nm for nm, *_ in tangential]
    amb = [K / sinh2 - rat[ia] * rat[ib] for _, ia, ib, K in tangential]
    return CurvatureSamples(mp.x, tuple(planes), np.vstack([rad, *amb]), mp)


# the cyclic permutations only: (p, i, q) gives the bitwise value of
# (i, p, q), since swapping i and p swaps the two terms of one sum and the
# operands of two others, and IEEE addition commutes
_WEYL_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def weyl_mixed_n3(mp: MetricProfile, i: int, p: int, q: int) -> np.ndarray:
    """|W|-type mixed Weyl component magnitude for the direction permutation
    (i, p, q) of (1, 2, 3) at every node of an n=3 profile."""
    if mp.bd.n != 3:
        raise UsageError("weyl_mixed_n3 requires an n=3 profile")
    if sorted((i, p, q)) != [1, 2, 3]:
        raise UsageError("(i, p, q) must be a permutation of (1, 2, 3)")
    full = np.repeat(np.arange(mp.I.shape[0]), mp.multiplicities)
    ii, pp, qq = full[i - 1], full[p - 1], full[q - 1]
    x = mp.x
    Li, Lp_, Lq = mp.L[ii], mp.L[pp], mp.L[qq]
    dLi, dLp, dLq = mp.Lp[ii], mp.Lp[pp], mp.Lp[qq]
    # bracket = Ii^1/2 Ip^-1/2 + Ii^-1/2 Ip^1/2 - Ii^-1/2 Ip^-1/2 Iq
    e1 = np.exp((Li - Lp_) / 2.0)
    e2 = np.exp((Lp_ - Li) / 2.0)
    e3 = np.exp(-(Li + Lp_) / 2.0 + Lq)
    der = (
        0.5 * (dLi - dLp) * e1
        + 0.5 * (dLp - dLi) * e2
        - (-0.5 * (dLi + dLp) + dLq) * e3
    )
    return 2.0 * x * x / (1.0 - x * x) * np.exp(-Lq / 2.0) * np.abs(der)


def weyl_mixed_max_n3(mp: MetricProfile) -> float:
    """Largest weyl_mixed_n3 value over every node and every permutation of (1, 2, 3)."""
    return float(max(weyl_mixed_n3(mp, *perm).max() for perm in _WEYL_PERMUTATIONS))


WEYL_BOUND_N3 = 2.0 * np.sqrt(6.0)


def k0_lower_bound(bd: BoundaryData):
    """Closed-form lower bound for K(0); None where the data give none."""
    if bd.kind.family == "gberger":
        # b0 = (2P(Q+1) - 1 - P^2 (Q-1)^2) / (P^(4/3) Q^(2/3)) with (P, Q) = phi0;
        # its sign is taken from the numerator over P before any power, so
        # that no power overflows or underflows into a division
        p, q = bd.phi0
        s = 2.0 * (q + 1.0) - 1.0 / p - p * (q - 1.0) * (q - 1.0)
        if not s > 0:
            return None
        c = s / p ** (1 / 3) / q ** (2 / 3) / 3.0
        return c * c * c
    phi, n = bd.phi0[0], bd.n
    if phi <= 1.0 / (n + 1):
        return None
    # the ratio ((n+1) phi - 1) / (n phi^((n+1)/n)), formed before its n-th
    # power so that no intermediate overflows at large phi
    return ((n + 1.0 - 1.0 / phi) / (n * phi ** (1.0 / n))) ** n

