"""Fermionic (CAR) quasi-free endomorphisms on truncated self-dual spaces.

Semigroup membership means: V is an isometry, V equals its J-conjugate, and
the off-diagonal part [P1, V] is Hilbert-Schmidt (always true at a finite
truncation; its norm is reported so families can be studied across cutoffs).
From a member V the charge data are derived, as the CCR pipeline does, from
one basis projection P >= V P1 V* with J P J = 1 - P:

* P   -- Q Q* + [k], with Q an orthonormal frame of V's K1 columns and [k]
         the projection onto k, a subspace of ker V* (`k_projection`),
* k   -- the charge space, framed as P(ker V*); dim k = IND(V)/2,
* h   -- ker P11, the subspace of K1 swapped into the new particle space,
* T   -- P21 P11^+, the antisymmetric pairing operator K1 -> K2 of the new
         vacuum; h and T come from one rank decision on P's K1 columns.

The statistics dimension of the associated sector is 2^{IND(V)/2}, and at
index 0 the Z2 index is (-1)^{dim h}.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    FERMI_DIM_CAP,
    AntisymmetryViolation,
    DimensionMismatch,
    NonzeroIndex,
    OrthonormalityFailure,
    RecoveryMismatch,
)
from .selfdual import (
    BlockOperator,
    ChargeData,
    DEFAULT_TOL,
    Membership,
    SelfDualSpace,
    Statistics,
    conjugate_matrix,
    hs_norm,
    kernel_and_pinv,
    kernel_basis,
    orthonormal_range,
    orthoprojection,
    pinv_on_range,
    semigroup_membership,
)

CHECK_TOL = 1e-10
RECOVERY_TOL = 1e-8


def car_membership(v: BlockOperator, tol: float = DEFAULT_TOL) -> Membership:
    """Classify V against the fermionic semigroup (V* V = 1)."""
    return semigroup_membership(v, v.matrix.conj().T, "isometry", tol)


def k_projection(v: BlockOperator, ker: np.ndarray) -> np.ndarray:
    """[k], the part of P on ker V*, with ``ker`` its frame K.

    Z = ker V11* spans the K1 directions that V11 misses.  On them the
    pairing operator is -V22^{+*} V12* (pseudo-inverse on the range), so
    G = [Z; -V22^{+*} V12* Z] is its graph over Z, and k is the range of
    K K* G, the part of that graph inside ker V*.  Zero at index 0.
    """
    space = v.codomain
    if ker.shape[1] == 0:
        return np.zeros((space.dim, space.dim), dtype=complex)
    z = kernel_basis(v.block(1, 1).conj().T)
    lift = (pinv_on_range(v.block(2, 2)).conj().T @ v.block(1, 2).conj().T
            @ z)
    g = np.vstack([z, -lift])
    return orthoprojection(orthonormal_range(ker @ (ker.conj().T @ g)))


def compute_p(v: BlockOperator, p_k: np.ndarray) -> np.ndarray:
    """P = Q Q* + [k], checked to be a basis projection (J P J = 1 - P).

    Q is an orthonormal frame of V's K1 columns, so Q Q* = V P1 V* for an
    isometry and stays a projection for a member accepted at a loose
    tolerance.
    """
    space = v.codomain
    q = np.linalg.qr(v.matrix[:, :v.domain.n_modes])[0]
    p = q @ q.conj().T + p_k
    idem = hs_norm(p @ p - p)
    herm = hs_norm(p - p.conj().T)
    comp = hs_norm(conjugate_matrix(p, space, space)
                   - (np.eye(space.dim) - p))
    if max(idem, herm, comp) > CHECK_TOL:
        raise RecoveryMismatch(
            f"P self-check failed: idempotency {idem:.3e}, "
            f"hermiticity {herm:.3e}, complement {comp:.3e}")
    return p


def compute_t(p: np.ndarray, space: SelfDualSpace
              ) -> tuple[np.ndarray, np.ndarray]:
    """(h frame, T) from one SVD of P's K1 columns X = [P11; P21], X* X = P11.

    h = ker X = ker P11 and T = P21 P11^+ is the K2 block of (X^+)*; the rank
    rule sees sigma(X) = sqrt(sigma(P11)), which scales like P21.  T must give
    back P21 = T P11 (RecoveryMismatch; checked first, as it fails whenever
    X* X != P11), be antisymmetric (T^t = -T) and annihilate h.
    """
    n = space.n_modes
    p11, p21 = p[:n, :n], p[n:, :n]
    ker, x_pinv = kernel_and_pinv(p[:, :n])
    t = x_pinv[:, n:].conj().T
    scale = max(1.0, hs_norm(t))
    recovery = hs_norm(p21 - t @ p11)
    if recovery > RECOVERY_TOL * scale:
        raise RecoveryMismatch(f"T recovery defect {recovery:.3e}")
    anti = hs_norm(t + t.T)
    if anti > CHECK_TOL * scale:
        raise AntisymmetryViolation(
            f"T antisymmetry defect {anti:.3e} exceeds {CHECK_TOL:.1e}")
    on_h = hs_norm(t @ ker)
    if on_h > CHECK_TOL * scale:
        raise AntisymmetryViolation(
            f"T does not annihilate h (defect {on_h:.3e})")
    return np.vstack([ker, np.zeros_like(ker)]), t


def car_charge_data(membership: Membership) -> ChargeData:
    """h, T, P, k of a tested member (NotInSemigroup for a non-member).

    k is framed as P(ker V*), and its dimension must be IND V / 2.  Both
    frames must be orthonormal (OrthonormalityFailure).
    """
    v = membership.require().v
    ker = membership.cokernel
    p = compute_p(v, k_projection(v, ker))
    h, t = compute_t(p, v.codomain)
    t_norm = float(np.linalg.norm(t, 2)) if t.size else 0.0
    k = orthonormal_range(p @ ker)
    for frame in (h, k):
        if not np.allclose(frame.conj().T @ frame, np.eye(frame.shape[1]),
                           atol=1e-9):
            raise OrthonormalityFailure("frame columns are not orthonormal")
    if k.shape[1] != membership.index // 2:
        raise DimensionMismatch(
            f"dim k = {k.shape[1]} != IND V / 2 = {membership.index // 2}")
    return ChargeData(membership, h, k, p, t, t_norm,
                      CAR.statistics_dimension(membership.index))


def z2_index(data: ChargeData) -> int:
    """(-1)^{dim h}, h = ker V11* here; defined only when IND V = 0."""
    if data.index != 0:
        raise NonzeroIndex(f"Z2 index needs IND V = 0, got {data.index}")
    return -1 if data.h_frame.shape[1] % 2 else 1



CAR = Statistics("car", sign=1, fock_cap=FERMI_DIM_CAP,
                 statistics_dimension=lambda index: 2 ** (index // 2),
                 membership=lambda v, tol: car_membership(v, tol),
                 charge_data=lambda membership: car_charge_data(membership))
