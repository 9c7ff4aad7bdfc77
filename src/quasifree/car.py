"""Fermionic (CAR) quasi-free endomorphisms on truncated self-dual spaces.

Semigroup membership means: V is an isometry, V equals its J-conjugate, and
the off-diagonal part [P1, V] is Hilbert-Schmidt (always true at a finite
truncation; its norm is reported so families can be studied across cutoffs).
From a member V the charge data are derived:

* h   -- the subspace V12(ker V22) of K1 swapped into the new particle space,
* T   -- the antisymmetric pairing operator K1 -> K2 of the new vacuum,
* P   -- the basis projection built from (h, T), with J P J = 1 - P,
* k   -- P(ker V*), carrying the statistics; dim k = IND(V)/2.

The statistics dimension of the associated sector is 2^{IND(V)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    NonzeroIndex,
    RecoveryMismatch,
)
from .selfdual import (
    BlockOperator,
    DEFAULT_TOL,
    Membership,
    Subspace,
    cokernel_basis,
    conjugate_matrix,
    extend_gauge,
    hs_norm,
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
    return semigroup_membership(v, v.adjoint().matrix, "isometry", tol)


def compute_h(v: BlockOperator) -> Subspace:
    """h = V12(ker V22), an orthonormal frame inside K1 of the codomain."""
    ker22 = kernel_basis(v.block(2, 2))
    if ker22.shape[1] == 0:
        return Subspace.empty(v.codomain)
    image = v.block(1, 2) @ ker22
    nc = v.codomain.n_modes
    frame_modes = orthonormal_range(image)
    frame = np.zeros((v.codomain.dim, frame_modes.shape[1]), dtype=complex)
    frame[:nc] = frame_modes
    return Subspace(v.codomain, frame)


def compute_t(v: BlockOperator, h: Subspace | None = None) -> np.ndarray:
    """Pairing operator T: K1 -> K2 of the codomain, as an n x n block.

    T = V21 V11^{-1} - V22^{-1*} V12* [ker V11*], pseudo-inverses on ranges.
    The result must be antisymmetric (T^t = -T in mode coordinates) and must
    annihilate h.
    """
    v11, v12 = v.block(1, 1), v.block(1, 2)
    v21, v22 = v.block(2, 1), v.block(2, 2)
    term1 = v21 @ pinv_on_range(v11)
    coker = cokernel_basis(v11)
    term2 = (pinv_on_range(v22).conj().T @ v12.conj().T
             @ orthoprojection(coker))
    t = term1 - term2
    scale = max(1.0, hs_norm(t))
    anti = hs_norm(t + t.T)
    if anti > CHECK_TOL * scale:
        raise AntisymmetryViolation(
            f"T antisymmetry defect {anti:.3e} exceeds {CHECK_TOL:.1e}")
    if h is not None and h.dim > 0:
        nc = v.codomain.n_modes
        on_h = hs_norm(t @ h.frame[:nc])
        if on_h > CHECK_TOL * scale:
            raise AntisymmetryViolation(
                f"T does not annihilate h (defect {on_h:.3e})")
    return t


def compute_p(h: Subspace, t: np.ndarray) -> np.ndarray:
    """Basis projection P from the pair (h, T).

    P = (P1 + T)(P1 + T*T)^{-1}(P1 + T*) - [h] + [h*].  Self-checks: P is an
    orthogonal projection, J P J = 1 - P, and (h, T) are recovered from P as
    ker P11 and P21 P11^{-1}.
    """
    space = h.space
    n = space.n_modes
    # P1 + T is T with a unit K1 block, P1 + T*T is T*T plus 1 on K1.  T*T
    # stays a full-size product, as an n x n one rounds differently.  Adding
    # 0.0 clears -0.0, as the sums with a dense P1 did.
    p1_t = np.zeros((space.dim, space.dim), dtype=complex)
    p1_t[n:, :n] = t
    p1_tt = p1_t.conj().T @ p1_t + 0.0
    p1_tt[:n, :n] += np.eye(n)
    p1_t[:n, :n] = np.eye(n)
    p1_t += 0.0
    middle = pinv_on_range(p1_tt)
    p = (p1_t @ middle @ (p1_t.conj().T + 0.0)
         - h.projector() + h.conjugate().projector())

    idem = hs_norm(p @ p - p)
    herm = hs_norm(p - p.conj().T)
    comp = hs_norm(conjugate_matrix(p, space, space)
                   - (np.eye(space.dim) - p))
    if max(idem, herm, comp) > CHECK_TOL:
        raise RecoveryMismatch(
            f"P self-check failed: idempotency {idem:.3e}, "
            f"hermiticity {herm:.3e}, complement {comp:.3e}")

    p11, p21 = p[:n, :n], p[n:, :n]
    ker_p11 = kernel_basis(p11)
    if ker_p11.shape[1] != h.dim:
        raise RecoveryMismatch(
            f"dim ker P11 = {ker_p11.shape[1]} != dim h = {h.dim}")
    if h.dim > 0:
        proj_gap = hs_norm(orthoprojection(ker_p11)
                           - orthoprojection(h.frame[:n]))
        if proj_gap > RECOVERY_TOL:
            raise RecoveryMismatch(f"h recovery defect {proj_gap:.3e}")
    t_back = p21 @ pinv_on_range(p11)
    if hs_norm(t_back - t) > RECOVERY_TOL * max(1.0, hs_norm(t)):
        raise RecoveryMismatch(
            f"T recovery defect {hs_norm(t_back - t):.3e}")
    return p


def compute_k(v: BlockOperator, p: np.ndarray,
              ker_vstar: np.ndarray) -> Subspace:
    """k = P(ker V*); its dimension must equal IND(V)/2 = dim ker V* / 2."""
    index = ker_vstar.shape[1]
    if index == 0:
        return Subspace.empty(v.codomain)
    frame = orthonormal_range(p @ ker_vstar)
    k = Subspace(v.codomain, frame)
    if k.dim != index // 2:
        raise DimensionMismatch(
            f"dim k = {k.dim} != IND V / 2 = {index // 2}")
    return k


def statistics_dimension(index: int) -> int:
    """d = 2^{IND V / 2} for the fermionic sector."""
    return 2 ** (index // 2)


@dataclass(frozen=True)
class CarChargeData:
    """Everything the charge analysis derives from a semigroup member."""

    membership: Membership
    h: Subspace
    t: np.ndarray
    p: np.ndarray
    k: Subspace

    @property
    def v(self) -> BlockOperator:
        return self.membership.v

    @property
    def index(self) -> int:
        return self.membership.index

    @property
    def statistics_dimension(self) -> int:
        return statistics_dimension(self.index)


def car_charge_data(membership: Membership) -> CarChargeData:
    """h, T, P, k of a tested member (NotInSemigroup for a non-member)."""
    v = membership.require().v
    h = compute_h(v)
    t = compute_t(v, h)
    p = compute_p(h, t)
    k = compute_k(v, p, membership.cokernel)
    return CarChargeData(membership, h, t, p, k)


def z2_index(data: CarChargeData) -> int:
    """(-1)^{dim ker V11} of the tested member; defined only when IND V = 0."""
    if data.index != 0:
        raise NonzeroIndex(f"Z2 index needs IND V = 0, got {data.index}")
    dim_ker = kernel_basis(data.v.block(1, 1)).shape[1]
    return -1 if dim_ker % 2 else 1


@dataclass(frozen=True)
class GaugeCommutationReport:
    """Commutator norms showing gauge compatibility propagating to (T, P, h, k)."""

    v_commutator: float
    t_commutator: float
    p_commutator: float
    h_invariance: float
    k_invariance: float
    propagation_constant: float


def gauge_commutation_report(data: CarChargeData,
                             u11: np.ndarray) -> GaugeCommutationReport:
    """Measure ||[V,U]|| and the induced defects on T, P, h and k."""
    v = data.v
    u_cod = extend_gauge(u11, v.codomain)
    nd = v.domain.n_modes
    u_dom = extend_gauge(u11[:nd, :nd], v.domain)
    comm_v = hs_norm(u_cod @ v.matrix - v.matrix @ u_dom)
    # U = diag(u, conj(u)) and T maps K1 into K2: [U, T] = conj(u) T - T u.
    comm_t = hs_norm(np.conj(u11) @ data.t - data.t @ u11)
    comm_p = hs_norm(u_cod @ data.p - data.p @ u_cod)
    eye = np.eye(v.codomain.dim)
    ph = data.h.projector()
    pk = data.k.projector()
    h_inv = hs_norm((eye - ph) @ u_cod @ ph)
    k_inv = hs_norm((eye - pk) @ u_cod @ pk)
    worst = max(comm_t, comm_p, h_inv, k_inv)
    const = worst / comm_v if comm_v > 1e-14 else 0.0
    return GaugeCommutationReport(comm_v, comm_t, comm_p, h_inv, k_inv, const)
