"""Bosonic (CCR) quasi-free endomorphisms on truncated self-dual spaces.

The CCR form is kappa(f, g) = <f, C g> with C = P1 - P2, and the relevant
adjoint is A+ = C A* C.  Members satisfy V+ V = 1, V = J V J, and [P1, V]
Hilbert-Schmidt.  The charge data differ from the fermionic case: there is no
swapped subspace h; instead the defect projection p is built from the
spectral decomposition of A = E C E on ker V+, the new kappa-basis projection
is P = V P1 V+ + p, the pairing operator T = P21 P11^{-1} is *symmetric* with
||T|| < 1, and k = P(ker V+) carries a kappa-orthonormal frame.  Sectors have
statistics dimension 1 (IND V = 0) or infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntisymmetryViolation,
    DegenerateForm,
    DimensionMismatch,
    NormBoundViolation,
    OrthonormalityFailure,
)
from .selfdual import (
    BlockOperator,
    DEFAULT_TOL,
    Membership,
    SelfDualSpace,
    conjugate_matrix,
    hs_norm,
    kappa_sign,
    kernel_basis,
    orthoprojection,
    pinv_on_range,
    semigroup_membership,
)

CHECK_TOL = 1e-10
NORM_MARGIN = 1e-8
KAPPA_TOL = 1e-9


def ccr_membership(v: BlockOperator, tol: float = DEFAULT_TOL) -> Membership:
    """Classify V against the bosonic semigroup (V+ V = 1)."""
    return semigroup_membership(v, v.kappa_adjoint().matrix, "kappa isometry",
                                tol)


def compute_defect_projection(v: BlockOperator, ker: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A = ECE, p = A_+^{-1} C) on the codomain, E = [ker V+].

    ``ker`` is the kernel frame of V+ (``Membership.cokernel``).  A is
    hermitian and must split as A = A_+ - conj(A_+) with A_+ conj(A_+) = 0
    (checked, not assumed); degenerate directions raise DegenerateForm.
    """
    space = v.codomain
    e = orthoprojection(ker)
    a = kappa_sign(e, space, None) @ e
    a = 0.5 * (a + a.conj().T)
    eigval, eigvec = np.linalg.eigh(a)
    thresh = CHECK_TOL * max(1.0, float(np.max(np.abs(eigval))) if eigval.size else 1.0)
    near_zero = int(np.sum(np.abs(eigval) <= thresh)) - (space.dim - ker.shape[1])
    if near_zero > 0:
        raise DegenerateForm(
            f"kappa form degenerate on ker V+ ({near_zero} null directions)")
    pos = eigval > thresh
    a_plus = (eigvec[:, pos] * eigval[pos]) @ eigvec[:, pos].conj().T
    a_bar = conjugate_matrix(a_plus, space, space)
    split = hs_norm(a - (a_plus - a_bar))
    cross = hs_norm(a_plus @ a_bar)
    if max(split, cross) > CHECK_TOL * max(1.0, hs_norm(a)):
        raise DegenerateForm(
            f"A != A+ - conj(A+) (defect {split:.3e}, cross {cross:.3e})")
    p_op = kappa_sign(pinv_on_range(a_plus), space, None)
    return a, p_op


def compute_projection(v: BlockOperator, p_op: np.ndarray) -> np.ndarray:
    """P = V P1 V+ + p, checked to be a kappa-basis projection."""
    space = v.codomain
    # V P1 is V with its K2 columns zeroed; a product over the K1 columns
    # alone would round differently.
    v_p1 = v.matrix + 0.0
    v_p1[:, v.domain.n_modes:] = 0.0
    p = v_p1 @ v.kappa_adjoint().matrix + p_op
    idem = hs_norm(p @ p - p)
    kappa_herm = hs_norm(kappa_sign(p.conj().T, space, space) - p)
    comp = hs_norm(conjugate_matrix(p, space, space)
                   - (np.eye(space.dim) - p))
    if max(idem, kappa_herm, comp) > CHECK_TOL * max(1.0, hs_norm(p)):
        raise DegenerateForm(
            f"P self-check failed: idempotency {idem:.3e}, "
            f"kappa-hermiticity {kappa_herm:.3e}, complement {comp:.3e}")
    return p


def compute_t(p: np.ndarray, space: SelfDualSpace) -> np.ndarray:
    """T = P21 P11^{-1}: symmetric block with ||T|| < 1 (admissibility)."""
    n = space.n_modes
    p11, p21 = p[:n, :n], p[n:, :n]
    if kernel_basis(p11).shape[1] > 0:
        raise DegenerateForm("P11 is singular; no bosonic pairing operator")
    t = p21 @ np.linalg.inv(p11)
    sym = hs_norm(t - t.T)
    if sym > CHECK_TOL * max(1.0, hs_norm(t)):
        raise AntisymmetryViolation(
            f"T symmetry defect {sym:.3e} exceeds {CHECK_TOL:.1e}")
    norm = float(np.linalg.norm(t, 2)) if t.size else 0.0
    if norm >= 1.0 - NORM_MARGIN:
        raise NormBoundViolation(f"||T|| = {norm:.12f} >= 1 - {NORM_MARGIN:.0e}")
    return t


def kappa_orthonormal_frame(space: SelfDualSpace, vectors: np.ndarray,
                            expected_dim: int) -> np.ndarray:
    """Gram-Schmidt for the kappa form, pivoting on the largest kappa-norm.

    Keeps only directions of positive kappa-norm; raises if the count differs
    from expected_dim or the final frame is not kappa-orthonormal.
    """
    work = [vectors[:, j].astype(complex) for j in range(vectors.shape[1])]
    frame: list[np.ndarray] = []
    while work:
        norms = [float(np.real(np.vdot(w, kappa_sign(w, None, space))))
                 for w in work]
        j = int(np.argmax(norms))
        if norms[j] <= KAPPA_TOL:
            break
        g = work.pop(j) / math.sqrt(norms[j])
        frame.append(g)
        cg = kappa_sign(g, None, space)
        work = [w - g * np.vdot(cg, w) for w in work]
        work = [w for w in work if float(np.linalg.norm(w)) > KAPPA_TOL]
    if len(frame) != expected_dim:
        raise DimensionMismatch(
            f"kappa-positive directions {len(frame)} != expected {expected_dim}")
    if frame:
        fr = np.column_stack(frame)
        gram = kappa_sign(fr.conj().T, space, None) @ fr
        if not np.allclose(gram, np.eye(len(frame)), atol=KAPPA_TOL):
            raise OrthonormalityFailure("frame is not kappa-orthonormal")
        return fr
    return np.zeros((space.dim, 0), dtype=complex)


def compute_k(v: BlockOperator, p: np.ndarray,
              ker_vplus: np.ndarray) -> np.ndarray:
    """k = P(ker V+) with a kappa-orthonormal frame; dim k = IND V / 2."""
    if ker_vplus.shape[1] == 0:
        return np.zeros((v.codomain.dim, 0), dtype=complex)
    return kappa_orthonormal_frame(v.codomain, p @ ker_vplus,
                                   ker_vplus.shape[1] // 2)


def statistics_dimension(index: int) -> float:
    """1 for automorphism-type sectors, infinite otherwise."""
    return 1.0 if index == 0 else math.inf


@dataclass(frozen=True)
class CcrChargeData:
    membership: Membership
    a: np.ndarray
    p_defect: np.ndarray
    p: np.ndarray
    t: np.ndarray
    k_frame: np.ndarray

    @property
    def v(self) -> BlockOperator:
        return self.membership.v

    @property
    def index(self) -> int:
        return self.membership.index

    @property
    def statistics_dimension(self) -> float:
        return statistics_dimension(self.index)

    @property
    def k_dim(self) -> int:
        return self.k_frame.shape[1]


def ccr_charge_data(membership: Membership) -> CcrChargeData:
    """Bosonic charge data of a tested member (NotInSemigroup otherwise)."""
    v = membership.require().v
    a, p_op = compute_defect_projection(v, membership.cokernel)
    p = compute_projection(v, p_op)
    t = compute_t(p, v.codomain)
    k_frame = compute_k(v, p, membership.cokernel)
    return CcrChargeData(membership, a, p_op, p, t, k_frame)
