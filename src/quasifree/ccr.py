"""Bosonic (CCR) quasi-free endomorphisms on truncated self-dual spaces.

The CCR form is kappa(f, g) = <f, C g> with C = P1 - P2, and the relevant
adjoint is A+ = C A* C.  Members satisfy V+ V = 1, V = J V J, and [P1, V]
Hilbert-Schmidt.  The charge data differ from the fermionic case: there is no
swapped subspace h.  The charge space k lies in ker V+, and `kappa_split`
reads it from the index x index kappa-Gram G = K* C K on the kernel frame K
of V+: k is spanned by the positive eigenvectors of G, and the defect
projection p is the kappa-orthogonal projection onto k.  The new kappa-basis
projection is P = V P1 V+ + p, and the pairing operator T = P21 P11^{-1} is
*symmetric* with ||T|| < 1.  Sectors have statistics dimension 1
(IND V = 0) or infinity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BOSE_DIM_CAP,
    AntisymmetryViolation,
    DegenerateForm,
    DimensionMismatch,
    NormBoundViolation,
    OrthonormalityFailure,
)
from .selfdual import (
    BlockOperator,
    ChargeData,
    DEFAULT_TOL,
    Membership,
    SelfDualSpace,
    Statistics,
    _canonical_phase,
    conjugate_matrix,
    hs_norm,
    kappa_sign,
    kernel_and_pinv,
    semigroup_membership,
)

CHECK_TOL = 1e-10
NORM_MARGIN = 1e-8
KAPPA_TOL = 1e-9


def ccr_membership(v: BlockOperator, tol: float = DEFAULT_TOL) -> Membership:
    """Classify V against the bosonic semigroup (V+ V = 1)."""
    return semigroup_membership(v, v.kappa_adjoint().matrix, "kappa isometry",
                                tol)


def kappa_split(space: SelfDualSpace, ker: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, k_frame, p) from the kappa-Gram G = K* C K on K = ker V+.

    ``ker`` is the orthonormal kernel frame K of V+ (``Membership.cokernel``),
    so A = E C E is K G K* and every check runs at index size.  G must be
    nondegenerate (DegenerateForm) with index/2 positive eigenvalues
    (DimensionMismatch).  With W+ and L+ those eigenvectors, phase-fixed, and
    eigenvalues, F+ = K W+ carries A+ = F+ L+ F+*, and A must split as
    A+ - J A+ J with A+ J A+ J = 0 (DegenerateForm otherwise).  The
    kappa-orthonormal frame of k is F+ L+^{-1/2}, and p = k_frame (C k_frame)*
    is the kappa-projection onto k.
    """
    index = ker.shape[1]
    g = ker.conj().T @ kappa_sign(ker, None, space)
    g = 0.5 * (g + g.conj().T)
    eigval, eigvec = np.linalg.eigh(g)
    thresh = CHECK_TOL * max(1.0, float(np.max(np.abs(eigval), initial=0.0)))
    null = int(np.sum(np.abs(eigval) <= thresh))
    if null:
        raise DegenerateForm(
            f"kappa form degenerate on ker V+ ({null} null directions)")
    pos = eigval > 0.0
    n_pos = int(np.sum(pos))
    if n_pos != index // 2:
        raise DimensionMismatch(
            f"kappa-positive directions {n_pos} != expected {index // 2}")
    lam, w = eigval[pos], eigvec[:, pos]
    for j in range(w.shape[1]):
        w[:, j] = _canonical_phase(w[:, j])
    f_plus = ker @ w
    jf = conjugate_matrix(f_plus, None, space)
    # A - A+ + J A+ J on ran K and on the part R of J F+ outside it; the
    # three blocks are orthogonal, so their HS norms add in squares.
    m = ker.conj().T @ jf
    r = jf - ker @ m
    r_half = r * np.sqrt(lam)
    split = math.sqrt(
        hs_norm(g - (w * lam) @ w.conj().T + (m * lam) @ m.conj().T) ** 2
        + 2.0 * hs_norm((m * lam) @ r.conj().T) ** 2
        + hs_norm(r_half.conj().T @ r_half) ** 2)
    cross = hs_norm(lam[:, None] * (f_plus.conj().T @ jf) * lam)
    if max(split, cross) > CHECK_TOL * max(1.0, hs_norm(g)):
        raise DegenerateForm(
            f"A != A+ - conj(A+) (defect {split:.3e}, cross {cross:.3e})")
    k_frame = f_plus / np.sqrt(lam)
    c_frame = kappa_sign(k_frame, None, space)
    if not np.allclose(c_frame.conj().T @ k_frame, np.eye(lam.size),
                       atol=KAPPA_TOL):
        raise OrthonormalityFailure("frame is not kappa-orthonormal")
    return g, k_frame, k_frame @ c_frame.conj().T


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


def compute_t(p: np.ndarray, space: SelfDualSpace
              ) -> tuple[np.ndarray, float]:
    """(T, ||T||) with T = P21 P11^{-1}: symmetric, ||T|| < 1 (admissibility)."""
    n = space.n_modes
    ker, p11_inv = kernel_and_pinv(p[:n, :n])
    if ker.shape[1] > 0:
        raise DegenerateForm("P11 is singular; no bosonic pairing operator")
    t = p[n:, :n] @ p11_inv
    sym = hs_norm(t - t.T)
    if sym > CHECK_TOL * max(1.0, hs_norm(t)):
        raise AntisymmetryViolation(
            f"T symmetry defect {sym:.3e} exceeds {CHECK_TOL:.1e}")
    norm = float(np.linalg.norm(t, 2)) if t.size else 0.0
    if norm >= 1.0 - NORM_MARGIN:
        raise NormBoundViolation(f"||T|| = {norm:.12f} >= 1 - {NORM_MARGIN:.0e}")
    return t, norm


def ccr_charge_data(membership: Membership) -> ChargeData:
    """Bosonic charge data of a tested member (NotInSemigroup otherwise)."""
    v = membership.require().v
    _, k_frame, p_op = kappa_split(v.codomain, membership.cokernel)
    p = compute_projection(v, p_op)
    t, t_norm = compute_t(p, v.codomain)
    return ChargeData(membership, np.zeros((v.codomain.dim, 0), dtype=complex),
                      k_frame, p, t, t_norm,
                      CCR.statistics_dimension(membership.index))



CCR = Statistics("ccr", sign=-1, fock_cap=BOSE_DIM_CAP,
                 statistics_dimension=lambda index: math.inf if index else 1.0,
                 membership=lambda v, tol: ccr_membership(v, tol),
                 charge_data=lambda membership: ccr_charge_data(membership))
