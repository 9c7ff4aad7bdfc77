"""The (h, T) chart of a CAR member: the reference for `car.car_charge_data`.

This is the construction from V's blocks that `car_charge_data` replaced.
h = V12(ker V22), T = V21 V11^+ - V22^{+*} V12* [ker V11*] with three
pseudo-inverses on ranges, P = (P1 + T)(P1 + T*T)^+(P1 + T*) - [h] + [h*]
with a 2n x 2n pseudo-inverse, and k = P(ker V*).  `compute_p` recovers
(h, T) from P by a second rank decision and raises RecoveryMismatch when the
two disagree.
"""

import numpy as np

from quasifree.car import CHECK_TOL, RECOVERY_TOL
from quasifree.errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    RecoveryMismatch,
)
from quasifree.selfdual import (
    conjugate_matrix,
    hs_norm,
    kernel_basis,
    orthonormal_range,
    orthoprojection,
    pinv_on_range,
)


def compute_h(v) -> np.ndarray:
    """h = V12(ker V22), an orthonormal frame inside K1 of the codomain."""
    ker22 = kernel_basis(v.block(2, 2))
    if ker22.shape[1] == 0:
        return np.zeros((v.codomain.dim, 0), dtype=complex)
    image = v.block(1, 2) @ ker22
    nc = v.codomain.n_modes
    frame_modes = orthonormal_range(image)
    frame = np.zeros((v.codomain.dim, frame_modes.shape[1]), dtype=complex)
    frame[:nc] = frame_modes
    return frame


def compute_t(v, h: np.ndarray | None = None) -> np.ndarray:
    """T = V21 V11^+ - V22^{+*} V12* [ker V11*], antisymmetric, T h = 0."""
    v11, v12 = v.block(1, 1), v.block(1, 2)
    v21, v22 = v.block(2, 1), v.block(2, 2)
    term1 = v21 @ pinv_on_range(v11)
    coker = kernel_basis(v11.conj().T)
    term2 = (pinv_on_range(v22).conj().T @ v12.conj().T
             @ orthoprojection(coker))
    t = term1 - term2
    scale = max(1.0, hs_norm(t))
    anti = hs_norm(t + t.T)
    if anti > CHECK_TOL * scale:
        raise AntisymmetryViolation(
            f"T antisymmetry defect {anti:.3e} exceeds {CHECK_TOL:.1e}")
    if h is not None and h.shape[1] > 0:
        nc = v.codomain.n_modes
        on_h = hs_norm(t @ h[:nc])
        if on_h > CHECK_TOL * scale:
            raise AntisymmetryViolation(
                f"T does not annihilate h (defect {on_h:.3e})")
    return t


def compute_p(space, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P = (P1 + T)(P1 + T*T)^{-1}(P1 + T*) - [h] + [h*], self-checked.

    h is a frame of h in ``space``.  P must be an orthogonal projection with
    J P J = 1 - P, and (h, T) must come back from P as ker P11 and
    P21 P11^{-1}.
    """
    n = space.n_modes
    p1_t = np.zeros((space.dim, space.dim), dtype=complex)
    p1_t[n:, :n] = t
    p1_tt = p1_t.conj().T @ p1_t + 0.0
    p1_tt[:n, :n] += np.eye(n)
    p1_t[:n, :n] = np.eye(n)
    p1_t += 0.0
    middle = pinv_on_range(p1_tt)
    p = (p1_t @ middle @ (p1_t.conj().T + 0.0)
         - orthoprojection(h)
         + orthoprojection(conjugate_matrix(h, None, space)))

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
    if ker_p11.shape[1] != h.shape[1]:
        raise RecoveryMismatch(
            f"dim ker P11 = {ker_p11.shape[1]} != dim h = {h.shape[1]}")
    if h.shape[1] > 0:
        proj_gap = hs_norm(orthoprojection(ker_p11)
                           - orthoprojection(h[:n]))
        if proj_gap > RECOVERY_TOL:
            raise RecoveryMismatch(f"h recovery defect {proj_gap:.3e}")
    t_back = p21 @ pinv_on_range(p11)
    if hs_norm(t_back - t) > RECOVERY_TOL * max(1.0, hs_norm(t)):
        raise RecoveryMismatch(
            f"T recovery defect {hs_norm(t_back - t):.3e}")
    return p


def compute_k(v, p: np.ndarray, ker_vstar: np.ndarray) -> np.ndarray:
    """k = P(ker V*); its dimension must equal IND(V)/2 = dim ker V* / 2."""
    index = ker_vstar.shape[1]
    if index == 0:
        return np.zeros((v.codomain.dim, 0), dtype=complex)
    k = orthonormal_range(p @ ker_vstar)
    if k.shape[1] != index // 2:
        raise DimensionMismatch(
            f"dim k = {k.shape[1]} != IND V / 2 = {index // 2}")
    return k


def reference_chart(v, ker: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]:
    """(h, T, P, k) of a member, h and k as frames, P built from (h, T)."""
    h = compute_h(v)
    t = compute_t(v, h)
    p = compute_p(v.codomain, h, t)
    return h, t, p, compute_k(v, p, ker)
