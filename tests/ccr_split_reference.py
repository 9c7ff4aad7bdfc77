"""The 2n x 2n CCR split: the reference for `ccr.kappa_split`.

This is the construction on the whole codomain that `kappa_split` replaced.
A = E C E with E = [ker V+] gets a 2n x 2n eigendecomposition, A_+ its
positive part, p = A_+^{-1} C a pseudo-inverse on the range, and k a
kappa-Gram-Schmidt over the columns of P K, pivoting on the largest
kappa-norm.
"""

import math

import numpy as np

from quasifree.ccr import CHECK_TOL, KAPPA_TOL, compute_projection
from quasifree.errors import (
    DegenerateForm,
    DimensionMismatch,
    OrthonormalityFailure,
)
from quasifree.selfdual import (
    conjugate_matrix,
    hs_norm,
    kappa_sign,
    orthoprojection,
    pinv_on_range,
)


def defect_projection(space, ker: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """(A = E C E, p = A_+^{-1} C) on the codomain, E = [ran ker]."""
    e = orthoprojection(ker)
    a = kappa_sign(e, space, None) @ e
    a = 0.5 * (a + a.conj().T)
    eigval, eigvec = np.linalg.eigh(a)
    thresh = CHECK_TOL * max(1.0, float(np.max(np.abs(eigval))))
    near_zero = int(np.sum(np.abs(eigval) <= thresh)) - (space.dim
                                                         - ker.shape[1])
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
    return a, kappa_sign(pinv_on_range(a_plus), space, None)


def kappa_orthonormal_frame(space, vectors: np.ndarray,
                            expected_dim: int) -> np.ndarray:
    """Gram-Schmidt for the kappa form, pivoting on the largest kappa-norm."""
    work = [vectors[:, j].astype(complex) for j in range(vectors.shape[1])]
    frame = []
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
            f"kappa-positive directions {len(frame)} != expected "
            f"{expected_dim}")
    if not frame:
        return np.zeros((space.dim, 0), dtype=complex)
    fr = np.column_stack(frame)
    gram = kappa_sign(fr.conj().T, space, None) @ fr
    if not np.allclose(gram, np.eye(len(frame)), atol=KAPPA_TOL):
        raise OrthonormalityFailure("frame is not kappa-orthonormal")
    return fr


def reference_split(v, ker: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """(A, p, k_frame) of a member, all built at the codomain's size."""
    a, p_defect = defect_projection(v.codomain, ker)
    p = compute_projection(v, p_defect)
    k_frame = kappa_orthonormal_frame(v.codomain, p @ ker, ker.shape[1] // 2)
    return a, p_defect, k_frame
