"""Self-dual single-particle spaces and the linear algebra under everything.

A truncated self-dual space with ``n`` modes is C^{2n} with coordinates
ordered ``(e_1, ..., e_n, e_1*, ..., e_n*)``.  The antiunitary involution J
swaps the two halves and conjugates entries; the reference basis projection
P1 selects the first half, J P1 J = 1 - P1, and C = P1 - P2 is the sign of
the kappa form.  All three are index operations: J a roll of each axis by
its mode count plus a conjugation (`conjugate_matrix`), P1 a slice, C a
sign flip of the second half (`kappa_sign`).  No dense form of them exists
here.  Rectangular maps between two such spaces embed the smaller mode set
as a prefix of the larger one.

Every rank decision follows one rule: a singular value counts as zero when it
is at most DEFAULT_TOL * max(1, sigma_max), where sigma_max is the largest
singular value of the same SVD that the decision is read from (0 if it is
empty); `kernel_and_pinv` reads a kernel frame and a pseudo-inverse off one
decision.  Membership is decided once per operator by `semigroup_membership`;
its `Membership` record carries the operator, the index and the kernel frame
of the adjoint to everything downstream, and the charge pipelines of both
statistics return one `ChargeData` record.  Norms are accumulated with
`math.fsum` in a fixed order so repeated runs produce identical bytes in
reports; `hs_norm` skips the exact zeros, which leaves its value unchanged
because `fsum` is exactly rounded.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexMismatch,
    NotInSemigroup,
    OddIndex,
    ShapeMismatch,
)

DEFAULT_TOL = 1e-10


def _rank_threshold(sigma: np.ndarray) -> float:
    """The rank rule: DEFAULT_TOL * max(1, sigma_max) of an SVD's sigma."""
    return DEFAULT_TOL * max(1.0, float(sigma.max(initial=0.0)))


def hs_norm(matrix: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm with deterministic accumulation.

    Exact zeros add nothing to the exactly rounded fsum, so they are dropped
    first; structured gaps are mostly zeros.
    """
    flat = np.abs(np.ascontiguousarray(matrix)).ravel()
    flat = flat[flat != 0]
    return math.sqrt(math.fsum((flat * flat).tolist()))


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


def _ordered_kernel(sigma, vh, tol: float) -> np.ndarray:
    """`kernel_basis` of an SVD: the rows of vh with padded sigma <= tol."""
    n = vh.shape[1]
    sigma = np.concatenate([sigma, np.zeros(n - len(sigma))])
    cols = sorted(((s, _canonical_phase(vh[i].conj()))
                   for i, s in enumerate(sigma) if s <= tol),
                  key=lambda sv: (round(float(sv[0]), 14), tuple(
                      np.round(sv[1].view(float), 12).tolist())))
    if not cols:
        return np.zeros((n, 0), dtype=complex)
    return np.column_stack([c for _, c in cols]).astype(complex)


def _pinv_from_svd(u, sigma, vh, tol: float) -> np.ndarray:
    inv = np.where(sigma > tol, 1.0 / np.where(sigma > tol, sigma, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def kernel_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis via SVD, deterministically ordered.

    Columns are ordered by ascending singular value with a lexicographic
    tie-break on (rounded) coordinates, and each column is phase-fixed so the
    largest entry is real positive.  Returns an (n, k) array (k may be 0).
    """
    if matrix.size == 0:
        return np.eye(matrix.shape[1], dtype=complex)
    _, sigma, vh = np.linalg.svd(matrix)
    return _ordered_kernel(sigma, vh, _rank_threshold(sigma))


def pinv_on_range(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse on the range the rank rule keeps."""
    if matrix.size == 0:
        return matrix.conj().T.copy()
    u, sigma, vh = np.linalg.svd(matrix, full_matrices=False)
    return _pinv_from_svd(u, sigma, vh, _rank_threshold(sigma))


def kernel_and_pinv(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(`kernel_basis`, `pinv_on_range`) of a tall or square matrix, one SVD."""
    u, sigma, vh = np.linalg.svd(matrix, full_matrices=False)
    tol = _rank_threshold(sigma)
    return _ordered_kernel(sigma, vh, tol), _pinv_from_svd(u, sigma, vh, tol)


def orthonormal_range(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal frame for the column range, deterministically ordered."""
    if matrix.size == 0:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, sigma, _ = np.linalg.svd(matrix, full_matrices=False)
    cols = [_canonical_phase(u[:, i])
            for i in np.flatnonzero(sigma > _rank_threshold(sigma))]
    if not cols:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    return np.column_stack(cols).astype(complex)


def orthoprojection(frame: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of orthonormal frame columns."""
    if frame.shape[1] == 0:
        return np.zeros((frame.shape[0], frame.shape[0]), dtype=complex)
    return frame @ frame.conj().T


@dataclass(frozen=True)
class SelfDualSpace:
    """Truncated self-dual space: C^{2 n_modes}, halves K and K*."""

    n_modes: int

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def basis_vector(self, mode: int, conjugate: bool = False) -> np.ndarray:
        """e_mode or e_mode* as a coordinate vector (modes are 1-based)."""
        if not 1 <= mode <= self.n_modes:
            raise ShapeMismatch(f"mode {mode} outside 1..{self.n_modes}")
        v = np.zeros(self.dim, dtype=complex)
        v[mode - 1 + (self.n_modes if conjugate else 0)] = 1.0
        return v


def conjugate_matrix(matrix: np.ndarray, domain: SelfDualSpace | None,
                     codomain: SelfDualSpace) -> np.ndarray:
    """Matrix of J A J for A: domain -> codomain.

    J swaps the halves and conjugates, so J A J is conj(A) with each axis
    rolled by its mode count.  With ``domain`` None the columns stay put:
    J applied to a frame of column vectors.  Adding 0.0 turns the -0.0
    that conj makes into +0.0, as a product with dense swap matrices does.
    """
    shift = (codomain.n_modes, 0 if domain is None else domain.n_modes)
    out = np.roll(np.conj(matrix), shift, axis=(0, 1))
    out += 0.0
    return out


def kappa_sign(matrix: np.ndarray, domain: SelfDualSpace | None,
               codomain: SelfDualSpace | None) -> np.ndarray:
    """Matrix of C A C for A: domain -> codomain, with C = P1 - P2.

    C negates the K* half: rows past the codomain's n_modes and columns past
    the domain's change sign, and a None space leaves its axis alone (a
    vector has only rows).  Negating as 0.0 - x keeps zeros +0.0.
    """
    out = matrix + 0.0
    if codomain is not None:
        rows = out[codomain.n_modes:]
        np.subtract(0.0, rows, out=rows)
    if domain is not None:
        cols = out[:, domain.n_modes:]
        np.subtract(0.0, cols, out=cols)
    return out


def apply_gauge(u11: np.ndarray, x: np.ndarray,
                space: SelfDualSpace) -> np.ndarray:
    """U x for U = u + conj(u), the extension of u11 to the self-dual space.

    u11 is one unitary or a (samples, n, n) stack, and x one matrix or a
    stack of as many.  U is block diagonal, so U x stacks u @ x[:n] over
    conj(u) @ x[n:] without forming U; only the signs of exact zeros can
    differ from the dense product.
    """
    n = space.n_modes
    if u11.shape[-2:] != (n, n):
        raise DimensionMismatch(f"u11 shape {u11.shape[-2:]} != ({n}, {n})")
    return np.concatenate([u11 @ x[..., :n, :], np.conj(u11) @ x[..., n:, :]],
                          axis=-2)


@dataclass(frozen=True)
class BlockOperator:
    """Linear map between self-dual spaces with 2x2 block bookkeeping.

    Block (i, j) maps the K_j part of the domain into the K_i part of the
    codomain, i, j in {1, 2}.
    """

    matrix: np.ndarray
    domain: SelfDualSpace
    codomain: SelfDualSpace = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.codomain is None:
            object.__setattr__(self, "codomain", self.domain)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch(
                f"matrix shape {mat.shape} != "
                f"({self.codomain.dim}, {self.domain.dim})")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def block(self, i: int, j: int) -> np.ndarray:
        nc, nd = self.codomain.n_modes, self.domain.n_modes
        rows = slice(0, nc) if i == 1 else slice(nc, 2 * nc)
        cols = slice(0, nd) if j == 1 else slice(nd, 2 * nd)
        return self.matrix[rows, cols]

    def kappa_adjoint(self) -> "BlockOperator":
        """A+ = C A* C, the adjoint for the kappa form."""
        return BlockOperator(
            kappa_sign(self.matrix.conj().T, self.codomain, self.domain),
            self.codomain, self.domain)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if other.codomain.n_modes != self.domain.n_modes:
            raise ShapeMismatch("composition spaces do not match")
        return BlockOperator(self.matrix @ other.matrix,
                             other.domain, self.codomain)

    def selfdual_defect(self) -> float:
        """HS distance between A and its J-conjugate (0 for semigroup members)."""
        return hs_norm(self.matrix - conjugate_matrix(
            self.matrix, self.domain, self.codomain))


@dataclass(frozen=True)
class Membership:
    """Outcome of a semigroup membership test, for either statistics.

    ``v`` is the operator that was classified and ``tol`` the tolerance of
    the decision.  ``cokernel`` is the kernel frame of the adjoint (V* for
    CAR, V+ for CCR), the space the charge is built on; its column count is
    ``index``.  Both are None when V is not a member.
    """

    v: BlockOperator = field(repr=False)
    tol: float
    is_member: bool
    isometry_defect: float
    selfdual_defect: float
    hs_defect: float
    index: int | None
    cokernel: np.ndarray | None = field(default=None, repr=False)
    failures: tuple[str, ...] = ()

    def require(self) -> "Membership":
        """This record, or NotInSemigroup naming every failed condition."""
        if not self.is_member:
            raise NotInSemigroup("; ".join(self.failures))
        return self


@dataclass(frozen=True)
class ChargeData:
    """Charge data of a semigroup member, for either statistics.

    ``h_frame`` is an orthonormal frame of h, the subspace swapped into the
    new particle space (empty, 2n x 0, for CCR), and ``k_frame`` a frame of
    the charge space k: orthonormal for CAR, kappa-orthonormal for CCR.
    ``p`` is the new (kappa-)basis projection, ``t`` the pairing operator
    and ``t_norm`` its operator norm.
    """

    membership: Membership
    h_frame: np.ndarray
    k_frame: np.ndarray
    p: np.ndarray
    t: np.ndarray
    t_norm: float
    statistics_dimension: int | float

    @property
    def v(self) -> BlockOperator:
        return self.membership.v

    @property
    def index(self) -> int:
        return self.membership.index


@dataclass(frozen=True)
class Statistics:
    """One algebra's statistics (`car.CAR`, `ccr.CCR`), chosen once per command.

    ``sign`` is the s of det_h(u) det(1 + s t c_k(u)): +1 for CAR (levels
    Lambda^l(k) up to dim k), -1 for CCR (levels S^l(k), a kappa-orthonormal
    k frame F with dual C F).  ``membership`` and ``charge_data`` look the
    pipeline up when called, so a replaced module attribute is the one run.
    """

    name: str
    sign: int
    statistics_dimension: Callable[[int], int | float]
    fock_cap: int
    membership: Callable[[BlockOperator, float], Membership]
    charge_data: Callable[[Membership], ChargeData]


def semigroup_membership(v: BlockOperator, adjoint: np.ndarray, law: str,
                         tol: float) -> Membership:
    """Classify V against the semigroup whose isometry law is adjoint V = 1.

    ``law`` names that law in the failure text: "isometry" for V* V = 1,
    "kappa isometry" for V+ V = 1.  For a member the index is dim ker of the
    adjoint, counted once from its kernel frame with the rank rule;
    it must equal the structural value 2(n_out - n_in).  The HS defect is
    ||[P1, V]||, whose only nonzero blocks are V12 and -V21.
    """
    iso = hs_norm(adjoint @ v.matrix - np.eye(v.domain.dim))
    sd = v.selfdual_defect()
    hs = hs_norm(np.concatenate([v.block(1, 2), v.block(2, 1)]))
    failures = []
    if iso > tol:
        failures.append(f"{law} defect {iso:.3e} > {tol:.1e}")
    if sd > tol:
        failures.append(f"selfdual defect {sd:.3e} > {tol:.1e}")
    if failures:
        return Membership(v, tol, False, iso, sd, hs, None, None,
                          tuple(failures))
    cokernel = kernel_basis(adjoint)
    count = cokernel.shape[1]
    if count % 2 != 0:
        raise OddIndex(f"dim ker of the adjoint = {count} is odd")
    structural = 2 * (v.codomain.n_modes - v.domain.n_modes)
    if count != structural:
        raise IndexMismatch(
            f"kernel count {count} != structural index {structural}")
    return Membership(v, tol, True, iso, sd, hs, count, cokernel)
