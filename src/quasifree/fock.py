"""Finite Fock-space oracle for the charge machinery.

Everything here is brute force on purpose: dense/sparse matrices on a finite
Fock space provide an independent check of the single-particle charge data.
The brute force does only the arithmetic the structure needs: the fields stay
sparse in the implementer checks, the sum formula is certified from the
intertwining gaps and the completeness Gram instead of being formed, and
Gamma(U) takes only the minors that the exact-zero block pattern of u11
allows to be nonzero, matched by one integer key per subset from a block
pattern taken once per unitary, with the gather and scatter positions kept
as a plan while the pattern repeats; the oracle needs it only for gauge
elements that are not diagonal, since a diagonal one acts on either Fock
space by one phase vector (gamma_vector).  One builder fills the implementer
columns of both statistics, all of W = [Psi_1 ... Psi_r] by one sparse
product per mode and occupation, and the fermionic intertwining gaps take one
sparse product per Psi_alpha, on its nonzeros (car_implementers).  Both
statistics share one occupation encoding, state s holding
(s // radix^i) % radix quanta in mode i (radix 2 for fermions, M + 1 for
bosons), and one field-table builder, run on first use: the implementers'
domain space, which lends only its size, builds no table.

Fermionic side (n modes, dimension 2^n, basis = occupation subsets encoded as
bitmasks): creation follows the fixed sign convention

    a*(e_i) |S> = (-1)^{#{j in S : j < i}} |S u {i}>   (0 if i in S).

The self-dual field is pi(f) = a*(P1 f) + a(P1 Jf); second quantization
Gamma(U) acts per particle number through exterior-power determinants; the
Klein twist is theta = (1 - i Gamma(-1)) / sqrt(2) and psi(f) = theta pi(f)
theta*, which commutes with pi(g) whenever <f, g> = <f, Jg> = 0.

Bosonic side (n modes, per-mode occupation cutoff M, dimension (M+1)^n):
truncated creation operators; the CCR hold exactly below the cutoff; Gamma
is available for phase-diagonal gauge actions, which keep the cutoff.
The charge theorem's targets are compound matrices (CAR) and their twins,
the symmetric powers in the orthonormal monomial basis (CCR).

Vacua: for fermionic charge data (h, T) the representing vector is

    Omega_P = det(1 + T*T)^{-1/4} psi(h_1) ... psi(h_L) exp(B) Omega,
    B = 1/2 sum_ij conj(t)_ij a*_i a*_j,

and for bosonic data Omega_P = det(1 - T*T)^{+1/4} exp(-B) Omega.  Charged
vectors Omega_alpha apply twisted fields over the k frame (strictly
increasing multi-indices, CAR) or the normalised pi-monomials
prod_j pi(g_alpha_j) Omega_P / sqrt(m_alpha!) (non-decreasing multi-indices,
CCR), one sparse pi(g_j) per k column.

The bosonic monomials are exact on the truncated space for every gauge
element the oracle applies there.  A diagonal Gamma(U) commutes with the
per-mode cutoff, so Gamma(U) pi(g) Gamma(U)* = pi(Ug) holds exactly below
it; the span of the monomials is then invariant, and the matrix of Gamma(U)
on it, in the normalised basis, is S^l(c) with c the compressed action on
k.  The truncation tail only makes the Omega_alpha fail to be orthonormal,
and the charge comparison's G^-1 M removes that.  Elements that are not
diagonal are refused by BoseFock.gamma.  The bosonic implementer builds Psi
only on the probe window and one quantum above it, all that its checks read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    BOSE_DIM_CAP,
    FERMI_DIM_CAP,
    GAMMA_DIM_CAP,
    CapExceeded,
    ImplementationDefect,
    LevelOutOfRange,
    NormBoundViolation,
    NotGaugeCompatible,
    OrthonormalityFailure,
)
from .selfdual import DEFAULT_TOL, BlockOperator, SelfDualSpace, hs_norm

EXP_MAX_TERMS = 200  # power-series terms of exp(B) Omega at most


def multi_indices(k_dim: int, l_max: int,
                  repeats: bool) -> list[tuple[int, ...]]:
    """Multi-indices over k up to level l_max, grouped by level, lex order.

    Strictly increasing ones label the exterior powers (CAR), non-decreasing
    ones, when ``repeats``, the symmetric powers (CCR).
    """
    if l_max < 0:
        raise LevelOutOfRange(f"l_max = {l_max} < 0")
    pick = (itertools.combinations_with_replacement if repeats
            else itertools.combinations)
    return [alpha for level in range(l_max + 1)
            for alpha in pick(range(k_dim), level)]


class _FockSpace:
    """Occupation encoding and field operators shared by both statistics.

    State s holds (s // radix^i) % radix quanta in mode i, so state 0 is the
    vacuum; a fermionic space is the radix-2 case, and its states are the
    bitmasks of occupied modes.  _signed adds the Jordan-Wigner sign.
    """

    _signed = False

    def __init__(self, n_modes: int, radix: int):
        self.n_modes = n_modes
        self.dim = radix ** n_modes
        self._radix = radix

    @functools.cached_property
    def _occupations(self) -> np.ndarray:
        return (np.arange(self.dim)[:, None]
                // self._radix ** np.arange(self.n_modes) % self._radix)

    @functools.cached_property
    def _creation(self) -> list[sp.csr_matrix]:
        return [self._field_table(i, True) for i in range(self.n_modes)]

    @functools.cached_property
    def _annihilation(self) -> list[sp.csr_matrix]:
        return [self._field_table(i, False) for i in range(self.n_modes)]

    def _field_table(self, i: int, create: bool) -> sp.csr_matrix:
        """a*(e_i) (create) or a(e_i), written straight into CSR form.

        Each row holds at most one entry.  With m the quanta of mode i in
        state s, row s of a*(e_i) takes column s - radix^i and sqrt(m) when
        m > 0, row s of a(e_i) column s + radix^i and sqrt(m + 1) when
        m < radix - 1.  Fermions add the sign (-1)^{#{j in S : j < i}}.
        """
        step = self._radix ** i
        occ = self._occupations[:, i]
        rows = occ > 0 if create else occ < self._radix - 1
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        np.cumsum(rows, out=indptr[1:])
        states = np.flatnonzero(rows)
        cols = (states - step if create else states + step).astype(np.int32)
        vals = np.sqrt(occ[rows] + (0.0 if create else 1.0))
        if self._signed:
            vals *= _sign_of_count(states & (step - 1))
        return sp.csr_matrix((vals, cols, indptr), shape=(self.dim, self.dim))

    def creation(self, mode: int) -> sp.csr_matrix:
        return self._creation[mode - 1]

    def annihilation(self, mode: int) -> sp.csr_matrix:
        return self._annihilation[mode - 1]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def state_index(self, occupation) -> int:
        return sum(int(m) * self._radix ** i for i, m in enumerate(occupation))

    def occupation_projector_diag(self, max_per_mode: int) -> np.ndarray:
        """Diagonal 0/1 vector selecting states below an occupation limit."""
        return (self._occupations.max(axis=1, initial=0)
                <= max_per_mode).astype(float)

    def pi(self, space: SelfDualSpace, f: np.ndarray) -> sp.csr_matrix:
        """Self-dual field pi(f) = a*(P1 f) + a(P1 Jf).

        No two of the terms a*(e_i), a(e_j) share a matrix position, so each
        entry is a single product; + 0.0 clears negative zeros as a sparse
        sum does.  The scaled tables' entries are sorted by (row, column) and
        written straight into CSR form, the arrays a COO build would give.
        """
        if space.n_modes != self.n_modes:
            raise CapExceeded("space does not match this Fock space")
        terms = [(complex(c), table) for c, table in
                 zip(f, self._creation + self._annihilation) if c != 0]
        if not terms:
            return sp.csr_matrix((self.dim, self.dim), dtype=complex)
        data = np.concatenate([c * t.data for c, t in terms]) + 0.0
        rows = np.concatenate([np.repeat(np.arange(self.dim), np.diff(t.indptr))
                               for _, t in terms])
        cols = np.concatenate([t.indices for _, t in terms])
        order = np.argsort(rows * self.dim + cols)
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        return sp.csr_matrix((data[order], cols[order], indptr),
                             shape=(self.dim, self.dim))

    def gamma_vector(self, u11: np.ndarray) -> np.ndarray:
        """Gamma(U) of a diagonal u11 as its diagonal: prod_i u_ii^(occ_i).

        Built one mode at a time as products, which the determinants of
        FermiFock.gamma match to rounding; exp(i occ . angle) drifts further.
        """
        vec = np.ones(1, dtype=complex)
        for phase in np.diagonal(u11):
            blocks = [vec]
            for _ in range(1, self._radix):
                blocks.append(blocks[-1] * phase)
            vec = np.concatenate(blocks)
        return vec


def _sign_of_count(masks: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits) of each bitmask, as floats."""
    return 1.0 - 2.0 * (np.bitwise_count(masks) % 2)


class FermiFock(_FockSpace):
    """Fermionic Fock space on n modes.

    The field tables are built on first use; gamma keeps one minor plan,
    for the block pattern of its last unitary.
    """

    _signed = True

    def __init__(self, n_modes: int):
        dim = 2 ** n_modes
        if dim > FERMI_DIM_CAP:
            raise CapExceeded(f"fermionic dimension 2^{n_modes} = {dim} "
                              f"exceeds cap {FERMI_DIM_CAP}")
        super().__init__(n_modes, 2)
        self._parity_diag = _sign_of_count(np.arange(dim))
        self._theta_diag = (1.0 - 1j * self._parity_diag) / math.sqrt(2.0)
        # Gamma's minor plan: the block weights it serves and, per level,
        # the flat output positions and gather indices of the minors.
        self._plan = None

    def parity(self) -> np.ndarray:
        """Gamma(-1) as a diagonal vector."""
        return self._parity_diag

    def psi(self, space: SelfDualSpace, f: np.ndarray) -> sp.csr_matrix:
        """Twisted field theta pi(f) theta*, on the CSR structure of pi(f).

        Each entry is theta[row] pi(f)[row, col] conj(theta[col]), the same
        three factors in the same order as an entrywise COO build.
        """
        op = self.pi(space, f)
        rows = np.repeat(np.arange(self.dim), np.diff(op.indptr))
        op.data = (self._theta_diag[rows] * op.data
                   * np.conj(self._theta_diag[op.indices]))
        return op

    def gamma(self, u11: np.ndarray) -> np.ndarray:
        """Second quantization of a P1-commuting gauge unitary (dense).

        Built from exterior powers: <S'|Gamma(U)|S> = det u11[S', S] for
        |S'| = |S|, zero otherwise, so the block of particle number l is the
        compound matrix of u11 at level l.  Only the minors that u11's
        exact-zero block pattern allows are taken (see compound_matrix), so
        a phase gauge costs C(n, l) minors per level, a generic unitary all
        C(n, l)^2.  The block weights are taken once per unitary.  The minor
        plan, each level's gather indices and flat output positions, is
        built when the weights differ from those of the last call and kept
        otherwise, so a run of unitaries with one block pattern only
        gathers, takes the determinants and writes them to their pairs of
        basis states.  One plan is kept at a time.
        """
        n = self.n_modes
        if u11.shape != (n, n):
            raise NotGaugeCompatible(f"u11 shape {u11.shape} != ({n}, {n})")
        if hs_norm(u11.conj().T @ u11 - np.eye(n)) > DEFAULT_TOL:
            raise NotGaugeCompatible("u11 is not unitary")
        if self.dim > GAMMA_DIM_CAP:
            raise CapExceeded(
                f"Gamma on dimension {self.dim} exceeds cap {GAMMA_DIM_CAP}")
        weights = _block_weights(u11)
        if self._plan is None or not np.array_equal(self._plan[0], weights):
            levels = []
            for level in range(1, n + 1):
                # The level's subsets in lexicographic order (the row order
                # of compound_matrix), and their basis states.
                combs = _combinations(n, level)
                states = (1 << combs).sum(axis=1)
                rows, cols, gather = _minor_positions(combs, weights)
                levels.append((states[rows] * self.dim + states[cols], gather))
            self._plan = weights, levels
        out = np.zeros(self.dim * self.dim, dtype=complex)
        out[0] = 1.0
        for flat, gather in self._plan[1]:
            out[flat] = _minors(u11, gather)
        return out.reshape(self.dim, self.dim)


class BoseFock(_FockSpace):
    """Truncated bosonic Fock space: per-mode occupation cutoff M."""

    def __init__(self, n_modes: int, cutoff: int):
        dim = (cutoff + 1) ** n_modes
        if dim > BOSE_DIM_CAP:
            raise CapExceeded(
                f"bosonic dimension {dim} exceeds cap {BOSE_DIM_CAP}")
        super().__init__(n_modes, cutoff + 1)
        self.cutoff = cutoff

    def gamma(self, u11: np.ndarray) -> np.ndarray:
        """Refused: a u11 that mixes modes breaks the per-mode cutoff."""
        raise NotGaugeCompatible(
            "bosonic oracle supports phase-diagonal gauge elements only")


# --- vacua -------------------------------------------------------------------

def _pair_exponent(fock, t_block: np.ndarray) -> sp.csr_matrix:
    """B = 1/2 sum_j a*(conj(T) e_j) a*_j as a sparse operator."""
    n = fock.n_modes
    op = sp.csr_matrix((fock.dim, fock.dim), dtype=complex)
    for j, col in enumerate(np.conj(t_block).T):
        if np.any(col):
            left = fock.pi(SelfDualSpace(n), np.pad(col, (0, n)))
            op = op + 0.5 * (left @ fock._creation[j])
    return op


def _exp_apply(op: sp.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """exp(op) vec by the power series; terminates on vanishing terms."""
    out = vec.astype(complex).copy()
    term = vec.astype(complex).copy()
    for k in range(1, EXP_MAX_TERMS):
        term = (op @ term) / k
        norm = float(np.linalg.norm(term))
        if norm == 0.0 or norm < 1e-300:
            break
        out += term
        if norm < 1e-18 * max(1.0, float(np.linalg.norm(out))):
            break
    return out


def omega_p_fermi(fock: FermiFock, space: SelfDualSpace, h_frame: np.ndarray,
                  t_block: np.ndarray) -> np.ndarray:
    """Fermionic representing vacuum for charge data (h, T); unit norm."""
    factor = float(np.linalg.det(
        np.eye(fock.n_modes) + t_block.conj().T @ t_block).real) ** (-0.25)
    vec = _exp_apply(_pair_exponent(fock, t_block), fock.vacuum())
    for col in range(h_frame.shape[1] - 1, -1, -1):
        vec = fock.psi(space, h_frame[:, col]) @ vec
    vec = factor * vec
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ImplementationDefect(
            f"fermionic vacuum norm {norm:.12f} != 1")
    return vec


def omega_p_bose(fock: BoseFock, space: SelfDualSpace, t_block: np.ndarray
                 ) -> tuple[np.ndarray, float]:
    """Bosonic vacuum and its truncation tail 1 - ||.||^2.

    The vacuum is det(1 - T*T)^{1/4} exp(-B) Omega.
    """
    eye = np.eye(fock.n_modes)
    gram = eye - t_block.conj().T @ t_block
    eigs = np.linalg.eigvalsh(gram)
    if np.min(eigs, initial=np.inf) <= 0:
        raise NormBoundViolation(
            "1 - T*T is not positive definite, so ||T|| >= 1")
    factor = float(np.linalg.det(gram).real) ** 0.25
    vec = factor * _exp_apply(-_pair_exponent(fock, t_block), fock.vacuum())
    tail = max(0.0, 1.0 - float(np.linalg.norm(vec)) ** 2)
    return vec, tail


def polar_isometry(matrix: np.ndarray) -> np.ndarray:
    """Unitary polar factor U Vh of a dense square matrix via its SVD.

    The factor is unique on (ker matrix)^perp; on the kernel it is the
    completion LAPACK's singular vectors give, deterministic for a given
    input.  No code in the package calls it: the bosonic charged vectors
    are normalised pi-monomials (omega_alphas_bose), and the tests use it as
    the dense polar reference.
    """
    u, _, vh = np.linalg.svd(matrix)
    return u @ vh


def omega_alphas_fermi(fock: FermiFock, space: SelfDualSpace,
                       omega_p: np.ndarray, k_frame: np.ndarray
                       ) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Charged vectors over strictly increasing multi-indices; orthonormal."""
    alphas = multi_indices(k_frame.shape[1], k_frame.shape[1], False)
    psis = [fock.psi(space, k_frame[:, j]) for j in range(k_frame.shape[1])]
    vectors = []
    for alpha in alphas:
        vec = omega_p.copy()
        for j in reversed(alpha):
            vec = psis[j] @ vec
        vectors.append(vec)
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    defect = float(np.max(np.abs(gram - np.eye(len(vectors)))))
    if defect > DEFAULT_TOL:
        raise OrthonormalityFailure(
            f"fermionic Omega_alpha Gram defect {defect:.3e}")
    return alphas, vectors


def omega_alphas_bose(fock: BoseFock, space: SelfDualSpace,
                      omega_p: np.ndarray, k_frame: np.ndarray, l_max: int
                      ) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Charged vectors prod_j pi(g_alpha_j) Omega_P / sqrt(m_alpha!).

    Non-decreasing multi-indices alpha up to level l_max, g_j the k frame's
    columns and m_alpha! the product of the factorials of alpha's
    multiplicities: the basis in which symmetric_power writes S^l.  The
    monomial of alpha is pi(g_alpha_0) applied to that of alpha[1:], a lower
    level, so each takes one sparse product.
    """
    alphas = multi_indices(k_frame.shape[1], l_max, True)
    pis = [fock.pi(space, col) for col in k_frame.T]
    monomials = {(): omega_p}
    for alpha in alphas[1:]:
        monomials[alpha] = pis[alpha[0]] @ monomials[alpha[1:]]
    vectors = [monomials[alpha] / math.sqrt(math.prod(
        math.factorial(alpha.count(j)) for j in set(alpha))) for alpha in alphas]
    return alphas, vectors


# --- implementers -------------------------------------------------------------

@dataclass(frozen=True)
class ImplementerSet:
    """Isometries solving Psi_alpha pi(a) Omega = pi(rho_V(a)) Omega_alpha.

    implementation_residual is a certified upper bound on the sum formula's
    HS residual max_f |sum_alpha Psi_alpha pi(f) Psi_alpha* - pi(Vf)|_HS
    over the domain basis, not the residual itself: the largest over f of
    sqrt(sum_alpha |gap_alpha(f)|_HS^2) sqrt(1 + comp) + |Vf| comp, with
    gap_alpha(f) the intertwining gap and comp the completeness residual
    (derived in car_implementers).
    """

    psis: list
    intertwining_residual: float
    isometry_residual: float
    completeness_residual: float
    implementation_residual: float


def _implementer_columns(pi_v: list, omegas: np.ndarray,
                         fock_dom: _FockSpace) -> np.ndarray:
    """W = [Psi_1 ... Psi_r] of the vacua omegas; pi_v[i] = pi(V e_i).

    Column 0 of Psi_alpha is omegas[:, alpha].  A state whose lowest
    occupied mode i holds m quanta takes pi_v[i] applied to the column with
    m - 1 there, over sqrt(m).  From the highest mode down, for m = 1 ...
    radix - 1, one sparse-dense product fills all such columns of every
    Psi_alpha, each as a matvec would: dim_d is a power of the radix, so in
    the view reshape(dim_c, -1, radix, radix^i) of W they are the slots
    [:, :, m, 0], filled from [:, :, m - 1, 0], and no index array is formed.
    """
    if len(pi_v) != 2 * fock_dom.n_modes:
        raise CapExceeded("space does not match this Fock space")
    radix = fock_dom._radix
    dim_c, count = omegas.shape
    cols = np.zeros((dim_c, count * fock_dom.dim), dtype=complex)
    cols[:, ::fock_dom.dim] = omegas
    for mode in reversed(range(fock_dom.n_modes)):
        view = cols.reshape(dim_c, -1, radix, radix ** mode)
        for m in range(1, radix):
            view[:, :, m, 0] = pi_v[mode] @ view[:, :, m - 1, 0] / math.sqrt(m)
    return cols


def car_implementers(v: BlockOperator, fock_dom: FermiFock,
                     fock_cod: FermiFock, omega_alphas: list[np.ndarray]
                     ) -> ImplementerSet:
    """Solve for the fermionic implementers and measure their relations.

    The four residuals are returned, not judged: the caller gates them.
    _implementer_columns gives W = [Psi_1 ... Psi_r], each Psi_alpha a view.

    The intertwining gaps work on the nonzeros of each Psi_alpha alone; at
    8 modes over 99 % of W is exactly zero.  The fields pi_c = pi(V f) of
    the 2 n_d domain basis vectors f are stacked once, so one sparse
    product per Psi_alpha gives every pi_c Psi_alpha.  For basis vector
    idx, pi_d = pi(f) is a*(e_b) (idx < n_d) or a(e_b), b = idx mod n_d, and
    Psi_alpha pi_d moves each entry in a column c with bit b set (a*) or
    clear (a) to c - 2^b or c + 2^b, times the parity of c's bits below b;
    those blocks are written from Psi_alpha's nonzeros by index arithmetic.
    Gap idx is the difference's CSR rows [idx dim_c, (idx + 1) dim_c).  Its
    bits are those of a dense product per f and alpha: scipy's csr_matmat
    sums each entry over the same nonzeros, in the same order, as
    csr_matvecs; every term it skips is an exact zero; and hs_norm, an
    exactly rounded fsum that drops zeros, reads no storage order.
    Isometry and completeness come from the one Gram W*W, as
    tr (W W*)^j = tr (W*W)^j gives

        |W W* - 1|_HS^2 = |W*W - 1|_HS^2 + dim_c - r dim_d,

    clamped at 0, with no dim_c x dim_c product W W*.

    The sum formula is certified from those, without a dense product.  With
    gap_alpha = Psi_alpha pi_d - pi_c Psi_alpha, G = [gap_1 ... gap_r] and
    C = W W* - 1,

        sum_alpha Psi_alpha pi_d Psi_alpha* - pi_c = G W* + pi_c C,

    and |W|_op^2 <= 1 + |C|_HS, while the CAR {pi(g)*, pi(g)} = |g|^2 give
    |pi_c|_op <= |Vf|.  So for each basis vector f the residual is at most

        sqrt(sum_alpha |gap_alpha|_HS^2) sqrt(1 + comp) + |Vf| comp,

    comp = |C|_HS, and implementation_residual is the largest of these.
    """
    pi_v = [fock_cod.pi(v.codomain, col) for col in v.matrix.T]
    stacked = _implementer_columns(pi_v, np.column_stack(omega_alphas),
                                   fock_dom)
    psis = np.hsplit(stacked, len(omega_alphas))
    gram_gap = stacked.conj().T @ stacked - np.eye(stacked.shape[1])
    iso = float(np.max(np.abs(gram_gap)))
    # The integer dim_c - r dim_d first: 0 for a square W, so nothing rounds.
    comp = math.sqrt(max(0.0, hs_norm(gram_gap) ** 2
                         + (fock_cod.dim - stacked.shape[1])))

    n, dim_c = fock_dom.n_modes, fock_cod.dim
    gaps = np.zeros((len(psis), 2 * n))  # gaps[alpha, idx]
    if n:  # a zero-mode domain has no fields and no gaps
        pi_c = sp.vstack(pi_v, format="csr")
        f_idx = np.arange(2 * n)[:, None]
        step = 1 << f_idx % n
        for alpha, psi in enumerate(psis):
            rows, cols = np.nonzero(psi)
            vals = psi[rows, cols]
            keep = ((cols & step) != 0) == (f_idx < n)
            moved = sp.coo_matrix((
                (vals * _sign_of_count(cols & (step - 1)))[keep],
                ((rows + f_idx * dim_c)[keep],
                 (cols + np.where(f_idx < n, -step, step))[keep])),
                shape=(pi_c.shape[0], psi.shape[1]))
            gap = pi_c @ sp.csr_matrix((vals, (rows, cols)), psi.shape) - moved
            ends = gap.indptr[::dim_c]
            gaps[alpha] = [hs_norm(gap.data[lo:hi])
                           for lo, hi in zip(ends[:-1], ends[1:])]
    impl = 0.0
    for idx, col in enumerate(gaps.T):
        impl = max(impl, math.hypot(*col) * math.sqrt(1.0 + comp)
                   + float(np.linalg.norm(v.matrix[:, idx])) * comp)

    return ImplementerSet(psis, float(gaps.max(initial=0.0)), iso, comp, impl)


def bose_implementer(v: BlockOperator, fock_cod: BoseFock,
                     omega_alpha: np.ndarray, occ_probe: int
                     ) -> tuple[np.ndarray, float, float]:
    """One bosonic implementer on the probe window, with its residuals.

    The intertwining gap is measured on matrix elements between states with
    per-mode occupation <= occ_probe on both sides; entries near the cutoff
    only carry truncation noise.  The isometry defect is the Gram deviation of
    the probe-window columns (full rows kept, since the columns have genuine
    high-occupation weight); it converges to zero as the cutoff grows and is
    reported as a cutoff-limited diagnostic rather than asserted exactly.

    Psi is built on BoseFock(n_d, min(occ_probe + 1, cutoff)) only: the window
    and the one extra quantum that Psi a*(e_i) reads there.  Those columns
    chain only from each other, so each keeps the bits of a full build; they
    come in that space's state order.
    """
    fock_dom = BoseFock(v.domain.n_modes, min(occ_probe + 1, fock_cod.cutoff))
    pi_v = [fock_cod.pi(v.codomain, col) for col in v.matrix.T]
    psi = _implementer_columns(pi_v, omega_alpha[:, None], fock_dom)

    rows = np.flatnonzero(fock_cod.occupation_projector_diag(occ_probe))
    cols = np.flatnonzero(fock_dom.occupation_projector_diag(occ_probe))
    psi_rows, psi_cols = psi[rows], psi[:, cols]
    inter = 0.0
    for pi_c, pi_d in zip(pi_v, fock_dom._creation + fock_dom._annihilation):
        # The fields stay sparse and only the probe window is formed.  pi_d,
        # the domain's a*(e_i) or a(e_i) table, has at most one entry per row
        # and column, so psi @ pi_d is exact; pi_c @ psi sums only nonzeros.
        gap = psi_rows @ pi_d[:, cols] - pi_c[rows] @ psi_cols
        inter = max(inter, float(np.max(np.abs(gap))))
    gram = psi_cols.conj().T @ psi_cols - np.eye(len(cols))
    iso = float(np.max(np.abs(gram)))
    return psi, inter, iso


# --- charge representation matrices -------------------------------------------

def charge_rep_blocks(omega_alphas: list[np.ndarray],
                      alphas: list[tuple[int, ...]],
                      gamma_action) -> dict[int, np.ndarray]:
    """Blocks M_l[a, b] = <Omega_a, Gamma(U) Omega_b> per level l.

    gamma_action is a callable applying Gamma(U) to a vector: a dense
    Gamma(U) passes its ``__matmul__``, a diagonal one a phase product.
    """
    transformed = [gamma_action(vec) for vec in omega_alphas]
    levels: dict[int, list] = {}
    for i, alpha in enumerate(alphas):
        levels.setdefault(len(alpha), []).append(i)
    return {level: np.array([[np.vdot(omega_alphas[i], transformed[j])
                              for j in idx] for i in idx])
            for level, idx in levels.items()}


def compound_matrix(matrix: np.ndarray, level: int) -> np.ndarray:
    """Exterior-power (compound) matrix in lexicographic combination order.

    For one matrix or a stack (the last two axes), only the minors that can
    be nonzero are taken.  Split the indices into the blocks of a matrix's
    exact-zero pattern; det matrix[S', S] is zero unless S' and S hold the
    same number of indices in every block, and then exactly 0, since LU
    never mixes rows of different blocks.  The pairs with equal keys
    (_block_weights) of all elements with one block pattern go through one
    batched determinant, which factors each minor as a scalar det call
    would.  A diagonal matrix takes the C(n, level) diagonal minors, a
    matrix without exact zeros all C(n, level)^2.  FermiFock.gamma shares
    this evaluation.
    """
    n = matrix.shape[-1]
    combs = _combinations(n, level)
    stack = matrix.reshape(math.prod(matrix.shape[:-2]), n, n)
    out = np.zeros((len(stack), len(combs), len(combs)), dtype=complex)
    weights = _block_weights(stack)
    patterns, which = np.unique(weights, axis=0, return_inverse=True)
    for key, pattern in enumerate(patterns):
        rows, cols, gather = _minor_positions(combs, pattern)
        members = np.flatnonzero(which == key)
        out[members[:, None], rows, cols] = _minors(stack[members], gather)
    return out.reshape(matrix.shape[:-2] + out.shape[1:])


def symmetric_power(matrix: np.ndarray, level: int) -> np.ndarray:
    """Symmetric-power matrix in the orthonormal monomial basis.

    The CCR twin of compound_matrix, for one k x k matrix or a stack of them
    (the last two axes).  Rows and columns run over the
    non-decreasing level-tuples of range(n) in lexicographic order, the
    multi-indices of the monomials prod_i a*(f_alpha_i) Omega / sqrt(m_alpha!)
    that the bosonic Omega_alpha stand for, with m_alpha! the product of the
    factorials of alpha's multiplicities.  Entry (alpha, beta) is
    perm(matrix[alpha, beta]) / sqrt(m_alpha! m_beta!).  The permanents come
    from Glynn's formula (Europ. J. Combin. 31 (2010) 1887), batched over the
    2^(level-1) sign vectors delta with delta_0 = 1:
    perm A = sum_delta prod(delta) prod_j (delta A)_j / 2^(level-1); its terms
    cancel less than Ryser's.
    """
    n = matrix.shape[-1]
    combos = list(itertools.combinations_with_replacement(range(n), level))
    tuples = np.array(combos, dtype=np.intp).reshape(len(combos), level)
    minors = matrix[..., tuples[:, None, :, None], tuples[None, :, None, :]]
    rows = 2 ** max(level - 1, 0)
    deltas = 1 - 2 * ((np.arange(rows)[:, None] << 1 >> np.arange(level)) & 1)
    perms = np.prod(deltas @ minors, axis=-1) @ np.prod(deltas, axis=1) / rows
    norms = np.sqrt([math.prod(map(math.factorial, np.bincount(t, minlength=n)))
                     for t in tuples])
    return perms / np.outer(norms, norms)


def _combinations(n: int, level: int) -> np.ndarray:
    """The level-subsets of range(n) in lexicographic order, one per row."""
    return np.array(list(itertools.combinations(range(n), level)),
                    dtype=np.intp).reshape(math.comb(n, level), level)


def _minor_positions(combs: np.ndarray, weights: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (S', S) in combs with equal keys, row-major, and the gather
    index of their minors.

    The gather index holds, for each pair, the flat positions i n + j of the
    entries (i, j) of S' x S in an n x n matrix, n = len(weights), in the
    smallest unsigned type that holds n^2: one index array gathers faster
    than a broadcast pair, and one byte an entry keeps the gather indices
    of a generic 10-mode Gamma(U) at 4.9 MB rather than 39 MB.
    """
    n = len(weights)
    key = weights[combs].sum(axis=1)
    rows, cols = np.nonzero(key[:, None] == key[None, :])
    gather = combs[rows][:, :, None] * n + combs[cols][:, None, :]
    return rows, cols, gather.astype(np.min_scalar_type(n * n))


def _minors(matrix: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """det matrix[S', S] per pair of a gather index and stacked matrix."""
    return np.linalg.det(matrix.reshape(*matrix.shape[:-2], -1)[..., gather])


def _block_weights(matrix: np.ndarray) -> np.ndarray:
    """Integer index weights of a matrix or stack; a subset's key sums them.

    The key holds the subset's count in each block of the exact-zero pattern
    as one mixed-radix digit of radix block size + 1, so two subsets share a
    key exactly when their counts agree in every block.  Keys stay below
    prod(size + 1) <= 2^n, exact in int64 up to 63 indices.
    """
    n = matrix.shape[-1]
    # first[i]: the smallest index in the block of i; it numbers the block.
    first = np.where(_same_block(matrix), np.arange(n)[:, None], n).min(
        axis=-2, initial=n)
    radix = (first[..., None] == np.arange(n)).sum(axis=-2) + 1
    return np.take_along_axis(np.cumprod(radix, axis=-1) // radix, first, -1)


def _same_block(matrix: np.ndarray) -> np.ndarray:
    """Whether indices i and j share a block of the exact-zero pattern.

    They do when a chain of nonzero entries matrix[i, k], matrix[k, l], ...
    links them, in either direction.
    """
    nonzero = matrix != 0
    linked = nonzero | nonzero.mT | np.eye(matrix.shape[-1], dtype=bool)
    while True:
        wider = linked @ linked
        if np.array_equal(wider, linked):
            return linked
        linked = wider
