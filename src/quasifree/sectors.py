"""Character-level bookkeeping for gauge sectors.

Given charge data (the defect space h and the charge space k), a gauge group
acting on the particle modes decomposes the charged-vector span into levels.
The level-l character is det(U|h) * e_l(eigs of U|k) in the fermionic case
and h_l(eigs of U|k) in the bosonic case (elementary vs complete homogeneous
symmetric polynomials).  This module evaluates those characters on element
samples, groups levels into equivalence classes by sampled character equality,
and compares brute-force Fock blocks with the charge theorem's matrices
(`oracle_compare`, the one comparison both Fock oracles use).

Sampling is deterministic: a seeded Haar draw for matrix groups (Mezzadri's
QR with the R-diagonal phase fix), the full group for the two-element group,
and a uniform angle grid for the circle group.  Sector equivalence is
certified only on the sample; the sample size and seed are recorded in the
table.

A command's samples travel as one (samples, n, n) stack.  The Haar draw is
one normal draw, one stacked QR and, for SU(k), one stacked determinant,
with the bits of the per-sample draw.  The compression to h or k is one
stacked product of the two diagonal blocks of u + conj(u) with the frame's
dual, and its determinant one stacked det.  The eigenphases are one
np.linalg.eigvals of the stack, so a sector table loads no SciPy.

The characters take a stack of eigenvalue rows, one per sample.  e_l and
h_l are the coefficients of t^l in prod_i (1 + lam_i t) and
1 / prod_i (1 - lam_i t), so one pass over the eigenvalues builds all levels
(Macdonald, Symmetric Functions and Hall Polynomials, I.2): a table costs
one pass.  The complex multiply is written in real parts, because numpy's
complex array multiply may fuse into FMAs and so round differently from a
scalar product; every row then keeps the bits of the scalar recurrence,
whatever stack it sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LevelOutOfRange,
    MalformedInput,
    NotGaugeCompatible,
    sample_chunks,
)
from .selfdual import (DEFAULT_TOL, SelfDualSpace, Statistics, apply_gauge,
                       hs_norm, kappa_sign)

CHAR_TOL = 1e-9
COMPRESS_TOL = 1e-8
# Highest CCR charge level a sector table or bosonic oracle checks.
CCR_L_MAX = 5


def _haar_stack(m: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """(samples, m, m) Haar unitaries: Mezzadri's QR with the R-diagonal phase fix.

    One normal draw of shape (samples, 2, m, m) takes the generator's stream
    as consecutive per-sample draws of the real and then the imaginary part,
    and numpy's QR runs on the whole stack at once.
    """
    g = rng.normal(size=(samples, 2, m, m))
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary: a one-sample stacked draw."""
    return _haar_stack(n, 1, rng)[0]


@dataclass(frozen=True)
class GaugeSample:
    """Sampled gauge elements: one label each and one (samples, n, n) stack."""

    kind: str
    seed: int
    labels: list
    u11: np.ndarray


@dataclass(frozen=True)
class GaugeAction:
    """A compact gauge group acting unitarily on the particle modes.

    kind "u1" uses integer mode charges; "un"/"sun" act by the defining
    representation on a species index (modes ordered site-major, species
    fastest); "z2" is {1, -1}; "custom" takes an explicit unitary list.
    Construction is the one check of a gauge: MalformedInput for an unknown
    group, a wrong charge count or species, or a custom element that is not
    an n x n unitary (||U*U - 1||_HS above DEFAULT_TOL, or NaN).
    """

    kind: str
    n_modes: int
    charges: tuple = ()
    species: int = 0
    unitaries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("u1", "un", "sun", "z2", "custom"):
            raise MalformedInput(f"unknown gauge group {self.kind!r}")
        if self.kind == "u1" and len(self.charges) != self.n_modes:
            raise MalformedInput("u1 action needs one integer charge per mode")
        if self.kind in ("un", "sun") and (
                self.species < 1 or self.n_modes % self.species):
            raise MalformedInput(
                f"species {self.species} does not divide {self.n_modes} modes")
        if self.kind == "custom" and not self.unitaries:
            raise MalformedInput("custom action needs at least one unitary")
        for i, u in enumerate(self.unitaries):
            if np.shape(u) != (self.n_modes, self.n_modes):
                raise MalformedInput(
                    f"custom unitary shape {np.shape(u)} != "
                    f"({self.n_modes}, {self.n_modes})")
            defect = hs_norm(np.conj(u).T @ u - np.eye(self.n_modes))
            if not defect <= DEFAULT_TOL:  # NaN fails too
                raise MalformedInput(f"custom element {i} is not unitary "
                                     f"(||U*U - 1|| = {defect:.3e})")

    def elements(self, samples: int = 50, seed: int = 0) -> GaugeSample:
        n = self.n_modes
        if self.kind == "z2":
            eye = np.eye(n, dtype=complex)
            return GaugeSample(self.kind, seed, ["+1", "-1"],
                               np.stack([eye, -eye]))
        if self.kind == "custom":
            return GaugeSample(
                self.kind, seed,
                [f"custom[{i}]" for i in range(len(self.unitaries))],
                np.array(self.unitaries, dtype=complex))
        u11 = np.zeros((samples, n, n), dtype=complex)
        if self.kind == "u1":
            lam = 2.0 * math.pi * np.arange(samples) / samples
            modes = np.arange(n)
            u11[:, modes, modes] = np.exp(
                1j * lam[:, np.newaxis] * np.asarray(self.charges))
            return GaugeSample(self.kind, seed,
                               [f"lambda={x:.6f}" for x in lam.tolist()], u11)
        m = self.species
        u = _haar_stack(m, samples, np.random.default_rng(seed))
        if self.kind == "sun":
            # An array exponent: numpy turns a scalar 0.5 into sqrt, whose
            # bits differ from the power every other species count takes.
            root = np.linalg.det(u) ** np.full(samples, 1.0 / m)
            u = u / root[:, np.newaxis, np.newaxis]
        sites = np.arange(n // m)
        u11.reshape(samples, n // m, m, n // m, m)[:, sites, :, sites, :] = u
        return GaugeSample(self.kind, seed,
                           [f"haar[{j}]" for j in range(samples)], u11)


def compressed_action(u11: np.ndarray, frame: np.ndarray,
                      space: SelfDualSpace, stats: Statistics) -> np.ndarray:
    """Compress the extended gauge unitary u + conj(u) to a self-dual frame.

    The compression is F# U F with F# the frame's dual: F for a CAR frame,
    which is orthonormal, and C F (`kappa_sign`) for a CCR frame, which is
    kappa-orthonormal (F* C F = 1) but not orthonormal when T != 0.
    u11 is a (samples, n, n) stack, compressed in chunks of samples.  The
    frame columns must span a subspace every element leaves invariant; the
    first element whose leakage ||U F - F (F# U F)|| exceeds COMPRESS_TOL
    raises NotGaugeCompatible, the refusal of both commands.
    """
    k = frame.shape[1]
    comps = np.zeros((len(u11), k, k), dtype=complex)
    chunks = sample_chunks(len(u11), 16 * frame.size) if k else []
    dual = frame if stats.sign > 0 else kappa_sign(frame, None, space)
    for chunk in chunks:
        moved = apply_gauge(u11[chunk], frame, space)
        comp = dual.conj().T @ moved
        leaks = np.linalg.norm(moved - frame @ comp, axis=(1, 2))
        bad = np.flatnonzero(leaks > COMPRESS_TOL)
        if bad.size:
            raise NotGaugeCompatible(
                "gauge does not preserve the charge spaces: gauge element "
                f"moves the subspace: leakage {leaks[bad[0]]:.3e}")
        comps[chunk] = comp
    return comps


def eigenphases(compressed: np.ndarray) -> np.ndarray:
    """Eigenvalues of compressed gauge elements.

    compressed is one k x k matrix or a (samples, k, k) stack, which one
    np.linalg.eigvals call takes whole.  A compression that passed the
    leakage check is unitary up to the square of the leakage, so a
    unitarity defect ||c* c - 1||_F above COMPRESS_TOL in any matrix raises
    NotGaugeCompatible with the largest defect.
    """
    stack = np.asarray(compressed, dtype=complex)
    gram = np.swapaxes(stack, -1, -2).conj() @ stack
    defect = np.max(np.linalg.norm(gram - np.eye(stack.shape[-1]),
                                   axis=(-2, -1)), initial=0.0)
    if defect > COMPRESS_TOL:
        raise NotGaugeCompatible(
            "gauge does not preserve the charge spaces: compressed action is "
            f"not unitary (defect {defect:.3e}); the subspace is not "
            "honestly invariant")
    return np.linalg.eigvals(stack)


def _coefficients(eigs: np.ndarray, top: int, complete: bool) -> np.ndarray:
    """e_0 ... e_top, or h_0 ... h_top when complete, as rows.

    They are the t^j coefficients of prod (1 + lam_i t) and
    1 / prod (1 - lam_i t); eigs is one eigenvalue vector (one column) or a
    (samples, k) stack (one column per row).  Each eigenvalue updates the
    coefficients 1..top in place, c_j += lam c_{j-1}: over j descending for
    e_l, so every c_{j-1} is the old one and the update is one slice, and
    over j ascending for h_l.  Row j never reads a row above it, so its bits
    do not depend on top.  The multiply is written in real parts, so every
    row gets the bits of that scalar loop in Python complex arithmetic.
    """
    stack = np.atleast_2d(np.asarray(eigs, dtype=complex))
    coef = np.zeros((top + 1, len(stack)), dtype=complex)
    coef[0] = 1.0
    re, im = coef.real, coef.imag
    steps = ([(j, j - 1) for j in range(1, top + 1)] if complete
             else [(slice(1, None), slice(None, -1))])
    for lr, li in zip(stack.real.T, stack.imag.T):
        for new, old in steps:
            prod_re = lr * re[old] - li * im[old]
            prod_im = lr * im[old] + li * re[old]
            re[new] += prod_re
            im[new] += prod_im
    return coef


def char_lambda(eigs: np.ndarray, level: int) -> complex | np.ndarray:
    """Elementary symmetric polynomial e_l: the antisymmetric-power character.

    eigs is one eigenvalue vector or a (samples, k) stack of them.
    """
    k = np.shape(eigs)[-1]
    if level < 0 or level > k:
        raise LevelOutOfRange(f"level {level} outside 0..{k}")
    row = _coefficients(eigs, level, complete=False)[level]
    return complex(row[0]) if np.ndim(eigs) == 1 else row


def char_sym(eigs: np.ndarray, level: int) -> complex | np.ndarray:
    """Complete homogeneous polynomial h_l: the symmetric-power character.

    eigs is one eigenvalue vector or a (samples, k) stack of them.
    """
    if level < 0:
        raise LevelOutOfRange(f"level {level} < 0")
    row = _coefficients(eigs, level, complete=True)[level]
    return complex(row[0]) if np.ndim(eigs) == 1 else row


@dataclass(frozen=True)
class SectorRow:
    level: int
    dimension: int
    characters: np.ndarray  # one sample per gauge element


@dataclass(frozen=True)
class SectorTable:
    rows: list
    element_labels: list
    equivalence_classes: list
    sample_meta: dict


def _equivalence_classes(rows: list[SectorRow]) -> list[list[int]]:
    classes: list[list[int]] = []
    for row in rows:
        for cls in classes:
            rep = rows[cls[0]]
            if np.max(np.abs(row.characters - rep.characters)) <= CHAR_TOL:
                cls.append(row.level)
                break
        else:
            classes.append([row.level])
    return classes


def sector_table(stats: Statistics, space: SelfDualSpace, h_frame: np.ndarray,
                 k_frame: np.ndarray, elements: GaugeSample) -> SectorTable:
    """Sampled character table over charge levels, with equivalence classes."""
    k_dim = k_frame.shape[1]
    top = k_dim if stats.sign > 0 else CCR_L_MAX

    if stats.sign > 0:  # h before k, as in the oracle; CCR's h is empty
        dets = np.linalg.det(compressed_action(elements.u11, h_frame, space,
                                               stats))
    eig_stack = eigenphases(compressed_action(elements.u11, k_frame, space,
                                              stats))
    coefs = _coefficients(eig_stack, top, complete=stats.sign < 0)

    rows = []
    for level in range(top + 1):
        if stats.sign > 0:
            dim = math.comb(k_dim, level)
            chars = dets * coefs[level]
        else:
            dim = math.comb(k_dim + level - 1, level) if k_dim else int(level == 0)
            chars = coefs[level]
        rows.append(SectorRow(level, dim, chars))

    meta = {"samples": len(elements.labels), "seed": elements.seed,
            "kind": elements.kind, "tol_char": CHAR_TOL}
    return SectorTable(rows, list(elements.labels),
                       _equivalence_classes(rows), meta)


def oracle_compare(grams: dict, blocks: list[dict], targets: dict) -> float:
    """Largest |G_l^-1 M_l - target_l| over the levels and samples.

    grams[l] is the Gram G_l = <Omega_a, Omega_b> of a level's oracle
    vectors, blocks[i][l] the block M_l = <Omega_a, Gamma(U_i) Omega_b> of
    gauge element i, and targets[l] the (samples, d, d) stack of the charge
    theorem's matrices.  When Gamma(U_i) leaves the span of the Omega_a
    invariant, G_l^-1 M_l is its matrix in that basis, however the Omega_a
    are normalised; one batched solve per level covers every sample.  The
    caller gates the deviation.
    """
    worst = 0.0
    for level, gram in grams.items():
        stack = np.stack([element[level] for element in blocks])
        dev = np.abs(np.linalg.solve(gram, stack) - targets[level])
        worst = max(worst, float(np.max(dev)))
    return worst
