"""Character-level bookkeeping for gauge sectors.

Given charge data (the defect space h and the charge space k), a gauge group
acting on the particle modes decomposes the charged-vector span into levels.
The level-l character is det(U|h) * e_l(eigs of U|k) in the fermionic case
and h_l(eigs of U|k) in the bosonic case (elementary vs complete homogeneous
symmetric polynomials).  This module evaluates those characters on element
samples, groups levels into equivalence classes by sampled character equality,
and compares against brute-force Fock blocks.

Sampling is deterministic: a seeded QR-based Haar draw for matrix groups, the
full group for the two-element group, and a uniform angle grid for the circle
group.  Sector equivalence is certified only on the sample; the sample size
and seed are recorded in the table.

The characters take a stack of eigenvalue rows, one per sample, so a table
costs one char_lambda / char_sym call per level.  Their sum order is fixed
on purpose: products left to right from 1 with the complex multiply written
in real parts, rows summed in order from 0.  numpy's complex array multiply
may fuse into FMAs and so round differently from a scalar product; the
fixed order gives every sample the bits of the scalar sum, and reports stay
byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import LevelOutOfRange, MalformedInput, NotInvariant
from .selfdual import SelfDualSpace, extend_gauge, hs_norm

CHAR_TOL = 1e-9
COMPRESS_TOL = 1e-8
# Highest CCR charge level a sector table or bosonic oracle checks.
CCR_L_MAX = 5
# Monomials per block of the stacked character sums (bounds their memory).
_MONOMIAL_BLOCK = 256


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class GaugeElement:
    label: str
    u11: np.ndarray


@dataclass(frozen=True)
class GaugeAction:
    """A compact gauge group acting unitarily on the particle modes.

    kind "u1" uses integer mode charges; "un"/"sun" act by the defining
    representation on a species index (modes ordered site-major, species
    fastest); "z2" is {1, -1}; "custom" takes an explicit unitary list.
    """

    kind: str
    n_modes: int
    charges: tuple = ()
    species: int = 0
    unitaries: tuple = ()

    def __post_init__(self):
        if self.kind == "u1" and len(self.charges) != self.n_modes:
            raise MalformedInput("u1 action needs one integer charge per mode")
        if self.kind in ("un", "sun"):
            if self.species < 1 or self.n_modes % self.species:
                raise MalformedInput(
                    f"species {self.species} does not divide {self.n_modes} modes")
        if self.kind == "custom" and not self.unitaries:
            raise MalformedInput("custom action needs at least one unitary")
        for u in self.unitaries:
            if np.shape(u) != (self.n_modes, self.n_modes):
                raise MalformedInput(
                    f"custom unitary shape {np.shape(u)} != "
                    f"({self.n_modes}, {self.n_modes})")
        if self.kind not in ("u1", "un", "sun", "z2", "custom"):
            raise MalformedInput(f"unknown gauge kind {self.kind!r}")

    def elements(self, samples: int = 50, seed: int = 0) -> list[GaugeElement]:
        n = self.n_modes
        if self.kind == "z2":
            return [GaugeElement("+1", np.eye(n, dtype=complex)),
                    GaugeElement("-1", -np.eye(n, dtype=complex))]
        if self.kind == "u1":
            out = []
            for j in range(samples):
                lam = 2.0 * math.pi * j / samples
                u = np.diag(np.exp(1j * lam * np.asarray(self.charges)))
                out.append(GaugeElement(f"lambda={lam:.6f}", u))
            return out
        if self.kind == "custom":
            return [GaugeElement(f"custom[{i}]", np.asarray(u, dtype=complex))
                    for i, u in enumerate(self.unitaries)]
        rng = np.random.default_rng(seed)
        sites = n // self.species
        out = []
        for j in range(samples):
            u = haar_unitary(self.species, rng)
            if self.kind == "sun":
                u = u / np.linalg.det(u) ** (1.0 / self.species)
            out.append(GaugeElement(f"haar[{j}]",
                                    np.kron(np.eye(sites), u)))
        return out


def compressed_action(u11: np.ndarray, frame: np.ndarray,
                      space: SelfDualSpace) -> np.ndarray:
    """Compress the extended gauge unitary u + conj(u) to a self-dual frame.

    The frame columns must span an invariant subspace; the leakage
    ||U frame - frame (frame* U frame)|| above COMPRESS_TOL raises
    NotInvariant.
    """
    if frame.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    moved = extend_gauge(u11, space) @ frame
    comp = frame.conj().T @ moved
    leak = float(np.linalg.norm(moved - frame @ comp))
    if leak > COMPRESS_TOL:
        raise NotInvariant(
            f"gauge element moves the subspace: leakage {leak:.3e}")
    return comp


def eigenphases(compressed: np.ndarray) -> np.ndarray:
    """Eigenvalues of a compressed gauge element via Schur decomposition."""
    if compressed.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    t, _ = scipy.linalg.schur(compressed, output="complex")
    off = hs_norm(t - np.diag(np.diagonal(t)))
    if off > COMPRESS_TOL:
        raise NotInvariant(
            f"compressed action is not normal (defect {off:.3e}); "
            "the subspace is not honestly invariant")
    return np.diagonal(t).copy()


def char_det_h(u11: np.ndarray, h_frame: np.ndarray,
               space: SelfDualSpace) -> complex:
    """Determinant character on the defect space h (1 when h is empty)."""
    comp = compressed_action(u11, h_frame, space)
    if comp.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(comp))


def _monomial_sum(eigs: np.ndarray, combos) -> complex | np.ndarray:
    """Sum over index tuples of the product of the indexed eigenvalues.

    eigs is one eigenvalue vector (the sum comes back as a complex) or a
    (samples, k) stack (one sum per row).  The arithmetic is fixed so that
    every row gets the bits of the scalar loop
    ``sum(math.prod((eigs[i] for i in c), start=1+0j) for c in combos)``:
    each product runs left to right from 1+0j with the complex multiply
    written out in real parts (numpy's complex array multiply may fuse it
    into FMAs), and each row is summed in order from 0j by np.add.accumulate.
    The monomials come in blocks of _MONOMIAL_BLOCK, each block's first
    column carrying the running total, so memory stays samples x block.
    """
    vec = np.asarray(eigs, dtype=complex)
    stack = np.atleast_2d(vec)
    total = np.zeros(len(stack), dtype=complex)
    re, im = stack.real, stack.imag
    while block := list(itertools.islice(combos, _MONOMIAL_BLOCK)):
        idx = np.array(block, dtype=np.intp)
        prod_re = np.ones((len(stack), len(block)))
        prod_im = np.zeros_like(prod_re)
        for col in idx.T:
            br, bi = re[:, col], im[:, col]
            prod_re, prod_im = (prod_re * br - prod_im * bi,
                                prod_re * bi + prod_im * br)
        terms = np.empty((len(stack), len(block) + 1), dtype=complex)
        terms[:, 0] = total
        terms.real[:, 1:] = prod_re
        terms.imag[:, 1:] = prod_im
        total = np.add.accumulate(terms, axis=1)[:, -1]
    return complex(total[0]) if vec.ndim == 1 else np.ascontiguousarray(total)


def char_lambda(eigs: np.ndarray, level: int) -> complex | np.ndarray:
    """Elementary symmetric polynomial e_l: the antisymmetric-power character.

    eigs is one eigenvalue vector or a (samples, k) stack of them.
    """
    k = np.shape(eigs)[-1]
    if level < 0 or level > k:
        raise LevelOutOfRange(f"level {level} outside 0..{k}")
    return _monomial_sum(eigs, itertools.combinations(range(k), level))


def char_sym(eigs: np.ndarray, level: int) -> complex | np.ndarray:
    """Complete homogeneous polynomial h_l: the symmetric-power character.

    eigs is one eigenvalue vector or a (samples, k) stack of them.
    """
    if level < 0:
        raise LevelOutOfRange(f"level {level} < 0")
    k = np.shape(eigs)[-1]
    return _monomial_sum(
        eigs, itertools.combinations_with_replacement(range(k), level))


@dataclass(frozen=True)
class SectorRow:
    level: int
    dimension: int
    characters: np.ndarray  # one sample per gauge element


@dataclass(frozen=True)
class SectorTable:
    algebra: str
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


def sector_table(algebra: str, space: SelfDualSpace, h_frame: np.ndarray,
                 k_frame: np.ndarray, gauge: GaugeAction, samples: int = 50,
                 seed: int = 0, l_max: int = CCR_L_MAX) -> SectorTable:
    """Sampled character table over charge levels, with equivalence classes."""
    if algebra not in ("car", "ccr"):
        raise MalformedInput(f"unknown algebra {algebra!r}")
    elements = gauge.elements(samples=samples, seed=seed)
    k_dim = k_frame.shape[1]
    if algebra == "car":
        levels = list(range(k_dim + 1))
    else:
        levels = list(range(l_max + 1))

    dets = np.array([char_det_h(el.u11, h_frame, space) for el in elements])
    eig_stack = np.empty((len(elements), k_dim), dtype=complex)
    for row, el in zip(eig_stack, elements):
        row[:] = eigenphases(compressed_action(el.u11, k_frame, space))

    rows = []
    for level in levels:
        if algebra == "car":
            dim = math.comb(k_dim, level)
            chars = dets * char_lambda(eig_stack, level)
        else:
            dim = math.comb(k_dim + level - 1, level) if k_dim else int(level == 0)
            chars = char_sym(eig_stack, level)
        rows.append(SectorRow(level, dim, chars))

    meta = {"samples": len(elements), "seed": seed, "kind": gauge.kind,
            "tol_char": CHAR_TOL}
    return SectorTable(algebra, rows, [el.label for el in elements],
                       _equivalence_classes(rows), meta)


def oracle_compare(table: SectorTable, oracle_blocks: list[dict]) -> dict:
    """Deviations of the sampled characters from per-level Fock block traces.

    oracle_blocks[i][level] is the matrix block for gauge element i.  Returns
    the largest |tr block - character| per level ("per_level") and over all
    levels ("max_deviation"); the caller gates them.
    """
    per_level = {}
    for row in table.rows:
        level_worst = 0.0
        for i, blocks in enumerate(oracle_blocks):
            if row.level not in blocks:
                continue
            dev = abs(complex(np.trace(blocks[row.level]))
                      - complex(row.characters[i]))
            if dev > level_worst:
                level_worst = dev
        per_level[row.level] = level_worst
    return {"max_deviation": max(per_level.values(), default=0.0),
            "per_level": per_level}
