"""Bosonic Fock oracle: truncated CCR, squeezed vacua, implementers."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from quasifree import builders
from quasifree.ccr import ccr_charge_data, ccr_membership
from quasifree.errors import CapExceeded, NormBoundViolation
from quasifree.fock import (
    BoseFock,
    _apply_on_axes,
    _exp_apply,
    _mode_local_polar,
    _pair_exponent,
    bose_implementer,
    ccr_multi_indices,
    charge_rep_blocks,
    omega_alphas_bose,
    omega_p_bose,
    polar_isometry,
    symmetric_power,
)
from quasifree.sectors import haar_unitary
from quasifree.selfdual import SelfDualSpace, hs_norm


def test_ccr_relations_below_cutoff():
    fock = BoseFock(2, 5)
    low = fock.occupation_projector_diag(4)
    eye = np.eye(fock.dim)
    for i in (1, 2):
        for j in (1, 2):
            comm = (fock.annihilation(i) @ fock.creation(j)
                    - fock.creation(j) @ fock.annihilation(i)).toarray()
            target = eye if i == j else 0.0 * eye
            gap = (comm - target)[:, low > 0]
            assert np.max(np.abs(gap)) < 1e-12


def test_occupation_indexing():
    fock = BoseFock(2, 3)
    vec = fock.creation(2) @ (fock.creation(2) @ (fock.creation(1)
                                                  @ fock.vacuum()))
    # |1, 2> with bosonic normalization sqrt(1! * 2!)
    idx = fock.state_index((1, 2))
    assert vec[idx] == pytest.approx(math.sqrt(2.0))
    assert np.linalg.norm(vec) == pytest.approx(math.sqrt(2.0))


def test_bose_cap():
    with pytest.raises(CapExceeded):
        BoseFock(5, 8)


def test_squeeze_vacuum_amplitude_and_annihilation():
    r = 0.5
    t = math.tanh(r)
    v = builders.squeeze(r)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(1, 16, dim_cap=32)
    omega, tail, _ = omega_p_bose(fock, v.codomain, data.t)
    assert tail < 1e-5
    # bare-vacuum overlap is exactly (1 - t^2)^{1/4} at any cutoff
    assert np.vdot(fock.vacuum(), omega) == pytest.approx(
        (1 - t * t) ** 0.25, abs=1e-12)
    # transformed annihilator kills it up to the truncation tail
    f = v.matrix @ v.domain.basis_vector(1, conjugate=True)
    assert np.linalg.norm(fock.pi(v.codomain, f) @ omega) < 1e-2


@pytest.mark.parametrize("t_norm", [1.0, 1.5])
def test_vacuum_refuses_a_pairing_of_norm_one_or_more(t_norm):
    # 1 - T*T is then not positive definite, whatever the cutoff.
    t = t_norm * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NormBoundViolation, match="positive definite"):
        omega_p_bose(BoseFock(2, 8), SelfDualSpace(2), t)


def test_polar_isometry_of_creation_is_unilateral_shift():
    fock = BoseFock(1, 6)
    space = SelfDualSpace(1)
    u = polar_isometry(fock.pi(space, space.basis_vector(1)).toarray())
    for m in range(fock.cutoff):
        assert u[m + 1, m] == pytest.approx(1.0, abs=1e-12)


def test_shift_charged_vectors_and_route_constants():
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 6)
    omega_p, tail, pair = omega_p_bose(fock, v.codomain, data.t)
    assert tail < 1e-14  # t = 0, no pair content
    alphas, omegas, records = omega_alphas_bose(
        fock, v.codomain, omega_p, data.k_frame, l_max=3, pair=pair)
    assert alphas == [(), (0,), (0, 0), (0, 0, 0)]
    # Omega_(0...0) with l quanta is the pure occupation state |l, 0>
    for level in range(4):
        idx = fock.state_index((level, 0))
        assert omegas[level][idx] == pytest.approx(1.0, abs=1e-12)
    # monomial-route proportionality constants are sqrt(l!)
    for level, rec in enumerate(records):
        assert rec["angular_defect"] < 1e-12
        assert rec["constant"] == pytest.approx(math.sqrt(math.factorial(level)),
                                                abs=1e-12)


def test_squeezed_route_cross_check():
    v = builders.squeeze(0.4, n_modes=2, mode=2) @ builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 8, dim_cap=81)
    omega_p, tail, pair = omega_p_bose(fock, v.codomain, data.t)
    assert tail < 1e-4
    alphas, omegas, records = omega_alphas_bose(
        fock, v.codomain, omega_p, data.k_frame, l_max=2, pair=pair)
    for rec in records:
        # the two routes agree in direction up to the truncation tail
        assert rec["angular_defect"] < 1e-3
        assert abs(rec["constant"]) > 0.5


def test_shift_implementer_exact_below_cutoff():
    v = builders.shift(1)
    fock_d = BoseFock(1, 6)
    fock_c = BoseFock(2, 6)
    data = ccr_charge_data(ccr_membership(v))
    omega_p, _, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_d, fock_c, omega_p,
                                       occ_probe=5)
    assert inter < 1e-12
    assert iso < 1e-12
    # Psi |m> = |0, m> exactly
    for m in range(7):
        assert psi[fock_c.state_index((0, m)), m] == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_squeeze_implementer_residual_tracks_tail():
    v = builders.squeeze(0.5)
    data = ccr_charge_data(ccr_membership(v))
    defects = []
    for cutoff in (16, 24):
        fock = BoseFock(1, cutoff, dim_cap=40)
        omega_p, tail, _ = omega_p_bose(fock, v.codomain, data.t)
        psi, inter, iso = bose_implementer(v, fock, fock, omega_p, occ_probe=6)
        # probe-window matrix elements of the intertwining law are exact
        assert inter < 1e-12
        defects.append(iso)
    # the Gram defect is pure truncation error: it shrinks with the cutoff
    assert defects[1] < 0.1 * defects[0]
    assert defects[1] < 1e-3


def test_bose_charge_blocks_are_gauge_phases():
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 6)
    omega_p, _, pair = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas, _ = omega_alphas_bose(
        fock, v.codomain, omega_p, data.k_frame, l_max=3, pair=pair)
    phi = 0.9
    gamma = np.diag(fock.gamma_vector(np.diag(np.exp([1j * phi, 0.0]))))
    blocks = charge_rep_blocks(omegas, alphas, gamma.__matmul__)
    for level, block in blocks.items():
        assert block.shape == (1, 1)
        assert block[0, 0] == pytest.approx(np.exp(1j * level * phi),
                                            abs=1e-12)


@pytest.mark.parametrize("n_modes", [0, 1, 2, 3])
@pytest.mark.parametrize("cutoff", [1, 2, 5, 8])
def test_gamma_vector_is_the_phase_of_the_occupations(n_modes, cutoff):
    fock = BoseFock(n_modes, cutoff)
    rng = np.random.default_rng(10 * n_modes + cutoff)
    for _ in range(3):
        phi = rng.uniform(-np.pi, np.pi, n_modes)
        vec = fock.gamma_vector(np.diag(np.exp(1j * phi)))
        want = np.exp(1j * (fock._occupations @ phi))
        assert vec.shape == (fock.dim,)
        assert np.max(np.abs(vec - want)) <= 1e-14


def test_ccr_multi_indices():
    assert ccr_multi_indices(2, 2) == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]
    assert len(ccr_multi_indices(1, 5)) == 6


def permanent(matrix: np.ndarray) -> complex:
    """Brute force: the sum over all permutations of the entry products."""
    n = len(matrix)
    return sum((math.prod((matrix[i, sigma[i]] for i in range(n)), start=1 + 0j)
                for sigma in itertools.permutations(range(n))), start=0j)


def reference_symmetric_power(matrix: np.ndarray, level: int) -> np.ndarray:
    """perm(matrix[alpha, beta]) / sqrt(m_alpha! m_beta!), entry by entry."""
    n = len(matrix)
    tuples = list(itertools.combinations_with_replacement(range(n), level))

    def norm(alpha):
        return math.sqrt(math.prod(math.factorial(alpha.count(i))
                                   for i in range(n)))

    out = np.zeros((len(tuples), len(tuples)), dtype=complex)
    for a, alpha in enumerate(tuples):
        for b, beta in enumerate(tuples):
            out[a, b] = (permanent(matrix[np.ix_(alpha, beta)])
                         / (norm(alpha) * norm(beta)))
    return out


SYMMETRIC_POWER_CASES = {
    "k0": np.zeros((0, 0), dtype=complex),
    "k1-phase": np.array([[np.exp(0.7j)]]),
    "k2-diagonal": np.diag(np.exp([0.3j, -1.1j])),
    "k2-haar": haar_unitary(2, np.random.default_rng(5)),
    "k3-haar": haar_unitary(3, np.random.default_rng(6)),
    "k3-not-unitary": np.random.default_rng(7).normal(size=(3, 3)),
}


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("name", sorted(SYMMETRIC_POWER_CASES))
def test_symmetric_power_equals_the_permanent_reference(name, level):
    matrix = SYMMETRIC_POWER_CASES[name]
    got = symmetric_power(matrix, level)
    want = reference_symmetric_power(matrix, level)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(
        1.0, float(np.max(np.abs(want), initial=0.0)))
    if name.endswith("haar"):
        # S^l of a unitary is unitary in the orthonormal monomial basis.
        assert np.max(np.abs(got.conj().T @ got - np.eye(len(got)))) < 1e-13
    stacked = symmetric_power(np.stack([matrix, matrix.T]), level)
    assert np.allclose(stacked, [got, got.T], rtol=0.0, atol=1e-14)


# --- mode-local polar isometries and sparse implementer fields -------------

def _dense_omega_alphas(fock, space, omega_p, k_frame, l_max, t_block):
    """The dense route: polar factor of pi(g) on the whole Fock space."""
    isoms = [polar_isometry(fock.pi(space, k_frame[:, j]).toarray())
             for j in range(k_frame.shape[1])]
    pis = [fock.pi(space, k_frame[:, j]) for j in range(k_frame.shape[1])]
    pair = _exp_apply(-_pair_exponent(fock, t_block), fock.vacuum())
    vectors, records = [], []
    for alpha in ccr_multi_indices(k_frame.shape[1], l_max):
        vec = omega_p.copy()
        raw = pair.copy()
        for j in reversed(alpha):
            vec = isoms[j] @ vec
            raw = pis[j] @ raw
        const = complex(np.vdot(vec, raw))
        defect = float(np.linalg.norm(raw - const * vec)
                       / np.linalg.norm(raw))
        vectors.append(vec)
        records.append({"alpha": alpha, "constant": const,
                        "angular_defect": defect})
    return vectors, records


def _dense_bose_implementer(v, fock_dom, fock_cod, omega_alpha, occ_probe):
    """Implementer columns and residuals from dense field matrices."""
    pi_v = [fock_cod.pi(v.codomain, v.matrix[:, i])
            for i in range(fock_dom.n_modes)]
    psi = np.zeros((fock_cod.dim, fock_dom.dim), dtype=complex)
    psi[:, 0] = omega_alpha
    for s in range(1, fock_dom.dim):
        occ = fock_dom._occupations[s]
        i = int(np.argmax(occ > 0))
        psi[:, s] = (pi_v[i] @ psi[:, s - fock_dom._radix ** i]
                     / math.sqrt(occ[i]))
    low_d = fock_dom.occupation_projector_diag(occ_probe)
    low_c = fock_cod.occupation_projector_diag(occ_probe)
    inter = 0.0
    for idx in range(v.domain.dim):
        f = np.zeros(v.domain.dim, dtype=complex)
        f[idx] = 1.0
        pi_d = fock_dom.pi(v.domain, f).toarray()
        pi_c = fock_cod.pi(v.codomain, v.matrix @ f).toarray()
        gap = (psi @ pi_d - pi_c @ psi) * low_c[:, None] * low_d[None, :]
        inter = max(inter, float(np.max(np.abs(gap))))
    gram = (psi.conj().T @ psi - np.eye(fock_dom.dim)) * low_d[None, :] \
        * low_d[:, None]
    return psi, inter, float(np.max(np.abs(gram)))


def _charge_vector(n, creation=(), annihilation=()):
    g = np.zeros(2 * n, dtype=complex)
    for mode, coef in creation:
        g[mode] = coef
    for mode, coef in annihilation:
        g[n + mode] = coef
    return g


@pytest.mark.parametrize("g", [
    _charge_vector(3, creation=[(0, 1.0)]),
    _charge_vector(3, creation=[(1, 0.6 - 0.8j)]),
    _charge_vector(3, creation=[(0, 0.3 + 0.4j)], annihilation=[(2, -0.7)]),
    _charge_vector(3, creation=[(0, 0.5), (2, 1j)],
                   annihilation=[(0, 0.2 - 0.1j), (1, 0.9)]),
], ids=["mode0", "mode1", "modes02-both-parts", "all-modes"])
def test_mode_local_polar_matches_dense_factor(g):
    fock = BoseFock(3, 3)
    space = SelfDualSpace(3)
    pi = fock.pi(space, g).toarray()
    dense = polar_isometry(pi)
    axes, local = _mode_local_polar(fock, g)
    _, sing, vh = np.linalg.svd(pi)
    row_space = vh[sing > 1e-10 * sing[0]].conj().T
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        y = _apply_on_axes(fock, axes, local, x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12
        # The polar factor is unique on (ker pi(g))^perp.
        x_perp = row_space @ (row_space.conj().T @ x)
        gap = _apply_on_axes(fock, axes, local, x_perp) - dense @ x_perp
        assert np.max(np.abs(gap)) < 1e-12


def test_omega_alphas_bose_bit_equal_to_dense_route():
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 6)
    omega_p, _, pair = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas, records = omega_alphas_bose(
        fock, v.codomain, omega_p, data.k_frame, l_max=5, pair=pair)
    ref_vectors, ref_records = _dense_omega_alphas(
        fock, v.codomain, omega_p, data.k_frame, 5, data.t)
    assert alphas == ccr_multi_indices(1, 5)
    for vec, ref in zip(omegas, ref_vectors):
        assert np.array_equal(vec, ref)
    assert records == ref_records


@pytest.mark.parametrize("v", [
    builders.shift(1),
    builders.squeeze(0.4, n_modes=2, mode=2) @ builders.shift(1),
], ids=["shift", "squeeze-shift"])
def test_bose_implementer_matches_dense_products(v):
    data = ccr_charge_data(ccr_membership(v))
    fock_d = BoseFock(v.domain.n_modes, 6)
    fock_c = BoseFock(v.codomain.n_modes, 6)
    omega_p, _, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_d, fock_c, omega_p,
                                       occ_probe=2)
    ref_psi, ref_inter, ref_iso = _dense_bose_implementer(
        v, fock_d, fock_c, omega_p, occ_probe=2)
    assert np.array_equal(psi, ref_psi)
    assert abs(inter - ref_inter) <= 1e-14
    assert iso == ref_iso


@pytest.mark.parametrize("v", [
    builders.shift(2),
    builders.squeeze(0.4, n_modes=3, mode=3) @ builders.shift(2),
], ids=["shift-2-3", "squeeze-shift-2-3"])
def test_bose_implementer_on_two_domain_modes(v):
    # The column batches must run from the highest domain mode down.
    data = ccr_charge_data(ccr_membership(v))
    fock_d, fock_c = BoseFock(2, 4), BoseFock(3, 4)
    omega_p, _, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_d, fock_c, omega_p,
                                       occ_probe=1)
    ref_psi, ref_inter, ref_iso = _dense_bose_implementer(
        v, fock_d, fock_c, omega_p, occ_probe=1)
    assert np.array_equal(psi, ref_psi)
    assert abs(inter - ref_inter) <= 1e-14
    assert iso == ref_iso


@pytest.mark.parametrize("make_v, cutoff", [
    *[pytest.param(lambda: builders.shift(3), m, id=f"shift-3-4-M{m}")
      for m in (5, 8)],
    *[pytest.param(lambda r=r: builders.squeeze(r), m,
                   id=f"squeeze-{r}-M{m}")
      for r in (0.5, 0.3) for m in (2, 3, 5, 8, 12, 16)],
])
def test_bose_gram_defect_equals_masked_full_gram(make_v, cutoff):
    # The probe-window Gram, bit for bit against the full psi* psi masked to
    # the window, at the oracle's own probe size.
    v = make_v()
    data = ccr_charge_data(ccr_membership(v))
    fock_d = BoseFock(v.domain.n_modes, cutoff)
    fock_c = BoseFock(v.codomain.n_modes, cutoff)
    omega_p, _, _ = omega_p_bose(fock_c, v.codomain, data.t)
    occ_probe = max(1, cutoff // 2 - 1)
    psi, _, iso = bose_implementer(v, fock_d, fock_c, omega_p,
                                   occ_probe=occ_probe)
    low = fock_d.occupation_projector_diag(occ_probe)
    full = (psi.conj().T @ psi - np.eye(fock_d.dim)) * low[None, :] \
        * low[:, None]
    assert iso == float(np.max(np.abs(full)))


@pytest.mark.parametrize("n_modes, cutoff", [(1, 6), (2, 3), (3, 5)])
def test_bose_tables_match_loop_reference(n_modes, cutoff):
    fock = BoseFock(n_modes, cutoff)
    radix = cutoff + 1
    occupations = np.array([[(s // radix ** i) % radix
                             for i in range(n_modes)]
                            for s in range(fock.dim)], dtype=int)
    assert fock._occupations.dtype == occupations.dtype
    assert np.array_equal(fock._occupations, occupations)
    for i in range(n_modes):
        rows, cols, vals = [], [], []
        for s in range(fock.dim):
            m = occupations[s, i]
            if m < cutoff:
                rows.append(s + radix ** i)
                cols.append(s)
                vals.append(math.sqrt(m + 1.0))
        ref = sp.csr_matrix((vals, (rows, cols)), shape=(fock.dim, fock.dim))
        for table, ref_table in ((fock.creation(i + 1), ref),
                                 (fock.annihilation(i + 1),
                                  ref.conj().T.tocsr())):
            assert np.array_equal(table.indptr, ref_table.indptr)
            assert np.array_equal(table.indices, ref_table.indices)
            assert table.data.dtype == ref_table.data.dtype
            assert np.array_equal(table.data, ref_table.data)
