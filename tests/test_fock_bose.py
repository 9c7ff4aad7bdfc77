"""Bosonic Fock oracle: truncated CCR, squeezed vacua, implementers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from quasifree import builders
from quasifree.ccr import CCR, ccr_charge_data, ccr_membership
from quasifree.errors import CapExceeded, NormBoundViolation
from quasifree.fock import (
    BoseFock,
    bose_implementer,
    charge_rep_blocks,
    multi_indices,
    omega_alphas_bose,
    omega_p_bose,
    polar_isometry,
    symmetric_power,
)
from quasifree.sectors import (
    GaugeAction,
    compressed_action,
    haar_unitary,
    oracle_compare,
)
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
    fock = BoseFock(1, 16)
    omega, tail = omega_p_bose(fock, v.codomain, data.t)
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


def _monomial_routes(fock, space, omega_p, k_frame, l_max):
    """Reference chains over the multi-indices alpha up to l_max.

    raws holds prod_j pi(g_alpha_j) Omega_P, applied one field at a time;
    polars the same chain with polar_isometry of the dense pi(g_j) in place
    of each pi(g_j).
    """
    pis = [fock.pi(space, k_frame[:, j]) for j in range(k_frame.shape[1])]
    isoms = [polar_isometry(pi.toarray()) for pi in pis]
    raws, polars = [], []
    for alpha in multi_indices(k_frame.shape[1], l_max, True):
        raw, polar = omega_p.copy(), omega_p.copy()
        for j in reversed(alpha):
            raw = pis[j] @ raw
            polar = isoms[j] @ polar
        raws.append(raw)
        polars.append(polar)
    return raws, polars


def test_shift_charged_vectors_and_route_constants():
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 6)
    omega_p, tail = omega_p_bose(fock, v.codomain, data.t)
    assert tail < 1e-14  # t = 0, no pair content
    alphas, omegas = omega_alphas_bose(fock, v.codomain, omega_p,
                                       data.k_frame, l_max=3)
    assert alphas == [(), (0,), (0, 0), (0, 0, 0)]
    # Omega_(0...0) with l quanta is the pure occupation state |l, 0>
    for level in range(4):
        idx = fock.state_index((level, 0))
        assert omegas[level][idx] == pytest.approx(1.0, abs=1e-12)
    # the unnormalised monomials are sqrt(l!) times the charged vectors
    raws, _ = _monomial_routes(fock, v.codomain, omega_p, data.k_frame, 3)
    for level, (raw, vec) in enumerate(zip(raws, omegas)):
        const = np.vdot(vec, raw)
        assert const == pytest.approx(math.sqrt(math.factorial(level)),
                                      abs=1e-12)
        assert np.linalg.norm(raw - const * vec) < 1e-12


def test_squeezed_route_cross_check():
    # The polar route, kept here as a reference only: it agrees with the
    # monomials in direction up to the truncation tail.
    v = builders.squeeze(0.4, n_modes=2, mode=2) @ builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(2, 8)
    omega_p, tail = omega_p_bose(fock, v.codomain, data.t)
    assert tail < 1e-4
    _, omegas = omega_alphas_bose(fock, v.codomain, omega_p, data.k_frame,
                                  l_max=2)
    _, polars = _monomial_routes(fock, v.codomain, omega_p, data.k_frame, 2)
    for vec, polar in zip(omegas, polars):
        const = np.vdot(polar, vec)
        assert np.linalg.norm(vec - const * polar) < 1e-3 * np.linalg.norm(vec)
        assert abs(const) > 0.5


def test_shift_charged_vectors_are_occupation_states():
    # Shift 1 -> 3 has T = 0 and dim k = 2, so Omega_alpha is the occupation
    # state with alpha.count(j) quanta in the mode of the k frame's column
    # j, to rounding, up to the cutoff.
    v = builders.shift(1, steps=2)
    data = ccr_charge_data(ccr_membership(v))
    fock = BoseFock(v.codomain.n_modes, 5)
    omega_p, _ = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas = omega_alphas_bose(fock, v.codomain, omega_p,
                                       data.k_frame, l_max=5)
    modes = np.argmax(np.abs(data.k_frame[:fock.n_modes]), axis=0)
    assert len(alphas) == math.comb(2 + 5, 5)
    for alpha, vec in zip(alphas, omegas):
        occupation = np.zeros(fock.n_modes, dtype=int)
        np.add.at(occupation, modes[list(alpha)], 1)
        want = np.zeros(fock.dim)
        want[fock.state_index(occupation)] = 1.0
        assert np.max(np.abs(vec - want)) <= 1e-15


def test_charge_theorem_in_a_rotated_k_frame():
    # Shift 1 -> 3 with charges (1, 2, 0): the k modes carry charges 1 and
    # 2.  Rotating the k frame by a fixed unitary makes the compressed
    # action c non-diagonal, so the monomials' 1/sqrt(m_alpha!) matters.
    v = builders.shift(1, steps=2)
    data = ccr_charge_data(ccr_membership(v))
    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]]) @ np.diag([1.0, 1j])
    frame = data.k_frame @ rotation
    fock = BoseFock(3, 5)
    omega_p, _ = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas = omega_alphas_bose(fock, v.codomain, omega_p, frame, 5)
    elements = GaugeAction("u1", 3, charges=(1, 2, 0)).elements(samples=8)
    comps = compressed_action(elements.u11, frame, v.codomain, CCR)
    assert np.max(np.abs(comps[1] - np.diag(np.diagonal(comps[1])))) > 0.1
    grams = charge_rep_blocks(omegas, alphas, lambda vec: vec)
    blocks = [charge_rep_blocks(omegas, alphas,
                                lambda vec, u=u: fock.gamma_vector(u) * vec)
              for u in elements.u11]
    targets = {level: symmetric_power(comps, level) for level in grams}
    assert max(grams) == 5
    assert oracle_compare(grams, blocks, targets) <= 1e-12


def test_shift_implementer_exact_below_cutoff():
    v = builders.shift(1)
    fock_c = BoseFock(2, 6)
    data = ccr_charge_data(ccr_membership(v))
    omega_p, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_c, omega_p, occ_probe=5)
    assert inter < 1e-12
    assert iso < 1e-12
    # Psi is built on the states |m> with m <= min(occ_probe + 1, 6) = 6.
    assert psi.shape == (fock_c.dim, 7)
    ref_psi = _dense_bose_columns(v, BoseFock(1, 6), fock_c, omega_p)
    assert np.array_equal(psi, _window_columns(ref_psi, 1, 6, 5))
    # Psi |m> = |0, m> exactly
    for m in range(7):
        assert psi[fock_c.state_index((0, m)), m] == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_squeeze_implementer_residual_tracks_tail():
    v = builders.squeeze(0.5)
    data = ccr_charge_data(ccr_membership(v))
    defects = []
    for cutoff in (16, 24):
        fock = BoseFock(1, cutoff)
        omega_p, tail = omega_p_bose(fock, v.codomain, data.t)
        psi, inter, iso = bose_implementer(v, fock, omega_p, occ_probe=6)
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
    omega_p, _ = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas = omega_alphas_bose(fock, v.codomain, omega_p,
                                       data.k_frame, l_max=3)
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
    assert multi_indices(2, 2, True) == [(), (0,), (1,), (0, 0), (0, 1),
                                         (1, 1)]
    assert len(multi_indices(1, 5, True)) == 6


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


# --- sparse implementer fields ---------------------------------------------

def _dense_bose_columns(v, fock_dom, fock_cod, omega_alpha):
    """Every implementer column over fock_dom, one matvec at a time."""
    pi_v = [fock_cod.pi(v.codomain, v.matrix[:, i])
            for i in range(fock_dom.n_modes)]
    psi = np.zeros((fock_cod.dim, fock_dom.dim), dtype=complex)
    psi[:, 0] = omega_alpha
    for s in range(1, fock_dom.dim):
        occ = fock_dom._occupations[s]
        i = int(np.argmax(occ > 0))
        psi[:, s] = (pi_v[i] @ psi[:, s - fock_dom._radix ** i]
                     / math.sqrt(occ[i]))
    return psi


def _window_columns(psi, n_modes, cutoff, occ_probe):
    """psi's columns at the states bose_implementer builds, in its order.

    Those are the states with at most occ_probe + 1 quanta per mode (at most
    the cutoff), ordered as in a BoseFock of that cutoff.
    """
    full = BoseFock(n_modes, cutoff)
    window = BoseFock(n_modes, min(occ_probe + 1, cutoff))
    return psi[:, [full.state_index(occ) for occ in window._occupations]]


def _dense_bose_implementer(v, fock_dom, fock_cod, omega_alpha, occ_probe):
    """Implementer columns and residuals from dense field matrices."""
    psi = _dense_bose_columns(v, fock_dom, fock_cod, omega_alpha)
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


@pytest.mark.parametrize("v", [
    builders.shift(1),
    builders.squeeze(0.4, n_modes=2, mode=2) @ builders.shift(1),
], ids=["shift", "squeeze-shift"])
def test_bose_implementer_matches_dense_products(v):
    data = ccr_charge_data(ccr_membership(v))
    fock_d = BoseFock(v.domain.n_modes, 6)
    fock_c = BoseFock(v.codomain.n_modes, 6)
    omega_p, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_c, omega_p, occ_probe=2)
    ref_psi, ref_inter, ref_iso = _dense_bose_implementer(
        v, fock_d, fock_c, omega_p, occ_probe=2)
    assert np.array_equal(psi, _window_columns(ref_psi, fock_d.n_modes, 6, 2))
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
    omega_p, _ = omega_p_bose(fock_c, v.codomain, data.t)
    psi, inter, iso = bose_implementer(v, fock_c, omega_p, occ_probe=1)
    ref_psi, ref_inter, ref_iso = _dense_bose_implementer(
        v, fock_d, fock_c, omega_p, occ_probe=1)
    assert np.array_equal(psi, _window_columns(ref_psi, 2, 4, 1))
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
    # The probe-window Gram, bit for bit against the full psi* psi of the
    # dense reference masked to the window, at the oracle's own probe size.
    v = make_v()
    data = ccr_charge_data(ccr_membership(v))
    fock_d = BoseFock(v.domain.n_modes, cutoff)
    fock_c = BoseFock(v.codomain.n_modes, cutoff)
    omega_p, _ = omega_p_bose(fock_c, v.codomain, data.t)
    occ_probe = max(1, cutoff // 2 - 1)
    psi, _, iso = bose_implementer(v, fock_c, omega_p, occ_probe=occ_probe)
    ref_psi = _dense_bose_columns(v, fock_d, fock_c, omega_p)
    assert np.array_equal(psi, _window_columns(ref_psi, fock_d.n_modes,
                                               cutoff, occ_probe))
    low = fock_d.occupation_projector_diag(occ_probe)
    full = (ref_psi.conj().T @ ref_psi - np.eye(fock_d.dim)) * low[None, :] \
        * low[:, None]
    assert iso == float(np.max(np.abs(full)))


def test_bose_implementer_memory_stays_on_the_window():
    # CCR shift 3 -> 4 at cutoff 8, the oracle's probe 3: Psi over the 5^3
    # domain states within one quantum of the window, not all 9^3.
    v = builders.shift(3)
    data = ccr_charge_data(ccr_membership(v))
    fock_c = BoseFock(v.codomain.n_modes, 8)
    omega_p, _ = omega_p_bose(fock_c, v.codomain, data.t)
    tracemalloc.start()
    try:
        psi, inter, _ = bose_implementer(v, fock_c, omega_p, occ_probe=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.shape == (fock_c.dim, 5 ** 3)
    assert inter < 1e-12
    assert peak < 40e6


def test_bose_field_tables_are_built_on_first_use():
    fock = BoseFock(2, 3)
    tables = {"_occupations", "_creation", "_annihilation"}
    assert not tables & set(vars(fock))
    fock.pi(SelfDualSpace(2), np.array([0.5, 0.0, 0.0, 1.0j]))
    assert tables <= set(vars(fock))
    assert fock.creation(1) is fock.creation(1)


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
