"""Fermionic Fock oracle: operator algebra, vacua, implementers, charges."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scipy.sparse as sp
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_selfdual as dense
from quasifree import builders, cli, fock, oracle
from quasifree.car import car_charge_data, car_membership
from quasifree.errors import GAMMA_DIM_CAP, CapExceeded
from quasifree.fock import (
    BoseFock,
    FermiFock,
    _same_block,
    car_implementers,
    charge_rep_blocks,
    compound_matrix,
    multi_indices,
    omega_alphas_fermi,
    omega_p_fermi,
)
from quasifree.sectors import haar_unitary
from quasifree.selfdual import (
    DEFAULT_TOL,
    BlockOperator,
    SelfDualSpace,
    hs_norm,
)
from fock_invariance import (implementer_invariance_residual,
                            span_invariance_residual)
from implementer_reference import reference_car_implementers
from test_random_members import random_member
from test_startup import SRC

TOL = 1e-12


def anticommutator(a, b):
    return (a @ b + b @ a).toarray()


def test_car_relations():
    fock = FermiFock(3)
    eye = np.eye(fock.dim)
    for i in range(1, 4):
        for j in range(1, 4):
            ac = anticommutator(fock.annihilation(i), fock.creation(j))
            target = eye if i == j else 0.0 * eye
            assert np.max(np.abs(ac - target)) < TOL
            assert np.max(np.abs(anticommutator(
                fock.creation(i), fock.creation(j)))) < TOL


def test_creation_sign_convention():
    fock = FermiFock(3)
    # a*_1 a*_2 a*_3 Omega = |{1,2,3}> with coefficient +1
    vec = fock.creation(1) @ (fock.creation(2) @ (fock.creation(3)
                                                  @ fock.vacuum()))
    assert vec[0b111] == pytest.approx(1.0)
    # swapping the outer two creators flips the sign
    vec = fock.creation(2) @ (fock.creation(1) @ (fock.creation(3)
                                                  @ fock.vacuum()))
    assert vec[0b111] == pytest.approx(-1.0)


def test_field_selfdual_relations():
    space = SelfDualSpace(3)
    fock = FermiFock(3)
    rng = np.random.default_rng(11)
    for _ in range(4):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        pf, pg = fock.pi(space, f), fock.pi(space, g)
        # pi(f)* = pi(Jf)
        pjf = fock.pi(space, dense.conj_vector(space, f)).toarray()
        assert hs_norm(pf.conj().T.toarray() - pjf) < 1e-10
        # {pi(f)*, pi(g)} = <f, g> 1
        ac = anticommutator(pf.conj().T.tocsr(), pg)
        assert hs_norm(ac - np.vdot(f, g) * np.eye(fock.dim)) < 1e-10


def test_twist_identity_and_commutation():
    space = SelfDualSpace(2)
    fock = FermiFock(2)
    f = np.array([0.3, -0.7j, 0.2, 0.9], dtype=complex)
    psi = fock.psi(space, f).toarray()
    # psi(f) = i pi(f) Gamma(-1)
    alt = 1j * fock.pi(space, f).toarray() * fock.parity()[None, :]
    assert hs_norm(psi - alt) < TOL
    # psi(f) commutes with pi(g) iff <Jf, g> = 0: so psi(e1) commutes with
    # pi(e1), pi(e2), pi(e2*) but not with pi(e1*)
    e1 = space.basis_vector(1)
    e2 = space.basis_vector(2)
    psi1 = fock.psi(space, e1).toarray()
    for g in (e1, e2, dense.conj_vector(space, e2)):
        pg = fock.pi(space, g).toarray()
        assert hs_norm(psi1 @ pg - pg @ psi1) < TOL
    p1c = fock.pi(space, dense.conj_vector(space, e1)).toarray()
    assert hs_norm(psi1 @ p1c - p1c @ psi1) > 0.5


def test_gamma_multiplicative_and_covariant():
    fock = FermiFock(3)
    space = SelfDualSpace(3)
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    g1, g2 = fock.gamma(q1), fock.gamma(q2)
    assert hs_norm(g1 @ g2 - fock.gamma(q1 @ q2)) < 1e-10
    assert hs_norm(g1 @ g1.conj().T - np.eye(fock.dim)) < 1e-10
    # Gamma(U) pi(f) Gamma(U)* = pi(U_ext f)
    u_ext = dense.extend_gauge(q1, space)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    lhs = g1 @ fock.pi(space, f).toarray() @ g1.conj().T
    rhs = fock.pi(space, u_ext @ f).toarray()
    assert hs_norm(lhs - rhs) < 1e-10


def test_gamma_parity_matches_diagonal():
    fock = FermiFock(3)
    assert hs_norm(fock.gamma(-np.eye(3)) - np.diag(fock.parity())) < TOL


def test_fock_cap():
    with pytest.raises(CapExceeded):
        FermiFock(13)


def test_bogoliubov_vacuum():
    theta = math.pi / 6
    v = builders.bogoliubov(theta)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(2)
    omega = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    # overlap with the bare vacuum is cos(theta) = sqrt(3)/2
    assert np.vdot(fock.vacuum(), omega) == pytest.approx(math.sqrt(3) / 2,
                                                          abs=1e-12)
    # transformed annihilators kill it: pi(V e_i*) Omega_P = 0
    for mode in (1, 2):
        f = v.matrix @ v.domain.basis_vector(mode, conjugate=True)
        assert np.linalg.norm(fock.pi(v.codomain, f) @ omega) < 1e-12


def test_flip_vacuum_is_charged_one_particle():
    v = builders.flip(1)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(1)
    omega = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    # psi(e1) Omega = i |{1}>
    assert omega[1] == pytest.approx(1j, abs=1e-12)
    assert abs(omega[0]) < 1e-12


def test_shift_implementers_explicit():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    fock_d, fock_c = FermiFock(1), FermiFock(2)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    assert alphas == [(), (0,)]
    imp = car_implementers(v, fock_d, fock_c, omegas)
    assert imp.intertwining_residual < 1e-12
    assert imp.isometry_residual < 1e-12
    assert imp.completeness_residual < 1e-12
    assert imp.implementation_residual < 1e-12
    # frozen structure: Psi_() maps |0> -> |00>, |{1}> -> |{2}>
    psi0 = imp.psis[0]
    assert psi0[0, 0] == pytest.approx(1.0)
    assert psi0[0b10, 1] == pytest.approx(1.0)
    # Psi_(0) maps |0> -> i|{1}>, |{1}> -> -i|{1,2}>
    psi1 = imp.psis[1]
    assert psi1[0b01, 0] == pytest.approx(1j)
    assert psi1[0b11, 1] == pytest.approx(-1j)


def test_bogoliubov_single_implementer_is_unitary():
    v = builders.bogoliubov(0.4)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(2)
    omega_p = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k_frame)
    assert alphas == [()]
    imp = car_implementers(v, fock, fock, omegas)
    u = imp.psis[0]
    assert hs_norm(u @ u.conj().T - np.eye(fock.dim)) < 1e-10


def test_composed_member_implementers():
    v = builders.bogoliubov(0.3, n_modes=4) @ builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    fock_d, fock_c = FermiFock(2), FermiFock(4)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    assert len(alphas) == 4  # k_dim = 2 -> levels 0,1,1,2
    imp = car_implementers(v, fock_d, fock_c, omegas)
    assert imp.implementation_residual < 1e-10


def wrong_vacuum_inputs():
    """Implementer inputs of the shift 1 -> 2 with the bare vacuum as Omega_P."""
    v = builders.shift(1)
    fock_d, fock_c = FermiFock(1), FermiFock(2)
    bad = [fock_c.vacuum(),
           fock_c.psi(v.codomain, v.codomain.basis_vector(2)) @ fock_c.vacuum()]
    return v, fock_d, fock_c, bad


def test_intertwining_detects_wrong_vacuum():
    imp = car_implementers(*wrong_vacuum_inputs())
    assert imp.intertwining_residual > DEFAULT_TOL


def test_car_domain_space_builds_no_field_tables():
    # car_implementers reads only the domain's dim and mode count.
    v, fock_d, fock_c, omegas = oracle_inputs(builders.shift(3))
    car_implementers(v, fock_d, fock_c, omegas)
    for table in ("_occupations", "_creation", "_annihilation"):
        assert table not in vars(fock_d)
    assert "_creation" in vars(fock_c)


def test_car_implementers_reject_a_mismatched_domain():
    v, _, fock_c, omegas = wrong_vacuum_inputs()
    with pytest.raises(CapExceeded):
        car_implementers(v, FermiFock(2), fock_c, omegas)


def test_flip_charge_matrix_is_gauge_phase():
    v = builders.flip(1)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(1)
    omega = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    lam = 0.8
    gamma = fock.gamma(np.array([[np.exp(1j * lam)]]))
    blocks = charge_rep_blocks([omega], [()], gamma.__matmul__)
    assert blocks[0][0, 0] == pytest.approx(np.exp(1j * lam), abs=1e-12)


def test_shift_charge_blocks_match_determinant_formula():
    v = builders.shift(1, species=2)  # k two-dimensional
    data = car_charge_data(car_membership(v))
    fock = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k_frame)
    rng = np.random.default_rng(7)
    u_small, _ = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
    u11 = np.eye(v.codomain.n_modes, dtype=complex)
    u11[:2, :2] = u_small  # acts on the k modes (first site), fixes the rest
    blocks = charge_rep_blocks(omegas, alphas, fock.gamma(u11).__matmul__)
    k1 = data.k_frame[:v.codomain.n_modes, :]
    u_k = k1.conj().T @ u11 @ k1
    for level, block in blocks.items():
        assert hs_norm(block - compound_matrix(u_k, level)) < 1e-10


def test_span_invariance_residuals():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k_frame)
    n = v.codomain.n_modes
    # gauge mixing only the two k modes leaves the span invariant
    rng = np.random.default_rng(3)
    u_small, _ = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
    u_good = np.eye(n, dtype=complex)
    u_good[:2, :2] = u_small
    assert span_invariance_residual(omegas, fock.gamma(u_good)) < 1e-10
    # rotating a k mode into an occupied-range mode breaks invariance
    mu = 0.7
    u_bad = np.eye(n, dtype=complex)
    c, s = math.cos(mu), math.sin(mu)
    u_bad[0, 0], u_bad[0, 2], u_bad[2, 0], u_bad[2, 2] = c, -s, s, c
    assert span_invariance_residual(omegas, fock.gamma(u_bad)) > 0.1


def test_implementer_invariance_residual():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    fock_d, fock_c = FermiFock(1), FermiFock(2)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    imp = car_implementers(v, fock_d, fock_c, omegas)
    lam = 0.6
    g_cod = fock_c.gamma(np.exp(1j * lam) * np.eye(2))
    g_dom = fock_d.gamma(np.exp(1j * lam) * np.eye(1))
    assert implementer_invariance_residual(imp.psis, g_cod, g_dom) < 1e-10
    # mixing the k mode with the range mode moves Psi out of the span
    mu = 0.7
    u_bad = np.array([[math.cos(mu), -math.sin(mu)],
                      [math.sin(mu), math.cos(mu)]], dtype=complex)
    g_bad = fock_c.gamma(u_bad)
    assert implementer_invariance_residual(imp.psis, g_bad,
                                           np.eye(fock_d.dim)) > 1e-2


def test_multi_index_enumeration():
    assert multi_indices(2, 2, False) == [(), (0,), (1,), (0, 1)]
    assert len(multi_indices(4, 4, False)) == 16


def scalar_compound(matrix, level):
    """Compound matrix with one scalar det call per minor."""
    combs = list(itertools.combinations(range(matrix.shape[0]), level))
    out = np.zeros((len(combs), len(combs)), dtype=complex)
    for a, rows in enumerate(combs):
        for b, cols in enumerate(combs):
            out[a, b] = np.linalg.det(matrix[np.ix_(rows, cols)])
    return out


def scalar_gamma(u11):
    """<S'|Gamma(U)|S> = det u11[S', S] for |S'| = |S|, entry by entry."""
    n = u11.shape[0]
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    out[0, 0] = 1.0
    for s_row in range(1, 2 ** n):
        rows = [i for i in range(n) if s_row >> i & 1]
        for s_col in range(1, 2 ** n):
            cols = [i for i in range(n) if s_col >> i & 1]
            if len(rows) == len(cols):
                out[s_row, s_col] = np.linalg.det(u11[np.ix_(rows, cols)])
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_compound_matrix_equals_scalar_minors(n):
    rng = np.random.default_rng(100 + n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for matrix in (z, z.real.copy()):
        for level in range(n + 1):
            got = compound_matrix(matrix, level)
            assert got.dtype == complex
            assert np.array_equal(got, scalar_compound(matrix, level))
    # A stack that mixes two block patterns: z and z with index 0 split off.
    split = z.copy()
    split[0, 1:] = split[1:, 0] = 0.0
    stack = np.stack([z, split, z.real, split])
    for level in range(n + 1):
        got = compound_matrix(stack, level)
        assert got.shape[0] == len(stack)
        for element, matrix in zip(got, stack):
            assert np.array_equal(element, scalar_compound(matrix, level))


@pytest.mark.parametrize("n", range(1, 7))
def test_gamma_equals_scalar_determinants(n):
    rng = np.random.default_rng(200 + n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
    fock = FermiFock(n)
    counts = np.array([bin(s).count("1") for s in range(fock.dim)])
    off_level = counts[:, None] != counts[None, :]
    for u11 in (q, phases):
        gamma = fock.gamma(u11)
        assert np.array_equal(gamma, scalar_gamma(u11))
        assert not np.any(gamma[off_level])


def permuted_blocks(rng):
    """U(2) + U(3) + U(1) on 6 modes, conjugated by a mode permutation."""
    u = scipy.linalg.block_diag(haar_unitary(2, rng), haar_unitary(3, rng),
                                haar_unitary(1, rng))
    perm = np.array([4, 0, 2, 5, 1, 3])
    return u[np.ix_(perm, perm)]


def tiny_off_block(rng):
    """Two U(2) blocks joined by one off-block entry of 1e-13."""
    u = np.kron(np.eye(2), haar_unitary(2, rng))
    u[0, 3] = 1e-13
    return u


BLOCK_UNITARIES = {
    "sites-2": lambda rng: np.kron(np.eye(2), haar_unitary(2, rng)),
    "sites-3": lambda rng: np.kron(np.eye(3), haar_unitary(2, rng)),
    "permuted": permuted_blocks,
    "tiny-off-block": tiny_off_block,
}


@pytest.mark.parametrize("name", sorted(BLOCK_UNITARIES))
def test_gamma_of_block_unitaries_equals_scalar_determinants(name):
    u11 = BLOCK_UNITARIES[name](np.random.default_rng(300))
    gamma = FermiFock(len(u11)).gamma(u11)
    assert np.array_equal(gamma, scalar_gamma(u11))


def test_gamma_follows_the_block_pattern_of_each_unitary():
    # One Fock space, unitaries alternating between block patterns: a minor
    # plan kept past a change of pattern misses minors the new one allows.
    rng = np.random.default_rng(302)
    fock = FermiFock(6)

    def sites():
        return np.kron(np.eye(3), haar_unitary(2, rng))

    def species():
        return np.kron(haar_unitary(3, rng), np.eye(2))

    for make in (sites, lambda: haar_unitary(6, rng), sites, species, sites):
        u11 = make()
        assert np.array_equal(fock.gamma(u11), scalar_gamma(u11))


@pytest.mark.parametrize("make_u11, labels", [
    # Mode i of the permuted unitary is mode perm[i] of the block sum, so
    # the blocks are {0, 2, 5}, {1, 4} and {3}.
    (permuted_blocks, [0, 1, 0, 3, 1, 0]),
    (tiny_off_block, [0, 0, 0, 0]),
    (lambda rng: np.eye(3), [0, 1, 2]),
    (lambda rng: np.zeros((0, 0)), []),
], ids=["permuted", "tiny-off-block", "diagonal", "no-modes"])
def test_same_block(make_u11, labels):
    labels = np.array(labels)
    assert np.array_equal(_same_block(make_u11(np.random.default_rng(301))),
                          labels[:, None] == labels[None, :])


def test_gamma_without_modes():
    assert np.array_equal(FermiFock(0).gamma(np.zeros((0, 0))), [[1.0]])


@pytest.mark.parametrize("n", range(1, 11))
def test_phase_vector_is_the_diagonal_of_gamma(n):
    rng = np.random.default_rng(400 + n)
    fock_n = FermiFock(n)
    for _ in range(3):
        u11 = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        gamma = fock_n.gamma(u11)
        assert not np.any(gamma - np.diag(np.diagonal(gamma)))
        vec = fock_n.gamma_vector(u11)
        assert np.max(np.abs(vec - np.diagonal(gamma))) <= 1e-15


def count_gamma_calls(monkeypatch) -> list:
    """Patch FermiFock.gamma to record each unitary it is given."""
    calls, original = [], FermiFock.gamma

    def counted(self, u11):
        calls.append(u11)
        return original(self, u11)

    monkeypatch.setattr(FermiFock, "gamma", counted)
    return calls


def test_a_tiny_off_diagonal_entry_takes_the_dense_gamma(monkeypatch):
    calls = count_gamma_calls(monkeypatch)
    fock_3 = FermiFock(3)
    u11 = np.diag(np.exp([0.3j, -1.1j, 2.0j]))
    vec = np.random.default_rng(5).normal(size=8) + 0j
    phase = oracle._gamma_action(fock_3, u11)(vec)
    assert calls == []
    u11[2, 0] = 1e-300
    dense = oracle._gamma_action(fock_3, u11)(vec)
    assert len(calls) == 1
    assert np.max(np.abs(dense - phase)) <= 1e-15


@pytest.mark.parametrize("gauge", [
    {"group": "u1", "charges": [1, -1, 2, 0], "samples": 7},
    None,
])
def test_phase_path_reports_the_dense_path_bytes(tmp_path, monkeypatch,
                                                 capsys, gauge):
    model = {"algebra": "car", "isometry": {
        "builder": "shift", "params": {"n_sites_in": 3, "steps": 1}}}
    if gauge:
        model["gauge"] = gauge
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model), encoding="utf-8")

    def run():
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", str(path),
                         "--report", str(out)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    calls = count_gamma_calls(monkeypatch)
    phase = run()
    assert calls == []
    monkeypatch.setattr(oracle, "_gamma_action",
                        lambda fock_c, u11: fock_c.gamma(u11).__matmul__)
    dense = run()
    assert len(calls) == (7 if gauge else 20)
    assert phase == dense
    record = json.loads(phase)["charge_theorem"]
    assert record["gauge"] == "u1"
    assert record["max_block_deviation"]["pass"]


def gamma_and_det_stacks(u11):
    """Gamma(U) and the sizes of the determinant stacks it evaluated."""
    taken = []
    det = np.linalg.det

    def counting_det(stack):
        taken.append(len(stack))
        return det(stack)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "det", counting_det)
        gamma = FermiFock(len(u11)).gamma(u11)
    return gamma, taken


def allowed_minor_pairs(sizes):
    """Minor pairs (S', S), |S| >= 1, with equal counts in every block.

    At level l they number sum over counts c with sum c = l of
    prod_j C(s_j, c_j)^2; over all levels that is prod_j C(2 s_j, s_j)
    (Vandermonde), less the one empty pair of level 0.
    """
    return math.prod(math.comb(2 * s, s) for s in sizes) - 1


# Level 0 is answered without a determinant, hence the "- 1".
@pytest.mark.parametrize("u11, minors", [
    (np.diag(np.exp(1j * np.arange(8))), 2 ** 8 - 1),
    (np.kron(np.eye(4), haar_unitary(2, np.random.default_rng(302))),
     1296 - 1),
    (haar_unitary(8, np.random.default_rng(303)), math.comb(16, 8) - 1),
], ids=["u1", "site-major-u2", "generic"])
def test_gamma_takes_only_the_minors_its_blocks_allow(u11, minors):
    _, taken = gamma_and_det_stacks(u11)
    assert sum(taken) == minors


def permuted_block_sum(sizes, perm, seed):
    """Haar blocks of the given sizes, with modes reordered by perm."""
    rng = np.random.default_rng(seed)
    u = scipy.linalg.block_diag(*(haar_unitary(s, rng) for s in sizes))
    return u[np.ix_(perm, perm)]


@st.composite
def block_sums(draw):
    n = draw(st.integers(1, 7))
    # A block ends after mode i when cut[i - 1] is drawn true.
    cut = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    ends = [i for i in range(1, n) if cut[i - 1]] + [n]
    sizes = np.diff([0, *ends]).tolist()
    perm = draw(st.permutations(range(n)))
    seed = draw(st.integers(0, 2**32 - 1))
    return permuted_block_sum(sizes, perm, seed), sizes


@settings(max_examples=50, derandomize=True, deadline=None)
@given(block_sums())
def test_gamma_of_permuted_block_sums(case):
    u11, sizes = case
    gamma, taken = gamma_and_det_stacks(u11)
    assert np.array_equal(gamma, scalar_gamma(u11))
    assert sum(taken) == allowed_minor_pairs(sizes)


def blockwise_scalar_gamma(u11, labels):
    """scalar_gamma on the pairs whose block counts match, zero elsewhere.

    At 10 modes scalar_gamma takes seconds; this takes only the minors the
    blocks allow.  labels[i] names the block of mode i.  The empty subset is a group of
    its own, and det of its 0 x 0 minor is 1.
    """
    n = len(u11)
    groups = {}
    for s in range(2 ** n):
        modes = [i for i in range(n) if s >> i & 1]
        key = tuple(sorted(labels[i] for i in modes))
        groups.setdefault(key, []).append((s, modes))
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for members in groups.values():
        for s_row, rows in members:
            for s_col, cols in members:
                out[s_row, s_col] = np.linalg.det(u11[np.ix_(rows, cols)])
    return out


def test_gamma_at_the_cap_with_singleton_and_triple_blocks():
    # Blocks of sizes 3 and 1 side by side: a key that confused two count
    # patterns, such as two singletons against two modes of one triple,
    # would take more minors than the blocks allow.
    sizes = [3, 1, 3, 1, 1, 1]
    perm = [9, 2, 5, 0, 7, 3, 8, 1, 6, 4]
    u11 = permuted_block_sum(sizes, perm, 304)
    assert 2 ** len(u11) == GAMMA_DIM_CAP
    labels = np.repeat(np.arange(len(sizes)), sizes)[perm]
    gamma, taken = gamma_and_det_stacks(u11)
    assert sum(taken) == allowed_minor_pairs(sizes)
    assert np.array_equal(gamma, blockwise_scalar_gamma(u11, labels))


def incremental_pi(fock, space, f):
    """pi(f) as a chain of sparse additions, one scaled table at a time."""
    n = fock.n_modes
    op = sp.csr_matrix((fock.dim, fock.dim), dtype=complex)
    for i in range(n):
        if f[i] != 0:
            op = op + complex(f[i]) * fock.creation(i + 1)
        if f[n + i] != 0:
            op = op + complex(f[n + i]) * fock.annihilation(i + 1)
    return op


@pytest.mark.parametrize("make_fock", [
    lambda: FermiFock(3), lambda: FermiFock(4),
    lambda: BoseFock(2, 3), lambda: BoseFock(3, 2),
], ids=["fermi-3", "fermi-4", "bose-2-cutoff-3", "bose-3-cutoff-2"])
def test_pi_is_the_incremental_sum(make_fock):
    fock = make_fock()
    space = SelfDualSpace(fock.n_modes)
    rng = np.random.default_rng(fock.dim)
    for _ in range(6):
        f = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        f[rng.random(space.dim) < 0.3] = 0.0
        f[rng.random(space.dim) < 0.3] = -1.0  # negative zeros in products
        got, want = fock.pi(space, f), incremental_pi(fock, space, f)
        assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        # Bit for bit, negative zeros included (toarray would clear them).
        assert np.array_equal(got.data.view(np.uint64),
                              want.data.view(np.uint64))
    assert fock.pi(space, np.zeros(space.dim)).nnz == 0


@pytest.mark.parametrize("n_modes", [3, 4])
def test_psi_is_the_twisted_coo_build(n_modes):
    fock = FermiFock(n_modes)
    space = SelfDualSpace(n_modes)
    theta = (1.0 - 1j * fock.parity()) / math.sqrt(2.0)
    rng = np.random.default_rng(40 + n_modes)
    for _ in range(6):
        f = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        f[rng.random(space.dim) < 0.3] = 0.0
        f[rng.random(space.dim) < 0.3] = -1.0  # negative zeros in products
        op = incremental_pi(fock, space, f).tocoo()
        want = sp.csr_matrix(
            (theta[op.row] * op.data * np.conj(theta[op.col]),
             (op.row, op.col)), shape=op.shape)
        got = fock.psi(space, f)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.uint64),
                              want.data.view(np.uint64))


def dense_implementers(v, fock_dom, fock_cod, omega_alphas):
    """Implementers and their residuals from dense fields, term by term."""
    nd = fock_dom.n_modes
    pi_v = [incremental_pi(fock_cod, v.codomain, v.matrix[:, i])
            for i in range(nd)]
    psis = []
    for omega in omega_alphas:
        cols = np.zeros((fock_cod.dim, fock_dom.dim), dtype=complex)
        cols[:, 0] = omega
        for s in range(1, fock_dom.dim):
            low = (s & -s).bit_length() - 1
            cols[:, s] = pi_v[low] @ cols[:, s ^ (1 << low)]
        psis.append(cols)
    inter = impl = iso = 0.0
    for idx in range(v.domain.dim):
        f = np.zeros(v.domain.dim, dtype=complex)
        f[idx] = 1.0
        pi_d = incremental_pi(fock_dom, v.domain, f).toarray()
        pi_c = incremental_pi(fock_cod, v.codomain, v.matrix @ f).toarray()
        total = np.zeros((fock_cod.dim, fock_cod.dim), dtype=complex)
        for psi in psis:
            inter = max(inter, hs_norm(psi @ pi_d - pi_c @ psi))
            total += psi @ pi_d @ psi.conj().T
        impl = max(impl, hs_norm(total - pi_c))
    for a, pa in enumerate(psis):
        for b, pb in enumerate(psis):
            target = np.eye(fock_dom.dim) if a == b else 0.0
            iso = max(iso, float(np.max(np.abs(pa.conj().T @ pb - target))))
    comp = hs_norm(sum(p @ p.conj().T for p in psis) - np.eye(fock_cod.dim))
    return psis, (inter, iso, comp, impl)


def random_car_member():
    """exp(iH) after the shift 3 -> 4, with H hermitian, S conj(H) S = -H.

    exp(iH) is a self-dual unitary, so the product is a CAR member of index
    2; H is scaled to operator norm 0.8.
    """
    rng = np.random.default_rng(404)
    space = SelfDualSpace(4)
    z = (rng.normal(size=(space.dim, space.dim))
         + 1j * rng.normal(size=(space.dim, space.dim)))
    h0 = (z + z.conj().T) / 2.0
    s = dense.swap(space)
    h = (h0 - s @ h0.conj() @ s) / 2.0
    gen = 1j * h
    gen *= 0.8 / np.linalg.norm(h, ord=2)
    shift = builders.shift(3)
    return BlockOperator(scipy.linalg.expm(gen) @ shift.matrix,
                         shift.domain, space)


def oracle_inputs(v):
    """car_implementers' arguments for a CAR member, as the oracle builds them."""
    data = car_charge_data(car_membership(v))
    fock_d = FermiFock(v.domain.n_modes)
    fock_c = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    return v, fock_d, fock_c, omegas


@pytest.mark.parametrize("make_v", [
    lambda: builders.shift(3),
    lambda: builders.bogoliubov(0.7, n_modes=4),
    random_car_member,
], ids=["shift-3-4", "bogoliubov-4", "random-member"])
def test_car_implementers_equal_dense_products(make_v):
    v, fock_d, fock_c, omegas = oracle_inputs(make_v())
    imp = car_implementers(v, fock_d, fock_c, omegas)
    psis, residuals = dense_implementers(v, fock_d, fock_c, omegas)
    assert len(imp.psis) == len(psis)
    for got, want in zip(imp.psis, psis):
        assert np.array_equal(got, want)
    got = (imp.intertwining_residual, imp.isometry_residual,
           imp.completeness_residual, imp.implementation_residual)
    assert np.allclose(got, residuals, rtol=0.0, atol=1e-14)


def noisy_inputs(make_v, eps=1e-6):
    """oracle_inputs with dense noise on every Omega_alpha, so W is dense."""
    v, fock_d, fock_c, omegas = oracle_inputs(make_v())
    rng = np.random.default_rng(3)
    return v, fock_d, fock_c, [
        w + eps * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))
        for w in omegas]


IMPLEMENTER_INPUTS = {
    "shift-7-8": lambda: oracle_inputs(builders.shift(7)),
    "shift-3-4x2": lambda: oracle_inputs(builders.shift(3, species=2)),
    "bogoliubov-8": lambda: oracle_inputs(builders.bogoliubov(0.7, 8)),
    "random-member-6-1": lambda: oracle_inputs(
        random_member("car", 6, 1, 2024, 1.0)),
    "random-member-7-2": lambda: oracle_inputs(
        random_member("car", 7, 2, 77, 0.6)),
    "wrong-vacuum": wrong_vacuum_inputs,
    "flip-6-2": lambda: oracle_inputs(builders.flip(6, 2)),
    "shift-2-3x3": lambda: oracle_inputs(builders.shift(2, species=3)),
    "bogoliubov-quarter-turn-4": lambda: oracle_inputs(
        builders.bogoliubov(math.pi / 2, 4)),
    "shift-7-8-dense-noise": lambda: noisy_inputs(lambda: builders.shift(7)),
}


@pytest.mark.parametrize("name", sorted(IMPLEMENTER_INPUTS))
def test_car_implementers_equal_the_per_column_reference(name):
    args = IMPLEMENTER_INPUTS[name]()
    got = car_implementers(*args)
    want = reference_car_implementers(*args)
    assert len(got.psis) == len(want.psis)
    for got_psi, want_psi in zip(got.psis, want.psis):
        assert np.array_equal(got_psi, want_psi)
    for field in ("intertwining_residual", "isometry_residual",
                  "completeness_residual", "implementation_residual"):
        assert getattr(got, field) == getattr(want, field)


def test_an_entry_off_the_pattern_of_w_shows_in_the_gaps(monkeypatch):
    # The gaps read W's nonzeros only; one planted 1e-7 where W is exactly
    # zero must still move the intertwining residual above DEFAULT_TOL.
    build = fock._implementer_columns

    def planted(*args):
        w = build(*args)
        row, col = np.argwhere(w == 0)[len(w) // 2]
        w[row, col] = 1e-7
        return w

    args = oracle_inputs(builders.shift(7))
    assert car_implementers(*args).intertwining_residual <= DEFAULT_TOL
    monkeypatch.setattr(fock, "_implementer_columns", planted)
    assert car_implementers(*args).intertwining_residual > DEFAULT_TOL


@pytest.mark.parametrize("eps, count", [(0.0, None), (1e-6, None),
                                         (1e-3, None), (0.0, 1)])
@pytest.mark.parametrize("make_v", [
    lambda: builders.shift(3),
    lambda: builders.bogoliubov(0.7, n_modes=4),
], ids=["shift-3-4", "bogoliubov-4"])
def test_completeness_equals_the_explicit_w_w_star(make_v, eps, count):
    # Perturbed Omega_alpha move the residual far above rounding, and one
    # implementer short of the set leaves W non-square (dim_c > r dim_d).
    v, fock_d, fock_c, omegas = oracle_inputs(make_v())
    rng = np.random.default_rng(5)
    omegas = [w + eps * (rng.normal(size=w.shape)
                         + 1j * rng.normal(size=w.shape))
              for w in omegas[:count]]
    imp = car_implementers(v, fock_d, fock_c, omegas)
    w = np.hstack(imp.psis)
    want = hs_norm(w @ w.conj().T - np.eye(fock_c.dim))
    assert abs(imp.completeness_residual - want) <= 1e-14


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("make_v", [
    lambda: builders.shift(3),
    lambda: builders.bogoliubov(0.7, n_modes=4),
    random_car_member,
    lambda: builders.shift(2, species=2),
], ids=["shift-3-4", "bogoliubov-4", "random-member", "shift-2-3x2"])
def test_implementation_bound_is_sound_and_tight(monkeypatch, make_v, eps):
    # Perturbed Omega_alpha give residuals far above rounding; the reported
    # bound must lie above the direct sum-formula residual, and not far.
    monkeypatch.setattr(fock, "DEFAULT_TOL", 1.0)
    v, fock_d, fock_c, omegas = oracle_inputs(make_v())
    rng = np.random.default_rng(11)
    omegas = [w + eps * (rng.normal(size=w.shape)
                         + 1j * rng.normal(size=w.shape)) for w in omegas]
    imp = car_implementers(v, fock_d, fock_c, omegas)
    _, (_, _, _, direct) = dense_implementers(v, fock_d, fock_c, omegas)
    assert direct > 0.0
    assert direct <= imp.implementation_residual <= 3.0 * direct


def test_oracle_report_independent_of_threads(tmp_path):
    # The U(2) pass takes dense Gamma(U) products; fresh processes at one
    # and at two BLAS threads write the same report.
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "label": "shift-3-4x2", "algebra": "car",
        "isometry": {"builder": "shift", "params": {
            "n_sites_in": 3, "steps": 1, "species": 2}},
        "gauge": {"group": "un", "species": 2, "samples": 6, "seed": 17}}),
        encoding="utf-8")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH",
                                                                ""))
        subprocess.run([sys.executable, "-m", "quasifree.cli", "oracle",
                        "--input", str(model), "--report", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert data["charge_theorem"]["max_block_deviation"]["pass"] is True


def loop_creation(dim, i):
    """a*(e_i) state by state, with the sign convention of the module."""
    rows, cols, vals = [], [], []
    bit = 1 << i
    for s in range(dim):
        if s & bit:
            continue
        rows.append(s | bit)
        cols.append(s)
        vals.append(-1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


@pytest.mark.parametrize("n_modes", range(11))
def test_fermi_tables_match_loop_reference(n_modes):
    fock = FermiFock(n_modes)
    parity = np.array([(-1.0) ** bin(s).count("1") for s in range(fock.dim)])
    assert fock.parity().dtype == parity.dtype
    assert np.array_equal(fock.parity(), parity)
    for i in range(n_modes):
        ref = loop_creation(fock.dim, i)
        for table, ref_table in ((fock.creation(i + 1), ref),
                                 (fock.annihilation(i + 1),
                                  ref.conj().T.tocsr())):
            for attr in ("indptr", "indices", "data"):
                got, want = getattr(table, attr), getattr(ref_table, attr)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
