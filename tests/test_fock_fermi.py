"""Fermionic Fock oracle: operator algebra, vacua, implementers, charges."""

import itertools
import json
import math

import numpy as np
import pytest

from quasifree import builders, cli
from quasifree.car import car_charge_data, car_membership
from quasifree.errors import CapExceeded, ImplementationDefect
from quasifree.fock import (
    FermiFock,
    car_implementers,
    car_multi_indices,
    charge_rep_blocks,
    compound_matrix,
    implementer_invariance_residual,
    omega_alphas_fermi,
    omega_p_fermi,
    span_invariance_residual,
)
from quasifree.selfdual import SelfDualSpace, hs_norm

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
        assert hs_norm(pf.conj().T.toarray()
                       - fock.pi(space, space.conj_vector(f)).toarray()) < 1e-10
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
    for g in (e1, e2, space.conj_vector(e2)):
        pg = fock.pi(space, g).toarray()
        assert hs_norm(psi1 @ pg - pg @ psi1) < TOL
    p1c = fock.pi(space, space.conj_vector(e1)).toarray()
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
    from quasifree.car import extend_gauge
    u_ext = extend_gauge(q1, space)
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
    omega = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
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
    omega = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    # psi(e1) Omega = i |{1}>
    assert omega[1] == pytest.approx(1j, abs=1e-12)
    assert abs(omega[0]) < 1e-12


def test_shift_implementers_explicit():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    fock_d, fock_c = FermiFock(1), FermiFock(2)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k.frame)
    assert alphas == [(), (0,)]
    imp = car_implementers(v, fock_d, fock_c, omegas, alphas)
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
    omega_p = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k.frame)
    assert alphas == [()]
    imp = car_implementers(v, fock, fock, omegas, alphas)
    u = imp.psis[0]
    assert hs_norm(u @ u.conj().T - np.eye(fock.dim)) < 1e-10


def test_composed_member_implementers():
    v = builders.bogoliubov(0.3, n_modes=4) @ builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    fock_d, fock_c = FermiFock(2), FermiFock(4)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k.frame)
    assert len(alphas) == 4  # k_dim = 2 -> levels 0,1,1,2
    imp = car_implementers(v, fock_d, fock_c, omegas, alphas)
    assert imp.implementation_residual < 1e-10


def test_intertwining_detects_wrong_vacuum():
    v = builders.shift(1)
    fock_d, fock_c = FermiFock(1), FermiFock(2)
    bad = [fock_c.vacuum(),
           fock_c.psi(v.codomain, v.codomain.basis_vector(2)) @ fock_c.vacuum()]
    with pytest.raises(ImplementationDefect):
        car_implementers(v, fock_d, fock_c, bad, [(), (0,)])


def test_flip_charge_matrix_is_gauge_phase():
    v = builders.flip(1)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(1)
    omega = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    lam = 0.8
    gamma = fock.gamma(np.array([[np.exp(1j * lam)]]))
    blocks = charge_rep_blocks([omega], [()], gamma)
    assert blocks[0][0, 0] == pytest.approx(np.exp(1j * lam), abs=1e-12)


def test_shift_charge_blocks_match_determinant_formula():
    v = builders.shift(1, species=2)  # k two-dimensional
    data = car_charge_data(car_membership(v))
    fock = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k.frame)
    rng = np.random.default_rng(7)
    u_small, _ = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
    u11 = np.eye(v.codomain.n_modes, dtype=complex)
    u11[:2, :2] = u_small  # acts on the k modes (first site), fixes the rest
    blocks = charge_rep_blocks(omegas, alphas, fock.gamma(u11))
    k1 = data.k.frame[:v.codomain.n_modes, :]
    u_k = k1.conj().T @ u11 @ k1
    for level, block in blocks.items():
        assert hs_norm(block - compound_matrix(u_k, level)) < 1e-10


def test_span_invariance_residuals():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    fock = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k.frame)
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
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k.frame)
    imp = car_implementers(v, fock_d, fock_c, omegas, alphas)
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
    assert car_multi_indices(2) == [(), (0,), (1,), (0, 1)]
    assert len(car_multi_indices(4)) == 16


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


def test_oracle_report_independent_of_threads(tmp_path):
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
        assert cli.main(["oracle", "--input", str(model), "--report", str(out),
                         "--threads", threads]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert data["charge_theorem"]["max_block_deviation"]["pass"] is True
