import numpy as np
import pytest

import car_chart_reference as chart
import dense_selfdual as dense
from gauge_commutation import gauge_commutation_report
from quasifree import builders
from quasifree.car import (
    CAR,
    car_charge_data,
    car_membership,
    compute_p,
    compute_t,
    k_projection,
    z2_index,
)
from quasifree.errors import (
    AntisymmetryViolation,
    NonzeroIndex,
    NotInSemigroup,
    RecoveryMismatch,
)
from quasifree.selfdual import (
    BlockOperator,
    SelfDualSpace,
    hs_norm,
    orthoprojection,
    pinv_on_range,
)
from test_random_members import random_member


def haar_gauge(n, seed):
    """Haar-ish unitary on K1 extended to u + conj(u)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    space = SelfDualSpace(n)
    return BlockOperator(dense.extend_gauge(u, space), space)


# --- membership ------------------------------------------------------------

def test_membership_accepts_builders():
    for v in (builders.identity(3), builders.shift(3), builders.flip(3),
              builders.bogoliubov(np.pi / 6)):
        rec = car_membership(v)
        assert rec.is_member
        assert rec.isometry_defect <= 1e-12
        assert rec.selfdual_defect <= 1e-12


def test_membership_rejects_nonisometry():
    v = builders.shift(3)
    bad = BlockOperator(0.5 * v.matrix, v.domain, v.codomain)
    rec = car_membership(bad)
    assert not rec.is_member
    assert any("isometry" in f for f in rec.failures)


def test_membership_rejects_selfdual_violation():
    v = builders.shift(3)
    m = v.matrix.copy()
    # phase on the mode half only: still isometric, breaks V = conj(V)
    m[:v.codomain.n_modes] *= np.exp(0.3j)
    rec = car_membership(BlockOperator(m, v.domain, v.codomain))
    assert not rec.is_member
    assert any("selfdual" in f for f in rec.failures)
    with pytest.raises(NotInSemigroup):
        car_charge_data(car_membership(BlockOperator(m, v.domain, v.codomain)))


def test_shift_index_and_hs_defect():
    rec = car_membership(builders.shift(3))
    assert rec.index == 2
    # shift commutes with P1
    assert rec.hs_defect == 0.0
    assert car_membership(builders.shift(2, species=2)).index == 4


# --- charge data on the canonical examples ---------------------------------

def test_shift_charge_data():
    data = car_charge_data(car_membership(builders.shift(3)))
    assert data.h_frame.shape[1] == 0
    assert np.allclose(data.t, 0.0)
    assert np.allclose(data.p, dense.p1(data.v.codomain))
    assert data.index == 2
    assert data.k_frame.shape[1] == 1
    # k = span{e1} of the codomain
    e1 = data.v.codomain.basis_vector(1)
    assert np.allclose(np.abs(data.k_frame[:, 0] @ e1.conj()), 1.0)
    assert data.statistics_dimension == 2


def test_doubled_shift_charge_data():
    data = car_charge_data(car_membership(builders.shift(2, species=2)))
    assert data.index == 4
    assert data.k_frame.shape[1] == 2
    assert data.statistics_dimension == 4
    # k = span{e_{site1,species1}, e_{site1,species2}}
    proj = orthoprojection(data.k_frame)
    for mode in (1, 2):
        e = data.v.codomain.basis_vector(mode)
        assert np.allclose(proj @ e, e)


def test_flip_charge_data():
    v = builders.flip(3)
    data = car_charge_data(car_membership(v))
    assert data.index == 0
    assert data.k_frame.shape[1] == 0
    assert data.h_frame.shape[1] == 1
    e1 = v.codomain.basis_vector(1)
    assert np.allclose(np.abs(np.vdot(data.h_frame[:, 0], e1)), 1.0)
    assert np.allclose(data.t, 0.0)
    # P = P1 - E_{e1} + E_{e1*}
    e1s = v.codomain.basis_vector(1, conjugate=True)
    expected = (dense.p1(v.codomain) - np.outer(e1, e1.conj())
                + np.outer(e1s, e1s.conj()))
    assert np.allclose(data.p, expected, atol=1e-12)
    assert data.statistics_dimension == 1


def test_bogoliubov_pairing_operator():
    theta = np.pi / 6
    data = car_charge_data(car_membership(builders.bogoliubov(theta)))
    assert data.h_frame.shape[1] == 0
    assert data.index == 0
    tan = np.tan(theta)
    expected = np.array([[0.0, -tan], [tan, 0.0]])
    assert np.allclose(data.t, expected, atol=1e-12)
    assert np.isclose(np.abs(data.t[1, 0]), 1.0 / np.sqrt(3.0), atol=1e-12)
    assert data.t_norm == np.linalg.norm(data.t, 2)
    # P recovers (h, T); P is not P1 here
    assert not np.allclose(data.p, dense.p1(data.v.codomain))


@pytest.mark.parametrize("make_v", [
    lambda: random_member("car", 9, 1, seed=5, scale=0.9),
    lambda: builders.flip(2) @ builders.bogoliubov(0.4),
], ids=["random-member", "flip-bogoliubov"])
def test_compute_p_bits_equal_the_dense_formula(make_v):
    # The reference keeps the chart construction's P bit for bit.
    # T is dense in a random member: there an n x n T*T rounds differently
    # from the full-size product, so this pins the product it keeps.
    v = make_v()
    h, t, p, _ = chart.reference_chart(v, car_membership(v).cokernel)
    space, n = v.codomain, v.codomain.n_modes
    p1 = dense.p1(space)
    tf = np.zeros((space.dim, space.dim), dtype=complex)
    tf[n:, :n] = t
    middle = pinv_on_range(p1 + tf.conj().T @ tf)
    h_bar = dense.conjugate_matrix(h, None, space)
    want = ((p1 + tf) @ middle @ (p1 + tf.conj().T)
            - orthoprojection(h) + orthoprojection(h_bar))
    assert np.array_equal(p.view(np.uint64), want.view(np.uint64))


def test_compute_t_second_term_flip_compositions():
    # flip and bogoliubov do not commute; both compositions stay in the
    # semigroup and their T must remain antisymmetric with T h = 0
    theta = 0.4
    f, b = builders.flip(2), builders.bogoliubov(theta)
    for v in (f @ b, b @ f):
        data = car_charge_data(car_membership(v))
        assert data.h_frame.shape[1] == 1
        nc = v.codomain.n_modes
        assert np.allclose(data.t @ data.h_frame[:nc], 0.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_charge_pipeline_on_random_members(seed):
    # random members: gauge * bogoliubov * gauge * shift * gauge
    theta = 0.3 + 0.1 * seed
    v = (haar_gauge(4, seed) @ builders.bogoliubov(theta, n_modes=4)
         @ haar_gauge(4, seed + 100) @ builders.shift(3)
         @ haar_gauge(3, seed + 200))
    data = car_charge_data(car_membership(v))
    assert data.index == 2
    assert data.k_frame.shape[1] == 1
    # P is a selfdual-complement projection (checked internally); spot check
    space = v.codomain
    pbar = dense.conjugate_matrix(data.p, space, space)
    assert np.allclose(pbar, np.eye(space.dim) - data.p, atol=1e-9)


def loose_identity():
    # 0.99 * 1 is a member at --tol 2, where V P1 V* is not idempotent
    return BlockOperator(0.99 * np.eye(6), SelfDualSpace(3))


REFERENCE_MEMBERS = [
    *[(f"random-{n}-index-{2 * s}-seed-{seed}",
       lambda n=n, s=s, seed=seed: random_member("car", n, s, seed, 1.0))
      for seed, (n, s) in enumerate((5 + i % 8, i % 4) for i in range(30))],
    ("identity", lambda: builders.identity(3)),
    ("shift", lambda: builders.shift(3)),
    ("shift-species-2", lambda: builders.shift(2, species=2)),
    ("flip", lambda: builders.flip(3)),
    ("bogoliubov", lambda: builders.bogoliubov(0.4, n_modes=4)),
    ("flip-bogoliubov", lambda: builders.flip(2) @ builders.bogoliubov(0.4)),
    ("bogoliubov-flip", lambda: builders.bogoliubov(0.4) @ builders.flip(2)),
    ("quarter-turn-shift",
     lambda: builders.bogoliubov(np.pi / 4, 2) @ builders.shift(1)),
    ("loose-identity", loose_identity),
]


@pytest.mark.parametrize("make_v", [m for _, m in REFERENCE_MEMBERS],
                         ids=[name for name, _ in REFERENCE_MEMBERS])
def test_charge_data_matches_the_chart_reference(make_v):
    v = make_v()
    # --tol 2 admits the loose identity and leaves exact members as they are
    membership = car_membership(v, tol=2.0)
    data = car_charge_data(membership)
    h, t, p, k = chart.reference_chart(v, membership.cokernel)
    assert hs_norm(data.p - p) <= 1e-12
    assert hs_norm(data.t - t) <= 1e-12
    assert hs_norm(orthoprojection(data.h_frame) - orthoprojection(h)) <= 1e-12
    assert hs_norm(orthoprojection(data.k_frame) - orthoprojection(k)) <= 1e-12


def test_charge_data_factorises_nothing_beyond_mode_size(monkeypatch):
    # Only the membership test factors a 2n-sized matrix; the chart
    # reference takes a 2n x 2n pseudo-inverse of P1 + T*T.
    membership = car_membership(builders.shift(200))
    shapes = []

    def recorded(factor):
        def call(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            return factor(matrix, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", recorded(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", recorded(np.linalg.qr))
    car_charge_data(membership)
    n_modes = membership.v.codomain.n_modes
    assert shapes and max(min(s[-2:]) for s in shapes) <= n_modes


def test_one_svd_reads_h_t_and_the_z2_sign(monkeypatch):
    # h and T share one rank decision on P's K1 columns, and the Z2 sign is
    # read off dim h, so z2_index factorises nothing.
    data = car_charge_data(car_membership(
        builders.flip(4, 3) @ builders.bogoliubov(0.3, 4)))
    calls = []
    for name in ("svd", "inv"):
        def call(*args, name=name, factor=getattr(np.linalg, name), **kw):
            calls.append(name)
            return factor(*args, **kw)
        monkeypatch.setattr(np.linalg, name, call)
    h, _ = compute_t(data.p, data.v.codomain)
    assert calls == ["svd"] and h.shape[1] == 1
    calls.clear()
    assert z2_index(data) == -1
    assert calls == []


def test_statistics_dimension_values():
    assert CAR.statistics_dimension(0) == 1
    assert CAR.statistics_dimension(2) == 2
    assert CAR.statistics_dimension(6) == 8


# --- Z2 index ------------------------------------------------------------

def test_z2_index():
    assert z2_index(car_charge_data(car_membership(builders.identity(3)))) == 1
    assert z2_index(car_charge_data(car_membership(builders.flip(3)))) == -1
    assert z2_index(car_charge_data(car_membership(
        builders.bogoliubov(0.3)))) == 1
    with pytest.raises(NonzeroIndex):
        z2_index(car_charge_data(car_membership(builders.shift(3))))


# --- recovery and gauge propagation ----------------------------------------

def test_compute_p_rejects_inconsistent_pair():
    # k must be half of ker V*: with all of ker V* = span{e1, e1*} beside
    # V P1 V*, P is a projection but J P J != 1 - P, which must fail loudly
    v = builders.shift(3)
    space = v.codomain
    ker = np.column_stack([space.basis_vector(1),
                           space.basis_vector(1, conjugate=True)])
    with pytest.raises(RecoveryMismatch, match="complement"):
        compute_p(v, orthoprojection(ker))


def _graph_projection(s):
    """G (G* G)^{-1} G*, the projection onto the graph G = [1; S] of S."""
    g = np.vstack([np.eye(len(s)), s])
    return g @ np.linalg.inv(g.conj().T @ g) @ g.conj().T


def _k1_columns(p11, p21):
    p = np.zeros((4, 4), dtype=complex)
    p[:2, :2] = p11
    p[2:, :2] = p21
    return p


@pytest.mark.parametrize("p, error", [
    # P21 nonzero on ker P11 = span{e2}: no T gives back P21 = T P11
    (_k1_columns(np.diag([1.0, 0.0]), [[0.0, 0.0], [0.0, 0.5]]),
     RecoveryMismatch),
    # a projection whose T = P21 P11^{-1} is the symmetric S
    (_graph_projection(np.array([[0.0, 0.5], [0.5, 0.0]])),
     AntisymmetryViolation),
], ids=["p21-off-range", "symmetric-t"])
def test_compute_t_rejects_a_p_without_a_pairing_operator(p, error):
    with pytest.raises(error):
        compute_t(p, SelfDualSpace(2))


def test_recovery_from_p_bogoliubov():
    theta = np.pi / 6
    v = builders.bogoliubov(theta)
    p = compute_p(v, k_projection(v, car_membership(v).cokernel))
    h, t = compute_t(p, v.codomain)  # the recovery check runs here
    n = v.codomain.n_modes
    assert h.shape[1] == 0
    assert np.linalg.norm(p[n:, :n] @ np.linalg.inv(p[:n, :n]) - t) <= 1e-10
    assert np.linalg.norm(t - chart.compute_t(v)) <= 1e-12


def test_gauge_commutation_report_commuting():
    data = car_charge_data(car_membership(builders.shift(3)))
    u = np.exp(0.7j) * np.eye(4)
    rep = gauge_commutation_report(data, u)
    assert rep.v_commutator <= 1e-12
    assert rep.t_commutator <= 1e-12
    assert rep.p_commutator <= 1e-12
    assert rep.h_invariance <= 1e-12
    assert rep.k_invariance <= 1e-12


def test_gauge_commutation_report_noncommuting():
    data = car_charge_data(car_membership(builders.shift(3)))
    mix = np.eye(4)
    c, s = np.cos(0.7), np.sin(0.7)
    mix[:2, :2] = [[c, -s], [s, c]]
    rep = gauge_commutation_report(data, mix)
    assert rep.v_commutator > 0.1
    assert np.isfinite(rep.propagation_constant)
