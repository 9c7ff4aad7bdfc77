import numpy as np
import pytest

import dense_selfdual as dense
from ccr_split_reference import reference_split
from quasifree import builders
from quasifree.ccr import (
    CCR,
    ccr_charge_data,
    ccr_membership,
    compute_t,
    kappa_split,
)
from quasifree.errors import (
    DegenerateForm,
    DimensionMismatch,
    NormBoundViolation,
    NotInSemigroup,
)
from quasifree.selfdual import SelfDualSpace, hs_norm
from test_random_members import random_member


def test_membership_accepts_squeeze_and_shift():
    for v in (builders.squeeze(0.5), builders.shift(3), builders.identity(2)):
        rec = ccr_membership(v)
        assert rec.is_member
        assert rec.isometry_defect <= 1e-12


def test_membership_rejects_plain_isometry_that_is_not_kappa():
    # the fermionic bogoliubov rotation is unitary but not kappa-isometric
    rec = ccr_membership(builders.bogoliubov(0.4))
    assert not rec.is_member
    assert any("kappa" in f for f in rec.failures)
    with pytest.raises(NotInSemigroup):
        ccr_charge_data(ccr_membership(builders.bogoliubov(0.4)))


def test_squeeze_charge_data():
    r = 0.5
    data = ccr_charge_data(ccr_membership(builders.squeeze(r)))
    assert data.index == 0
    assert data.k_frame.shape[1] == 0
    assert data.statistics_dimension == 1.0
    # T = tanh(r), symmetric single entry
    assert data.t.shape == (1, 1)
    assert np.isclose(data.t[0, 0].real, np.tanh(r), atol=1e-12)
    assert abs(data.t[0, 0].imag) <= 1e-14
    # P = V P1 V+ exactly (p = 0 here)
    v = data.v
    vp = v.matrix @ dense.p1(v.domain) @ v.kappa_adjoint().matrix
    assert np.allclose(data.p, vp, atol=1e-12)


@pytest.mark.parametrize("make_v", [
    lambda: random_member("ccr", 130, 1, seed=5, scale=0.3),
    lambda: builders.squeeze(0.4, 2, 2) @ builders.shift(1),
], ids=["random-member-130", "squeeze-shift"])
def test_projection_bits_equal_the_dense_formula(make_v):
    # P = V P1 V+ + p with dense P1 and C, bit for bit.  At 130 modes a
    # product over the K1 columns alone rounds differently.
    v = make_v()
    membership = ccr_membership(v)
    data = ccr_charge_data(membership)
    _, _, p_defect = kappa_split(v.codomain, membership.cokernel)
    v_plus = (dense.charge_conjugation(v.domain) @ v.matrix.conj().T
              @ dense.charge_conjugation(v.codomain))
    want = v.matrix @ dense.p1(v.domain) @ v_plus + p_defect
    assert np.array_equal(data.p.view(np.uint64), want.view(np.uint64))


def test_bosonic_shift_charge_data():
    v = builders.shift(3)
    data = ccr_charge_data(ccr_membership(v))
    assert data.index == 2
    assert data.k_frame.shape[1] == 1
    assert data.statistics_dimension == np.inf
    # A = K G K* = diag(1, -1) on span{e1, e1*}; A_+ = E_{e1}; p = E_{e1};
    # P = P1
    space = v.codomain
    ker = data.membership.cokernel
    g, _, p_defect = kappa_split(space, ker)
    a = ker @ g @ ker.conj().T
    e1 = space.basis_vector(1)
    e1s = space.basis_vector(1, conjugate=True)
    assert np.isclose(np.vdot(e1, a @ e1).real, 1.0)
    assert np.isclose(np.vdot(e1s, a @ e1s).real, -1.0)
    assert np.allclose(p_defect, np.outer(e1, e1.conj()), atol=1e-12)
    assert np.allclose(data.p, dense.p1(space), atol=1e-12)
    assert np.allclose(data.t, 0.0)
    # k frame: e1 with kappa-norm one
    assert np.allclose(np.abs(data.k_frame[:, 0] @ e1.conj()), 1.0)


def test_squeeze_then_shift_pipeline():
    # rotate ker V+ through a squeeze: p and P must still verify internally
    v = builders.squeeze(0.3, n_modes=4, mode=2) @ builders.shift(3)
    data = ccr_charge_data(ccr_membership(v))
    assert data.index == 2
    assert data.k_frame.shape[1] == 1
    # kappa-orthonormality of the k frame
    c = dense.charge_conjugation(v.codomain)
    gram = data.k_frame.conj().T @ c @ data.k_frame
    assert np.allclose(gram, np.eye(1), atol=1e-9)


def test_norm_bound_violation():
    # synthetic projection-like matrix whose block ratio reaches ||T|| >= 1
    space = SelfDualSpace(1)
    p = np.array([[1.0, -1.0], [1.0, -1.0]])  # T would be 1.0
    with pytest.raises(NormBoundViolation):
        compute_t(p, space)


def test_compute_t_factorises_p11_once(monkeypatch):
    # The singularity test and the inverse of P11 come from one SVD; the
    # norm bound takes the singular values of T inside np.linalg.norm.
    data = ccr_charge_data(ccr_membership(builders.squeeze(0.4, 3)))
    calls = []
    for name in ("svd", "inv"):
        def call(*args, name=name, factor=getattr(np.linalg, name), **kw):
            calls.append(name)
            return factor(*args, **kw)
        monkeypatch.setattr(np.linalg, name, call)
    _, norm = compute_t(data.p, data.v.codomain)
    assert calls == ["svd"]
    assert norm == pytest.approx(np.tanh(0.4), abs=1e-12)


def test_statistics_dimension_rule():
    assert CCR.statistics_dimension(0) == 1.0
    assert CCR.statistics_dimension(2) == np.inf
    assert CCR.statistics_dimension(8) == np.inf


SPLIT_MEMBERS = {
    **{f"random-index-{2 * steps}-seed-{seed}":
       (lambda steps=steps, seed=seed: random_member(
           "ccr", 4 + 2 * steps, steps, seed=seed, scale=0.3))
       for steps, seeds in ((1, range(4)), (2, range(4)), (3, range(3)))
       for seed in seeds},
    "squeeze-shift": lambda: builders.squeeze(0.4, 2, 2) @ builders.shift(1),
}


@pytest.mark.parametrize("name", sorted(SPLIT_MEMBERS))
def test_kappa_split_matches_the_2n_reference(name):
    v = SPLIT_MEMBERS[name]()
    membership = ccr_membership(v)
    data = ccr_charge_data(membership)
    ker = membership.cokernel
    a_ref, p_ref, k_ref = reference_split(v, ker)
    g, _, p_defect = kappa_split(v.codomain, ker)
    assert data.k_frame.shape[1] == k_ref.shape[1] == membership.index // 2
    assert hs_norm(ker @ g @ ker.conj().T - a_ref) <= 1e-12
    assert hs_norm(p_defect - p_ref) <= 1e-12
    # the same k: the kappa-projection onto the reference frame's span is p
    c = dense.charge_conjugation(v.codomain)
    assert hs_norm(k_ref @ (c @ k_ref).conj().T - p_defect) <= 1e-12


def test_kappa_split_rejects_a_wrong_signature():
    # an orthonormal frame of two kappa-positive directions, index 2
    space = SelfDualSpace(2)
    frame = np.column_stack([space.basis_vector(1), space.basis_vector(2)])
    with pytest.raises(DimensionMismatch):
        kappa_split(space, frame)


def test_kappa_split_rejects_a_null_kappa_direction():
    space = SelfDualSpace(2)
    null = (space.basis_vector(1)
            + space.basis_vector(1, conjugate=True)) / np.sqrt(2.0)
    frame = np.column_stack([null, space.basis_vector(2)])
    with pytest.raises(DegenerateForm):
        kappa_split(space, frame)


def test_split_takes_no_eigendecomposition_beyond_index_size(monkeypatch):
    membership = ccr_membership(builders.shift(200))
    sizes = []
    eigh = np.linalg.eigh

    def recorded(matrix, *args, **kwargs):
        sizes.append(matrix.shape[-1])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    ccr_charge_data(membership)
    assert sizes and max(sizes) <= membership.index


@pytest.mark.parametrize("r", [0.1, 0.5, 1.2, 2.0])
def test_squeeze_t_norm_stays_below_one(r):
    data = ccr_charge_data(ccr_membership(builders.squeeze(r)))
    assert np.linalg.norm(data.t, 2) < 1.0 - 1e-8
