import math

import numpy as np
import pytest

import dense_selfdual as dense
from quasifree import builders
from quasifree.car import car_membership
from quasifree.errors import ShapeMismatch
from quasifree.selfdual import (
    BlockOperator,
    SelfDualSpace,
    conjugate_matrix,
    hs_norm,
    kappa_sign,
    kernel_basis,
    orthonormal_range,
    orthoprojection,
    pinv_on_range,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def j_vector(space, vec):
    """J applied to one vector, through the toolkit's frame form of J."""
    return conjugate_matrix(vec[:, None], None, space)[:, 0]


def test_conjugation_is_involutive_and_antiunitary():
    space = SelfDualSpace(3)
    rng = np.random.default_rng(7)
    x = random_complex(rng, space.dim, 1)[:, 0]
    y = random_complex(rng, space.dim, 1)[:, 0]
    assert np.allclose(j_vector(space, j_vector(space, x)), x)
    # <Jx, Jy> = <y, x>
    assert np.isclose(np.vdot(j_vector(space, x), j_vector(space, y)),
                      np.vdot(y, x))


def test_j_p1_j_is_complement():
    space = SelfDualSpace(4)
    p1 = dense.p1(space)
    conj_p1 = conjugate_matrix(p1, space, space)
    assert np.array_equal(conj_p1, np.eye(space.dim) - p1)


def test_basis_vectors_and_kappa():
    space = SelfDualSpace(2)
    e1 = space.basis_vector(1)
    e1s = space.basis_vector(1, conjugate=True)
    assert np.array_equal(j_vector(space, e1), e1s)
    assert dense.kappa_gram(space, e1, e1) == 1.0
    assert dense.kappa_gram(space, e1s, e1s) == -1.0
    assert dense.kappa_gram(space, e1, e1s) == 0.0
    assert np.array_equal(kappa_sign(e1s, None, space), -e1s)


@pytest.mark.parametrize("seed", range(5))
def test_hs_norm_matches_frobenius(seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, 7, 4)
    assert np.isclose(hs_norm(m), np.linalg.norm(m, "fro"), rtol=1e-14)


def fsum_of_every_square(m) -> float:
    flat = np.abs(np.asarray(m)).ravel()
    return math.sqrt(math.fsum((flat * flat).tolist()))


def sparse_random(rng, rows, cols):
    m = random_complex(rng, rows, cols)
    m[rng.random((rows, cols)) < 0.7] = 0.0
    return m


HS_CASES = {
    "complex-with-zeros": lambda rng: sparse_random(rng, 9, 6),
    "real-with-zeros": lambda rng: sparse_random(rng, 5, 8).real.copy(),
    "underflowing-squares": lambda rng: 1e-170 * sparse_random(rng, 4, 4),
    "all-zero": lambda rng: np.zeros((3, 4), dtype=complex),
    "empty": lambda rng: np.zeros((0, 3)),
    "inf": lambda rng: np.where(sparse_random(rng, 3, 3) != 0, 1.0, np.inf),
    "nan": lambda rng: np.where(sparse_random(rng, 3, 3) != 0, 0.0, np.nan),
}


@pytest.mark.parametrize("name", sorted(HS_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_hs_norm_equals_fsum_of_every_square(name, seed):
    m = HS_CASES[name](np.random.default_rng(seed))
    got, want = hs_norm(m), fsum_of_every_square(m)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_pinv_on_range_axioms(seed):
    rng = np.random.default_rng(seed)
    # rank-deficient by construction
    a = random_complex(rng, 6, 3) @ random_complex(rng, 3, 5)
    ap = pinv_on_range(a)
    assert np.allclose(a @ ap @ a, a, atol=1e-10)
    assert np.allclose(ap @ a @ ap, ap, atol=1e-10)
    assert np.allclose((a @ ap).conj().T, a @ ap, atol=1e-10)
    assert np.allclose((ap @ a).conj().T, ap @ a, atol=1e-10)


def test_kernel_basis_structural():
    m = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    k = kernel_basis(m)
    assert k.shape == (3, 1)
    assert np.allclose(np.abs(k[:, 0]), [1.0, 0.0, 0.0])
    assert k[0, 0].real > 0  # canonical phase


@pytest.mark.parametrize("seed", range(5))
def test_kernel_basis_random_rank(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 5, 2) @ random_complex(rng, 2, 6)
    k = kernel_basis(a)
    assert k.shape == (6, 4)
    assert np.allclose(a @ k, 0.0, atol=1e-9)
    assert np.allclose(k.conj().T @ k, np.eye(4), atol=1e-10)


def test_orthoprojection_and_range():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 6, 2)
    fr = orthonormal_range(a)
    pr = orthoprojection(fr)
    assert np.allclose(pr @ pr, pr, atol=1e-12)
    assert np.allclose(pr @ a, a, atol=1e-10)


def test_block_operator_blocks_recompose_exactly():
    dom, cod = SelfDualSpace(2), SelfDualSpace(3)
    rng = np.random.default_rng(11)
    v = BlockOperator(random_complex(rng, cod.dim, dom.dim), dom, cod)
    glued = np.block([[v.block(1, 1), v.block(1, 2)],
                      [v.block(2, 1), v.block(2, 2)]])
    assert np.array_equal(glued, v.matrix)
    assert v.block(1, 1).shape == (3, 2)
    assert v.block(2, 2).shape == (3, 2)


def test_conjugate_matrix_matches_vector_action():
    dom, cod = SelfDualSpace(2), SelfDualSpace(3)
    rng = np.random.default_rng(5)
    m = random_complex(rng, cod.dim, dom.dim)
    x = random_complex(rng, dom.dim, 1)[:, 0]
    lhs = conjugate_matrix(m, dom, cod) @ x
    rhs = dense.conj_vector(cod, m @ dense.conj_vector(dom, x))
    assert np.allclose(lhs, rhs)


def test_kappa_adjoint_is_kappa_adjoint():
    dom, cod = SelfDualSpace(2), SelfDualSpace(3)
    rng = np.random.default_rng(13)
    v = BlockOperator(random_complex(rng, cod.dim, dom.dim), dom, cod)
    x = random_complex(rng, dom.dim, 1)[:, 0]
    y = random_complex(rng, cod.dim, 1)[:, 0]
    # kappa(y, V x) = kappa(V+ y, x)
    lhs = dense.kappa_gram(cod, y, v.matrix @ x)
    rhs = dense.kappa_gram(dom, v.kappa_adjoint().matrix @ y, x)
    assert np.isclose(lhs, rhs)


def test_subspace_conjugate_and_projector():
    space = SelfDualSpace(3)
    frame = space.basis_vector(1)[:, None]
    conj = conjugate_matrix(frame, None, space)
    assert conj.shape[1] == 1
    assert np.allclose(conj[:, 0], space.basis_vector(1, conjugate=True))
    e1, e2 = space.basis_vector(1), space.basis_vector(2)
    assert np.array_equal(orthoprojection(frame) @ e1, e1)
    assert np.array_equal(orthoprojection(frame) @ e2, np.zeros(space.dim))
    assert np.array_equal(orthoprojection(conj) @ e1, np.zeros(space.dim))


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        BlockOperator(np.eye(3), SelfDualSpace(2))
    with pytest.raises(ShapeMismatch):
        SelfDualSpace(2).basis_vector(3)


# --- J, P1 and C as index operations against the dense reference ----------

def signed_zero_complex(rng, rows, cols):
    """Random entries, about a third exact zeros, and -0.0 parts mixed in."""
    m = random_complex(rng, rows, cols)
    m[rng.random((rows, cols)) < 0.35] = 0.0
    m.real[rng.random((rows, cols)) < 0.2] = -0.0
    m.imag[rng.random((rows, cols)) < 0.2] = -0.0
    return m


def same_bits(a, b) -> bool:
    """Equal float bit patterns, the sign of every zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# (n_d, n_c): square maps and rectangular ones both ways.
PRIMITIVE_SHAPES = [(1, 1), (3, 3), (2, 5), (5, 2), (4, 7)]


def assert_same_up_to_zero_signs(got, want):
    """Equal values, equal bits of every nonzero part, no negative zero.

    The dense zgemm product leaves -0.0 at some exact zeros of random
    complex input, so zero signs are compared on the builders' operators
    (below), where the dense product has none.
    """
    assert np.array_equal(got, want)
    got_parts = np.ascontiguousarray(got).view(float)
    want_parts = np.ascontiguousarray(want).view(float)
    nonzero = want_parts != 0
    assert same_bits(got_parts[nonzero], want_parts[nonzero])
    assert not np.signbit(got_parts[~nonzero]).any()


@pytest.mark.parametrize("nd,nc", PRIMITIVE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_conjugate_matrix_equals_dense_j(nd, nc, seed):
    dom, cod = SelfDualSpace(nd), SelfDualSpace(nc)
    rng = np.random.default_rng(seed)
    a = signed_zero_complex(rng, cod.dim, dom.dim)
    assert_same_up_to_zero_signs(conjugate_matrix(a, dom, cod),
                                 dense.conjugate_matrix(a, dom, cod))
    frame = signed_zero_complex(rng, cod.dim, 3)
    assert_same_up_to_zero_signs(conjugate_matrix(frame, None, cod),
                                 dense.conjugate_matrix(frame, None, cod))


@pytest.mark.parametrize("v", [
    builders.shift(3), builders.shift(2, steps=2, species=2),
    builders.flip(3, mode=2), builders.bogoliubov(0.7, n_modes=3),
    builders.squeeze(0.4, 2, 2) @ builders.shift(1)],
    ids=["shift", "shift-2-species", "flip", "bogoliubov", "squeeze-shift"])
def test_conjugate_matrix_bits_on_builder_operators(v):
    dom, cod = v.domain, v.codomain
    assert same_bits(conjugate_matrix(v.matrix, dom, cod),
                     dense.conjugate_matrix(v.matrix, dom, cod))
    frame = v.matrix[:, :3]
    assert same_bits(conjugate_matrix(frame, None, cod),
                     dense.conjugate_matrix(frame, None, cod))


@pytest.mark.parametrize("nd,nc", PRIMITIVE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_kappa_adjoint_equals_dense_c_a_star_c(nd, nc, seed):
    dom, cod = SelfDualSpace(nd), SelfDualSpace(nc)
    rng = np.random.default_rng(seed)
    v = BlockOperator(signed_zero_complex(rng, cod.dim, dom.dim), dom, cod)
    want = (dense.charge_conjugation(dom) @ v.matrix.conj().T
            @ dense.charge_conjugation(cod))
    assert np.array_equal(v.kappa_adjoint().matrix, want)
    w = signed_zero_complex(rng, cod.dim, 1)[:, 0]
    assert np.array_equal(kappa_sign(w, None, cod),
                          dense.charge_conjugation(cod) @ w)


@pytest.mark.parametrize("nd,nc", PRIMITIVE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_p1_commutator_norm_equals_dense(nd, nc, seed):
    dom, cod = SelfDualSpace(nd), SelfDualSpace(nc)
    rng = np.random.default_rng(seed)
    v = BlockOperator(signed_zero_complex(rng, cod.dim, dom.dim), dom, cod)
    want = dense.p1(cod) @ v.matrix - v.matrix @ dense.p1(dom)
    assert same_bits(np.float64(car_membership(v).hs_defect),
                     np.float64(hs_norm(want)))
