import math

import numpy as np
import pytest

from quasifree.errors import ShapeMismatch
from quasifree.selfdual import (
    BlockOperator,
    SelfDualSpace,
    Subspace,
    conjugate_matrix,
    hs_norm,
    kernel_basis,
    cokernel_basis,
    orthonormal_range,
    orthoprojection,
    pinv_on_range,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_conjugation_is_involutive_and_antiunitary():
    space = SelfDualSpace(3)
    rng = np.random.default_rng(7)
    x = random_complex(rng, space.dim, 1)[:, 0]
    y = random_complex(rng, space.dim, 1)[:, 0]
    assert np.allclose(space.conj_vector(space.conj_vector(x)), x)
    # <Jx, Jy> = <y, x>
    assert np.isclose(np.vdot(space.conj_vector(x), space.conj_vector(y)),
                      np.vdot(y, x))


def test_j_p1_j_is_complement():
    space = SelfDualSpace(4)
    p1 = space.p1()
    s = space.swap()
    conj_p1 = s @ np.conj(p1) @ s
    assert np.allclose(conj_p1, np.eye(space.dim) - p1)


def test_basis_vectors_and_kappa():
    space = SelfDualSpace(2)
    e1 = space.basis_vector(1)
    e1s = space.basis_vector(1, conjugate=True)
    assert np.allclose(space.conj_vector(e1), e1s)
    assert space.kappa_gram(e1, e1) == 1.0
    assert space.kappa_gram(e1s, e1s) == -1.0
    assert space.kappa_gram(e1, e1s) == 0.0


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
    assert cokernel_basis(m).shape == (3, 1)


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
    assert v.selfdual_reassembly_defect() == 0.0
    assert v.block(1, 1).shape == (3, 2)
    assert v.block(2, 2).shape == (3, 2)


def test_conjugate_matrix_matches_vector_action():
    dom, cod = SelfDualSpace(2), SelfDualSpace(3)
    rng = np.random.default_rng(5)
    m = random_complex(rng, cod.dim, dom.dim)
    x = random_complex(rng, dom.dim, 1)[:, 0]
    lhs = conjugate_matrix(m, dom, cod) @ x
    rhs = cod.conj_vector(m @ dom.conj_vector(x))
    assert np.allclose(lhs, rhs)


def test_kappa_adjoint_is_kappa_adjoint():
    dom, cod = SelfDualSpace(2), SelfDualSpace(3)
    rng = np.random.default_rng(13)
    v = BlockOperator(random_complex(rng, cod.dim, dom.dim), dom, cod)
    x = random_complex(rng, dom.dim, 1)[:, 0]
    y = random_complex(rng, cod.dim, 1)[:, 0]
    # kappa(y, V x) = kappa(V+ y, x)
    lhs = cod.kappa_gram(y, v.matrix @ x)
    rhs = dom.kappa_gram(v.kappa_adjoint().matrix @ y, x)
    assert np.isclose(lhs, rhs)


def test_subspace_conjugate_and_projector():
    space = SelfDualSpace(3)
    sub = Subspace(space, space.basis_vector(1)[:, None])
    conj = sub.conjugate()
    assert conj.dim == 1
    assert np.allclose(conj.frame[:, 0], space.basis_vector(1, conjugate=True))
    assert sub.contains(2.0 * space.basis_vector(1))
    assert not sub.contains(space.basis_vector(2))


def test_embed_matrix_prefix():
    small, big = SelfDualSpace(2), SelfDualSpace(3)
    emb = small.embed_matrix(big)
    e1 = emb @ small.basis_vector(1)
    assert np.allclose(e1, big.basis_vector(1))
    e1s = emb @ small.basis_vector(1, conjugate=True)
    assert np.allclose(e1s, big.basis_vector(1, conjugate=True))


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        BlockOperator(np.eye(3), SelfDualSpace(2))
    with pytest.raises(ShapeMismatch):
        SelfDualSpace(2).basis_vector(3)
