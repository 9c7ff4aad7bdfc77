"""Random semigroup members through both charge pipelines.

Each member is exp(generator) composed with a shift of ``steps`` sites, so it
is a member by construction with index 2 * steps:

* CAR: exp(iH) with H hermitian and S conj(H) S = -H is a self-dual unitary;
* CCR: exp(iCH) with H hermitian, S conj(H) S = H and C = diag(1, -1) is a
  self-dual kappa-unitary.

The generator's operator norm is scaled to at most 1 (CAR) or 0.3 (CCR).
Given integer mode charges, the generator is masked to commute with that
U(1) gauge: its particle block couples modes of equal charge, its pairing
block modes of opposite charge.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_selfdual as dense
from quasifree.car import car_charge_data, car_membership
from quasifree.ccr import ccr_charge_data, ccr_membership
from quasifree.selfdual import BlockOperator, SelfDualSpace


def random_member(algebra: str, n_out: int, steps: int, seed: int,
                  scale: float, charges=None) -> BlockOperator:
    rng = np.random.default_rng(seed)
    space = SelfDualSpace(n_out)
    z = (rng.normal(size=(space.dim, space.dim))
         + 1j * rng.normal(size=(space.dim, space.dim)))
    h0 = (z + z.conj().T) / 2.0
    if charges is not None:
        q = np.asarray(charges)
        same, opposite = q[:, None] == q, q[:, None] == -q
        h0 = np.where(np.block([[same, opposite], [opposite, same]]), h0, 0.0)
    s = dense.swap(space)
    if algebra == "car":
        h = (h0 - s @ h0.conj() @ s) / 2.0
        gen = 1j * h
    else:
        h = (h0 + s @ h0.conj() @ s) / 2.0
        gen = 1j * dense.charge_conjugation(space) @ h
    gen *= scale / np.linalg.norm(h, ord=2)
    n_in = n_out - steps
    shift = np.zeros((space.dim, 2 * n_in), dtype=complex)
    for i in range(n_in):
        shift[i + steps, i] = 1.0
        shift[n_out + i + steps, n_in + i] = 1.0
    return BlockOperator(scipy.linalg.expm(gen) @ shift,
                         SelfDualSpace(n_in), space)


@st.composite
def members(draw, algebra: str, max_scale: float):
    n_out = draw(st.integers(2, 12))
    steps = draw(st.integers(0, min(3, n_out - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.0, max_scale))
    return random_member(algebra, n_out, steps, seed, scale), steps


PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)


@PROPERTY
@given(members("car", 1.0))
def test_random_car_members(case):
    v, steps = case
    rec = car_membership(v)
    assert rec.is_member
    assert rec.index == 2 * steps
    data = car_charge_data(car_membership(v))
    assert data.k.dim == steps


@PROPERTY
@given(members("ccr", 0.3))
def test_random_ccr_members(case):
    v, steps = case
    rec = ccr_membership(v)
    assert rec.is_member
    assert rec.index == 2 * steps
    data = ccr_charge_data(ccr_membership(v))
    assert data.k_dim == steps
