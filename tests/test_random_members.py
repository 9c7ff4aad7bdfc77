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

Composed members check `analyze`'s charge data without a Fock space: for
gauge-invariant V1 and V2 the charged spaces of V = V2 V1 carry the tensor
product of theirs (Doplicher-Roberts, CMP 131 (1990) 51; Longo, CMP 126
(1989) 217), so indices add, statistics dimensions multiply, and so does the
graded character det_h(u) det(1 + s t c_k(u)), s = +1 for CAR and -1 for CCR.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_selfdual as dense
from quasifree import builders
from quasifree.car import CAR, car_charge_data, car_membership
from quasifree.ccr import CCR, ccr_charge_data, ccr_membership
from quasifree.sectors import GaugeAction, compressed_action
from quasifree.selfdual import DEFAULT_TOL, BlockOperator, SelfDualSpace


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
    assert data.k_frame.shape[1] == steps


@PROPERTY
@given(members("ccr", 0.3))
def test_random_ccr_members(case):
    v, steps = case
    rec = ccr_membership(v)
    assert rec.is_member
    assert rec.index == 2 * steps
    data = ccr_charge_data(ccr_membership(v))
    assert data.k_frame.shape[1] == steps


def graded_characters(stats, v, u11, ts):
    """Charge data of V and det_h(u) det(1 + s t c_k(u)) per element and t.

    s is the statistics record's sign.  u11 is a gauge stack on at least V's
    codomain modes; its leading blocks act there.
    """
    data = stats.charge_data(stats.membership(v, DEFAULT_TOL))
    n = v.codomain.n_modes
    u = u11[:, :n, :n]
    det_h = np.linalg.det(compressed_action(u, data.h_frame, v.codomain,
                                            stats))
    comp = compressed_action(u, data.k_frame, v.codomain, stats)
    eye = np.eye(comp.shape[-1])
    return data, np.stack([det_h * np.linalg.det(eye + stats.sign * t * comp)
                           for t in ts])


def assert_composition_laws(stats, v1, v2, u11):
    """The laws for V = V2 V1; the charge data of V1, V2 and V."""
    ts = (0.37, -1.3)
    d1, c1 = graded_characters(stats, v1, u11, ts)
    d2, c2 = graded_characters(stats, v2, u11, ts)
    d, c = graded_characters(stats, v2 @ v1, u11, ts)
    assert d.index == d1.index + d2.index
    assert d.statistics_dimension == (d1.statistics_dimension
                                      * d2.statistics_dimension)
    product = c1 * c2
    assert np.all(np.abs(c - product)
                  <= 1e-10 * np.maximum(1.0, np.abs(product)))
    return d1, d2, d


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("stats, n1, scale", [
    (CAR, 9, 1.0), (CAR, 40, 1.0), (CCR, 7, 0.3), (CCR, 30, 0.3)],
    ids=["car-9-1.0", "car-40-1.0", "ccr-7-0.3", "ccr-30-0.3"])
def test_composition_laws(stats, n1, scale, seed):
    # Charges alternate, so V1's shift by 2 sites and V2's by 4 map each
    # mode to one of equal charge, and V1's codomain gauge is V2's domain's.
    q = [(-1) ** i for i in range(n1 + 4)]
    v1 = random_member(stats.name, n1, 2, seed, scale, charges=q[:n1])
    v2 = random_member(stats.name, n1 + 4, 4, seed + 100, scale, charges=q)
    u11 = GaugeAction("u1", n1 + 4, charges=tuple(q)).elements(
        samples=8, seed=seed).u11
    d1, d2, d = assert_composition_laws(stats, v1, v2, u11)
    assert min(d1.t_norm, d2.t_norm) > 0.1
    assert d.index == 12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bogoliubov_first", [True, False],
                         ids=["bogoliubov-first", "member-first"])
def test_composition_laws_with_dim_h(bogoliubov_first, seed):
    # bogoliubov(pi/2) pairs e1 with e2*, charge +1 with +1 under the
    # alternating charges, so it commutes with the gauge; it has index 0 and
    # dim h = 2.  h carries the charges +1 and -1, so det_h(u) = 1 there:
    # these cases cover dim h > 0, not a nontrivial det_h.
    q = [(-1) ** i for i in range(6)]
    member = random_member("car", 6, 4, seed, 1.0, charges=q)
    if bogoliubov_first:
        v1, v2 = builders.bogoliubov(np.pi / 2, 2), member
    else:
        v1, v2 = member, builders.bogoliubov(np.pi / 2, 6)
    u11 = GaugeAction("u1", 6, charges=tuple(q)).elements(
        samples=8, seed=seed).u11
    d1, d2, d = assert_composition_laws(CAR, v1, v2, u11)
    pairing = d1 if bogoliubov_first else d2
    assert pairing.index == 0 and pairing.h_frame.shape[1] == 2
    assert d.index == 8
