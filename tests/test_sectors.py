"""Character tables, sector equivalence classes, oracle comparison."""

import itertools
import math

import numpy as np
import pytest

from quasifree import builders, sectors
from quasifree.car import car_charge_data, car_membership
from quasifree.ccr import ccr_charge_data, ccr_membership
from quasifree.errors import (
    LevelOutOfRange,
    MalformedInput,
    NotInvariant,
)
from quasifree.fock import FermiFock, charge_rep_blocks, omega_alphas_fermi, omega_p_fermi
from quasifree.sectors import (
    GaugeAction,
    char_det_h,
    char_lambda,
    char_sym,
    compressed_action,
    eigenphases,
    haar_unitary,
    oracle_compare,
    sector_table,
)
from quasifree.selfdual import SelfDualSpace


def test_char_det_h_values():
    space = SelfDualSpace(2)
    empty = np.zeros((4, 0), dtype=complex)
    assert char_det_h(np.eye(2), empty, space) == 1.0
    h = space.basis_vector(1).reshape(-1, 1)
    lam = 0.7
    u = np.diag([np.exp(1j * lam), 1.0])
    assert char_det_h(u, h, space) == pytest.approx(np.exp(1j * lam))
    # the two-element group at -1 sees (-1)^{dim h}
    assert char_det_h(-np.eye(2), h, space) == pytest.approx(-1.0)


def test_char_lambda_values():
    z1, z2 = np.exp(0.3j), np.exp(-1.1j)
    eigs = np.array([z1, z2])
    assert char_lambda(eigs, 0) == 1.0
    assert char_lambda(eigs, 1) == pytest.approx(z1 + z2)
    assert char_lambda(eigs, 2) == pytest.approx(z1 * z2)
    # special-unitary pair: top level has trivial character
    su = np.array([np.exp(0.9j), np.exp(-0.9j)])
    assert char_lambda(su, 2) == pytest.approx(1.0)
    with pytest.raises(LevelOutOfRange):
        char_lambda(eigs, 3)


def test_char_sym_values():
    lam = 0.4
    single = np.array([np.exp(1j * lam)])
    for level in range(5):
        assert char_sym(single, level) == pytest.approx(np.exp(1j * level * lam))
    z1, z2 = np.exp(0.3j), np.exp(-1.1j)
    assert char_sym(np.array([z1, z2]), 2) == pytest.approx(
        z1 ** 2 + z1 * z2 + z2 ** 2)


def test_characters_at_identity_count_dimensions():
    for k_dim in (1, 2, 3):
        ones = np.ones(k_dim)
        for level in range(k_dim + 1):
            assert char_lambda(ones, level) == pytest.approx(
                math.comb(k_dim, level))
        for level in range(4):
            assert char_sym(ones, level) == pytest.approx(
                math.comb(k_dim + level - 1, level))


def test_gauge_action_validation():
    with pytest.raises(MalformedInput):
        GaugeAction("u1", 2, charges=(1,))
    with pytest.raises(MalformedInput):
        GaugeAction("sun", 3, species=2)
    with pytest.raises(MalformedInput):
        GaugeAction("other", 2)


def test_gauge_action_z2_and_u1_grids():
    z2 = GaugeAction("z2", 2).elements()
    assert len(z2) == 2
    assert np.allclose(z2[1].u11, -np.eye(2))
    u1 = GaugeAction("u1", 2, charges=(1, 0)).elements(samples=4)
    assert len(u1) == 4
    assert u1[1].u11[0, 0] == pytest.approx(1j)
    assert u1[1].u11[1, 1] == pytest.approx(1.0)


def test_haar_unitary_deterministic():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    u1, u2 = haar_unitary(3, rng1), haar_unitary(3, rng2)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(3)) < 1e-12


def test_compressed_action_detects_leakage():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    space = v.codomain
    # rotation mixing k mode 1 with range mode 3 leaks out of k
    mu = 0.5
    u = np.eye(4, dtype=complex)
    u[0, 0] = u[2, 2] = math.cos(mu)
    u[0, 2], u[2, 0] = -math.sin(mu), math.sin(mu)
    with pytest.raises(NotInvariant):
        compressed_action(u, data.k.frame, space)


def test_eigenphases_schur():
    rng = np.random.default_rng(1)
    u = haar_unitary(3, rng)
    eigs = eigenphases(u)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-12
    assert char_lambda(eigs, 3) == pytest.approx(np.linalg.det(u))
    with pytest.raises(NotInvariant):
        eigenphases(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sector_table_car_shift_u1():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("u1", 2, charges=(1, 1))
    table = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                         gauge, samples=64)
    assert [row.level for row in table.rows] == [0, 1]
    assert [row.dimension for row in table.rows] == [1, 1]
    lam = 2 * math.pi / 64
    assert table.rows[0].characters[1] == pytest.approx(1.0)
    assert table.rows[1].characters[1] == pytest.approx(np.exp(1j * lam))
    assert table.equivalence_classes == [[0], [1]]


def test_sector_table_ccr_u1_ladder():
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    gauge = GaugeAction("u1", 2, charges=(1, 1))
    table = sector_table("ccr", v.codomain, np.zeros((4, 0)), data.k_frame,
                         gauge, samples=64, l_max=5)
    assert [row.level for row in table.rows] == [0, 1, 2, 3, 4, 5]
    assert [row.dimension for row in table.rows] == [1] * 6
    assert len(table.equivalence_classes) == 6
    lam = 2 * math.pi / 64
    assert table.rows[3].characters[1] == pytest.approx(np.exp(3j * lam))


def test_sector_table_su2_period_two():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("sun", 4, species=2)
    table = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                         gauge, samples=50, seed=3)
    assert table.equivalence_classes == [[0, 2], [1]]


def test_sector_table_u2_all_distinct():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("un", 4, species=2)
    table = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                         gauge, samples=50, seed=3)
    assert table.equivalence_classes == [[0], [1], [2]]


def test_sector_table_basis_independent():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("un", 4, species=2)
    table1 = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                          gauge, samples=10, seed=3)
    rot = haar_unitary(2, np.random.default_rng(77))
    table2 = sector_table("car", v.codomain, data.h.frame,
                          data.k.frame @ rot, gauge, samples=10, seed=3)
    for r1, r2 in zip(table1.rows, table2.rows):
        assert np.max(np.abs(r1.characters - r2.characters)) < 1e-10


def test_oracle_compare_shift_full_pipeline():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("u1", 2, charges=(1, 1))
    table = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                         gauge, samples=8)
    fock = FermiFock(2)
    omega_p = omega_p_fermi(fock, v.codomain, data.h.frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k.frame)
    blocks = [charge_rep_blocks(omegas, alphas,
                                fock.gamma(el.u11).__matmul__)
              for el in gauge.elements(samples=8)]
    report = oracle_compare(table, blocks)
    assert report["max_deviation"] < 1e-12


def test_oracle_compare_flags_mismatch():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("u1", 2, charges=(1, 1))
    table = sector_table("car", v.codomain, data.h.frame, data.k.frame,
                         gauge, samples=4)
    bad = [{0: np.eye(1), 1: np.eye(1) * 0.5} for _ in range(4)]
    report = oracle_compare(table, bad)
    assert report["max_deviation"] > 1e-8
    assert report["per_level"][1] == report["max_deviation"]


# --- stacked characters, bit for bit -----------------------------------------

def loop_character(eigs, level, with_replacement):
    """The per-row loop the stacked characters reproduce bit for bit."""
    if level == 0:
        return 1.0 + 0.0j
    combos = (itertools.combinations_with_replacement if with_replacement
              else itertools.combinations)
    total = 0.0j
    for combo in combos(range(len(eigs)), level):
        total += math.prod((eigs[i] for i in combo), start=1.0 + 0.0j)
    return total


def loop_characters(stack, level, with_replacement):
    return np.array([loop_character(row, level, with_replacement)
                     for row in stack], dtype=complex)


def assert_same_bits(got, want):
    """Equal real, imaginary and sign bits (so 0.0 != -0.0, nan == nan)."""
    got = np.ascontiguousarray(got)
    assert got.dtype == complex and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_stack_matches_loop(stack):
    k = stack.shape[1]
    for level in range(k + 1):
        assert_same_bits(char_lambda(stack, level),
                         loop_characters(stack, level, False))
    for level in range(6):
        assert_same_bits(char_sym(stack, level),
                         loop_characters(stack, level, True))


@pytest.mark.parametrize("k", range(11))
def test_stacked_characters_equal_the_loop(k):
    rng = np.random.default_rng(300 + k)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(6, k)))
    generic = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
    assert_stack_matches_loop(np.vstack([phases, generic]))


@pytest.mark.parametrize("k", range(1, 7))
def test_stacked_characters_on_exact_phases_and_signed_zeros(k):
    values = np.array([1, -1, 1j, -1j, complex(1, -0.0), complex(-1, -0.0),
                       complex(0.0, -0.0), complex(-0.0, 0.0),
                       complex(-0.0, -0.0), 0j])
    rng = np.random.default_rng(400 + k)
    assert_stack_matches_loop(values[rng.integers(len(values), size=(12, k))])


def test_stacked_characters_across_monomial_blocks():
    k, level = 9, 5
    assert math.comb(k + level - 1, level) > 2 * sectors._MONOMIAL_BLOCK
    rng = np.random.default_rng(9)
    stack = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(64, k)))
    assert_same_bits(char_sym(stack, level),
                     loop_characters(stack, level, True))
    assert_same_bits(char_lambda(stack, level),
                     loop_characters(stack, level, False))


def test_one_vector_gives_a_complex():
    eigs = np.exp(1j * np.array([0.3, -1.1, 2.0]))
    for level in range(4):
        for char, with_replacement in ((char_lambda, False), (char_sym, True)):
            got = char(eigs, level)
            assert type(got) is complex
            assert_same_bits(np.array([got]), np.array(
                [loop_character(eigs, level, with_replacement)]))


def test_stacked_level_out_of_range():
    stack = np.ones((4, 2), dtype=complex)
    with pytest.raises(LevelOutOfRange):
        char_lambda(stack, 3)
    with pytest.raises(LevelOutOfRange):
        char_lambda(stack, -1)
    with pytest.raises(LevelOutOfRange):
        char_sym(stack, -1)


def loop_sector_characters(algebra, space, h_frame, k_frame, gauge,
                           samples, seed, levels):
    """Each element's characters from its own eigenphases, one at a time."""
    elements = gauge.elements(samples=samples, seed=seed)
    dets = np.array([char_det_h(el.u11, h_frame, space) for el in elements])
    eigs = [eigenphases(compressed_action(el.u11, k_frame, space))
            for el in elements]
    if algebra == "car":
        return [dets * np.array([loop_character(e, level, False)
                                 for e in eigs]) for level in levels]
    return [np.array([loop_character(e, level, True) for e in eigs])
            for level in levels]


SHIFT_GAUGES = [
    # (algebra, steps, species, group, samples): analyze-sweep's shapes,
    # among them ccr-shift-3x3-u1 (15 modes, k = 9, 64 samples).
    ("car", 1, 1, "u1", 64),
    ("car", 2, 2, "un", 50),
    ("car", 3, 3, "sun", 50),
    ("car", 2, 3, "z2", 2),
    ("ccr", 1, 1, "u1", 64),
    ("ccr", 3, 3, "u1", 64),
    ("ccr", 2, 2, "sun", 50),
    ("ccr", 3, 2, "un", 50),
    ("ccr", 1, 3, "z2", 2),
]


@pytest.mark.parametrize("algebra, steps, species, group, samples",
                         SHIFT_GAUGES)
def test_sector_table_equals_per_element_loop(monkeypatch, algebra, steps,
                                              species, group, samples):
    sites = {1: 4, 2: 3, 3: 2}[species]
    v = builders.shift(sites, steps=steps, species=species)
    n = v.codomain.n_modes
    if algebra == "car":
        data = car_charge_data(car_membership(v))
        h_frame, k_frame = data.h.frame, data.k.frame
    else:
        data = ccr_charge_data(ccr_membership(v))
        h_frame, k_frame = np.zeros((v.codomain.dim, 0)), data.k_frame
    assert k_frame.shape[1] == steps * species
    charges = tuple(np.random.default_rng(n).integers(-2, 3, size=n))
    gauge = GaugeAction(group, n, charges=charges if group == "u1" else (),
                        species=species if group in ("un", "sun") else 0)
    calls = []
    for name in ("char_lambda", "char_sym"):
        original = getattr(sectors, name)

        def counted(eigs, level, original=original, name=name):
            calls.append(name)
            return original(eigs, level)
        monkeypatch.setattr(sectors, name, counted)
    table = sector_table(algebra, v.codomain, h_frame, k_frame, gauge,
                         samples=samples, seed=5)
    levels = [row.level for row in table.rows]
    name = "char_lambda" if algebra == "car" else "char_sym"
    assert calls == [name] * len(levels)
    want = loop_sector_characters(algebra, v.codomain, h_frame, k_frame,
                                  gauge, samples, 5, levels)
    for row, ref in zip(table.rows, want):
        assert len(row.characters) == samples
        assert_same_bits(row.characters, ref)
