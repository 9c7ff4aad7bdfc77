"""Character tables, sector equivalence classes, oracle comparison."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import dense_selfdual as dense
from quasifree import builders, cli, errors, sectors
from quasifree.car import CAR, car_charge_data, car_membership
from quasifree.ccr import CCR, ccr_charge_data, ccr_membership
from quasifree.errors import (
    LevelOutOfRange,
    MalformedInput,
    NotGaugeCompatible,
)
from quasifree.fock import (
    FermiFock,
    charge_rep_blocks,
    compound_matrix,
    omega_alphas_fermi,
    omega_p_fermi,
)
from quasifree.sectors import (
    GaugeAction,
    char_lambda,
    char_sym,
    compressed_action,
    eigenphases,
    haar_unitary,
    oracle_compare,
    sector_table,
)
from quasifree.selfdual import DEFAULT_TOL, SelfDualSpace


def test_char_det_h_values():
    space = SelfDualSpace(2)

    def det_h(u, h):  # the det_h character of a stack of one element
        return complex(np.linalg.det(compressed_action(
            u[np.newaxis], h, space, CAR))[0])

    empty = np.zeros((4, 0), dtype=complex)
    assert det_h(np.eye(2), empty) == 1.0
    h = space.basis_vector(1).reshape(-1, 1)
    lam = 0.7
    u = np.diag([np.exp(1j * lam), 1.0])
    assert det_h(u, h) == pytest.approx(np.exp(1j * lam))
    # the two-element group at -1 sees (-1)^{dim h}
    assert det_h(-np.eye(2), h) == pytest.approx(-1.0)


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
    assert z2.labels == ["+1", "-1"]
    assert np.allclose(z2.u11[1], -np.eye(2))
    u1 = GaugeAction("u1", 2, charges=(1, 0)).elements(samples=4)
    assert u1.u11.shape == (4, 2, 2)
    assert u1.u11[1, 0, 0] == pytest.approx(1j)
    assert u1.u11[1, 1, 1] == pytest.approx(1.0)


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
    with pytest.raises(NotGaugeCompatible):
        compressed_action(u[np.newaxis], data.k_frame, space, CAR)


def test_eigenphases_schur():
    rng = np.random.default_rng(1)
    u = haar_unitary(3, rng)
    eigs = eigenphases(u)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-12
    assert char_lambda(eigs, 3) == pytest.approx(np.linalg.det(u))
    with pytest.raises(NotGaugeCompatible):
        eigenphases(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sector_table_car_shift_u1():
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("u1", 2, charges=(1, 1))
    table = sector_table(CAR, v.codomain, data.h_frame, data.k_frame,
                         gauge.elements(samples=64))
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
    table = sector_table(CCR, v.codomain, np.zeros((4, 0)), data.k_frame,
                         gauge.elements(samples=64))
    assert [row.level for row in table.rows] == [0, 1, 2, 3, 4, 5]
    assert [row.dimension for row in table.rows] == [1] * 6
    assert len(table.equivalence_classes) == 6
    lam = 2 * math.pi / 64
    assert table.rows[3].characters[1] == pytest.approx(np.exp(3j * lam))


def test_sector_table_su2_period_two():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("sun", 4, species=2)
    table = sector_table(CAR, v.codomain, data.h_frame, data.k_frame,
                         gauge.elements(samples=50, seed=3))
    assert table.equivalence_classes == [[0, 2], [1]]


def test_sector_table_u2_all_distinct():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("un", 4, species=2)
    table = sector_table(CAR, v.codomain, data.h_frame, data.k_frame,
                         gauge.elements(samples=50, seed=3))
    assert table.equivalence_classes == [[0], [1], [2]]


def test_sector_table_basis_independent():
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    gauge = GaugeAction("un", 4, species=2)
    elements = gauge.elements(samples=10, seed=3)
    table1 = sector_table(CAR, v.codomain, data.h_frame, data.k_frame,
                          elements)
    rot = haar_unitary(2, np.random.default_rng(77))
    table2 = sector_table(CAR, v.codomain, data.h_frame,
                          data.k_frame @ rot, elements)
    for r1, r2 in zip(table1.rows, table2.rows):
        assert np.max(np.abs(r1.characters - r2.characters)) < 1e-10


def shift_targets(samples: int):
    """CAR shift 1 -> 2 under U(1): its elements and det_h Lambda^l(c) stacks."""
    v = builders.shift(1)
    data = car_charge_data(car_membership(v))
    elements = GaugeAction("u1", 2, charges=(1, 1)).elements(samples=samples)
    dets = np.linalg.det(compressed_action(elements.u11, data.h_frame,
                                           v.codomain, CAR))
    comps = compressed_action(elements.u11, data.k_frame, v.codomain, CAR)
    targets = {level: np.stack([d * compound_matrix(c, level)
                                for d, c in zip(dets, comps)])
               for level in (0, 1)}
    return v, data, elements, targets


def test_oracle_compare_shift_full_pipeline():
    v, data, elements, targets = shift_targets(8)
    fock = FermiFock(2)
    omega_p = omega_p_fermi(fock, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock, v.codomain, omega_p,
                                        data.k_frame)
    grams = charge_rep_blocks(omegas, alphas, lambda vec: vec)
    blocks = [charge_rep_blocks(omegas, alphas, fock.gamma(u11).__matmul__)
              for u11 in elements.u11]
    assert oracle_compare(grams, blocks, targets) < 1e-12


def test_oracle_compare_flags_mismatch():
    _, _, _, targets = shift_targets(4)
    grams = {0: np.eye(1), 1: np.eye(1)}
    bad = [{0: np.eye(1), 1: np.eye(1) * 0.5} for _ in range(4)]
    worst = oracle_compare(grams, bad, targets)
    assert worst > 1e-8
    assert worst == max(float(np.max(np.abs(bad[i][level]
                                            - targets[level][i])))
                        for level in (0, 1) for i in range(4))


def test_oracle_compare_solves_with_the_gram():
    # Vectors of norm sqrt(2) double both G and M; G^-1 M is unchanged.
    _, _, _, targets = shift_targets(4)
    grams = {level: 2.0 * np.eye(1) for level in (0, 1)}
    blocks = [{level: 2.0 * targets[level][i] for level in (0, 1)}
              for i in range(4)]
    assert oracle_compare(grams, blocks, targets) < 1e-15
    assert oracle_compare({0: np.eye(1), 1: np.eye(1)}, blocks,
                          targets) >= 1.0


# --- stacked characters, bit for bit -----------------------------------------

def recurrence_character(eigs, level, complete):
    """The scalar recurrence the stacked characters reproduce bit for bit.

    e_l (complete False) or h_l of one eigenvalue row in Python complex
    arithmetic: each eigenvalue updates c_j += lam c_{j-1}, over j
    descending for e_l and ascending for h_l.
    """
    coef = [1.0 + 0.0j] + [0.0j] * level
    steps = range(1, level + 1) if complete else range(level, 0, -1)
    for lam in map(complex, eigs):
        for j in steps:
            coef[j] += lam * coef[j - 1]
    return coef[level]


def recurrence_characters(stack, level, complete):
    return np.array([recurrence_character(row, level, complete)
                     for row in stack], dtype=complex)


def loop_character(eigs, level, with_replacement):
    """The monomial sum: an independent value reference for small k."""
    if level == 0:
        return 1.0 + 0.0j
    combos = (itertools.combinations_with_replacement if with_replacement
              else itertools.combinations)
    total = 0.0j
    for combo in combos(range(len(eigs)), level):
        total += math.prod((eigs[i] for i in combo), start=1.0 + 0.0j)
    return total


def assert_same_bits(got, want):
    """Equal real, imaginary and sign bits (so 0.0 != -0.0, nan == nan)."""
    got = np.ascontiguousarray(got)
    assert got.dtype == complex and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_near_the_monomial_sum(got, stack, level, with_replacement):
    """|got - monomial sum| <= 2 k eps e_l(|lam|); h_l(|lam|) for char_sym."""
    k = stack.shape[1]
    for value, row in zip(got, stack):
        scale = loop_character(np.abs(row), level, with_replacement).real
        err = abs(value - loop_character(row, level, with_replacement))
        assert err <= 2 * k * np.finfo(float).eps * scale


def assert_stack_matches_loop(stack):
    k = stack.shape[1]
    for level in range(k + 1):
        got = char_lambda(stack, level)
        assert_same_bits(got, recurrence_characters(stack, level, False))
        assert_near_the_monomial_sum(got, stack, level, False)
    for level in range(6):
        got = char_sym(stack, level)
        assert_same_bits(got, recurrence_characters(stack, level, True))
        assert_near_the_monomial_sum(got, stack, level, True)


@pytest.mark.parametrize("k", range(11))
def test_stacked_characters_equal_the_loop(k):
    rng = np.random.default_rng(300 + k)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(6, k)))
    generic = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
    assert_stack_matches_loop(np.vstack([phases, generic]))
    # a row keeps its bits in a sub-stack
    for level in range(k + 1):
        whole = char_lambda(phases, level)
        assert_same_bits(char_lambda(phases[2:5], level), whole[2:5])


@pytest.mark.parametrize("k", range(1, 7))
def test_stacked_characters_on_exact_phases_and_signed_zeros(k):
    values = np.array([1, -1, 1j, -1j, complex(1, -0.0), complex(-1, -0.0),
                       complex(0.0, -0.0), complex(-0.0, 0.0),
                       complex(-0.0, -0.0), 0j])
    rng = np.random.default_rng(400 + k)
    assert_stack_matches_loop(values[rng.integers(len(values), size=(12, k))])


def exact_coefficient(row, level, complete):
    """The recurrence in exact rational arithmetic: (re, im) Fractions."""
    coef = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * level
    steps = range(1, level + 1) if complete else range(level, 0, -1)
    for lam in row:
        lr, li = Fraction(lam.real), Fraction(lam.imag)
        for j in steps:
            (cr, ci), (br, bi) = coef[j], coef[j - 1]
            coef[j] = (cr + lr * br - li * bi, ci + lr * bi + li * br)
    return coef[level]


def test_characters_at_k_22_against_exact_rationals():
    # The float eigenvalues are exact dyadic rationals, so the recurrence in
    # Fractions gives their true e_l and h_l; the error scale is dim_l.  The
    # rows of one repeated phase are the u1 characters of a shift whose k
    # modes share one charge (CAR shift 2 -> 24, index 44), where a sum of
    # the dim_l equal monomials would lose about dim_l eps relative.
    k = 22
    lam = 2.0 * math.pi * np.arange(1, 5) / 64
    rng = np.random.default_rng(22)
    stack = np.vstack([
        np.repeat(np.exp(1j * lam)[:, np.newaxis], k, axis=1),
        np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(2, k)))])
    cases = [(char_lambda, False, level, math.comb(k, level))
             for level in range(k + 1)]
    cases += [(char_sym, True, level, math.comb(k + level - 1, level))
              for level in range(sectors.CCR_L_MAX + 1)]
    for char, complete, level, dim in cases:
        for got, row in zip(char(stack, level), stack):
            re, im = exact_coefficient(row, level, complete)
            err = math.hypot(float(Fraction(got.real) - re),
                             float(Fraction(got.imag) - im))
            assert err <= 1e-14 * dim, (char.__name__, level)


def test_one_vector_gives_a_complex():
    eigs = np.exp(1j * np.array([0.3, -1.1, 2.0]))
    for level in range(4):
        for char, with_replacement in ((char_lambda, False), (char_sym, True)):
            got = char(eigs, level)
            assert type(got) is complex
            assert_same_bits(np.array([got]), np.array(
                [recurrence_character(eigs, level, with_replacement)]))


def test_stacked_level_out_of_range():
    stack = np.ones((4, 2), dtype=complex)
    with pytest.raises(LevelOutOfRange):
        char_lambda(stack, 3)
    with pytest.raises(LevelOutOfRange):
        char_lambda(stack, -1)
    with pytest.raises(LevelOutOfRange):
        char_sym(stack, -1)


def loop_sector_characters(algebra, space, h_frame, k_frame, elements,
                           levels):
    """Each element's characters from its own dense extension, one at a time.

    Independent of the stacked helpers: the 2n x 2n extend_gauge product,
    the dense C of the CCR dual frame, one np.linalg.eigvals per element
    and the scalar character recurrence.
    """
    dual = (dense.charge_conjugation(space) @ k_frame if algebra == "ccr"
            else k_frame)
    dets, eigs = [], []
    for u11 in elements.u11:
        u_full = dense.extend_gauge(u11, space)
        h_comp = h_frame.conj().T @ (u_full @ h_frame)
        dets.append(complex(np.linalg.det(h_comp)) if h_frame.shape[1]
                    else 1.0 + 0.0j)
        k_comp = dual.conj().T @ (u_full @ k_frame)
        eigs.append(np.linalg.eigvals(k_comp))
    if algebra == "car":
        return [np.array(dets) * recurrence_characters(eigs, level, False)
                for level in levels]
    return [recurrence_characters(eigs, level, True) for level in levels]


def reference_sector_table(stats, space, h_frame, k_frame, elements):
    """sector_table with its characters from loop_sector_characters."""
    algebra = stats.name
    k_dim = k_frame.shape[1]
    if algebra == "car":
        dims = [math.comb(k_dim, level) for level in range(k_dim + 1)]
    else:
        dims = [math.comb(k_dim + level - 1, level) if k_dim
                else int(level == 0)
                for level in range(sectors.CCR_L_MAX + 1)]
    chars = loop_sector_characters(algebra, space, h_frame, k_frame,
                                   elements, range(len(dims)))
    rows = [sectors.SectorRow(level, dim, c)
            for level, (dim, c) in enumerate(zip(dims, chars))]
    meta = {"samples": len(elements.labels), "seed": elements.seed,
            "kind": elements.kind, "tol_char": sectors.CHAR_TOL}
    return sectors.SectorTable(rows, list(elements.labels),
                               sectors._equivalence_classes(rows), meta)


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


def shift_gauge_case(steps, species, group):
    """(shift builder params, gauge block) of one SHIFT_GAUGES shape."""
    sites = {1: 4, 2: 3, 3: 2}[species]
    n = (sites + steps) * species
    gauge = {"group": group, "seed": 5}
    if group == "u1":
        gauge["charges"] = [int(c) for c in
                            np.random.default_rng(n).integers(-2, 3, size=n)]
    if group in ("un", "sun"):
        gauge["species"] = species
    return {"n_sites_in": sites, "steps": steps, "species": species}, gauge


@pytest.mark.parametrize("algebra, steps, species, group, samples",
                         SHIFT_GAUGES)
def test_sector_table_equals_per_element_loop(monkeypatch, algebra, steps,
                                              species, group, samples):
    params, block = shift_gauge_case(steps, species, group)
    v = builders.shift(**params)
    n = v.codomain.n_modes
    stats = {"car": CAR, "ccr": CCR}[algebra]
    data = stats.charge_data(stats.membership(v, DEFAULT_TOL))
    h_frame, k_frame = data.h_frame, data.k_frame
    assert h_frame.shape == (v.codomain.dim, 0) or algebra == "car"
    assert k_frame.shape[1] == steps * species
    gauge = GaugeAction(group, n, charges=tuple(block.get("charges", ())),
                        species=block.get("species", 0))
    elements = gauge.elements(samples=samples, seed=block["seed"])
    calls = []
    original = sectors._coefficients

    def counted(eigs, top, complete):
        calls.append((top, complete))
        return original(eigs, top, complete)
    monkeypatch.setattr(sectors, "_coefficients", counted)
    table = sector_table(stats, v.codomain, h_frame, k_frame, elements)
    levels = [row.level for row in table.rows]
    # One recurrence pass per table, up to its last level.
    assert calls == [(levels[-1], algebra == "ccr")]
    want = loop_sector_characters(algebra, v.codomain, h_frame, k_frame,
                                  elements, levels)
    for row, ref in zip(table.rows, want):
        assert len(row.characters) == samples
        assert_same_bits(row.characters, ref)


def run_analyze(tmp_path, capsys, model: dict) -> tuple:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--input", str(path), "--report", str(out)])
    captured = capsys.readouterr()
    return code, out.read_bytes(), captured.out, captured.err


@pytest.mark.parametrize("algebra, steps, species, group, samples",
                         SHIFT_GAUGES)
def test_analyze_bytes_match_the_per_element_reference(
        tmp_path, capsys, monkeypatch, algebra, steps, species, group,
        samples):
    params, gauge = shift_gauge_case(steps, species, group)
    model = {"label": f"{algebra}-shift-{group}", "algebra": algebra,
             "isometry": {"builder": "shift", "params": params},
             "gauge": {**gauge, "samples": samples}}
    shipped = run_analyze(tmp_path, capsys, model)
    assert shipped[0] == 0
    assert b'"sector_table"' in shipped[1]
    monkeypatch.setattr(cli, "sector_table", reference_sector_table)
    assert run_analyze(tmp_path, capsys, model) == shipped


# --- stacked gauge draw, bit for bit ------------------------------------------

def per_sample_haar(n, rng):
    """The two-dimensional QR draw that the stacked draw reproduces."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_haar_unitary_is_the_two_d_draw(n):
    rng1, rng2 = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(3):
        assert_same_bits(haar_unitary(n, rng1), per_sample_haar(n, rng2))


@pytest.mark.parametrize("kind, species",
                         [("un", 2), ("un", 3), ("sun", 2), ("sun", 3)])
def test_stacked_haar_draw_equals_the_per_sample_loop(kind, species):
    sites, samples, seed = 3, 9, 11
    elements = GaugeAction(kind, sites * species, species=species).elements(
        samples=samples, seed=seed)
    assert elements.labels == [f"haar[{j}]" for j in range(samples)]
    rng = np.random.default_rng(seed)
    for u11 in elements.u11:
        u = haar_unitary(species, rng)
        if kind == "sun":
            # The scalar power; at two species an array ** 0.5 would be sqrt.
            u = u / np.linalg.det(u) ** (1.0 / species)
        for site in range(sites):
            block = slice(site * species, (site + 1) * species)
            assert_same_bits(u11[block, block], u)
        assert np.array_equal(u11, np.kron(np.eye(sites), u))


def test_stacked_u1_and_z2_elements_equal_the_per_sample_loop():
    charges = (2, -1, 0, 1, -2)
    samples = 9
    elements = GaugeAction("u1", 5, charges=charges).elements(samples=samples)
    for j, u11 in enumerate(elements.u11):
        lam = 2.0 * math.pi * j / samples
        assert elements.labels[j] == f"lambda={lam:.6f}"
        assert_same_bits(u11, np.diag(np.exp(1j * lam * np.asarray(charges))))
    z2 = GaugeAction("z2", 3).elements()
    assert_same_bits(z2.u11[0], np.eye(3, dtype=complex))
    assert_same_bits(z2.u11[1], -np.eye(3, dtype=complex))


@pytest.mark.parametrize("chunk_bytes", [errors.STACK_CHUNK_BYTES, 1])
def test_one_leaking_element_of_a_stack_raises(monkeypatch, chunk_bytes):
    monkeypatch.setattr(errors, "STACK_CHUNK_BYTES", chunk_bytes)
    v = builders.shift(1, species=2)
    data = car_charge_data(car_membership(v))
    mu = 0.5
    leaky = np.eye(4, dtype=complex)
    leaky[0, 0] = leaky[2, 2] = math.cos(mu)
    leaky[0, 2], leaky[2, 0] = -math.sin(mu), math.sin(mu)
    elements = GaugeAction("custom", 4, unitaries=(
        np.eye(4, dtype=complex), leaky)).elements()
    compressed_action(elements.u11[:1], data.k_frame, v.codomain, CAR)
    with pytest.raises(NotGaugeCompatible):
        compressed_action(elements.u11, data.k_frame, v.codomain, CAR)
    with pytest.raises(NotGaugeCompatible):
        sector_table(CAR, v.codomain, data.h_frame, data.k_frame, elements)


@pytest.mark.parametrize("stats, compressions", [(CAR, 2), (CCR, 1)],
                         ids=["car", "ccr"])
def test_sector_table_compresses_h_only_for_car(monkeypatch, stats,
                                                compressions):
    # CCR's h is empty and its characters read no det_h, so only k is
    # compressed; CAR compresses h, then k.
    v = builders.shift(1)
    data = stats.charge_data(stats.membership(v, DEFAULT_TOL))
    compress, frames = sectors.compressed_action, []

    def counted(u11, frame, space, stats):
        frames.append(frame.shape)
        return compress(u11, frame, space, stats)

    monkeypatch.setattr(sectors, "compressed_action", counted)
    sector_table(stats, v.codomain, data.h_frame, data.k_frame,
                 GaugeAction("u1", 2, charges=(1, 1)).elements(samples=4))
    assert len(frames) == compressions
    assert frames[-1] == data.k_frame.shape


def test_chunked_compression_keeps_the_bits(monkeypatch):
    v = builders.shift(3, steps=2, species=2)
    frame = car_charge_data(car_membership(v)).k_frame
    elements = GaugeAction("un", v.codomain.n_modes, species=2).elements(
        samples=40, seed=1)
    whole = compressed_action(elements.u11, frame, v.codomain, CAR)
    monkeypatch.setattr(errors, "STACK_CHUNK_BYTES", 3 * 16 * frame.size)
    assert len(errors.sample_chunks(40, 16 * frame.size)) == 14
    assert_same_bits(compressed_action(elements.u11, frame, v.codomain, CAR),
                     whole)


def test_stacked_eigenphases_equal_eigvals_per_matrix():
    rng = np.random.default_rng(4)
    stack = np.stack([haar_unitary(4, rng) for _ in range(6)])
    eigs = eigenphases(stack)
    for row, u in zip(eigs, stack):
        assert_same_bits(row, np.linalg.eigvals(u))
    assert_same_bits(eigenphases(stack[2]), eigs[2])
    with pytest.raises(NotGaugeCompatible):
        eigenphases(np.stack([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]]))
    # normal but not unitary: the unitarity defect catches it
    with pytest.raises(NotGaugeCompatible):
        eigenphases(np.stack([np.eye(2), 2.0 * np.eye(2)]))
    assert eigenphases(np.zeros((3, 0, 0))).shape == (3, 0)
