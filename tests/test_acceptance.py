"""Acceptance gate: every criterion measured end to end at its tolerance.

Each test prints exactly one [PASS]/[FAIL] line with the measured quantities
and runtime, then asserts the same condition.
"""

import hashlib
import json
import math
import time

import numpy as np

import car_chart_reference as chart
import dense_selfdual as dense
from fock_invariance import span_invariance_residual
from quasifree import builders, cli, dirac
from quasifree.car import CAR, car_charge_data, car_membership, z2_index
from quasifree.ccr import CCR, ccr_charge_data, ccr_membership
from quasifree.fock import (
    BoseFock,
    FermiFock,
    car_implementers,
    charge_rep_blocks,
    compound_matrix,
    omega_alphas_bose,
    omega_alphas_fermi,
    omega_p_bose,
    omega_p_fermi,
    symmetric_power,
)
from quasifree.sectors import (
    GaugeAction,
    compressed_action,
    oracle_compare,
)
from quasifree.selfdual import hs_norm, orthoprojection


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def fermi_pipeline(v):
    data = car_charge_data(car_membership(v))
    fock_d = FermiFock(v.domain.n_modes)
    fock_c = FermiFock(v.codomain.n_modes)
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    return data, fock_d, fock_c, alphas, omegas


def test_criterion_1_statistics_dimension_law(capsys):
    start = time.perf_counter()
    car_cases = [
        (builders.bogoliubov(0.3), 0, 1),
        (builders.shift(2), 2, 2),
        (builders.shift(1, species=2), 4, 4),
    ]
    ok = True
    for v, want_ind, want_d in car_cases:
        data = car_charge_data(car_membership(v))
        ok = ok and data.index == want_ind
        ok = ok and data.statistics_dimension == want_d
    ccr_zero = ccr_charge_data(ccr_membership(builders.squeeze(0.5)))
    ccr_pos = ccr_charge_data(ccr_membership(builders.shift(1)))
    ok = ok and ccr_zero.statistics_dimension == 1
    ok = ok and ccr_pos.statistics_dimension == math.inf
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    announce(capsys, "criterion 1 (statistics dimension law)", ok,
             f"car d = 2^(ind/2) exact for ind 0/2/4, "
             f"ccr d = 1 and infinite exact, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_charge_data_recovery(capsys):
    # h and T are read off P; the reference builds them from V's blocks.
    examples = [
        ("identity", builders.identity(3)),
        ("shift", builders.shift(3)),
        ("doubled-shift", builders.shift(1, species=2)),
        ("flip", builders.flip(2)),
        ("bogoliubov", builders.bogoliubov(0.4)),
    ]
    worst_recovery = 0.0
    worst_identity = 0.0
    worst_time = 0.0
    ok = True
    for _, v in examples:
        start = time.perf_counter()
        data = car_charge_data(car_membership(v))
        n = v.codomain.n_modes
        h_ref = chart.compute_h(v)
        t_ref = chart.compute_t(v, h_ref)
        ok = ok and data.h_frame.shape[1] == h_ref.shape[1]
        h_res = hs_norm(orthoprojection(data.h_frame[:n])
                        - orthoprojection(h_ref[:n]))
        t_res = hs_norm(data.t - t_ref)
        p = data.p
        idem = hs_norm(p @ p - p)
        herm = hs_norm(p - p.conj().T)
        comp = hs_norm(dense.conjugate_matrix(p, v.codomain, v.codomain)
                       - (np.eye(2 * n) - p))
        worst_recovery = max(worst_recovery, h_res, t_res)
        worst_identity = max(worst_identity, idem, herm, comp)
        worst_time = max(worst_time, time.perf_counter() - start)
    ok = (ok and worst_recovery <= 1e-8 and worst_identity <= 1e-10
          and worst_time < 1.0)
    announce(capsys, "criterion 2 (charge-data recovery)", ok,
             f"(h, T) read off P against V's blocks {worst_recovery:.2e} "
             f"<= 1e-8, projection identities {worst_identity:.2e} <= 1e-10, "
             f"slowest example {worst_time:.2f}s < 1s")


def test_criterion_3_implementation_formula(capsys):
    start = time.perf_counter()
    cases = [
        ("3->4 modes", builders.shift(3), 2),
        ("4->6 modes", builders.shift(2, species=2), 4),
    ]
    worst = 0.0
    ok = True
    for label, v, want_count in cases:
        data, fock_d, fock_c, _, omegas = fermi_pipeline(v)
        imp = car_implementers(v, fock_d, fock_c, omegas)
        ok = ok and len(imp.psis) == want_count == 2 ** (data.index // 2)
        worst = max(worst, imp.implementation_residual,
                    imp.isometry_residual, imp.completeness_residual)
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-10 and elapsed < 10.0
    announce(capsys, "criterion 3 (implementation formula)", ok,
             f"sum/isometry/completeness residuals {worst:.2e} <= 1e-10, "
             f"implementer counts exact, runtime {elapsed:.2f}s < 10s")


def _charge_theorem_deviation(v, elements, data, fock_c, alphas, omegas):
    space = v.codomain
    dets = np.linalg.det(compressed_action(elements.u11, data.h_frame, space,
                                           CAR))
    comps = compressed_action(elements.u11, data.k_frame, space, CAR)
    worst = 0.0
    for u11, det_h, comp in zip(elements.u11, dets, comps):
        gamma = fock_c.gamma(u11)
        blocks = charge_rep_blocks(omegas, alphas, gamma.__matmul__)
        for level, block in blocks.items():
            target = det_h * compound_matrix(comp, level)
            worst = max(worst, float(np.max(np.abs(block - target))))
    return worst


def test_criterion_4_car_charge_theorem(capsys):
    start = time.perf_counter()
    shift = builders.shift(3)
    doubled = builders.shift(1, species=2)
    flip = builders.flip(2)

    runs = [
        ("shift/U(1)", shift,
         GaugeAction("u1", 4, charges=(1, 1, 1, 1)).elements(samples=21)),
        ("doubled shift/U(2)", doubled,
         GaugeAction("un", 4, species=2).elements(samples=20, seed=0)),
        ("flip/U(1)", flip,
         GaugeAction("u1", 2, charges=(1, 1)).elements(samples=21)),
        ("flip/Z2", flip, GaugeAction("z2", 2).elements()),
    ]
    worst = 0.0
    count = 0
    ok = True
    for _, v, elements in runs:
        data, _, fock_c, alphas, omegas = fermi_pipeline(v)
        worst = max(worst, _charge_theorem_deviation(
            v, elements, data, fock_c, alphas, omegas))
        count += len(elements.labels)

    flip_data = car_charge_data(car_membership(flip))
    minus = -np.eye(2, dtype=complex)
    det_sign = np.linalg.det(compressed_action(
        minus[np.newaxis], flip_data.h_frame, flip.codomain, CAR))[0]
    v11 = flip.block(1, 1)
    dim_ker_v11 = v11.shape[1] - np.linalg.matrix_rank(v11)
    ok = ok and abs(det_sign - (-1.0) ** dim_ker_v11) < 1e-12
    ok = ok and (z2_index(car_charge_data(car_membership(flip)))
                 == (-1) ** dim_ker_v11)

    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-8 and count >= 20 and elapsed < 30.0
    announce(capsys, "criterion 4 (fermionic charge theorem)", ok,
             f"max blockwise deviation {worst:.2e} <= 1e-8 over {count} "
             f"group elements, Z2 sign = (-1)^dim ker V11, "
             f"runtime {elapsed:.2f}s < 30s")


def test_criterion_5_ccr_charge_theorem(capsys):
    start = time.perf_counter()
    v = builders.shift(1)
    data = ccr_charge_data(ccr_membership(v))
    cutoff = 8
    fock = BoseFock(v.codomain.n_modes, cutoff)
    omega_p, tail = omega_p_bose(fock, v.codomain, data.t)
    alphas, omegas = omega_alphas_bose(fock, v.codomain, omega_p,
                                       data.k_frame, 5)
    elements = GaugeAction("u1", 2, charges=(1, 1)).elements(samples=20)
    comps = compressed_action(elements.u11, data.k_frame, v.codomain, CCR)
    grams = charge_rep_blocks(omegas, alphas, lambda vec: vec)
    targets = {level: symmetric_power(comps, level) for level in grams}
    blocks = []
    for u11 in elements.u11:
        gvec = fock.gamma_vector(u11)
        blocks.append(charge_rep_blocks(omegas, alphas,
                                        lambda vec: gvec * vec))
    worst = oracle_compare(grams, blocks, targets)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and max(grams) == 5 and elapsed < 60.0
    announce(capsys, "criterion 5 (bosonic charge theorem)", ok,
             f"levels <= 5 at cutoff M = {cutoff} (tail {tail:.2e}): max "
             f"blockwise deviation {worst:.2e} <= 1e-8, "
             f"runtime {elapsed:.2f}s < 60s")


def test_criterion_6_gauge_invariance_both_directions(capsys):
    start = time.perf_counter()
    v = builders.shift(2)
    _, _, fock_c, _, omegas = fermi_pipeline(v)
    n = v.codomain.n_modes

    commuting = 0.0
    for lam in (0.3, 1.1, 2.7, 4.4, 5.9):
        u11 = np.diag(np.exp(1j * lam * np.ones(n)))
        commuting = max(commuting,
                        span_invariance_residual(omegas, fock_c.gamma(u11)))

    # Rotating the charge mode into the range of V breaks invariance.
    mu = 0.7
    u11 = np.eye(n, dtype=complex)
    u11[0, 0] = u11[2, 2] = math.cos(mu)
    u11[0, 2] = -math.sin(mu)
    u11[2, 0] = math.sin(mu)
    broken = span_invariance_residual(omegas, fock_c.gamma(u11))

    elapsed = time.perf_counter() - start
    ok = commuting <= 1e-10 and broken > 1e-2 and elapsed < 10.0
    announce(capsys, "criterion 6 (gauge invariance, both directions)", ok,
             f"commuting residual {commuting:.2e} <= 1e-10, "
             f"non-commuting residual {broken:.2e} > 1e-2, "
             f"runtime {elapsed:.2f}s < 10s")


def test_criterion_7_dirac_example(capsys):
    start = time.perf_counter()
    cutoffs = (64, 128, 256, 512)
    builds = {w: dirac.build_v(w) for w in cutoffs}

    rownorm = builds[512].diagnostics["rownorm_deviation"]
    rownorm_ok = rownorm <= 3e-3

    record = dirac.index_estimate([builds[256], builds[512]])
    index_ok = record.value == 1 and set(record.counts) == {256, 512}

    study = dirac.hs_commutator_study(cutoffs, build=builds[512])
    hs_ok = (study.verdicts["plus"] == "consistent-with-HS"
             and study.verdicts["minus"] == "consistent-with-HS")

    loc = {w: dirac.prop_loc_check(builds[w])["complement"]["residual"]
           for w in (128, 256, 512)}
    loc_ok = (loc[512] <= 1e-3 and loc[128] > loc[256] > loc[512])

    species_ok = all(
        dirac.assemble_species(n)["half_index"] == n
        and dirac.assemble_species(n)["statistics_dimension"] == 2 ** n
        for n in (1, 2, 3))

    elapsed = time.perf_counter() - start
    ok = (rownorm_ok and index_ok and hs_ok and loc_ok and species_ok
          and elapsed < 300.0)
    announce(capsys, "criterion 7 (localized circle isometry)", ok,
             f"row normalization {rownorm:.2e} <= 3e-3 at W=512, "
             f"index {record.value} stable on (256, 512), HS verdicts "
             f"plus/minus consistent-with-HS, localization residual "
             f"{loc[512]:.2e} <= 1e-3 decreasing in W, d = 2^N for "
             f"N = 1..3, runtime {elapsed:.1f}s < 300s")


def test_criterion_8_byte_determinism(capsys, tmp_path):
    start = time.perf_counter()
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "label": "det-check",
        "algebra": "car",
        "isometry": {"builder": "shift",
                     "params": {"n_sites_in": 3, "steps": 1}},
        "gauge": {"group": "u1", "charges": [1, 1, 1, 1], "samples": 16},
    }), encoding="utf-8")

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    hashes = set()
    for i in range(3):
        out = str(tmp_path / f"a{i}.json")
        assert cli.main(["analyze", "--input", str(model), "--report",
                         out]) == 0
        hashes.add(digest(out))
    analyze_ok = len(hashes) == 1

    hashes = set()
    for i in range(2):
        out = str(tmp_path / f"d{i}.json")
        assert cli.main(["dirac", "--cutoffs", "32,64", "--report",
                         out]) == 0
        hashes.add(digest(out))
    dirac_ok = len(hashes) == 1

    elapsed = time.perf_counter() - start
    ok = analyze_ok and dirac_ok
    announce(capsys, "criterion 8 (byte determinism)", ok,
             f"repeated analyze and dirac reports hash-identical, "
             f"runtime {elapsed:.2f}s")
