"""Circle-model tests: overlaps vs quadrature, window build, index, trends."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from overlap_quadrature import overlap_quadrature
from quasifree import dirac
from quasifree.errors import (
    NonMonotone,
    UnstableIndex,
    WindowTooSmall,
)


def test_overlap_against_quadrature_oracle():
    # closed-form anchor values first
    assert abs(dirac.overlap(0, 0)) == pytest.approx(1 / math.sqrt(2))
    assert dirac.overlap(0, 2) == 0.0
    assert abs(dirac.overlap(0, 1)) == pytest.approx(math.sqrt(2) / math.pi)
    assert abs(overlap_quadrature(0, 2)) < 1e-13
    for m in (-3, -1, 0, 1, 2, 7):
        for n in (-5, -2, 0, 1, 3, 8, 15):
            assert dirac.overlap(m, n) == pytest.approx(
                overlap_quadrature(m, n), abs=1e-12)


def test_local_mode_table_matches_scalar():
    # m of both signs and parities, scattered and consecutive
    for m_values in ([-2, 0, 3], list(range(-5, 6))):
        table = dirac.local_mode_table(16, m_values)
        assert table.dtype == np.float64
        want = np.array([[dirac.overlap(m, n) for m in m_values]
                         for n in range(-16, 17)])
        assert {(2 * m - n) % 4 for m in m_values
                for n in range(-16, 17)} == {0, 1, 2, 3}
        assert (table == want).all()
        # zeros included: the sign flip of odd m keeps the +0.0 of overlap
        assert (table.view(np.uint64) == want.view(np.uint64)).all()


def test_build_runs_in_real_arithmetic(monkeypatch):
    grams = []
    cholesky = np.linalg.cholesky

    def spy(matrix):
        grams.append(matrix)
        return cholesky(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    build = dirac.build_v(64)
    assert build.window.f_table.dtype == np.float64
    assert build.frame.dtype == np.float64
    assert [gram.dtype for gram in grams] == [np.float64]
    probe = dirac.complement_probe(64, 1)
    assert probe.dtype == build.apply(probe).dtype == np.float64


def test_build_holds_the_frame_as_a_view_of_the_table():
    # Beyond the table, the build's peak is its Gram and one |gram|
    # temporary: a dim x rank copy such as A = F[:, 1:] - F[:, :-1] adds
    # two Gram-sizes at m_loc = W / 4.
    tracemalloc.start()
    try:
        build = dirac.build_v(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = build.window.f_table
    assert peak - table.nbytes < 3 * table.shape[1] ** 2 * table.itemsize
    assert np.shares_memory(build.frame, table)


def test_cayley_audit():
    audit = dirac.cayley_audit()
    assert audit["at_zero"] == pytest.approx(-1.0)
    assert audit["at_one"] == pytest.approx(-1j)
    assert audit["at_minus_one"] == pytest.approx(1j)
    assert audit["unimodular_deviation"] < 1e-12
    assert audit["preimage_imag_max"] < 1e-12
    assert audit["preimage_in_interval"]


def test_window_too_small():
    # m_loc = w // 4 needs at least two local modes
    with pytest.raises(WindowTooSmall,
                       match=r"^need 2 <= m_loc <= w/4, got m_loc=1, w=7$"):
        dirac.build_v(7)
    assert dirac.build_v(8).window.m_loc == 2


def test_row_normalization_within_tail_bound():
    devs = {}
    for w in (64, 128, 256):
        diag = dirac.build_v(w).diagnostics
        assert diag["rownorm_deviation"] <= diag["rownorm_bound"]
        devs[w] = diag["rownorm_deviation"]
    assert devs[128] < 0.6 * devs[64]
    assert devs[256] < 0.6 * devs[128]


def test_gram_off_identity_small_and_decreasing():
    g64 = dirac.build_v(64).diagnostics["gram_off_identity"]
    g128 = dirac.build_v(128).diagnostics["gram_off_identity"]
    assert g64 <= 2e-2
    assert g128 < g64


def test_probe_isometry_defect_decreases_seam_constant():
    d64 = dirac.build_v(64).diagnostics
    d128 = dirac.build_v(128).diagnostics
    assert d128["probe_isometry_defect"] < d64["probe_isometry_defect"]
    assert d64["probe_isometry_defect"] < 1e-2
    # the truncated m-sum always maps two directions onto one at the seam,
    # so the unrestricted defect stays of order one by construction
    for diag in (d64, d128):
        assert 0.9 < diag["seam_full_defect"] < 1.1


def test_shift_action_on_local_modes():
    build = dirac.build_v(128)
    f2, f3 = build.window.f_column(2), build.window.f_column(3)
    assert np.linalg.norm(build.apply(f2) - f3) < 1e-2
    fm1 = build.window.f_column(-1)
    assert np.linalg.norm(build.apply(fm1) - fm1) < 1e-2
    assert build.diagnostics["shift_overlap_min"] > 0.997


def test_index_stable_and_robust():
    builds = [dirac.build_v(64), dirac.build_v(128)]
    record = dirac.index_estimate(builds)
    # The smallest singular value and the gap above the cokernel count, read
    # off each build's singular values.
    smallest, gaps = {}, {}
    for build in builds:
        svals = build.singular_values
        below = svals[svals < dirac.INDEX_THRESHOLD]
        smallest[build.window.w] = float(svals.min())
        gaps[build.window.w] = float(
            svals[svals >= dirac.INDEX_THRESHOLD].min()
            - (below.max() if below.size else 0.0))
    assert record.value == 1
    assert record.counts == {64: 1, 128: 1}
    assert all(s < 1e-4 for s in smallest.values())
    assert all(g > 0.99 for g in gaps.values())


def test_index_instability_detected(monkeypatch):
    # a threshold grazing the bulk cluster at 1 catches a cutoff-dependent
    # number of truncation-perturbed singular values, which must raise
    builds = [dirac.build_v(64), dirac.build_v(128)]
    monkeypatch.setattr(dirac, "INDEX_THRESHOLD", 0.99999)
    with pytest.raises(UnstableIndex):
        dirac.index_estimate(builds)


def test_hs_study_verdicts():
    study = dirac.hs_commutator_study((32, 64, 128, 256),
                                      build=dirac.build_v(256))
    for tag in ("plus", "minus"):
        sums = study.partial_norms[tag]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert study.slopes[tag] < -0.5
        assert study.verdicts[tag] == "consistent-with-HS"
    control = dirac.jump_symbol_control_study((32, 64, 128, 256))
    assert control.verdicts["plus"] == "not-summable-trend"
    assert control.slopes["plus"] > -0.5


def test_trend_detector_rejects_flat_sums():
    with pytest.raises(NonMonotone):
        dirac._trend_verdict((32, 64, 128), [0.5, 0.5, 0.5])


def test_prop_loc_phase_and_control():
    build = dirac.build_v(256)
    report = dirac.prop_loc_check(build)
    assert report["complement"]["tau"] == pytest.approx(1.0, abs=1e-3)
    assert report["complement"]["residual"] < 2e-3

    # a global phase factors straight into tau; prop_loc_check reads only
    # the window and apply, so the composed operators are fakes of those
    phase = np.exp(1j * math.pi / 3)
    phased = SimpleNamespace(window=build.window,
                             apply=lambda x: phase * build.apply(x))
    report = dirac.prop_loc_check(phased)
    assert report["complement"]["tau"] == pytest.approx(
        np.exp(1j * math.pi / 3), abs=1e-3)

    # rotating two negative Fourier modes is non-local on the complement
    w = build.window.w
    rot = np.eye(build.window.dim, dtype=complex)
    i1, i2 = w - 3, w - 5  # modes n = -3 and n = -5
    mu = 0.7
    rot[i1, i1] = rot[i2, i2] = math.cos(mu)
    rot[i1, i2], rot[i2, i1] = -math.sin(mu), math.sin(mu)
    broken = SimpleNamespace(window=build.window,
                             apply=lambda x: rot @ build.apply(x))
    assert dirac.prop_loc_check(broken)["complement"]["residual"] > 5e-3


def test_localization_residual_decreases():
    r128 = dirac.prop_loc_check(dirac.build_v(128))["complement"]["residual"]
    r256 = dirac.prop_loc_check(dirac.build_v(256))["complement"]["residual"]
    assert r256 < r128


def test_assemble_species():
    for n in (1, 2, 3):
        rec = dirac.assemble_species(n)
        assert rec["half_index"] == n
        assert rec["statistics_dimension"] == 2 ** n
        assert len(rec["blocks"]) == 2 * n
    assert dirac.assemble_species(2)["blocks"] == ["v", "v", "conj(v)",
                                                   "conj(v)"]


def _dense_partial_hs(comm, w_max, cutoffs):
    ns = np.arange(-w_max, w_max + 1)
    sq = np.abs(comm) ** 2
    sums = []
    for w in cutoffs:
        mask = np.abs(ns) <= w
        sums.append(math.sqrt(math.fsum(sq[np.ix_(mask, mask)].ravel())))
    return sums


def _dense_increments(comm, w_max, cutoffs, norms):
    """Each window's added-ring sum of squares over its two partial norms."""
    ns = np.abs(np.arange(-w_max, w_max + 1))
    sq = np.abs(comm) ** 2
    reach = np.maximum.outer(ns, ns)  # the smallest window holding (i, j)
    return [math.fsum(sq[(reach > a) & (reach <= b)]) / (norm_a + norm_b)
            for a, b, norm_a, norm_b in zip(cutoffs, cutoffs[1:],
                                            norms, norms[1:])]


def _dense_from_definition(window):
    """v = 1 + sum_{m=0}^{m_loc-1} (f_{m+1} - f_m) f_m*, term by term."""
    v = np.eye(window.dim)
    for m in range(window.m_loc):
        f_m = window.f_column(m)
        v += np.outer(window.f_column(m + 1) - f_m, f_m.conj())
    return v


def _rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


@pytest.mark.parametrize("w", [64, 128, 256, 512])
def test_factored_build_matches_dense_oracle(w):
    build = dirac.build_v(w)
    window, diag = build.window, build.diagnostics
    m_loc = window.m_loc
    matrix = _dense_from_definition(window)
    eye = np.eye(window.dim)

    svals = np.sort(np.linalg.svd(matrix, compute_uv=False))
    assert np.max(np.abs(svals - np.sort(build.singular_values))) < 1e-12
    vhv = matrix.conj().T @ matrix
    assert _rel(diag["seam_full_defect"],
                np.linalg.norm(vhv - eye, ord=2)) < 1e-12

    probes = [window.f_column(m) for m in range(-(m_loc // 2), m_loc // 2 + 1)]
    probes += [dirac.complement_probe(w, k) for k in range(-8, 9)]
    probe_defect = max(np.linalg.norm(vhv @ p - p) / np.linalg.norm(p)
                       for p in probes)
    assert _rel(diag["probe_isometry_defect"], probe_defect) < 1e-12
    shift_min = min(
        np.vdot(window.f_column(m + 1), matrix @ window.f_column(m)).real
        for m in range(m_loc // 2))
    # overlaps of unit vectors: the error is measured against the unit scale
    assert abs(diag["shift_overlap_min"] - shift_min) < 1e-12

    cutoffs = (w // 8, w // 4, w // 2, w)
    study = dirac.hs_commutator_study(cutoffs, build=build)
    theta = (np.arange(-w, w + 1) >= 0).astype(float)
    for tag, diag_theta in (("plus", theta), ("minus", 1.0 - theta)):
        comm = diag_theta[:, None] * matrix - matrix * diag_theta[None, :]
        dense = _dense_partial_hs(comm, w, cutoffs)
        for got, want in zip(study.partial_norms[tag], dense):
            assert _rel(got, want) < 1e-12
        rings = _dense_increments(comm, w, cutoffs, dense)
        assert len(study.increments[tag]) == len(rings) == 3
        for got, want in zip(study.increments[tag], rings):
            assert _rel(got, want) < 1e-12

    ns = np.arange(-w, w + 1)
    symbol = np.sinc(0.5 - (ns[:, None] - ns[None, :]))
    comm = theta[:, None] * symbol - symbol * theta[None, :]
    control = dirac.jump_symbol_control_study(cutoffs)
    assert control.partial_norms["plus"] == _dense_partial_hs(comm, w, cutoffs)

    loc = dirac.prop_loc_check(build)["complement"]
    g = np.column_stack([dirac.complement_probe(w, k) for k in range(-8, 9)])
    vg = matrix @ g
    overlap = np.sum(np.conj(g) * vg)
    tau = overlap / abs(overlap)
    residual = np.max(np.linalg.norm(vg - tau * g, axis=0)
                      / np.linalg.norm(g, axis=0))
    assert abs(loc["tau"] - tau) < 1e-10
    assert abs(loc["residual"] - residual) < 1e-10
