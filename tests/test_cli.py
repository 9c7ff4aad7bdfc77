"""Model-file parsing, report serialization, and CLI behavior."""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

import dense_selfdual as dense
from quasifree import (builders, car, ccr, cli, oracle, report, sectors,
                       selfdual)
from quasifree.errors import (
    DENSE_BYTES_CAP,
    CapExceeded,
    MalformedInput,
    require_dense_bytes,
)
from quasifree.fock import (
    BOSE_DIM_CAP,
    FERMI_DIM_CAP,
    compound_matrix,
    omega_alphas_fermi,
)
from test_random_members import random_member


def write_model(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def shift_car_model(tmp_path, gauge=True):
    payload = {
        "label": "shift-car",
        "algebra": "car",
        "isometry": {"builder": "shift",
                     "params": {"n_sites_in": 3, "steps": 1}},
    }
    if gauge:
        payload["gauge"] = {"group": "u1", "charges": [1, 1, 1, 1],
                            "samples": 24, "seed": 5}
    return write_model(tmp_path, "shift_car.json", payload)


def reference_json(payload) -> str:
    """The text report.canonical_json must reproduce byte for byte."""
    return json.dumps(report.jsonify(payload), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def matrix_model(tmp_path, algebra, v, gauge) -> str:
    return write_model(tmp_path, "m.json", {
        "algebra": algebra, "gauge": gauge,
        "isometry": {"matrix": report.complex_array_payload(v.matrix)},
        "space": {"domain_modes": v.domain.n_modes,
                  "codomain_modes": v.codomain.n_modes}})


def tiny_off_diagonal_unitary():
    """A diagonal phase unitary on 4 modes plus one 1e-300 entry below it."""
    u = np.diag(np.exp([0.3j, -1.1j, 0.4j, 2.0j]))
    u[3, 2] = 1e-300
    return u


def pairing_on_k_model(tmp_path, seed, scale) -> str:
    """A u1-invariant CCR member on 4 modes whose pairing touches k."""
    charges = [1, -1, 1, -1]
    v = random_member("ccr", 4, 2, seed, scale, charges=charges)
    assert ccr.ccr_charge_data(ccr.ccr_membership(v)).t_norm > 0.02
    return matrix_model(tmp_path, "ccr", v,
                        {"group": "u1", "charges": charges, "samples": 8})


def analyze_bogoliubov(tmp_path, theta, n_modes):
    """charge_data of `analyze` on bogoliubov(theta) under u1, charges 1."""
    path = write_model(tmp_path, "m.json", {
        "algebra": "car",
        "isometry": {"builder": "bogoliubov",
                     "params": {"theta": theta, "n_modes": n_modes}},
        "gauge": {"group": "u1", "charges": [1] * n_modes}})
    out = str(tmp_path / "r.json")
    assert cli.main(["analyze", "--input", path, "--report", out]) == 0
    return json.loads(open(out, encoding="utf-8").read())["charge_data"]


class TestReportHelpers:

    def test_comparison_carries_value_tolerance_pass(self):
        c = report.comparison(3e-9, 1e-8)
        assert c == {"value": 3e-9, "tolerance": 1e-8, "pass": True}
        assert report.comparison(2e-8, 1e-8)["pass"] is False

    def test_failed_comparisons_paths(self):
        payload = {"a": report.comparison(1.0, 0.5),
                   "b": {"c": [report.comparison(0.0, 1.0),
                               report.comparison(2.0, 1.0)]},
                   "d": report.comparison(0.1, 0.5), "e": 3}
        assert report.failed_comparisons(payload) == ["a", "b.c[1]"]
        assert report.relation(payload["a"]) == ">"
        assert report.relation(payload["d"]) == "<="

    def test_jsonify_infinity_and_complex(self):
        out = report.jsonify({"d": math.inf, "z": 1 - 2j})
        assert out["d"] == "infinite"
        assert out["z"] == {"re": 1.0, "im": -2.0}

    def test_canonical_json_is_sorted_with_trailing_newline(self):
        text = report.canonical_json({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    @pytest.mark.parametrize("payload", [
        # json spells a non-finite float in an array as Infinity / NaN.
        {"m": np.array([[1 + 1j, np.inf], [np.nan - 1j * np.inf, -0.0]])},
        # A bare non-finite float goes through jsonify's "infinite" / "nan".
        {"a": math.inf, "b": -math.inf, "c": math.nan,
         "d": np.float64(-np.inf)},
        {"z": -0.0, "e": {}, "l": [], "t": (), "arr": np.zeros((0, 2)),
         "nested": [{}, [], [[]], [[0.5, -0.0], [1e300, 5e-324]]]},
        {"label": "Fock\u2013Schur \u03c8 \"q\"\n\t\u0001 \u221e",
         "\u043a\u043b\u044e\u0447": ["\u00e9", "\U0001f600"]},
        {"mix": [True, 1, False, 0, np.int64(7), np.bool_(True),
                 np.float32(0.1), 2 ** 70, -2 ** 63, 1.0, 3],
         "c": np.complex128(1 - 2j), "i": 3 + 0j, 10: "ten", 2: None},
    ], ids=["nonfinite-array", "bare-nonfinite", "zeros-and-empties",
            "non-ascii", "scalars"])
    def test_canonical_json_equals_json_dumps(self, payload):
        assert report.canonical_json(payload) == reference_json(payload)

    def test_canonical_json_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            reference_json({"s": {1}})
        with pytest.raises(TypeError):
            report.canonical_json({"s": {1}})

    def test_canonical_json_of_each_command_report(self, tmp_path,
                                                   monkeypatch):
        payloads = []

        def recorded(payload):
            payloads.append(payload)
            return report.canonical_json(payload)

        monkeypatch.setattr(cli, "canonical_json", recorded)
        out = str(tmp_path / "r.json")
        ccr_shift = write_model(tmp_path, "ccr.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}},
            "gauge": {"group": "u1", "charges": [1, 1], "samples": 3}})
        runs = [["analyze", "--input", shift_car_model(tmp_path)],
                ["analyze", "--input", ccr_shift],
                ["oracle", "--input", shift_car_model(tmp_path)],
                ["oracle", "--input", ccr_shift],
                ["dirac", "--cutoffs", "16,32"]]
        for argv in runs:
            assert cli.main([*argv, "--report", out]) == 0
        assert len(payloads) == len(runs)
        for payload in payloads:
            assert report.canonical_json(payload) == reference_json(payload)

    def test_parse_matrix_flat_with_shape(self):
        obj = {"shape": [2, 2], "re": [1, 0, 0, 1], "im": [0, 2, 0, 0]}
        m = report.parse_complex_matrix(obj)
        assert m.shape == (2, 2)
        assert m[0, 1] == 2j

    def test_parse_matrix_nested_rows(self):
        obj = {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(report.parse_complex_matrix(obj), np.eye(2))

    def test_parse_matrix_roundtrip(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        back = report.parse_complex_matrix(report.complex_array_payload(m))
        assert np.allclose(back, m, atol=0)

    def test_parse_matrix_missing_imaginary_part(self):
        with pytest.raises(MalformedInput):
            report.parse_complex_matrix({"re": [[1.0]]})

    def test_parse_matrix_ragged_rows(self):
        with pytest.raises(MalformedInput):
            report.parse_complex_matrix(
                {"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]})

    def test_parse_matrix_shape_mismatch(self):
        with pytest.raises(MalformedInput):
            report.parse_complex_matrix(
                {"shape": [2, 2], "re": [1, 0, 0], "im": [0, 0, 0]})


class TestLoadModel:

    def test_builder_model(self, tmp_path):
        path = shift_car_model(tmp_path)
        model = report.load_model(path)
        assert model.algebra == "car"
        assert model.operator.domain.n_modes == 3
        assert model.operator.codomain.n_modes == 4
        assert model.gauge.kind == "u1"
        assert model.gauge_samples == 24
        with open(path, "rb") as handle:
            assert model.source_digest == hashlib.sha256(
                handle.read()).hexdigest()

    def test_matrix_model_with_space(self, tmp_path):
        v = builders.shift(1)
        payload = {
            "algebra": "car",
            "isometry": {"matrix": report.complex_array_payload(v.matrix)},
            "space": {"domain_modes": 1, "codomain_modes": 2},
        }
        model = report.load_model(write_model(tmp_path, "m.json", payload))
        assert np.array_equal(model.operator.matrix, v.matrix)

    def test_matrix_inconsistent_with_space(self, tmp_path):
        payload = {
            "algebra": "car",
            "isometry": {"matrix": {"re": [[1, 0], [0, 1]],
                                    "im": [[0, 0], [0, 0]]}},
            "space": {"domain_modes": 2, "codomain_modes": 2},
        }
        with pytest.raises(MalformedInput):
            report.load_model(write_model(tmp_path, "m.json", payload))

    def test_unknown_algebra_rejected(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "cuntz",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}}})
        with pytest.raises(MalformedInput):
            report.load_model(path)

    def test_unknown_gauge_group_rejected(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}},
            "gauge": {"group": "e8"}})
        with pytest.raises(MalformedInput):
            report.load_model(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {", encoding="utf-8")
        with pytest.raises(MalformedInput):
            report.load_model(str(path))


class TestAnalyze:

    def test_shift_car_summary(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = cli.main(["analyze", "--input", shift_car_model(tmp_path),
                         "--report", out])
        assert code == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_data"]["index"] == 2
        assert data["charge_data"]["statistics_dimension"] == 2
        assert data["charge_data"]["dim_k"] == 1
        assert data["membership"]["is_member"] is True
        assert data["membership"]["isometry_defect"]["pass"] is True
        assert data["sector_table"]["equivalence_classes"] == [[0], [1]]
        assert data["schema_version"] == 1

    def test_character_tolerance_is_the_one_the_table_uses(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(sectors, "CHAR_TOL", 2.5e-9)
        monkeypatch.setattr(cli, "CHAR_TOL", 2.5e-9)
        out = str(tmp_path / "r.json")
        code = cli.main(["analyze", "--input", shift_car_model(tmp_path),
                         "--report", out])
        assert code == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["tolerances"]["character"] == 2.5e-9
        assert data["sector_table"]["sample"]["tol_char"] == 2.5e-9

    def test_shift_ccr_infinite_statistics_dimension(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_data"]["statistics_dimension"] == "infinite"
        assert data["charge_data"]["index"] == 2

    def test_malformed_matrix_exit_2(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"matrix": {"re": [[1, 0], [0]],
                                    "im": [[0, 0], [0, 0]]}},
            "space": {"domain_modes": 1}})
        assert cli.main(["analyze", "--input", path]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["analyze", "--input",
                         str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("samples", [0, -2, "many"])
    def test_gauge_samples_not_a_count_exit_2(self, tmp_path, capsys,
                                              samples):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 2}},
            "gauge": {"group": "u1", "charges": [1, 1, 1],
                      "samples": samples}})
        assert cli.main(["analyze", "--input", path]) == 2
        assert "gauge" in capsys.readouterr().err

    def test_dirac_window_is_no_builder_exit_2(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "dirac-v", "params": {"window": 16}}})
        assert cli.main(["analyze", "--input", path]) == 2
        assert "unknown builder 'dirac-v'" in capsys.readouterr().err

    def test_oversized_builder_exit_2_before_allocating(self, tmp_path,
                                                        capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift",
                         "params": {"n_sites_in": 10_000_000}}})
        assert cli.main(["analyze", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (input): shift: a dense 20000002 x")
        assert f"> cap {DENSE_BYTES_CAP}" in err

    def test_dense_budget_admits_2000_modes_and_the_8192_window(self):
        require_dense_bytes(4000, 4000, "analyze at 2000 modes")
        require_dense_bytes(2 * 8192 + 1, 2 * (8192 // 4) + 1, "W = 8192")
        with pytest.raises(CapExceeded):
            require_dense_bytes(DENSE_BYTES_CAP // 16 + 1, 1, "one past")

    def test_custom_unitary_wrong_shape_exit_2(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 2}},
            "gauge": {"group": "custom", "unitaries": [
                report.complex_array_payload(np.eye(2))]}})
        assert cli.main(["analyze", "--input", path]) == 2
        assert "shape" in capsys.readouterr().err

    def test_gauge_moving_the_charge_space_exit_2(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "flip", "params": {"n_modes": 4}},
            "gauge": {"group": "sun", "species": 2}})
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "--input", path, "--report",
                         str(out)]) == 2
        assert "error (input)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, t_norm", [(1.5e-4, 1e-4), (0.3, 0.2)])
    def test_ccr_pairing_member_characters_from_the_kappa_compression(
            self, tmp_path, scale, t_norm):
        # A u1-invariant generator with pairing between opposite charges,
        # after a shift by 2: T != 0, so the k frame is kappa-orthonormal
        # but not orthonormal, and k must be compressed with C F.
        charges = [1, -1] * 4
        v = random_member("ccr", 8, 2, 7, scale, charges=charges)
        gauge = {"group": "u1", "charges": charges, "samples": 8}
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input",
                         matrix_model(tmp_path, "ccr", v, gauge),
                         "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_data"]["t_norm"] == pytest.approx(t_norm, rel=0.5)
        frame = ccr.ccr_charge_data(ccr.ccr_membership(v)).k_frame
        dual = dense.charge_conjugation(v.codomain) @ frame
        u11 = sectors.GaugeAction("u1", 8, charges=charges).elements(8).u11
        eigs = [np.linalg.eigvals(dual.conj().T @ dense.extend_gauge(
            u, v.codomain) @ frame) for u in u11]
        for row in data["sector_table"]["levels"]:
            chars = row["characters"]
            got = np.array(chars["re"]) + 1j * np.array(chars["im"])
            want = [sum(math.prod(e[list(m)]) for m in
                        itertools.combinations_with_replacement(
                            range(len(e)), row["level"])) for e in eigs]
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("algebra, classes", [
        # k carries two copies of the defining representation of SU(2).
        ("car", [[0, 4], [1, 3], [2]]),
        ("ccr", [[0], [1], [2], [3], [4], [5]]),
    ])
    def test_sun_table_is_its_classes_without_annotations(self, tmp_path,
                                                          algebra, classes):
        path = write_model(tmp_path, "m.json", {
            "algebra": algebra,
            "isometry": {"builder": "shift", "params": {
                "n_sites_in": 3, "steps": 2, "species": 2}},
            "gauge": {"group": "sun", "species": 2, "samples": 50,
                      "seed": 7}})
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "--input", path, "--report",
                         str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["status"] == "ok"
        assert "annotations" not in data["sector_table"]
        assert data["sector_table"]["equivalence_classes"] == classes

    @pytest.mark.parametrize("gauge", [
        {"group": "u1", "charges": [1, 1, 1, 1]},
        {"group": "un", "species": 2},
        {"group": "sun", "species": 2},
    ], ids=["u1", "un", "sun"])
    def test_gauge_samples_over_the_dense_budget_exit_2_before_allocating(
            self, tmp_path, capsys, monkeypatch, gauge):
        def no_elements(*args, **kwargs):
            raise AssertionError("gauge elements built")

        monkeypatch.setattr(sectors.GaugeAction, "elements", no_elements)
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 3}},
            "gauge": dict(gauge, samples=10 ** 8)})
        assert cli.main(["analyze", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (input): gauge samples: a dense "
                              "400000000 x 4")

    def test_z2_index_ignores_the_membership_tolerance(self, tmp_path):
        # --tol loosens the membership test only; ker V11 of the identity
        # is still counted by the default rank rule, so the sign stays +1.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "identity", "params": {"n_modes": 3}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--tol", "2",
                         "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_data"]["z2_index"] == 1

    def test_loose_tol_is_the_one_membership_verdict(self, tmp_path):
        # 0.99 * 1 passes membership at --tol 2; the Z2 index must be read
        # off that member, not from a second test at the default tolerance.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"matrix": report.complex_array_payload(
                0.99 * np.eye(6))},
            "space": {"domain_modes": 3}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--tol", "2",
                         "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["membership"]["is_member"] is True
        assert data["charge_data"]["z2_index"] == 1

    @pytest.mark.parametrize("theta", [1.5707, 1.57075])
    def test_bogoliubov_near_the_dim_h_stratum(self, tmp_path, theta):
        # |T| ~ 1 / |theta - pi/2| grows here while dim h stays 0; P itself
        # is smooth, so both must come back from it.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "bogoliubov",
                         "params": {"theta": theta, "n_modes": 2}},
            "gauge": {"group": "u1", "charges": [1, 1]}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--report", out]) == 0
        charge = json.loads(open(out, encoding="utf-8").read())["charge_data"]
        assert charge["dim_h"] == 0
        assert charge["t_norm"] == pytest.approx(abs(math.tan(theta)),
                                                 rel=1e-10)

    @pytest.mark.parametrize("n_modes", [2, 4])
    @pytest.mark.parametrize("theta", [1.5708, 1.570796, math.pi / 2 - 1e-6,
                                       math.pi / 2 - 1e-9],
                             ids=["1.5708", "1.570796", "pi/2-1e-6",
                                  "pi/2-1e-9"])
    def test_bogoliubov_at_the_dim_h_stratum(self, tmp_path, theta, n_modes):
        # sigma(P11) = cos^2 theta is below the rank rule here, while the
        # singular values |cos theta| of P's K1 columns are not.
        charge = analyze_bogoliubov(tmp_path, theta, n_modes)
        assert charge["dim_h"] == 0
        assert charge["t_norm"] == pytest.approx(
            abs(math.tan(theta)), rel=1e-14 / abs(math.cos(theta)))

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_bogoliubov_on_the_dim_h_stratum(self, tmp_path, n_modes):
        charge = analyze_bogoliubov(tmp_path, math.pi / 2, n_modes)
        assert (charge["dim_h"], charge["t_norm"]) == (2, 0.0)

    def test_nonmember_exit_3_with_report(self, tmp_path):
        half = 0.5 * np.eye(4)
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"matrix": report.complex_array_payload(half)},
            "space": {"domain_modes": 2, "codomain_modes": 2}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--report", out]) == 3
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "not-in-semigroup"
        assert data["membership"]["is_member"] is False
        assert data["membership"]["failures"]


class TestOracle:

    def test_car_shift_implementers(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = cli.main(["oracle", "--input",
                         shift_car_model(tmp_path, gauge=False),
                         "--report", out])
        assert code == 0
        data = json.loads(open(out, encoding="utf-8").read())
        imp = data["implementers"]
        assert imp["count"] == 2 and imp["expected"] == 2
        assert imp["implementation"]["pass"] is True
        assert imp["implementation"]["value"] <= 1e-10
        assert data["charge_theorem"]["max_block_deviation"]["pass"] is True

    def test_bogoliubov_quarter_turn_after_shift(self, tmp_path):
        # bogoliubov(pi/4) after a shift: |T| = 1 and E P1 E = E/2 on
        # ker V*, yet both commands accept it and the implementers agree.
        v = builders.bogoliubov(math.pi / 4, 2) @ builders.shift(1)
        path = write_model(tmp_path, "m.json", {
            "algebra": "car", "gauge": {"group": "z2"},
            "isometry": {"matrix": report.complex_array_payload(v.matrix)},
            "space": {"domain_modes": 1, "codomain_modes": 2}})
        out = str(tmp_path / "r.json")
        assert cli.main(["analyze", "--input", path, "--report", out]) == 0
        charge = json.loads(open(out, encoding="utf-8").read())["charge_data"]
        assert (charge["index"], charge["dim_h"], charge["dim_k"]) == (2, 0, 1)
        assert charge["t_norm"] == pytest.approx(1.0, abs=1e-12)
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        imp = data["implementers"]
        assert imp["count"] == imp["expected"] == 2
        assert all(imp[key]["pass"] for key in ("intertwining", "isometry",
                                                 "completeness",
                                                 "implementation"))
        assert data["charge_theorem"]["max_block_deviation"]["pass"] is True

    @pytest.mark.parametrize("theta", [math.pi / 2 - 1e-6,
                                       math.pi / 2 - 1e-9],
                             ids=["pi/2-1e-6", "pi/2-1e-9"])
    def test_bogoliubov_at_the_dim_h_stratum(self, tmp_path, theta):
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "bogoliubov",
                         "params": {"theta": theta, "n_modes": 2}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        imp = json.loads(open(out, encoding="utf-8").read())["implementers"]
        assert all(imp[key]["pass"] for key in ("intertwining", "isometry",
                                                 "completeness",
                                                 "implementation"))

    def test_ccr_squeeze_prints_tail_bound(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "squeeze", "params": {"r": 0.5}}})
        out = str(tmp_path / "r.json")
        code = cli.main(["oracle", "--input", path, "--report", out,
                         "--bose-cutoff", "8"])
        assert code == 0
        text = capsys.readouterr().out
        assert "tail bound" in text
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["vacuum"]["tail"] < 1e-3
        cmp = data["charge_theorem"]["max_block_deviation"]
        assert cmp["pass"] is True
        assert cmp["tolerance"] == 1e-8
        assert data["implementer_probe"]["intertwining"]["tolerance"] == 1e-6

    @pytest.mark.parametrize("cutoff", [5, 8])
    def test_ccr_squeezed_shift_blockwise(self, tmp_path, cutoff):
        # A squeeze of the charge-0 mode after a shift: the vacuum has a
        # tail at both cutoffs, yet G^-1 M is exact on the truncated span.
        v = builders.squeeze(1.2, 3, 3) @ builders.shift(2)
        gauge = {"group": "u1", "charges": [1, 1, 0], "samples": 12}
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input",
                         matrix_model(tmp_path, "ccr", v, gauge),
                         "--bose-cutoff", str(cutoff), "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["vacuum"]["tail"] > 0.05
        theorem = data["charge_theorem"]
        assert theorem["levels"] == list(range(6))
        assert theorem["max_block_deviation"]["value"] <= 1e-12
        assert theorem["max_block_deviation"]["tolerance"] == 1e-8

    def test_ccr_squeeze_with_a_large_tail(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "squeeze", "params": {"r": 1.5}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out,
                         "--bose-cutoff", "5"]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["vacuum"]["tail"] > 0.29
        cmp = data["charge_theorem"]["max_block_deviation"]
        assert cmp["value"] <= 1e-12 and cmp["tolerance"] == 1e-8

    @pytest.mark.parametrize("model", [
        # U(2) on the species index mixes the pairs of a Bogoliubov rotation.
        {"algebra": "car",
         "isometry": {"builder": "bogoliubov",
                      "params": {"theta": 0.7, "n_modes": 6}},
         "gauge": {"group": "un", "species": 2, "seed": 3}},
        # A U(1) phase rotates the two-mode pairing of a squeeze.
        {"algebra": "ccr",
         "isometry": {"builder": "squeeze", "params": {"r": 0.5}},
         "gauge": {"group": "u1", "charges": [1], "samples": 4}},
    ], ids=["car-bogoliubov-un", "ccr-squeeze-u1"])
    def test_gauge_breaking_the_vacuum_exit_2(self, tmp_path, capsys, model):
        path = write_model(tmp_path, "m.json", model)
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report",
                         str(out)]) == 2
        assert "does not preserve the vacuum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algebra", ["car", "ccr"])
    def test_gauge_moving_the_charge_space_exit_2_before_any_fock_space(
            self, tmp_path, capsys, monkeypatch, algebra):
        # U(2) on the two modes of shift 1 -> 2 leaves the vacuum alone but
        # mixes k with the other mode; oracle refuses it as analyze does.
        path = write_model(tmp_path, "m.json", {
            "algebra": algebra,
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}},
            "gauge": {"group": "un", "species": 2}})
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "--input", path, "--report",
                         str(out)]) == 2
        refusal = capsys.readouterr().err
        assert refusal.startswith(
            "error (input): gauge does not preserve the charge spaces: ")

        def no_fock(*args, **kwargs):
            raise AssertionError("a Fock space was built")
        monkeypatch.setattr(oracle, "FermiFock", no_fock)
        monkeypatch.setattr(oracle, "BoseFock", no_fock)
        assert cli.main(["oracle", "--input", path, "--report",
                         str(out)]) == 2
        assert capsys.readouterr().err == refusal
        assert not out.exists()

    def test_failed_comparison_sets_fail_and_exit_4(self, tmp_path, capsys,
                                                    monkeypatch):
        def doubled(matrix, level):
            return 2.0 * compound_matrix(matrix, level)

        monkeypatch.setattr(oracle, "compound_matrix", doubled)
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", shift_car_model(tmp_path),
                         "--report", out]) == 4
        captured = capsys.readouterr()
        assert "max blockwise deviation" in captured.out
        assert "> 1e-8" in captured.out
        assert "charge_theorem.max_block_deviation" in captured.err
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "fail"
        assert data["charge_theorem"]["max_block_deviation"]["pass"] is False
        assert data["implementers"]["implementation"]["pass"] is True

    def test_failed_implementer_writes_report_and_exit_4(self, tmp_path,
                                                       capsys, monkeypatch):
        def scaled(*args):
            alphas, omegas = omega_alphas_fermi(*args)
            return alphas, [omegas[0] * (1.0 + 1e-6), *omegas[1:]]

        monkeypatch.setattr(oracle, "omega_alphas_fermi", scaled)
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input",
                         shift_car_model(tmp_path, gauge=False),
                         "--report", str(out)]) == 4
        assert "implementers.isometry" in capsys.readouterr().err
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["status"] == "fail"
        assert data["implementers"]["isometry"]["pass"] is False

    def test_ccr_shift_at_the_bosonic_cap(self, tmp_path):
        # Shift 3 -> 4 at the default cutoff 8: Fock dimension 9^4 = 6561.
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 3}}})
        out = str(tmp_path / "r.json")
        start = time.perf_counter()
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        assert time.perf_counter() - start < 10.0
        data = json.loads(open(out, encoding="utf-8").read())
        assert (data["caps"]["bose_cutoff"] + 1) ** 4 == BOSE_DIM_CAP
        assert data["status"] == "ok"
        assert data["vacuum"] == {"tail": 0.0}
        theorem = data["charge_theorem"]
        assert theorem["levels"] == list(range(6))
        assert theorem["max_block_deviation"]["value"] <= 1e-12

    @pytest.mark.parametrize("seed, scale, cutoff", [
        (7, 0.1, 5), (7, 0.1, 6), (3, 0.13, 5), (3, 0.13, 6)])
    def test_ccr_member_with_pairing_on_k(self, tmp_path, seed, scale,
                                          cutoff):
        # u1-invariant members whose pairing touches k's modes: the
        # normalised pi-monomials are exact on the truncated space, so the
        # charge theorem holds to rounding at any cutoff.
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input",
                         pairing_on_k_model(tmp_path, seed, scale),
                         "--bose-cutoff", str(cutoff), "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_theorem"]["max_block_deviation"]["value"] <= 1e-12

    def test_ccr_member_with_pairing_on_k_at_the_bosonic_cap(self, tmp_path):
        out = str(tmp_path / "r.json")
        start = time.perf_counter()
        assert cli.main(["oracle", "--input",
                         pairing_on_k_model(tmp_path, 7, 0.1),
                         "--report", out]) == 0
        assert time.perf_counter() - start < 10.0
        data = json.loads(open(out, encoding="utf-8").read())
        assert (data["caps"]["bose_cutoff"] + 1) ** 4 == BOSE_DIM_CAP
        assert data["charge_theorem"]["max_block_deviation"]["value"] <= 1e-12

    def test_wrong_level_1_ccr_target_fails_with_pairing_on_k(
            self, tmp_path, capsys, monkeypatch):
        original = oracle.symmetric_power

        def conjugated(matrix, level):
            power = original(matrix, level)
            return power.conj() if level == 1 else power

        monkeypatch.setattr(oracle, "symmetric_power", conjugated)
        assert cli.main(["oracle", "--input",
                         pairing_on_k_model(tmp_path, 7, 0.1),
                         "--bose-cutoff", "5"]) == 4
        assert ("charge_theorem.max_block_deviation"
                in capsys.readouterr().err)

    def test_car_shift_at_the_gamma_cap(self, tmp_path):
        # Shift 9 -> 10 with the default U(1) gauge: Fock dimension
        # 2^10 = 1024, the largest Gamma(U) the oracle builds.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 9}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        assert data["implementers"]["count"] == 2
        assert data["implementers"]["expected"] == 2
        assert data["charge_theorem"]["gauge"] == "u1"
        assert report.failed_comparisons(data) == []

    @pytest.mark.parametrize("cutoff", [-1, 0, 4])
    def test_bose_cutoff_below_the_checked_levels_exit_2(self, tmp_path,
                                                         capsys, cutoff):
        # Shift 3 -> 4 has dim k = 1, so charge levels up to 5 are checked.
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 3}}})
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report", str(out),
                         "--bose-cutoff", str(cutoff)]) == 2
        assert "--bose-cutoff must be at least 5" in capsys.readouterr().err
        assert not out.exists()

    def test_bose_cutoff_at_the_checked_levels(self, tmp_path):
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 3}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out,
                         "--bose-cutoff", "5"]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["charge_theorem"]["levels"] == list(range(6))

    def test_negative_bose_cutoff_without_charge_exit_2(self, tmp_path,
                                                        capsys):
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "squeeze", "params": {"r": 0.5}}})
        assert cli.main(["oracle", "--input", path,
                         "--bose-cutoff", "-2"]) == 2
        assert "--bose-cutoff must be at least 0" in capsys.readouterr().err

    def test_negative_bose_cutoff_on_car_exit_2(self, tmp_path, capsys):
        # The fermionic half reads no cutoff, but a negative one is refused
        # rather than written into the report's caps.
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", shift_car_model(tmp_path),
                         "--report", str(out), "--bose-cutoff", "-5"]) == 2
        assert ("--bose-cutoff must be at least 0, got -5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bose_cutoff_1_probes_below_the_cutoff(self, tmp_path):
        # The implementer probe window must stay below the truncation edge.
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "squeeze", "params": {"r": 0.5}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out,
                         "--bose-cutoff", "1"]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        assert report.failed_comparisons(data) == []
        assert data["implementer_probe"]["intertwining"]["pass"] is True

    def test_fock_cap_exit_2(self, tmp_path, capsys):
        # Shift 12 -> 13: the codomain's 2^13 states exceed FERMI_DIM_CAP.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 12}}})
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report", str(out)]) == 2
        assert ("fermionic dimension 2^13 = 8192 exceeds cap 4096"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_ccr_shift_above_the_bosonic_cap_exit_2(self, tmp_path, capsys):
        # Shift 5 -> 6 at the default cutoff 8: the codomain's 9^6 states
        # exceed BOSE_DIM_CAP, refused before any report is written.
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 5}}})
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report", str(out)]) == 2
        assert ("bosonic dimension 531441 exceeds cap 6561"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_fock_cap_flag_is_refused(self, tmp_path, capsys):
        # No --fock-cap option: argparse exits 2 on it.
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--input", shift_car_model(tmp_path),
                      "--fock-cap", "8"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --fock-cap 8"
                in capsys.readouterr().err)

    def test_car_shift_above_the_gamma_cap_exit_2_early(self, tmp_path,
                                                        capsys):
        # Shift 5 -> 6 with two species under U(2): dimension 4096 fits
        # FERMI_DIM_CAP, but its elements mix modes and need a dense
        # Gamma(U) above GAMMA_DIM_CAP; refused before any implementer.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift",
                         "params": {"n_sites_in": 5, "species": 2}},
            "gauge": {"group": "un", "species": 2, "samples": 4}})
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = cli.main(["oracle", "--input", path, "--report", str(out)])
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert ("Gamma on dimension 4096 exceeds cap 1024"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_car_shift_above_the_gamma_cap_with_phase_elements(self,
                                                               tmp_path):
        # Shift 10 -> 11 under the default U(1): dimension 2048 is above
        # GAMMA_DIM_CAP, but diagonal elements take phase vectors.
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 10}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        assert data["charge_theorem"]["gauge"] == "u1"
        assert data["implementers"]["count"] == 2

    def test_fock_cap_is_the_cap_of_each_statistics(self, tmp_path):
        # The bosonic space is held to BOSE_DIM_CAP, not the fermionic cap.
        ccr_shift = write_model(tmp_path, "ccr.json", {
            "algebra": "ccr",
            "isometry": {"builder": "shift", "params": {"n_sites_in": 1}}})
        for path, cap in ((shift_car_model(tmp_path, gauge=False),
                           FERMI_DIM_CAP), (ccr_shift, BOSE_DIM_CAP)):
            out = str(tmp_path / "r.json")
            assert cli.main(["oracle", "--input", path, "--report", out]) == 0
            data = json.loads(open(out, encoding="utf-8").read())
            assert data["caps"]["fock_cap"] == cap

    @pytest.mark.parametrize("model, flags, refusal", [
        # The cutoff is refused before the gauge, which is not diagonal; at
        # cutoff 5 the gauge is refused (test_ccr_gauge_element_mixing_...).
        ({"algebra": "ccr", "gauge": {"group": "sun", "species": 2},
          "isometry": {"builder": "shift",
                       "params": {"n_sites_in": 1, "species": 2}}},
         ["--bose-cutoff", "4"], "--bose-cutoff must be at least 5"),
        # The vacuum is refused before the dense Gamma(U) on 2^12 states.
        ({"algebra": "car", "gauge": {"group": "sun", "species": 2},
          "isometry": {"builder": "flip", "params": {"n_modes": 12}}},
         [], "does not preserve the vacuum"),
        ({"algebra": "car", "gauge": {"group": "sun", "species": 2},
          "isometry": {"builder": "shift",
                       "params": {"n_sites_in": 5, "species": 2}}},
         [], "Gamma on dimension 4096 exceeds cap 1024"),
    ], ids=["ccr-cutoff-4", "car-flip-12", "car-shift-5x2"])
    def test_first_refusal_of_a_model_failing_two(self, tmp_path, capsys,
                                                   model, flags, refusal):
        path = write_model(tmp_path, "m.json", model)
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report", str(out),
                         *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (input): ") and err.count("\n") == 1
        assert refusal in err
        assert not out.exists()

    @pytest.mark.parametrize("algebra", ["car", "ccr"])
    def test_zero_mode_model(self, tmp_path, algebra):
        path = write_model(tmp_path, "m.json", {
            "algebra": algebra,
            "isometry": {"builder": "identity", "params": {"n_modes": 0}}})
        out = str(tmp_path / "r.json")
        assert cli.main(["oracle", "--input", path, "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        assert data["charge_theorem"]["levels"] == [0]
        assert report.failed_comparisons(data) == []

    @pytest.mark.parametrize("gauge", [
        # SU(2) on the species index mixes modes.
        {"group": "sun", "species": 2, "samples": 4},
        # Diagonal means exactly diagonal: one 1e-300 entry mixes modes.
        {"group": "custom", "unitaries": [
            report.complex_array_payload(tiny_off_diagonal_unitary())]},
    ], ids=["sun", "custom-tiny-off-diagonal"])
    def test_ccr_gauge_element_mixing_modes_exit_2(self, tmp_path, capsys,
                                                   gauge):
        # Shift 1 -> 2 with two species: the per-mode cutoff keeps only
        # phase-diagonal gauge elements.
        path = write_model(tmp_path, "m.json", {
            "algebra": "ccr", "gauge": gauge,
            "isometry": {"builder": "shift",
                         "params": {"n_sites_in": 1, "species": 2}}})
        out = tmp_path / "r.json"
        assert cli.main(["oracle", "--input", path, "--report", str(out),
                         "--bose-cutoff", "5"]) == 2
        assert ("bosonic oracle supports phase-diagonal gauge elements only"
                in capsys.readouterr().err)
        assert not out.exists()


class TestMain:

    def test_consecutive_calls_with_different_subcommands(self, tmp_path):
        model = shift_car_model(tmp_path, gauge=False)
        runs = [
            (["analyze", "--input", model], "analyze"),
            (["dirac", "--cutoffs", "16,32"], "dirac"),
            (["oracle", "--input", model], "oracle"),
            (["analyze", "--input", model, "--algebra", "ccr"], "analyze"),
        ]
        for j, (argv, command) in enumerate(runs):
            out = str(tmp_path / f"r{j}.json")
            assert cli.main(argv + ["--report", out]) == 0
            data = json.loads(open(out, encoding="utf-8").read())
            assert data["command"] == command
        assert data["algebra"] == "ccr"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["analyze", "oracle", "dirac"])
    def test_tol_not_a_finite_positive_number_exit_2(self, tmp_path, capsys,
                                                     command, tol):
        # A 2-mode non-member: at --tol nan every defect comparison is
        # false, so without the check it would pass membership.
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = write_model(tmp_path, "m.json", {
            "algebra": "car",
            "isometry": {"matrix": report.complex_array_payload(matrix)},
            "space": {"domain_modes": 2}})
        argv = ([command, "--cutoffs", "16,32"] if command == "dirac"
                else [command, "--input", path])
        out = tmp_path / "r.json"
        assert cli.main(argv + [f"--tol={tol}", "--report", str(out)]) == 2
        assert "--tol must be a finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "oracle", "dirac"])
    def test_negative_seed_exit_2_before_the_command_runs(self, tmp_path,
                                                          capsys, command):
        # main checks --seed beside --tol, so dirac, which draws nothing,
        # refuses it too, and the seed is named before a missing model.
        argv = ([command, "--cutoffs", "16,32"] if command == "dirac"
                else [command, "--input", str(tmp_path / "missing.json")])
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--seed", "-1", "--report", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (input): --seed must be at least 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("target, reason", [
        ("absent/r.json", "No such file or directory"),
        (".", "Is a directory")])
    @pytest.mark.parametrize("command", ["analyze", "oracle", "dirac"])
    def test_unwritable_report_exit_2(self, tmp_path, capsys, command, target,
                                      reason):
        # The path is refused as input before the command runs, naming the
        # path, not a traceback; nothing is printed and nothing is created.
        argv = ([command, "--cutoffs", "16,32"] if command == "dirac"
                else [command, "--input", shift_car_model(tmp_path, False)])
        out = str(tmp_path / target)
        assert cli.main(argv + ["--report", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error (input): cannot write report {out!r}: {reason}\n")
        assert captured.out == ""
        assert not (tmp_path / "absent").exists()

    def test_report_under_a_file_is_refused_after_the_run(self, tmp_path,
                                                          capsys):
        # Other write errors still surface when the report is written.
        model = shift_car_model(tmp_path, False)
        out = f"{model}/r.json"
        assert cli.main(["analyze", "--input", model, "--report", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error (input): cannot write report {out!r}: Not a directory\n")
        assert "member of the car semigroup" in captured.out

    def test_replaced_command_is_the_one_called(self, tmp_path,
                                                monkeypatch):
        model = shift_car_model(tmp_path, gauge=False)
        # Parse once first, so a parser built before the patch is reused.
        assert cli.main(["analyze", "--input", model]) == 0
        seen = []

        def fake(args):
            seen.append((args.command, args.input))
            return 7

        monkeypatch.setattr(cli, "cmd_analyze", fake)
        assert cli.main(["analyze", "--input", model]) == 7
        assert seen == [("analyze", model)]


class TestOneMembershipTest:

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    @pytest.mark.parametrize("model", [
        {"algebra": "car",
         "isometry": {"builder": "identity", "params": {"n_modes": 3}}},
        {"algebra": "car",
         "isometry": {"builder": "shift", "params": {"n_sites_in": 2}}},
        {"algebra": "ccr",
         "isometry": {"builder": "shift", "params": {"n_sites_in": 1}}},
    ], ids=["car-identity", "car-shift", "ccr-shift"])
    def test_each_command_tests_membership_once(self, tmp_path, monkeypatch,
                                                command, model):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return selfdual.semigroup_membership(*args, **kwargs)

        monkeypatch.setattr(car, "semigroup_membership", counted)
        monkeypatch.setattr(ccr, "semigroup_membership", counted)
        path = write_model(tmp_path, "m.json", model)
        assert cli.main([command, "--input", path]) == 0
        assert len(calls) == 1


class TestDirac:

    def test_small_run_records_index_and_verdicts(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = cli.main(["dirac", "--cutoffs", "16,32,64", "--gauge-n", "2",
                         "--report", out])
        assert code == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["index"]["value"] == 1
        assert data["species_assembly"]["statistics_dimension"] == 4
        assert data["localization"]["residual"]["pass"] is True
        assert data["hs_study"]["verdicts"]["plus"] == "consistent-with-HS"
        assert set(data["window_diagnostics"]) == {"16", "32", "64"}
        for diag in data["window_diagnostics"].values():
            assert diag["row_normalization"]["pass"] is True

    def test_failed_window_diagnostic_sets_fail_and_exit_4(self, tmp_path,
                                                           capsys):
        out = str(tmp_path / "r.json")
        assert cli.main(["dirac", "--cutoffs", "8,16", "--report", out]) == 4
        assert ("window_diagnostics.8.gram_off_identity"
                in capsys.readouterr().err)
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "fail"
        assert data["window_diagnostics"]["8"]["gram_off_identity"][
            "pass"] is False

    def test_failed_localization_writes_report_and_exit_4(self, tmp_path,
                                                          capsys):
        out = tmp_path / "r.json"
        assert cli.main(["dirac", "--cutoffs", "16,32", "--tol", "1e-9",
                         "--report", str(out)]) == 4
        assert "localization.residual" in capsys.readouterr().err
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["status"] == "fail"
        assert data["localization"]["residual"]["pass"] is False
        assert set(data["localization"]["residual_by_cutoff"]) == {"16", "32"}

    def test_oversized_window_exit_2_before_allocating(self, capsys):
        assert cli.main(["dirac", "--cutoffs", "8,100000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (input): circle window: a dense "
                              "200000001 x 50000001")

    def test_oversized_window_exit_2_before_any_build(self, capsys):
        # 8192 fits the dense budget and 16384 does not: the largest window
        # is built first, so the refusal comes before the 8192 build.
        start = time.perf_counter()
        assert cli.main(["dirac", "--cutoffs", "8192,16384"]) == 2
        assert time.perf_counter() - start < 2.0
        assert "circle window: a dense 32769 x" in capsys.readouterr().err

    def test_out_of_order_cutoffs_exit_2(self):
        assert cli.main(["dirac", "--cutoffs", "64,32"]) == 2

    def test_bad_cutoff_token_exit_2(self):
        assert cli.main(["dirac", "--cutoffs", "32,fast"]) == 2

    @pytest.mark.parametrize("n", ["0", "-3", "100000"])
    def test_gauge_n_out_of_range_exit_2(self, n, capsys):
        assert cli.main(["dirac", "--cutoffs", "16,32", f"--gauge-n={n}"]) == 2
        assert "--gauge-n" in capsys.readouterr().err

    def test_window_2048_index_and_hs_verdicts(self, tmp_path):
        # Two cutoffs give the trend detector a single increment, which it
        # reports as inconclusive, so 512 joins the windows of interest.
        out = str(tmp_path / "r.json")
        assert cli.main(["dirac", "--cutoffs", "512,1024,2048",
                         "--gauge-n", "1", "--report", out]) == 0
        data = json.loads(open(out, encoding="utf-8").read())
        assert data["status"] == "ok"
        assert data["index"]["value"] == 1
        assert data["index"]["counts"] == {"1024": 1, "2048": 1}
        assert data["hs_study"]["verdicts"] == {
            "plus": "consistent-with-HS", "minus": "consistent-with-HS"}

    def test_window_4096_two_species(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["dirac", "--cutoffs", "1024,2048,4096",
                         "--gauge-n", "2", "--report", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["index"]["value"] == 1
        assert data["hs_study"]["verdicts"] == {
            "plus": "consistent-with-HS", "minus": "consistent-with-HS"}
        assert data["localization"]["residual"]["pass"] is True


class TestDeterminism:

    def test_analyze_reports_byte_identical(self, tmp_path):
        model = shift_car_model(tmp_path)
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert cli.main(["analyze", "--input", model, "--report", r1]) == 0
        assert cli.main(["analyze", "--input", model, "--report", r2]) == 0
        assert open(r1, "rb").read() == open(r2, "rb").read()

    def test_dirac_reports_byte_identical(self, tmp_path):
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert cli.main(["dirac", "--cutoffs", "32,64",
                         "--report", r1]) == 0
        assert cli.main(["dirac", "--cutoffs", "32,64",
                         "--report", r2]) == 0
        assert open(r1, "rb").read() == open(r2, "rb").read()

    @pytest.mark.parametrize("command", ["analyze", "oracle", "dirac"])
    def test_threads_flag_is_refused(self, tmp_path, capsys, command):
        # No --threads option: argparse exits 2 on it.
        argv = [command, "--threads", "2"]
        if command != "dirac":
            argv += ["--input", shift_car_model(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
