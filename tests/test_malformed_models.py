"""Malformed model files exit 2 with a message, never with a traceback."""

import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifree import cli, report


def matrix_payload(m) -> dict:
    return report.complex_array_payload(np.asarray(m, dtype=complex))


SHIFT = {"builder": "shift", "params": {"n_sites_in": 2}}
EYE_2 = {"matrix": matrix_payload(np.eye(2)), "space": {"domain_modes": 1}}


def car_model(isometry: dict, **extra) -> dict:
    model = {"algebra": "car", "isometry": copy.deepcopy(isometry)}
    model.update(copy.deepcopy(extra))
    return model


def explicit_eye_2(**changes) -> dict:
    """The 1-mode identity as an explicit matrix, with fields replaced."""
    matrix = dict(EYE_2["matrix"], **changes.pop("matrix", {}))
    space = dict(EYE_2["space"], **changes.pop("space", {}))
    return car_model({"matrix": matrix}, space=space)


MALFORMED = {
    "space-not-an-object": car_model(
        {"matrix": EYE_2["matrix"]}, space=[]),
    "shape-not-integers": explicit_eye_2(matrix={"shape": "ab"}),
    "domain-modes-not-an-integer": explicit_eye_2(
        space={"domain_modes": "x"}),
    "re-not-numeric": explicit_eye_2(matrix={"re": ["one", 0.0, 0.0, 1.0]}),
    "nan-entry": explicit_eye_2(matrix={"re": [math.nan, 0.0, 0.0, 1.0]}),
    "infinite-entry": explicit_eye_2(matrix={"im": [0.0, math.inf, 0.0,
                                                    0.0]}),
    "squeeze-nan": {"algebra": "ccr", "isometry": {
        "builder": "squeeze", "params": {"r": "nan"}}},
    "builder-size-infinite": car_model(
        {"builder": "identity", "params": {"n_modes": math.inf}}),
    "builder-over-dense-budget": car_model(
        {"builder": "shift", "params": {"n_sites_in": 10_000_000}}),
    "builder-params-not-an-object": car_model(
        {"builder": "identity", "params": [3]}),
    "custom-element-not-unitary": car_model(
        {"builder": "identity", "params": {"n_modes": 1}},
        gauge={"group": "custom", "unitaries": [matrix_payload([[2.0]])]}),
    "custom-element-nan": car_model(
        {"builder": "identity", "params": {"n_modes": 1}},
        gauge={"group": "custom",
               "unitaries": [matrix_payload([[math.nan]])]}),
    "gauge-seed-negative": car_model(
        SHIFT, gauge={"group": "un", "species": 1, "seed": -1}),
    "gauge-samples-infinite": car_model(
        SHIFT, gauge={"group": "u1", "charges": [1, 1, 1],
                      "samples": math.inf}),
    # Integer fields take JSON integers and integral floats only; each of
    # these was once truncated to an integer and analyzed.
    "builder-size-fractional": car_model(
        {"builder": "shift", "params": {"n_sites_in": 2.9}}),
    "builder-steps-bool": car_model(
        {"builder": "shift", "params": {"n_sites_in": 2, "steps": True}}),
    "u1-charges-fractional": car_model(
        SHIFT, gauge={"group": "u1", "charges": [0.5, 1.7, -0.2]}),
    "gauge-samples-fractional": car_model(
        SHIFT, gauge={"group": "u1", "charges": [1, 1, 1], "samples": 3.9}),
    "gauge-seed-string": car_model(
        SHIFT, gauge={"group": "un", "species": 1, "seed": "7"}),
    "gauge-species-fractional": car_model(
        SHIFT, gauge={"group": "un", "species": 1.5}),
    "domain-modes-fractional": explicit_eye_2(space={"domain_modes": 1.5}),
    "shape-fractional": explicit_eye_2(matrix={"shape": [2.9, 2]}),
    # Float fields take finite JSON numbers only; the string and the bool
    # were once read with float() and analyzed.
    "bogoliubov-theta-string": car_model(
        {"builder": "bogoliubov", "params": {"theta": "0.3"}}),
    "bogoliubov-theta-bool": car_model(
        {"builder": "bogoliubov", "params": {"theta": True}}),
    "squeeze-r-infinite": {"algebra": "ccr", "isometry": {
        "builder": "squeeze", "params": {"r": float("1e999")}}},
    # cosh(800) overflows: refused before numpy warns on stderr.
    "squeeze-r-overflow": {"algebra": "ccr", "isometry": {
        "builder": "squeeze", "params": {"r": 800}}},
    # u1 charges beyond 2^53 are not exact floats; 1e20 and those beyond the
    # int64 range once exited 1 with a TypeError traceback.
    **{f"u1-charge-{label}": car_model(
        SHIFT, gauge={"group": "u1", "charges": [1, charge, 1]})
       for label, charge in [("1e20", 1e20), ("2^64", 2 ** 64),
                             ("-2^63-1", -2 ** 63 - 1),
                             ("2^53+1", 2 ** 53 + 1)]},
}


def write_model(tmp_path, payload) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_model_exit_2(tmp_path, capsys, name, command):
    path = write_model(tmp_path, MALFORMED[name])
    assert cli.main([command, "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error (input): ")


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_model_exit_2_without_a_warning(tmp_path, capsys, name,
                                                 command):
    path = write_model(tmp_path, MALFORMED[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error (input): ")


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_model_writes_no_report(tmp_path, capsys, name, command):
    path = write_model(tmp_path, MALFORMED[name])
    report_path = tmp_path / "r.json"
    assert cli.main([command, "--input", path, "--report",
                     str(report_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not report_path.exists()


def test_u1_charge_of_2_53_accepted(tmp_path):
    path = write_model(tmp_path, car_model(
        SHIFT, gauge={"group": "u1", "charges": [1, 2 ** 53, -2 ** 53]}))
    assert cli.main(["analyze", "--input", path]) == 0


def test_integral_float_fields_accepted(tmp_path):
    path = write_model(tmp_path, car_model(
        {"builder": "shift", "params": {"n_sites_in": 2.0, "steps": 1.0}},
        gauge={"group": "u1", "charges": [1.0, -1, 0.0], "samples": 4.0,
               "seed": 0.0}))
    assert cli.main(["analyze", "--input", path]) == 0


def test_unitary_custom_element_accepted(tmp_path):
    u = np.array([[0.6 + 0.8j]])
    path = write_model(tmp_path, car_model(
        {"builder": "identity", "params": {"n_modes": 1}},
        gauge={"group": "custom", "unitaries": [matrix_payload(u)]}))
    assert cli.main(["analyze", "--input", path]) == 0


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_negative_seed_option_exit_2(tmp_path, capsys, command):
    path = write_model(tmp_path, car_model(
        SHIFT, gauge={"group": "un", "species": 1}))
    assert cli.main([command, "--input", path, "--seed", "-1"]) == 2
    assert "--seed must be at least 0" in capsys.readouterr().err


# --- property: any mutation of a valid model file -----------------------------

# Valid models to mutate.  A mutation writes integers of at most 3 into at
# most two fields, so the largest builder is shift 2 -> 5 with 3 species:
# 15 modes.
BASES = [
    car_model({"builder": "shift",
               "params": {"n_sites_in": 2, "steps": 1, "species": 1}},
              gauge={"group": "u1", "charges": [1, 1, 1], "samples": 3,
                     "seed": 1}),
    {"algebra": "ccr", "isometry": {"builder": "squeeze",
                                    "params": {"r": 0.5, "n_modes": 2}},
     "gauge": {"group": "z2"}},
    car_model({"matrix": matrix_payload(np.eye(4)[:, [1, 3]])},
              space={"domain_modes": 1, "codomain_modes": 2},
              gauge={"group": "custom",
                     "unitaries": [matrix_payload(np.eye(2))]}),
    {"algebra": "ccr", "isometry": {"builder": "shift",
                                    "params": {"n_sites_in": 1}},
     "gauge": {"group": "un", "species": 1, "samples": 2}},
    car_model({"builder": "bogoliubov", "params": {"theta": 0.3}},
              gauge={"group": "sun", "species": 2, "samples": 2}),
]

WORDS = ["identity", "shift", "flip", "bogoliubov", "squeeze", "dirac-v",
         "car", "ccr", "u1", "un", "sun", "z2", "custom", "re", "im",
         "shape", "matrix", "builder", "params", "n_modes", "window"]

LEAVES = (st.none() | st.booleans() | st.integers(-2, 3)
          | st.floats(-3.0, 3.0)
          | st.sampled_from([math.nan, math.inf, -math.inf])
          | st.sampled_from(WORDS) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(WORDS), inner,
                                     max_size=3)),
    max_leaves=6)


def paths(node, prefix=()):
    """Key paths of every node below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_models(draw):
    model = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(list(paths(model))))
        parent = model
        for key in where[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = draw(JSON_VALUES)
    return model


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_models())
def test_mutated_model_never_raises(tmp_path, model):
    path = write_model(tmp_path, model)
    assert cli.main(["analyze", "--input", path]) in (0, 2, 3, 4)
