"""Malformed model files exit 2 with a message, never with a traceback."""

import copy
import json
import math
import time
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
    # A gauge list that is not a list: once "bad gauge block: 'NoneType'
    # object is not iterable", naming no field.
    "u1-charges-null": car_model(SHIFT, gauge={"group": "u1",
                                               "charges": None}),
    "u1-charges-number": car_model(SHIFT, gauge={"group": "u1",
                                                 "charges": 5}),
    "custom-unitaries-number": car_model(
        {"builder": "identity", "params": {"n_modes": 1}},
        gauge={"group": "custom", "unitaries": 5}),
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


@pytest.mark.parametrize("name, field", [
    ("u1-charges-null", "gauge charges must be a list, got None"),
    ("u1-charges-number", "gauge charges must be a list, got 5"),
    ("custom-unitaries-number", "gauge unitaries must be a list, got 5"),
])
def test_a_gauge_list_that_is_not_a_list_names_its_field(tmp_path, capsys,
                                                         name, field):
    path = write_model(tmp_path, MALFORMED[name])
    assert cli.main(["analyze", "--input", path]) == 2
    assert field in capsys.readouterr().err


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


# --- every scalar field at its bounds and beyond --------------------------------

U1_SHIFT = car_model({"builder": "shift", "params": {"n_sites_in": 2}},
                     gauge={"group": "u1", "charges": [1, 1, 1], "samples": 3,
                            "seed": 1})
UN_SHIFT = car_model({"builder": "shift", "params": {"n_sites_in": 2}},
                     gauge={"group": "un", "species": 1, "samples": 2,
                            "seed": 1})
EXPLICIT = car_model({"matrix": matrix_payload(np.eye(4)[:, [1, 3]])},
                     space={"domain_modes": 1, "codomain_modes": 2})
BUILDERS = {
    "identity": ("car", {"n_modes": 2}),
    "shift": ("car", {"n_sites_in": 2, "steps": 1, "species": 1}),
    "flip": ("car", {"n_modes": 2, "mode": 1}),
    "bogoliubov": ("car", {"theta": 0.3, "n_modes": 2}),
    "squeeze": ("ccr", {"r": 0.5, "n_modes": 2, "mode": 1}),
}
# The bounds each builder states, as (least, most); other fields have none.
BUILDER_BOUNDS = {("shift", "n_sites_in"): (1, None),
                  ("shift", "steps"): (1, None),
                  ("shift", "species"): (1, None),
                  ("flip", "mode"): (1, 2), ("squeeze", "mode"): (1, 2),
                  ("bogoliubov", "n_modes"): (2, None)}
EXTREMES = [2 ** 63, 2 ** 64, -2 ** 63 - 1, 1e300, -0.0, True, "3", None]


def draws(least=None, most=None) -> list:
    """least - 1, least, most, most + 1 where defined, then EXTREMES."""
    near = ([least - 1, least] if least is not None else []) + (
        [most, most + 1] if most is not None else [])
    return near + EXTREMES


def field_cases() -> list:
    """(id, base model, key path of the field, its name, value) per draw."""
    fields = [
        ("gauge-samples", U1_SHIFT, ("gauge", "samples"), "samples",
         draws(least=1)),
        ("gauge-seed", UN_SHIFT, ("gauge", "seed"), "seed", draws(least=0)),
        ("gauge-species", UN_SHIFT, ("gauge", "species"), "species",
         draws(least=1)),
        ("u1-charge", U1_SHIFT, ("gauge", "charges", 1), "charge",
         draws(least=-2 ** 53, most=2 ** 53)),
        ("domain_modes", EXPLICIT, ("space", "domain_modes"), "domain_modes",
         EXTREMES),
        ("codomain_modes", EXPLICIT, ("space", "codomain_modes"),
         "codomain_modes", EXTREMES),
        ("shape-entry", EXPLICIT, ("isometry", "matrix", "shape", 0), "shape",
         EXTREMES),
    ]
    for name, (algebra, params) in BUILDERS.items():
        base = {"algebra": algebra,
                "isometry": {"builder": name, "params": params}}
        for key in params:
            fields.append((f"{name}-{key}", base, ("isometry", "params", key),
                           key, draws(*BUILDER_BOUNDS.get((name, key),
                                                          (None, None)))))
    return [(f"{label}={value!r}", base, where, field, value)
            for label, base, where, field, values in fields
            for value in values]


def with_value(base: dict, where: tuple, value) -> dict:
    model = copy.deepcopy(base)
    parent = model
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return model


def check_run(argv: list, report_path, capsys) -> tuple:
    """Run the CLI; an exit 2 is one input-error line and writes no report."""
    code = cli.main(argv + ["--report", str(report_path)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2:
        assert err.startswith("error (input): ") and err.count("\n") == 1, err
        assert not report_path.exists()
    report_path.unlink(missing_ok=True)
    return code, err


def test_every_scalar_field_at_its_bounds(tmp_path, capsys):
    start = time.perf_counter()
    runs = 0
    for label, base, where, field, value in field_cases():
        path = write_model(tmp_path, with_value(base, where, value))
        for command in ("analyze", "oracle"):
            code, err = check_run([command, "--input", path],
                                  tmp_path / "r.json", capsys)
            runs += 1
            if value is None or isinstance(value, (bool, str)):
                assert code == 2 and field in err, (label, command, err)
    flags = [(["analyze", "--input", write_model(tmp_path, UN_SHIFT)],
              "--seed", draws(least=0)),
             (["oracle", "--input", write_model(tmp_path, UN_SHIFT)],
              "--seed", draws(least=0)),
             (["dirac", "--cutoffs", "16,32"], "--gauge-n",
              draws(least=1, most=1024))]
    ccr_shift = tmp_path / "ccr.json"  # dim k = 1: levels 0..5 are checked
    ccr_shift.write_text(json.dumps({"algebra": "ccr", "isometry": {
        "builder": "shift", "params": {"n_sites_in": 1}}}), encoding="utf-8")
    for path, least in ((write_model(tmp_path, U1_SHIFT), 0),
                        (str(ccr_shift), 5)):
        flags.append((["oracle", "--input", path], "--bose-cutoff",
                      draws(least=least)))
    for argv, flag, values in flags:
        for value in values:
            if value is None:
                continue  # a flag has no null
            text = str(value)
            if isinstance(value, (bool, float)):
                # Not integer text: argparse refuses it, naming the flag.
                with pytest.raises(SystemExit) as stop:
                    cli.main(argv + [f"{flag}={text}"])
                assert stop.value.code == 2
                assert flag in capsys.readouterr().err
            else:
                check_run(argv + [f"{flag}={text}"], tmp_path / "r.json",
                          capsys)
            runs += 1
    assert runs >= 300
    assert time.perf_counter() - start < 20.0
