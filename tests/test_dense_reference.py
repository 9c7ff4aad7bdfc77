"""`analyze` gives the same bytes with J and C as index operations or dense.

Each case runs `analyze` twice: as shipped, and with the toolkit's J and C
primitives replaced by the dense products of `dense_selfdual`.  Report,
exit code, stdout and stderr must be identical.  A change that lets the
charge pipelines drift at rounding level shows here first.
"""

import json
import sys

import pytest

import dense_selfdual as dense
from quasifree import builders, car, ccr, cli, report, sectors, selfdual
from test_random_members import random_member


def shift_model(algebra: str, n_sites_in: int) -> dict:
    return {"label": f"{algebra}-shift-{n_sites_in}", "algebra": algebra,
            "isometry": {"builder": "shift",
                         "params": {"n_sites_in": n_sites_in}},
            "gauge": {"group": "u1", "samples": 10,
                      "charges": [(i % 5) - 2
                                  for i in range(n_sites_in + 1)]}}


def explicit_model(label: str, algebra: str, v) -> dict:
    return {"label": label, "algebra": algebra,
            "isometry": {"matrix": report.complex_array_payload(v.matrix)},
            "space": {"domain_modes": v.domain.n_modes,
                      "codomain_modes": v.codomain.n_modes}}


CASES = {
    "car-shift-60-61-u1": lambda: shift_model("car", 60),
    "ccr-shift-60-61-u1": lambda: shift_model("ccr", 60),
    "squeeze-after-shift": lambda: explicit_model(
        "squeeze-shift", "ccr",
        builders.squeeze(0.4, 2, 2) @ builders.shift(1)),
    "car-random-member": lambda: explicit_model(
        "car-random", "car", random_member("car", 10, 1, seed=11,
                                           scale=0.9)),
    "ccr-random-index-2": lambda: explicit_model(
        "ccr-random-2", "ccr", random_member("ccr", 10, 1, seed=12,
                                             scale=0.3)),
    "ccr-random-index-4": lambda: explicit_model(
        "ccr-random-4", "ccr", random_member("ccr", 10, 2, seed=13,
                                             scale=0.3)),
}


# Every module that binds a primitive, so the patch reaches every caller.
PATCHED = {"conjugate_matrix": (selfdual, builders, car, ccr),
           "kappa_sign": (selfdual, ccr, sectors)}


def run_analyze(tmp_path, capsys, name: str) -> tuple:
    model = tmp_path / "model.json"
    model.write_text(json.dumps(CASES[name]()), encoding="utf-8")
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--input", str(model), "--report", str(out)])
    captured = capsys.readouterr()
    return code, out.read_bytes(), captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_bytes_match_the_dense_reference(tmp_path, capsys,
                                                 monkeypatch, name):
    shipped = run_analyze(tmp_path, capsys, name)
    assert shipped[0] == 0
    for attr, modules in PATCHED.items():
        for module in modules:
            monkeypatch.setattr(module, attr, getattr(dense, attr))
    assert run_analyze(tmp_path, capsys, name) == shipped


def test_patched_modules_are_all_that_bind_a_primitive():
    for attr, modules in PATCHED.items():
        original = getattr(selfdual, attr)
        holders = {name for name, module in sys.modules.items()
                   if name.startswith("quasifree.")
                   and any(value is original for value in vars(module).values())}
        assert holders == {module.__name__ for module in modules}
