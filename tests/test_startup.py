"""What a fresh interpreter loads, and the CLI run as ``python -m``.

``import quasifree.cli`` loads numpy and the standard library only: the Fock
oracle (and with it scipy.sparse) is imported by the ``oracle`` command,
which loads no scipy.linalg for either algebra, and no other command loads
SciPy.  The circle model is imported by the ``dirac`` command alone.  Each
check starts a new interpreter and reads its ``sys.modules``; none of them
times anything.
"""

import json
import os
import subprocess
import sys

import pytest

import quasifree
from quasifree import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(quasifree.__file__)))

# Runs each argv (a JSON list of lists) through cli.main in one process and
# prints, after each, the exit code and the watched modules then loaded.
RUNNER = """
import contextlib, io, json, sys
from quasifree.cli import main

def watched():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m in ("quasifree.dirac", "quasifree.fock",
                           "quasifree.oracle"))

print(json.dumps(watched()))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, watched()]))
"""


def fresh_python(args: list, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def write_model(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def shift_model(tmp_path, algebra: str, n_sites_in: int) -> str:
    return write_model(tmp_path, f"{algebra}-shift-{n_sites_in}.json", {
        "label": f"{algebra}-shift", "algebra": algebra,
        "isometry": {"builder": "shift",
                     "params": {"n_sites_in": n_sites_in}}})


def run_fresh(argvs: list, cwd) -> tuple:
    """The watched modules at import, and (exit code, watched) per argv."""
    proc = fresh_python(["-c", RUNNER, json.dumps(argvs)], cwd)
    assert proc.returncode == 0, proc.stderr
    at_import, *after = (json.loads(line)
                         for line in proc.stdout.splitlines())
    return at_import, after


def test_each_command_loads_scipy_only_where_it_calls_it(tmp_path):
    identity = write_model(tmp_path, "identity.json", {
        "isometry": {"builder": "identity", "params": {"n_modes": 3}}})
    half = write_model(tmp_path, "half.json", {
        "isometry": {"matrix": {"shape": [2, 2], "re": [0.5, 0, 0, 0.5],
                                "im": [0, 0, 0, 0]}},
        "space": {"domain_modes": 1}})
    malformed = write_model(tmp_path, "malformed.json", {"isometry": 3})
    gauged = write_model(tmp_path, "gauged.json", {
        "isometry": {"builder": "shift", "params": {"n_sites_in": 2}},
        "gauge": {"group": "u1", "charges": [1, 1, 1], "samples": 4}})
    dirac_argv = ["dirac", "--cutoffs", "16,32"]
    # dirac runs last, so no earlier run can find the circle model loaded.
    runs = [
        (["analyze", "--input", identity], 0),
        (["analyze", "--input", half], 3),
        (["analyze", "--input", malformed], 2),
        (["analyze", "--input", gauged], 0),
        (["oracle", "--input", shift_model(tmp_path, "car", 2)], 0),
        (["oracle", "--input", shift_model(tmp_path, "ccr", 1),
          "--bose-cutoff", "5"], 0),
        (dirac_argv, 0),
    ]
    at_import, after = run_fresh([a for a, _ in runs], tmp_path)
    assert at_import == []
    codes = [code for code, _ in after]
    assert codes == [code for _, code in runs]
    # The four analyze runs, gauged or not: no SciPy, no circle model.
    for _, loaded in after[:4]:
        assert loaded == []
    # Both oracles load scipy.sparse and never scipy.linalg or dirac.
    for _, loaded in after[4:6]:
        assert {"quasifree.fock", "quasifree.oracle",
                "scipy.sparse"} <= set(loaded)
        assert "scipy.linalg" not in loaded
        assert "quasifree.dirac" not in loaded
    assert set(after[6][1]) - set(after[5][1]) == {"quasifree.dirac"}
    # dirac in a fresh interpreter: the circle model and no SciPy at all.
    assert run_fresh([dirac_argv], tmp_path) == (
        [], [[0, ["quasifree.dirac"]]])


@pytest.mark.parametrize("algebra, n_sites_in", [("car", 3), ("ccr", 1)],
                         ids=["car-shift-3-4", "ccr-shift-1-2"])
def test_python_m_oracle_matches_main(tmp_path, capsys, algebra, n_sites_in):
    # Under -m the CLI module runs as __main__; an import of quasifree.cli
    # would load a second copy, which -X importtime lists on stderr.
    model = shift_model(tmp_path, algebra, n_sites_in)
    out = tmp_path / "r.json"
    argv = ["oracle", "--input", model, "--report", str(out)]
    proc = fresh_python(["-X", "importtime", "-m", "quasifree.cli", *argv],
                        tmp_path)
    lines = proc.stderr.splitlines(keepends=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in lines
                if line.startswith("import time:")]
    stderr = "".join(line for line in lines
                     if not line.startswith("import time:"))
    assert "quasifree.oracle" in imported
    assert "quasifree.cli" not in imported
    module_run = (proc.returncode, out.read_bytes(), proc.stdout, stderr)
    out.unlink()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert module_run == (code, out.read_bytes(), captured.out, captured.err)
    assert code == 0
