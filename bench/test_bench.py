"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    path = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _same_tree(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(work_dir, workload):
    first, second, other = (os.path.join(work_dir, d) for d in "abc")
    workloads.generate(workload, 7, first)
    workloads.generate(workload, 7, second)
    workloads.generate(workload, 8, other)
    assert _same_tree(first, second)
    assert not _same_tree(first, other)


def test_analyze_sweep_composition(work_dir):
    commands = workloads.generate("analyze-sweep", 3, work_dir)
    exits = [cmd["expect"]["exit"] for cmd in commands]
    assert 100 <= len(commands) <= 200
    assert 0.05 <= exits.count(3) / len(commands) <= 0.15
    labels = {cmd["label"] for cmd in commands}
    assert not labels & set(workloads.ITEM4_LABELS)
    with open(os.path.join(work_dir, "manifest.json")) as handle:
        probes = json.load(handle)["known_defects"]
    assert [p["label"] for p in probes] == list(workloads.ITEM4_LABELS)
    assert all(p["expect"] == {"exit": 2} for p in probes)


def _report(**fields) -> bytes:
    base = {"command": "oracle", "status": "ok",
            "implementers": {"count": 2, "isometry": {
                "value": 1e-14, "tolerance": 1e-10, "pass": True}}}
    base.update(fields)
    return json.dumps(base).encode()


def test_checker_flags_failures():
    commands = [{"label": "good", "expect": {"exit": 0, "implementers": 2}},
                {"label": "planted", "expect": {"exit": 0}},
                {"label": "wrong-exit", "expect": {"exit": 2}},
                {"label": "count", "expect": {"exit": 0, "implementers": 4}},
                {"label": "drift", "expect": {"exit": 0}}]
    checker = check.Checker(commands)
    assert checker.record(0, 0, _report()) == []
    planted = _report(theorem={"value": 0.2, "tolerance": 1e-8,
                               "pass": False})
    assert checker.record(1, 0, planted) == [
        "comparison failed at /theorem"]
    assert checker.record(2, 1, None) == ["exit 1 != expected 2"]
    assert checker.record(3, 0, _report()) == ["implementer count 2 != 4"]
    assert checker.record(4, 0, _report()) == []
    assert checker.record(4, 0, _report(seed=1)) == [
        "report differs from the first run's bytes"]
    assert checker.record(0, 0, _report()) == []
    assert (checker.attempted, checker.failed) == (7, 4)


def test_checker_statistics_law():
    expect = {"exit": 0, "index": 4}
    report = {"command": "analyze", "status": "ok", "algebra": "car",
              "charge_data": {"index": 4, "statistics_dimension": 4}}
    assert check.check_report(expect, report) == []
    report["charge_data"]["statistics_dimension"] = 2
    assert check.check_report(expect, report)
    report.update(algebra="ccr")
    report["charge_data"]["statistics_dimension"] = "infinite"
    assert check.check_report(expect, report) == []


def test_layer_stats_self_time():
    # cli.main [0, 10] -> car.f [1, 5] -> selfdual.g [2, 3] (raises, caught
    # by car.f) and a recursive car.f [6, 9] -> car.f [7, 8].
    recorded = {"names": ["cli.main", "car.f", "selfdual.g"],
                "name": [0, 1, 2, 1, 1],
                "start": [0.0, 1.0, 2.0, 6.0, 7.0],
                "end": [10.0, 5.0, 3.0, 9.0, 8.0],
                "parent": [-1, 0, 1, 0, 3],
                "out_bytes": [0, 16, 0, 8, 8],
                "error": [0, 0, 1, 0, 0]}
    stats = spans.layer_stats(recorded)
    assert stats["cli.self_s"] == 10.0 - 4.0 - 3.0
    assert stats["car.self_s"] == (4.0 - 1.0) + (3.0 - 1.0) + 1.0
    assert stats["selfdual.self_s"] == 1.0
    assert stats["car.f.s"] == 4.0 + 3.0
    assert stats["car.f.calls"] == 3
    assert stats["car.f.out_bytes"] == 32
    assert stats["selfdual.errors"] == 1
    assert stats["car.errors"] == 0


def _run_commands(commands, cwd) -> list:
    from quasifree.cli import main

    out = []
    for argv, report in commands:
        with contextlib.redirect_stdout(open(os.devnull, "w")):
            code = main(argv)
        with open(os.path.join(cwd, report), "rb") as handle:
            out.append((code, handle.read()))
        os.remove(os.path.join(cwd, report))
    return out


def test_traced_and_untraced_reports_identical(work_dir, monkeypatch):
    model = {"label": "tiny", "algebra": "car", "isometry": {
        "builder": "shift", "params": {"n_sites_in": 2, "steps": 1,
                                       "species": 2}},
        "gauge": {"group": "un", "species": 2, "samples": 3, "seed": 1}}
    with open(os.path.join(work_dir, "m.json"), "w") as handle:
        json.dump(model, handle)
    monkeypatch.chdir(work_dir)
    commands = [
        (["analyze", "--input", "m.json", "--report", "a.json"], "a.json"),
        (["analyze", "--input", "m.json", "--algebra", "ccr", "--report",
          "c.json"], "c.json"),
        (["oracle", "--input", "m.json", "--report", "o.json"], "o.json"),
        (["dirac", "--cutoffs", "16,32", "--report", "d.json"], "d.json"),
    ]
    import quasifree.cli
    import quasifree.fock
    original_main = quasifree.cli.main
    original_hs_norm = quasifree.fock.hs_norm

    untraced = _run_commands(commands, work_dir)
    recorder = spans.SpanRecorder()
    saved = spans.install(recorder)
    try:
        assert quasifree.fock.hs_norm is not original_hs_norm
        traced = _run_commands(commands, work_dir)
    finally:
        spans.uninstall(saved)
    assert quasifree.cli.main is original_main
    assert quasifree.fock.hs_norm is original_hs_norm
    assert [code for code, _ in untraced] == [0, 0, 0, 0]
    assert traced == untraced

    recorder.save("spans.json")
    with open("spans.json") as handle:
        stats = spans.layer_stats(json.load(handle))
    for layer in spans.LAYERS:
        assert stats[f"{layer}.self_s"] > 0, layer
    assert stats["fock.FermiFock.gamma.calls"] == 3
    assert stats["fock.FermiFock.gamma.out_bytes"] == 3 * 64 * 64 * 16
    assert stats["selfdual.hs_norm.calls"] > 0


def test_run_refuses_without_sources(work_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    shutil.copytree(BENCH_DIR, os.path.join(work_dir, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-bose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_times_rescale_calibrated_workloads():
    import run

    passes = [{"times": [1.0, 2.0], "segment": [0, 1],
               "calibration": [run.CALIBRATION_REF_S,
                               3 * run.CALIBRATION_REF_S,
                               run.CALIBRATION_REF_S]}]
    assert run.command_times(passes, False) == [[1.0, 2.0]]
    assert run.command_times(passes, True) == [[0.5, 1.0]]
