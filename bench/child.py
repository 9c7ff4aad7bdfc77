"""One benchmark run of a workload, in a process of its own.

Usage: python3 child.py WORK_DIR SECONDS TRACE

WORK_DIR holds the generated inputs and ``manifest.json``; commands run with
it as the working directory.  The child makes one untimed warm-up call, then
runs timed passes over the command list (a closed loop with one client:
each command starts when the previous one returns) until SECONDS have
passed.  Each command is timed around ``quasifree.cli.main(argv)`` alone;
reading and checking its report happens outside the timed region, and so
does the calibration kernel that samples the host's speed between commands
(see ``command_times`` in ``run.py``).  After the timed passes it runs each
known-defect probe once, untimed and checked apart from the workload's
commands.  With TRACE=1 it then installs the span wrappers and runs one more
pass, traced.
Results go to ``WORK_DIR/result.json`` and spans to ``WORK_DIR/spans.json``.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import check
import spans
from quasifree.cli import main

CALIBRATION_MATRIX = np.random.default_rng(0).normal(size=(120, 120))
CALIBRATION_INTERVAL_S = 0.25


def call(argv: list) -> int:
    """Exit code of one CLI call, as the console script would return it."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught traceback exits 1
            return 1


def run_pass(commands: list, checker: check.Checker) -> dict:
    """Run every command once, calibrating the host speed in between.

    Returns each command's time, the calibration points, and for each
    command the index of the calibration point just before it; the next
    point follows it.
    """
    gc.collect()
    times, segment, calibration = [], [], [calibrate()]
    since = 0.0
    for j, cmd in enumerate(commands):
        report = cmd["report"]
        if os.path.exists(report):
            os.remove(report)
        t0 = time.perf_counter()
        code = call(cmd["argv"])
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        segment.append(len(calibration) - 1)
        data = None
        if os.path.exists(report):
            with open(report, "rb") as handle:
                data = handle.read()
        checker.record(j, code, data)
        since += elapsed
        if since >= CALIBRATION_INTERVAL_S or j == len(commands) - 1:
            calibration.append(calibrate())
            since = 0.0
    return {"times": times, "segment": segment, "calibration": calibration}


def run_probes(probes: list) -> dict:
    """Reasons each known-defect probe still fails (empty once fixed)."""
    checker = check.Checker(probes)
    out = {}
    for j, cmd in enumerate(probes):
        code = call(cmd["argv"])
        data = None
        if os.path.exists(cmd["report"]):
            with open(cmd["report"], "rb") as handle:
                data = handle.read()
        out[cmd["label"]] = checker.record(j, code, data)
    return out


def calibration_kernel() -> None:
    """Fixed work mixing interpreter loops, small numpy calls and LAPACK."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    small = np.arange(16.0).reshape(4, 4) + 4.0 * np.eye(4)
    for _ in range(200):
        np.linalg.det(small)
    np.linalg.svd(CALIBRATION_MATRIX)


def calibrate() -> float:
    """Current speed of the host: the fastest of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
    }


def main_child(work_dir: str, seconds: float, trace: bool) -> None:
    os.chdir(work_dir)
    with open("manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    commands = manifest["commands"]
    checker = check.Checker(commands)

    call(manifest["warmup"])
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        passes.append(run_pass(commands, checker))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    known_defects = run_probes(manifest["known_defects"])

    traced = None
    if trace:
        recorder = spans.SpanRecorder()
        saved = spans.install(recorder)
        try:
            traced = run_pass(commands, checker)
        finally:
            spans.uninstall(saved)
        recorder.save("spans.json")

    result = {
        "passes": passes,
        "calibrated": manifest["calibrated"],
        "traced_pass": traced,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "known_defects": known_defects,
        "peak_rss_kb": peak_rss_kb,
        "environment": environment(),
    }
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main_child(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
