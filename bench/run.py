"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-sweep --seed 1 --seconds 10 \
        --trace 0

The run generates the workload's inputs from the seed, measures the set-up
time (a fresh interpreter importing ``quasifree.cli``), then starts a child
process that times the CLI in-process on the generated inputs and checks
every output (see ``child.py`` and ``check.py``).  It prints every metric by
name with its unit, then the environment, and last one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the child adds a traced pass and the metrics are the
per-layer ones.  The program is run from ``src/`` of this checkout, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0
SETUP_REPEATS = 5
P90_MIN_COMMANDS = 100
# Calibration kernel time on the reference host (2-core x86-64, OpenBLAS
# 0.3.31); timings are reported as if measured at that speed.
CALIBRATION_REF_S = 0.0095
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
             "cmds_per_s": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quasifree.cli; "
                "t = time.perf_counter() - t; import quasifree; "
                "print(repr(t)); print(quasifree.__file__)")


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def measure_setup(work_dir: str, deadline: float) -> list[float]:
    """Import times of quasifree.cli in fresh interpreters (first one dropped).

    The dropped first import also compiles the bytecode cache.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              cwd=work_dir, env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importing quasifree.cli failed:\n{proc.stderr}")
        seconds, origin = proc.stdout.split("\n")[:2]
        if not os.path.abspath(origin).startswith(SRC + os.sep):
            raise BenchError(f"quasifree imported from {origin}, not {SRC}")
        times.append(float(seconds))
    return times[1:]


def run_child(work_dir: str, seconds: int, trace: bool,
              deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), work_dir,
           str(seconds), "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=work_dir, env=child_env(),
                          capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"child run failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    with open(os.path.join(work_dir, "result.json"), encoding="utf-8") as f:
        return json.load(f)


def source_identity() -> dict:
    """Git sha when this checkout is a git work tree, and a hash of src/."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    sha = "unknown: not a git checkout"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def command_times(passes: list[dict], calibrated: bool) -> list[list[float]]:
    """Command times per pass, rescaled to the reference host speed when the
    workload is calibrated.

    The shared host's speed drifts by a quarter in phases of seconds to
    minutes, and interpreter-bound work follows it.  The child therefore
    runs a fixed calibration kernel between commands (at least every
    quarter second of command time).  For a calibrated workload each
    command's time is multiplied by CALIBRATION_REF_S over the mean of the
    two calibration points around it.
    """
    if not calibrated:
        return [p["times"] for p in passes]
    out = []
    for p in passes:
        cal = p["calibration"]
        out.append([t * 2.0 * CALIBRATION_REF_S / (cal[s] + cal[s + 1])
                    for t, s in zip(p["times"], p["segment"])])
    return out


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample counts behind them."""
    passes = command_times(result["passes"], result["calibrated"])
    per_command = [statistics.median(times) for times in zip(*passes)]
    wall = statistics.mean(sum(p) for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cmd_p50_s": statistics.median(per_command),
        "cmds_per_s": len(per_command) / wall,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "error_rate": result["failed"] / result["attempted"],
    }
    if len(per_command) >= P90_MIN_COMMANDS:
        values["cmd_p90_s"] = statistics.quantiles(
            per_command, n=10, method="inclusive")[-1]
    executions = len(per_command) * len(passes)
    counts = {"setup_s": len(setup), "wall_s": len(passes),
              "cmd_p50_s": executions, "cmd_p90_s": executions,
              "cmds_per_s": executions, "error_rate": result["attempted"]}
    return values, counts


def per_layer(result: dict, work_dir: str, declared: list[dict],
              wall: float) -> dict:
    """Per-layer metric values derived from the traced pass's spans.

    ``wall`` is the untraced ``wall_s``, the base of ``trace.overhead_s``.
    """
    with open(os.path.join(work_dir, "spans.json"), encoding="utf-8") as f:
        recorded = json.load(f)
    stats = spans.layer_stats(recorded)
    traced_names = set(recorded["names"])
    traced = command_times([result["traced_pass"]], result["calibrated"])
    values = {"trace.overhead_s": sum(traced[0]) - wall,
              "trace.spans": len(recorded["name"]),
              "known_defects.failed": sum(
                  1 for reasons in result["known_defects"].values()
                  if reasons)}
    for metric in declared:
        name = metric["name"]
        if name in values:
            continue
        base, stat = name.rsplit(".", 1)
        if stat == "bytes":
            stat = "out_bytes"
        if stat in ("self_s", "errors") and base in spans.LAYERS:
            values[name] = stats[f"{base}.{stat}"]
        elif stat in ("s", "calls", "out_bytes") and base in traced_names:
            # A wrapped function the workload never calls measures zero.
            values[name] = stats.get(f"{base}.{stat}", 0)
        else:
            raise BenchError(f"per-layer metric {name!r} names no traced span")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "quasifree", "cli.py")):
        raise BenchError(f"no toolkit sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")

    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workloads.generate(args.workload, args.seed, work_dir)
        setup = measure_setup(work_dir, deadline)
        result = run_child(work_dir, args.seconds, bool(args.trace), deadline)
        e2e, counts = end_to_end(result, setup)
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer(result, work_dir, declared, e2e["wall_s"])
        else:
            declared, values = spec["end_to_end"], e2e
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']!r} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}

    for name, value in e2e.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:>14} = {value:.6g} {E2E_UNITS[name]}{n}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:>38} = {metric['value']:.6g} {metric['unit']}")
    for label, reasons in sorted(result["failures"].items()):
        print(f"FAILED {label}: {'; '.join(reasons)}")
    for label, reasons in sorted(result["known_defects"].items()):
        print(f"KNOWN DEFECT {label}: "
              f"{'; '.join(reasons) or 'now fixed, no longer fails'}")
    print(json.dumps({"environment": {**result["environment"],
                                      **source_identity(),
                                      "nproc": os.cpu_count()},
                      "workload": args.workload, "seed": args.seed,
                      "calibrated": result["calibrated"],
                      "known_defects": result["known_defects"],
                      "calibration_s": statistics.median(
                          c for p in result["passes"]
                          for c in p["calibration"]),
                      "raw_pass_s": [sum(p["times"])
                                     for p in result["passes"]]},
                     sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
