"""Compare every benchmark run of two source trees, byte for byte.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE \
        [--workload W] [--seeds 1,2,3]

Each tree is a checkout holding ``src/quasifree``.  The inputs of each
workload and seed are generated once, with this repository's
``bench/workloads.py``.  Each tree then runs every warm-up, command and
known-defect probe of the manifest in process, in a subprocess of its own
with ``PYTHONPATH=TREE/src``, ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONDONTWRITEBYTECODE=1``, in the same working directory as the other
tree.  The exit code, stdout, stderr and report bytes of each run are
compared.  The runs that differ are printed with the fields that differ.
The exit code is 1 if any run differs and 0 if none does.  Without
``--workload``, all four workloads are compared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/ is put on the path just above)

FIELDS = ("exit", "stdout", "stderr", "report")


def manifest_runs(manifest: dict) -> list[tuple[str, list, str]]:
    """(name, argv, report path) of the warm-up, commands and probes."""
    warmup = manifest["warmup"]
    runs = [("warmup", warmup, warmup[warmup.index("--report") + 1])]
    for kind in ("commands", "known_defects"):
        runs += [(f"{kind}[{j}] {cmd['label']}", cmd["argv"], cmd["report"])
                 for j, cmd in enumerate(manifest[kind])]
    return runs


def run_manifest(work_dir: str) -> dict:
    """Outcome of every run in ``work_dir``'s manifest, as the CLI gives it.

    Runs in the tree the interpreter imports ``quasifree`` from.  An
    uncaught exception counts as exit 1, with its traceback as stderr.
    """
    from quasifree.cli import main

    os.chdir(work_dir)
    with open("manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    out = {}
    for name, argv, report in manifest_runs(manifest):
        if os.path.exists(report):
            os.remove(report)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught traceback exits 1
                traceback.print_exc()
                code = 1
        digest = None
        if os.path.exists(report):
            with open(report, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        out[name] = {"exit": code, "stdout": stdout.getvalue(),
                     "stderr": stderr.getvalue(), "report": digest}
    return out


def run_tree(tree: str, inputs: str, work_dir: str) -> dict:
    """Copy the inputs to ``work_dir`` and run them with ``tree``'s sources."""
    shutil.rmtree(work_dir, ignore_errors=True)
    shutil.copytree(inputs, work_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--run", work_dir],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runs of {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(parent: str, change: str, workload: str, seed: int,
            temp_dir: str) -> tuple[int, list[str]]:
    """Run count and one line per differing run, for one workload and seed."""
    inputs = os.path.join(temp_dir, "inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    workloads.generate(workload, seed, inputs)
    work_dir = os.path.join(temp_dir, "run")
    before = run_tree(parent, inputs, work_dir)
    after = run_tree(change, inputs, work_dir)
    lines = []
    for name in sorted(set(before) | set(after)):
        old, new = before.get(name), after.get(name)
        if old is None or new is None:
            lines.append(f"{workload} seed {seed} {name}: only in "
                         f"{'change' if old is None else 'parent'}")
            continue
        moved = [field for field in FIELDS if old[field] != new[field]]
        if moved:
            lines.append(f"{workload} seed {seed} {name}: "
                         f"{', '.join(moved)} differ")
    return len(before), lines


def parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", help="parent source tree")
    parser.add_argument("change", nargs="?", help="changed source tree")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seeds", type=parse_seeds, default=[1, 2, 3],
                        help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--run", metavar="WORK_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_manifest(args.run)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    trees = [os.path.abspath(tree) for tree in (args.parent, args.change)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "quasifree", "cli.py")):
            parser.error(f"no src/quasifree/cli.py under {tree}")

    total, differing = 0, []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as temp_dir:
        for workload in ([args.workload] if args.workload
                         else workloads.WORKLOADS):
            for seed in args.seeds:
                count, lines = compare(*trees, workload, seed, temp_dir)
                total += count
                differing += lines
                print(f"{workload} seed {seed}: {count} runs, "
                      f"{len(lines)} differ", flush=True)
    for line in differing:
        print(f"DIFFERS {line}")
    print(f"{total} runs compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
