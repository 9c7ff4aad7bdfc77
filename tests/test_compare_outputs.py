"""Self-tests of tools/compare_outputs.py, the byte-for-byte run comparison."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(parent, change, *flags):
    return subprocess.run([sys.executable, str(TOOL), str(parent),
                           str(change), *flags],
                          capture_output=True, text=True, timeout=600)


def test_tree_matches_itself_on_analyze_sweep():
    proc = compare(ROOT, ROOT, "--workload", "analyze-sweep", "--seeds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "126 runs compared, 0 differ"


def test_a_changed_report_is_named(tmp_path):
    # Another version string moves every report's bytes and nothing else.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "quasifree" / "__init__.py"
    text = init.read_text(encoding="utf-8")
    assert "__version__ = " in text
    init.write_text(text.replace("__version__ = ", "__version__ = 'x' + ", 1),
                    encoding="utf-8")
    proc = compare(ROOT, tmp_path, "--workload", "oracle-bose",
                   "--seeds", "1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "2 runs compared, 2 differ"
    assert "DIFFERS oracle-bose seed 1 warmup: report differ" in lines
