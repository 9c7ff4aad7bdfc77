"""Output checker behind ``error_rate``.

A command fails when any of these holds:

* its exit code differs from the one the generator expected;
* for an expected exit of 0, the report is missing or its ``status`` is not
  ``"ok"``;
* for an expected exit of 0, any ``{"value", "tolerance", "pass"}`` leaf has
  ``pass: false``;
* a structural expectation is missed: implementer count 2^(ind/2), circle
  index 1 (and statistics dimension 2^N), or the statistics-dimension law
  (CAR: 2^(ind/2); CCR: 1 at index 0, infinite otherwise);
* a repeat of the command writes a report that is not byte-identical to the
  first one.
"""

from __future__ import annotations

import json


def failed_comparisons(node, path: str = "") -> list[str]:
    """Paths of every comparison leaf with ``pass: false``."""
    out = []
    if isinstance(node, dict):
        if set(node) == {"value", "tolerance", "pass"}:
            if node["pass"] is not True:
                out.append(path or "/")
            return out
        for key in sorted(node):
            out += failed_comparisons(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out += failed_comparisons(item, f"{path}/{i}")
    return out


def _statistics_law(report: dict, index: int) -> str | None:
    charge = report.get("charge_data")
    if charge is None:
        return None
    if charge.get("index") != index:
        return f"index {charge.get('index')} != expected {index}"
    stat = charge.get("statistics_dimension")
    if report.get("algebra") == "car":
        want = 2 ** (index // 2)
    else:
        want = 1 if index == 0 else "infinite"
    if stat != want:
        return f"statistics dimension {stat} != {want} at index {index}"
    return None


def check_report(expect: dict, report: dict) -> list[str]:
    """Reasons an expected-success report is wrong (empty when it is right)."""
    reasons = []
    if report.get("status") != "ok":
        reasons.append(f"status {report.get('status')!r} != 'ok'")
    reasons += [f"comparison failed at {path}"
                for path in failed_comparisons(report)]
    if "index" in expect:
        if report.get("command") == "analyze":
            law = _statistics_law(report, expect["index"])
            if law:
                reasons.append(law)
    if "implementers" in expect:
        count = report.get("implementers", {}).get("count")
        if count != expect["implementers"]:
            reasons.append(
                f"implementer count {count} != {expect['implementers']}")
    if "dirac_index" in expect:
        value = report.get("index", {}).get("value")
        if value != expect["dirac_index"]:
            reasons.append(f"dirac index {value} != {expect['dirac_index']}")
        stat = report.get("species_assembly", {}).get("statistics_dimension")
        want = 2 ** (expect["species"] * expect["dirac_index"])
        if stat != want:
            reasons.append(f"species statistics dimension {stat} != {want}")
    return reasons


def check_outcome(expect: dict, exit_code: int,
                  report_bytes: bytes | None) -> list[str]:
    """Reasons one execution of a command failed (empty when it succeeded)."""
    if exit_code != expect["exit"]:
        return [f"exit {exit_code} != expected {expect['exit']}"]
    if expect["exit"] != 0:
        return []
    if report_bytes is None:
        return ["no report written"]
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    return check_report(expect, report)


class Checker:
    """Checks every execution, and each repeat against the first report."""

    def __init__(self, commands: list[dict]):
        self.commands = commands
        self.first: dict[int, tuple] = {}
        self.verdict: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}

    def record(self, j: int, exit_code: int,
               report_bytes: bytes | None) -> list[str]:
        """Check and count one execution of command ``j``."""
        outcome = (exit_code, report_bytes)
        if j not in self.first:
            self.first[j] = outcome
            self.verdict[j] = check_outcome(self.commands[j]["expect"],
                                            exit_code, report_bytes)
        if outcome == self.first[j]:
            reasons = self.verdict[j]
        else:
            reasons = check_outcome(self.commands[j]["expect"], exit_code,
                                    report_bytes)
            if report_bytes != self.first[j][1]:
                reasons.append("report differs from the first run's bytes")
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.setdefault(self.commands[j]["label"], reasons)
        return reasons
