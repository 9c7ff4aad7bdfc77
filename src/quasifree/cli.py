"""Command line front end: analyze, oracle, and dirac pipelines.

Exit codes: 0 success, 2 malformed input or cap exceeded, 3 operator not in
the semigroup, 4 numerical failure (an invariant self-check failed, or a
comparison in the report did: the report then has status "fail").  Reports
are canonical JSON (sorted keys, fixed indent), so identical inputs, seed,
version and BLAS thread count produce byte-identical files.

Importing this module loads numpy and the standard library only: the Fock
oracle (:mod:`quasifree.oracle`, which loads scipy.sparse) and the circle
model (:mod:`quasifree.dirac`) are imported by the commands that run them.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

from . import __version__
from .car import CAR, RECOVERY_TOL, z2_index
from .ccr import CCR
from .errors import (
    CapExceeded,
    LevelOutOfRange,
    MalformedInput,
    NotGaugeCompatible,
    NotInSemigroup,
    QuasifreeError,
    ShapeMismatch,
    WindowTooSmall,
)
from .report import (
    SCHEMA_VERSION,
    canonical_json,
    comparison,
    failed_comparisons,
    load_model,
    relation,
)
from .sectors import CHAR_TOL, sector_table
from .selfdual import DEFAULT_TOL, Membership, Statistics

# The report writes the statistics dimension 2^N of N species (the circle's
# index is 1) as an exact integer; this cap keeps it far below Python's
# 4300-digit limit on converting an int to text.
MAX_GAUGE_N = 1024

STATISTICS = {stats.name: stats for stats in (CAR, CCR)}

INPUT_ERRORS = (MalformedInput, CapExceeded, WindowTooSmall, ShapeMismatch,
                NotGaugeCompatible, LevelOutOfRange)


def _emit(payload: dict, args, summary_lines: list) -> None:
    for line in summary_lines:
        print(line)
    if args.report:
        text = canonical_json(payload)
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise MalformedInput(f"cannot write report {args.report!r}: "
                                 f"{exc.strerror}") from exc
        print(f"report written to {args.report}")


def _emit_verdict(payload: dict, args, summary_lines: list) -> int:
    """Set status from the report's comparisons, emit, return the exit code.

    Any {"value", "tolerance", "pass"} leaf with pass false makes the status
    "fail" and the exit code 4, and its path is printed on stderr.
    """
    failed = failed_comparisons(payload)
    payload["status"] = "fail" if failed else "ok"
    _emit(payload, args, summary_lines)
    if failed:
        print(f"error (numerical): failed comparisons: {', '.join(failed)}",
              file=sys.stderr)
        return 4
    return 0


def _base_payload(command: str, model=None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
    }
    if model is not None:
        payload["input"] = {"label": model.label,
                            "sha256": model.source_digest}
    return payload


def _membership_payload(mem: Membership) -> dict:
    return {
        "is_member": mem.is_member,
        "isometry_defect": comparison(mem.isometry_defect, mem.tol),
        "selfdual_defect": comparison(mem.selfdual_defect, mem.tol),
        "hs_defect": float(mem.hs_defect),
        "index": mem.index,
        "failures": list(mem.failures),
    }


def _sector_payload(table, stats: Statistics) -> dict:
    return {
        "algebra": stats.name,
        "levels": [{"level": row.level, "dimension": row.dimension,
                    "characters": row.characters} for row in table.rows],
        "element_labels": list(table.element_labels),
        "equivalence_classes": [list(c) for c in table.equivalence_classes],
        "sample": dict(table.sample_meta),
    }


def _effective_seed(args, model) -> int:
    if args.seed is not None:
        return args.seed
    return model.gauge_seed if model.gauge is not None else 0


def _membership(args, model) -> tuple[Statistics, Membership]:
    """The command's statistics record and its one membership test."""
    stats = STATISTICS[args.algebra or model.algebra]
    return stats, stats.membership(
        model.operator, args.tol if args.tol is not None else DEFAULT_TOL)


def cmd_analyze(args) -> int:
    model = load_model(args.input)
    seed = _effective_seed(args, model)
    v = model.operator
    stats, mem = _membership(args, model)
    payload = _base_payload("analyze", model)
    payload["algebra"] = stats.name
    payload["seed"] = seed
    payload["tolerances"] = {"membership": mem.tol, "recovery": RECOVERY_TOL,
                             "character": CHAR_TOL}
    payload["membership"] = _membership_payload(mem)
    if not mem.is_member:
        payload["status"] = "not-in-semigroup"
        _emit(payload, args, [
            f"{model.label}: NOT in the {stats.name} semigroup "
            f"(failures: {', '.join(mem.failures)})"])
        return 3

    data = stats.charge_data(mem)
    dim_h, dim_k = data.h_frame.shape[1], data.k_frame.shape[1]
    stat_dim = data.statistics_dimension
    t_norm = data.t_norm
    charge = {
        "dim_h": dim_h,
        "dim_k": dim_k,
        "index": data.index,
        "statistics_dimension": stat_dim,
        "t_norm": t_norm,
        "hs_defect": float(mem.hs_defect),
    }
    if stats.sign > 0 and data.index == 0:  # CAR only
        charge["z2_index"] = z2_index(data)
    payload["charge_data"] = charge

    if model.gauge is not None:
        table = sector_table(
            stats, v.codomain, data.h_frame, data.k_frame,
            model.gauge.elements(samples=model.gauge_samples, seed=seed))
        payload["sector_table"] = _sector_payload(table, stats)

    stat_text = ("infinite" if stat_dim == math.inf
                 else f"{stat_dim:g}")
    lines = [
        f"{model.label}: member of the {stats.name} semigroup, "
        f"index {data.index}",
        f"dim h = {dim_h}, dim k = {dim_k}, "
        f"statistics dimension = {stat_text}, |T| = {t_norm:.6f}",
    ]
    if "sector_table" in payload:
        lines.append(
            f"sectors: {len(payload['sector_table']['levels'])} levels, "
            f"classes {payload['sector_table']['equivalence_classes']}")
    return _emit_verdict(payload, args, lines)


def cmd_oracle(args) -> int:
    model = load_model(args.input)
    stats, mem = _membership(args, model)
    payload = _base_payload("oracle", model)
    payload["algebra"] = stats.name
    payload["seed"] = _effective_seed(args, model)
    payload["caps"] = {"fock_cap": stats.fock_cap,
                       "bose_cutoff": args.bose_cutoff}
    lines = []
    # Imported here, not at the top: it loads the Fock code and scipy.sparse.
    from . import oracle
    oracle.run(args, model, stats, mem, payload, lines)
    return _emit_verdict(payload, args, lines)


def _parse_cutoffs(text: str) -> tuple:
    try:
        cutoffs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MalformedInput(f"bad cutoff list {text!r}") from exc
    if len(cutoffs) < 2:
        raise MalformedInput("need at least two cutoffs")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise MalformedInput(f"cutoffs must be strictly ascending: {cutoffs}")
    return cutoffs


def cmd_dirac(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    if not 1 <= args.gauge_n <= MAX_GAUGE_N:
        raise MalformedInput(
            f"--gauge-n must be between 1 and {MAX_GAUGE_N}, "
            f"got {args.gauge_n}")
    # The localization residual decays like 1/W; the 1e-3 gate is calibrated
    # at W = 512, so the default tolerance scales with the largest cutoff.
    loc_tol = (args.tol if args.tol is not None
               else 1e-3 * 512.0 / cutoffs[-1])
    payload = _base_payload("dirac")
    payload["cutoffs"] = list(cutoffs)
    from . import dirac
    payload["cayley_audit"] = dirac.cayley_audit()

    # Largest window first: build_v refuses a window over the dense budget
    # before it allocates, so an oversized cutoff exits before any build.
    builds = [dirac.build_v(w) for w in reversed(cutoffs)][::-1]
    per_cutoff = {}
    for build in builds:
        diag = build.diagnostics
        per_cutoff[str(diag["w"])] = {
            "m_loc": diag["m_loc"],
            "row_normalization": comparison(diag["rownorm_deviation"],
                                            diag["rownorm_bound"]),
            "gram_off_identity": comparison(diag["gram_off_identity"], 2e-2),
            "probe_isometry_defect": float(diag["probe_isometry_defect"]),
            "seam_full_defect": float(diag["seam_full_defect"]),
            "shift_overlap_min": diag["shift_overlap_min"],
        }
    payload["window_diagnostics"] = per_cutoff

    record = dirac.index_estimate(builds=builds[-2:])
    counts, index_value = record.counts, record.value
    payload["index"] = {"counts": {str(k): v for k, v in counts.items()},
                        "value": index_value}

    study = dirac.hs_commutator_study(cutoffs, build=builds[-1])
    payload["hs_study"] = {
        "partial_norms": study.partial_norms,
        "increments": study.increments,
        "slopes": study.slopes,
        "verdicts": study.verdicts,
    }
    control = dirac.jump_symbol_control_study(cutoffs)
    payload["hs_control"] = {"slope": control.slopes["plus"],
                             "verdict": control.verdicts["plus"]}

    # One check per build; only the largest window's residual is gated.
    locs = [dirac.prop_loc_check(build)["complement"] for build in builds]
    loc = locs[-1]
    payload["localization"] = {
        "component": "complement",
        "tau": loc["tau"],
        "residual": comparison(loc["residual"], loc_tol),
        "residual_by_cutoff": {
            str(b.window.w): float(c["residual"])
            for b, c in zip(builds, locs)},
    }

    species = dirac.assemble_species(args.gauge_n, index_value)
    payload["species_assembly"] = species

    lines = [
        f"index estimate: {index_value} "
        f"(stable across cutoffs {sorted(counts)})",
        f"HS commutator verdicts: plus={study.verdicts['plus']}, "
        f"minus={study.verdicts['minus']} "
        f"(control: {control.verdicts['plus']})",
        f"localization: tau = {loc['tau']:.6f}, residual "
        f"{loc['residual']:.3e} "
        f"{relation(payload['localization']['residual'])} {loc_tol:.1e}",
        f"species assembly: half-index V = {species['half_index']}, "
        f"statistics dimension = {species['statistics_dimension']}",
    ]
    return _emit_verdict(payload, args, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifree",
        description="Implementability and charge analysis for quasi-free "
                    "endomorphisms on truncated self-dual mode spaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("--input", required=True,
                           help="model file (JSON)")
            p.add_argument("--algebra", choices=STATISTICS, default=None,
                           help="override the model's algebra tag")
        p.add_argument("--report", default=None, help="report output path")
        p.add_argument("--tol", type=float, default=None,
                       help="primary tolerance override")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed override")

    p_analyze = sub.add_parser(
        "analyze", help="membership, charge data, sector table")
    common(p_analyze, needs_input=True)

    p_oracle = sub.add_parser(
        "oracle", help="Fock-space verification of the charge machinery")
    common(p_oracle, needs_input=True)
    p_oracle.add_argument("--bose-cutoff", type=int, default=8,
                          help="bosonic per-mode occupation cutoff")

    p_dirac = sub.add_parser(
        "dirac", help="localized circle isometry: index, HS trend, "
                      "localization")
    common(p_dirac, needs_input=False)
    p_dirac.add_argument("--cutoffs", default="64,128,256,512",
                         help="comma-separated ascending mode cutoffs")
    p_dirac.add_argument("--gauge-n", type=int, default=1,
                         help="species count for the assembled operator")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first main call (not at import) and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a replaced cmd_* attribute is the one called.
    command = globals()[f"cmd_{args.command}"]
    try:
        if args.tol is not None and not 0.0 < args.tol < math.inf:  # NaN fails too
            raise MalformedInput(
                f"--tol must be a finite number > 0, got {args.tol}")
        if args.seed is not None and args.seed < 0:
            raise MalformedInput(f"--seed must be at least 0, got {args.seed}")
        # A report path that is a directory or lies in a missing one is
        # refused before any work, with open()'s reason; _emit meets the rest.
        if args.report and (os.path.isdir(args.report) or not os.path.exists(
                os.path.dirname(args.report) or ".")):
            code = errno.EISDIR if os.path.isdir(args.report) else errno.ENOENT
            raise MalformedInput(f"cannot write report {args.report!r}: "
                                 f"{os.strerror(code)}")
        return command(args)
    except INPUT_ERRORS as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return 2
    except NotInSemigroup as exc:
        print(f"error (not in semigroup): {exc}", file=sys.stderr)
        return 3
    except QuasifreeError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
