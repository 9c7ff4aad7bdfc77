"""Model-file parsing and deterministic report serialization.

Input and output share one JSON dialect: UTF-8, complex arrays as parallel
real "re"/"im" lists in row-major order with an explicit shape, every
numerical verdict wrapped as {"value", "tolerance", "pass"}.  Reports are
serialized with sorted keys and fixed indentation so identical runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

from . import builders
from .errors import MalformedInput, require_dense_bytes, require_int
from .sectors import GaugeAction
from .selfdual import DEFAULT_TOL, BlockOperator, SelfDualSpace, hs_norm

SCHEMA_VERSION = 1


def complex_array_payload(arr: np.ndarray) -> dict:
    """Row-major parallel re/im encoding with explicit shape."""
    a = np.asarray(arr, dtype=complex)
    return {
        "shape": list(a.shape),
        "re": a.real.ravel(order="C").tolist(),
        "im": a.imag.ravel(order="C").tolist(),
    }


def parse_complex_matrix(obj) -> np.ndarray:
    """Accept either the flat shape/re/im payload or nested row lists."""
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise MalformedInput("complex matrix needs parallel 're'/'im' arrays")
    re, im = obj["re"], obj["im"]
    if "shape" in obj:
        shape = tuple(require_int(s, "matrix shape") for s in obj["shape"])
        size = math.prod(shape)
        if len(re) != size or len(im) != size:
            raise MalformedInput(
                f"re/im lengths {len(re)}/{len(im)} do not fill shape {shape}")
        return _complex_from_parts(re, im).reshape(shape)
    if not re or not isinstance(re[0], list):
        raise MalformedInput("nested matrix rows required when shape absent")
    width = len(re[0])
    for part_name, part in (("re", re), ("im", im)):
        for row in part:
            if not isinstance(row, list) or len(row) != width:
                raise MalformedInput(
                    f"{part_name} rows have inconsistent lengths")
    if len(re) != len(im):
        raise MalformedInput("re and im row counts differ")
    return _complex_from_parts(re, im)


def _complex_from_parts(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts.

    The parts are assigned, not combined as re + 1j * im, so an infinite
    part raises no numpy warning (1j * inf would form 0 * inf).
    """
    real = np.asarray(re, dtype=float)
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = np.asarray(im, dtype=float)
    return out


def comparison(value: float, tolerance: float) -> dict:
    value = float(value)
    tolerance = float(tolerance)
    return {"value": value, "tolerance": tolerance,
            "pass": bool(value <= tolerance)}


def relation(cmp: dict) -> str:
    """The summary-line relation of a comparison: '<=' if it passed, else '>'."""
    return "<=" if cmp["pass"] else ">"


def failed_comparisons(payload, path: str = "") -> list[str]:
    """Dotted paths of every {"value", "tolerance", "pass"} leaf that failed."""
    if isinstance(payload, dict):
        if set(payload) == {"value", "tolerance", "pass"}:
            return [] if payload["pass"] else [path]
        return [hit for key, value in payload.items()
                for hit in failed_comparisons(
                    value, f"{path}.{key}" if path else str(key))]
    if isinstance(payload, (list, tuple)):
        return [hit for i, value in enumerate(payload)
                for hit in failed_comparisons(value, f"{path}[{i}]")]
    return []


def jsonify(obj):
    """Recursively convert numpy and complex values to JSON types."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return complex_array_payload(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isinf(obj):
            return "infinite"
        if math.isnan(obj):
            return "nan"
        return float(obj)
    return obj


def canonical_json(payload: dict) -> str:
    """The report text: jsonify(payload) with sorted keys, indent 2, UTF-8.

    Byte-identical to json.dumps(jsonify(payload), sort_keys=True, indent=2,
    ensure_ascii=False) + "\n", written directly: json.dumps runs its
    pure-Python encoder whenever indent is set, and a report's float lists
    are most of its text.
    """
    parts: list[str] = []
    _write_json(jsonify(payload), "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _float_text(x: float) -> str:
    """json's spelling of a float, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write_json(obj, newline: str, parts: list) -> None:
    """Append the text of a JSON value; newline is "\n" plus its indent."""
    if isinstance(obj, str):
        parts.append(encode_basestring(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is float for x in obj):
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" in text:  # repr spells nan, inf as json does not
                text = ("," + inner).join(map(_float_text, obj))
            parts.append("[" + inner + text + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + encode_basestring(key) + ": ")
            _write_json(obj[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


@dataclass(frozen=True)
class ModelFile:
    label: str
    algebra: str
    operator: BlockOperator
    gauge: GaugeAction | None
    gauge_samples: int
    gauge_seed: int
    source_digest: str


def _parse_gauge(block: dict, n_modes: int) -> tuple:
    group = block.get("group")
    samples = require_int(block.get("samples", 50), "gauge samples")
    seed = require_int(block.get("seed", 0), "gauge seed")
    if seed < 0:
        raise MalformedInput(f"gauge seed must be at least 0, got {seed}")
    if group == "u1":
        charges = block.get("charges")
        if charges is None:
            raise MalformedInput("u1 gauge block needs 'charges'")
        values = tuple(require_int(c, "gauge charge") for c in charges)
        big = [q for q in values if abs(q) > 2 ** 53]  # not exact as floats
        if big:
            raise MalformedInput(f"gauge charge {big[0]} not in [-2^53, 2^53]")
        action = GaugeAction("u1", n_modes, charges=values)
        samples = require_int(block.get("samples", 64), "gauge samples")
    elif group in ("un", "sun"):
        action = GaugeAction(group, n_modes, species=require_int(
            block.get("species", 0), "gauge species"))
    elif group == "z2":
        action = GaugeAction("z2", n_modes)
    elif group == "custom":
        mats = [parse_complex_matrix(u) for u in block.get("unitaries", [])]
        action = GaugeAction("custom", n_modes,
                             unitaries=tuple(mats))
        for i, u in enumerate(mats):
            defect = hs_norm(u.conj().T @ u - np.eye(n_modes))
            if not defect <= DEFAULT_TOL:  # NaN fails too
                raise MalformedInput(f"custom element {i} is not unitary "
                                     f"(||U*U - 1|| = {defect:.3e})")
    else:
        raise MalformedInput(f"unknown gauge group {group!r}")
    if samples < 1:
        raise MalformedInput(f"gauge samples must be at least 1, got {samples}")
    if group in ("u1", "un", "sun"):
        # elements() builds one dense n x n unitary per sample.
        require_dense_bytes(samples * n_modes, n_modes, "gauge samples")
    return action, samples, seed


def load_model(path: str) -> ModelFile:
    """Parse and validate a model file; MalformedInput on any inconsistency."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()  # parsed and hashed: one read
        raw = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise MalformedInput(f"cannot read model file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedInput("model file must be a JSON object")

    algebra = raw.get("algebra", "car")
    if algebra not in ("car", "ccr"):
        raise MalformedInput(f"algebra must be 'car' or 'ccr', not {algebra!r}")

    iso = raw.get("isometry")
    if not isinstance(iso, dict):
        raise MalformedInput("model needs an 'isometry' object")
    space_block = raw.get("space", {})
    if not isinstance(space_block, dict):
        raise MalformedInput("space block must be an object")
    if "builder" in iso:
        params = iso.get("params", {})
        if not isinstance(params, dict):
            raise MalformedInput("builder params must be an object")
        operator = builders.build(str(iso["builder"]), params)
    elif "matrix" in iso:
        try:
            matrix = parse_complex_matrix(iso["matrix"])
            dom = space_block.get("domain_modes")
            cod = space_block.get("codomain_modes", dom)
            if dom is None:
                raise MalformedInput("explicit matrices need "
                                     "space.domain_modes (and codomain_modes)")
            dom = require_int(dom, "space domain_modes")
            cod = require_int(cod, "space codomain_modes")
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"bad explicit matrix: {exc}") from exc
        if matrix.shape != (2 * cod, 2 * dom):
            raise MalformedInput(
                f"matrix shape {matrix.shape} inconsistent with space "
                f"({2 * cod} x {2 * dom} expected)")
        operator = BlockOperator(matrix, SelfDualSpace(dom), SelfDualSpace(cod))
    else:
        raise MalformedInput("isometry needs 'builder' or 'matrix'")
    if not np.all(np.isfinite(operator.matrix)):
        raise MalformedInput("operator has non-finite entries")

    gauge, samples, seed = None, 0, 0
    if "gauge" in raw:
        if not isinstance(raw["gauge"], dict):
            raise MalformedInput("gauge block must be an object")
        try:
            gauge, samples, seed = _parse_gauge(raw["gauge"],
                                                operator.codomain.n_modes)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"bad gauge block: {exc}") from exc

    return ModelFile(
        label=str(raw.get("label", "model")),
        algebra=algebra,
        operator=operator,
        gauge=gauge,
        gauge_samples=samples,
        gauge_seed=seed,
        source_digest=hashlib.sha256(data).hexdigest(),
    )
