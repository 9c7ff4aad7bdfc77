"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every model file the workload
needs into ``out_dir`` together with ``manifest.json``, which lists the CLI
commands in pass order and, for each, the outcome the generator expects:

* ``exit``: the exit code a correct toolkit returns;
* ``index``: the Fock index of the isometry, where the construction fixes it
  (the checker then tests the statistics-dimension law against it);
* ``implementers``: the implementer count 2^(index/2) for fermionic oracles;
* ``dirac_index`` / ``species``: the circle-model index and species count.

The manifest also lists the known-defect probes: inputs on which the toolkit
is known to be wrong (ROADMAP item 4), each with the outcome a correct toolkit
gives.  They are kept out of the timed command list, because every timed
command must succeed, and run once per run so that the defect stays visible
(see ``child.py``).

The program under test only ever sees the model files and argv.  The same
seed always yields byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
import scipy.linalg

WORKLOADS = ("analyze-sweep", "oracle-fermi", "oracle-bose", "dirac-window")

# ROADMAP item 4: malformed inputs that a correct toolkit rejects with exit 2,
# and which the toolkit at present does not.  They are known-defect probes.
ITEM4_LABELS = ("item4-samples-zero", "item4-custom-wrong-shape",
                "item4-sun-on-flip")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True)
        handle.write("\n")


def _matrix_payload(m: np.ndarray) -> dict:
    return {"shape": list(m.shape),
            "re": [float(x) for x in m.real.ravel()],
            "im": [float(x) for x in m.imag.ravel()]}


def _swap(n: int) -> np.ndarray:
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = np.eye(n)
    return s


def _shift_matrix(n_in: int, steps: int) -> np.ndarray:
    n_out = n_in + steps
    m = np.zeros((2 * n_out, 2 * n_in), dtype=complex)
    for i in range(n_in):
        m[i + steps, i] = 1.0
        m[n_out + i + steps, n_in + i] = 1.0
    return m


def random_member(algebra: str, n_out: int, steps: int,
                  rng: np.random.Generator, scale: float) -> np.ndarray:
    """exp(generator) composed with a shift: a member by construction.

    CAR: exp(iH) with H hermitian and S conj(H) S = -H is a self-dual unitary.
    CCR: exp(iKH) with H hermitian and S conj(H) S = H, K = diag(1, -1), is a
    self-dual kappa-unitary.  ``scale`` bounds the generator's operator norm.
    """
    dim = 2 * n_out
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = (z + z.conj().T) / 2.0
    s = _swap(n_out)
    if algebra == "car":
        h = (h0 - s @ h0.conj() @ s) / 2.0
        gen = 1j * h
    else:
        h = (h0 + s @ h0.conj() @ s) / 2.0
        gen = 1j * np.diag(np.r_[np.ones(n_out), -np.ones(n_out)]) @ h
    gen *= scale / np.linalg.norm(h, ord=2)
    return scipy.linalg.expm(gen) @ _shift_matrix(n_out - steps, steps)


def _model(label: str, algebra: str, isometry: dict, gauge: dict | None = None,
           space: dict | None = None) -> dict:
    out = {"label": label, "algebra": algebra, "isometry": isometry}
    if gauge is not None:
        out["gauge"] = gauge
    if space is not None:
        out["space"] = space
    return out


# Sites per species count for the shift catalogue, so every model stays small
# enough for a sub-second analyze.
SHIFT_SITES = {1: 4, 2: 3, 3: 2}


def _gauge_block(rnd: random.Random, group: str | None, n_modes: int,
                 species: int) -> dict | None:
    if group == "u1":
        return {"group": "u1", "samples": 64,
                "charges": [rnd.randint(-2, 2) for _ in range(n_modes)]}
    if group in ("un", "sun"):
        return {"group": group, "species": species, "samples": 50,
                "seed": rnd.randrange(1 << 16)}
    if group == "z2":
        return {"group": "z2"}
    return None


def _builder_cases(rnd: random.Random) -> list:
    """The builder catalogue: every shift shape with every compatible gauge.

    The catalogue is fixed, so the work per pass does not depend on the seed;
    the seed draws the charges, angles, gauge seeds and flipped modes.
    """
    cases = []
    for algebra in ("car", "ccr"):
        for steps in (1, 2, 3):
            for species in (1, 2, 3):
                groups = ("u1", "z2", None) + (
                    ("un", "sun") if species > 1 else ())
                for group in groups:
                    n_in = SHIFT_SITES[species]
                    n_out = (n_in + steps) * species
                    iso = {"builder": "shift", "params": {
                        "n_sites_in": n_in, "steps": steps,
                        "species": species}}
                    label = (f"{algebra}-shift-{steps}x{species}-"
                             f"{group or 'none'}")
                    cases.append((
                        _model(label, algebra, iso,
                               _gauge_block(rnd, group, n_out, species)),
                        {"exit": 0, "index": 2 * steps * species}))
        for n, group in ((4, None), (8, "z2"), (12, None), (16, "z2")):
            if algebra == "car":
                flip = {"n_modes": n, "mode": rnd.randint(1, n)}
                theta = round(rnd.uniform(0.1, 1.4), 6)
                pairs = (("flip", flip),
                         ("bogoliubov", {"theta": theta, "n_modes": n}))
            else:
                pairs = (("squeeze", {"r": round(rnd.uniform(0.1, 0.8), 6),
                                      "n_modes": n,
                                      "mode": rnd.randint(1, n)}),)
            for name, params in pairs:
                cases.append((
                    _model(f"{algebra}-{name}-{n}", algebra,
                           {"builder": name, "params": params},
                           _gauge_block(rnd, group, n, 1)),
                    {"exit": 0, "index": 0}))
        for n in (6, 16):
            cases.append((_model(f"{algebra}-identity-{n}", algebra, {
                "builder": "identity", "params": {"n_modes": n}}),
                {"exit": 0, "index": 0}))
    return cases


def _malformed_cases(rnd: random.Random) -> tuple[list, list]:
    """Inputs a correct toolkit rejects with exit 2 and a message.

    Returns the ones the toolkit handles, and the ROADMAP item-4 ones it
    does not (the known-defect probes).
    """
    n = rnd.randint(2, 4)
    shift = {"builder": "shift", "params": {"n_sites_in": n, "steps": 1}}
    item4 = [
        _model(ITEM4_LABELS[0], "car", shift,
               {"group": "u1", "charges": [1] * (n + 1), "samples": 0}),
        _model(ITEM4_LABELS[1], "car", shift,
               {"group": "custom", "unitaries": [
                   _matrix_payload(np.eye(n - 1, dtype=complex))]}),
        _model(ITEM4_LABELS[2], "car",
               {"builder": "flip", "params": {"n_modes": 2 * n}},
               {"group": "sun", "species": 2}),
    ]
    handled = [
        _model("bad-builder", "car", {"builder": "twist", "params": {}}),
        _model("bad-shape", "ccr",
               {"matrix": _matrix_payload(np.eye(2 * n, dtype=complex))},
               space={"domain_modes": n, "codomain_modes": n + 1}),
        _model("bad-gauge", rnd.choice(("car", "ccr")), shift,
               {"group": "so3"}),
    ]
    return handled, item4


def _explicit_model(label: str, algebra: str, m: np.ndarray,
                    steps: int) -> dict:
    n_out = m.shape[0] // 2
    return _model(label, algebra, {"matrix": _matrix_payload(m)},
                  space={"domain_modes": n_out - steps,
                         "codomain_modes": n_out})


def _analyze_sweep(seed: int, out_dir: str) -> tuple:
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    cases = _builder_cases(rnd)
    for algebra in ("car", "ccr"):
        scale = 1.0 if algebra == "car" else 0.3
        for i, n_out in enumerate((8, 16, 24, 32, 40, 48)):
            steps = 1 + i % 3
            m = random_member(algebra, n_out, steps, rng, scale)
            cases.append((_explicit_model(f"random-{algebra}-{n_out}",
                                          algebra, m, steps),
                          {"exit": 0, "index": 2 * steps}))
        # Perturbed members: off the semigroup by far more than the tolerance.
        for i, n_out in enumerate((6, 10, 14, 18, 22, 24)):
            steps = 1 + i % 2
            m = random_member(algebra, n_out, steps, rng, scale)
            m = m + 1e-3 * (rng.normal(size=m.shape)
                            + 1j * rng.normal(size=m.shape))
            cases.append((_explicit_model(f"perturbed-{algebra}-{n_out}",
                                          algebra, m, steps), {"exit": 3}))
    handled, item4 = _malformed_cases(rnd)
    cases += [(model, {"exit": 2}) for model in handled]
    rnd.shuffle(cases)

    commands = []
    for j, (model, expect) in enumerate(cases):
        path = f"model-{j:03d}.json"
        _write_json(os.path.join(out_dir, path), model)
        commands.append({"label": model["label"],
                         "argv": ["analyze", "--input", path],
                         "expect": expect})
    # A broken JSON file: still exit 2, never a traceback.
    path = "model-not-json.json"
    with open(os.path.join(out_dir, path), "w", encoding="utf-8") as handle:
        handle.write('{"algebra": "car", "isometry": ')
    commands.append({"label": "not-json", "argv": ["analyze", "--input", path],
                     "expect": {"exit": 2}})
    _write_json(os.path.join(out_dir, "warmup.json"), _model(
        "warmup", "car", {"builder": "shift", "params": {
            "n_sites_in": 2, "steps": 1, "species": 2}},
        {"group": "sun", "species": 2, "samples": 8}))
    probes = []
    for j, model in enumerate(item4):
        path = f"probe-{j}.json"
        _write_json(os.path.join(out_dir, path), model)
        probes.append({"label": model["label"],
                       "argv": ["analyze", "--input", path],
                       "expect": {"exit": 2}})
    return ["analyze", "--input", "warmup.json"], commands, probes


def _oracle_commands(models: list, out_dir: str, prefix: str) -> list:
    commands = []
    for j, (model, index) in enumerate(models):
        path = f"{prefix}-{j}.json"
        _write_json(os.path.join(out_dir, path), model)
        commands.append({"label": model["label"],
                         "argv": ["oracle", "--input", path],
                         "expect": {"exit": 0, "index": index,
                                    "implementers": 2 ** (index // 2)}})
    return commands


def _oracle_fermi(seed: int, out_dir: str) -> tuple:
    rnd = random.Random(seed)
    theta = round(rnd.uniform(0.3, 1.2), 6)
    models = [
        (_model("shift-7-8", "car", {"builder": "shift", "params": {
            "n_sites_in": 7, "steps": 1}}), 2),
        (_model("shift-3-4x2", "car", {"builder": "shift", "params": {
            "n_sites_in": 3, "steps": 1, "species": 2}},
            {"group": "un", "species": 2, "samples": 20,
             "seed": rnd.randrange(1 << 16)}), 4),
        (_model("bogoliubov-8", "car", {"builder": "bogoliubov", "params": {
            "theta": theta, "n_modes": 8}}), 0),
    ]
    # ROADMAP item 4: under a U(2) gauge the charge comparison fails, yet
    # status is "ok".
    probes = [(_model(
        "bogoliubov-6-u2", "car",
        {"builder": "bogoliubov", "params": {"theta": theta, "n_modes": 6}},
        {"group": "un", "species": 2, "seed": rnd.randrange(1 << 16)}), 0)]
    commands = _oracle_commands(models, out_dir, "model")
    return (commands[-1]["argv"], commands,
            _oracle_commands(probes, out_dir, "probe"))


def _oracle_bose(seed: int, out_dir: str) -> tuple:
    for n_sites_in in (1, 3):
        _write_json(os.path.join(out_dir, f"model-{n_sites_in}.json"), _model(
            f"ccr-shift-{n_sites_in}-{n_sites_in + 1}-{seed}", "ccr", {
                "builder": "shift", "params": {"n_sites_in": n_sites_in,
                                               "steps": 1}}))
    flags = ["--bose-cutoff", "5", "--seed", str(seed)]
    return (["oracle", "--input", "model-1.json"] + flags,
            [{"label": "ccr-shift-3-4",
              "argv": ["oracle", "--input", "model-3.json"] + flags,
              "expect": {"exit": 0}}], [])


def _dirac_window(seed: int, out_dir: str) -> tuple:
    flags = ["--gauge-n", "2", "--seed", str(seed)]
    return (["dirac", "--cutoffs", "16,32"] + flags,
            [{"label": "dirac-96-768",
              "argv": ["dirac", "--cutoffs", "96,192,384,768"] + flags,
              "expect": {"exit": 0, "dirac_index": 1, "species": 2}}], [])


# Whether a workload's times are rescaled by the calibration kernel (see
# bench/run.py).  The kernel is interpreter-bound and tracks the host's speed
# phases for interpreter-bound workloads; the dense-LAPACK workloads barely
# feel those phases, and rescaling them only adds the kernel's own noise.
CALIBRATED = {
    "analyze-sweep": True,
    "oracle-fermi": True,
    "oracle-bose": False,
    "dirac-window": False,
}

GENERATORS = {
    "analyze-sweep": _analyze_sweep,
    "oracle-fermi": _oracle_fermi,
    "oracle-bose": _oracle_bose,
    "dirac-window": _dirac_window,
}


def generate(workload: str, seed: int, out_dir: str) -> list:
    """Write the workload's inputs and manifest.json; return the commands.

    Paths in the commands are relative to ``out_dir``, where the commands
    run; each command gets a report path of its own.  The manifest also
    names the warm-up call, a small command of the same kind that loads
    the code paths the timed passes use, and the known-defect probes.
    """
    os.makedirs(out_dir, exist_ok=True)
    warmup, commands, probes = GENERATORS[workload](seed, out_dir)
    for prefix, cmds in (("report", commands), ("probe-report", probes)):
        for j, cmd in enumerate(cmds):
            cmd["report"] = f"{prefix}-{j:03d}.json"
            cmd["argv"] = cmd["argv"] + ["--report", cmd["report"]]
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "workload": workload, "seed": seed, "commands": commands,
        "known_defects": probes, "calibrated": CALIBRATED[workload],
        "warmup": warmup + ["--report", "warmup-report.json"]})
    return commands
