"""`dirac` in real arithmetic agrees with the same run on a complex table.

The circle model's overlaps and complement probes are real in closed form,
so the toolkit stores them as float64.  The test runs `dirac` twice: as
shipped, and with `local_mode_table` and `complement_probe` returning
complex128, which sends every product of the model through complex
arithmetic.  Exit code, status, verdicts, pass bits, counts and index must
be identical, and every reported float must agree within 1e-11 relative or
1e-14 absolute.
"""

import json

from quasifree import cli, dirac

REL, ABS = 1e-11, 1e-14


def run_dirac(tmp_path, capsys) -> tuple:
    out = tmp_path / "report.json"
    code = cli.main(["dirac", "--cutoffs", "96,192,384,768", "--gauge-n", "2",
                     "--report", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text(encoding="utf-8"))


def float_leaves(shipped, reference, path=""):
    """(path, shipped, reference) for every float; other leaves must match."""
    assert type(shipped) is type(reference), path
    if isinstance(shipped, dict):
        assert shipped.keys() == reference.keys(), path
        for key in shipped:
            yield from float_leaves(shipped[key], reference[key],
                                    f"{path}.{key}")
    elif isinstance(shipped, list):
        assert len(shipped) == len(reference), path
        for i, pair in enumerate(zip(shipped, reference)):
            yield from float_leaves(*pair, f"{path}[{i}]")
    elif isinstance(shipped, float):
        yield path, shipped, reference
    else:
        assert shipped == reference, path


def test_dirac_matches_the_complex_reference(tmp_path, capsys, monkeypatch):
    shipped = run_dirac(tmp_path, capsys)
    assert shipped[0] == 0

    calls = []

    def as_complex(function):
        def wrapped(*args):
            calls.append(function.__name__)
            return function(*args).astype(complex)
        return wrapped

    for name in ("local_mode_table", "complement_probe"):
        monkeypatch.setattr(dirac, name, as_complex(getattr(dirac, name)))
    code, reference = run_dirac(tmp_path, capsys)
    assert set(calls) == {"local_mode_table", "complement_probe"}

    assert code == shipped[0]
    moved = [(path, got, want)
             for path, got, want in float_leaves(shipped[1], reference)
             if abs(got - want) > max(ABS, REL * max(abs(got), abs(want)))]
    assert moved == []
