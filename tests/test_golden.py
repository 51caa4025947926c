"""The CLI still writes the committed golden outputs, byte for byte.

``tests/golden/`` was written by ``tests/golden_corpus.py`` (see its
docstring for the command).  Any change to a report, a prediction, an
energy trace, a graph export or a printed summary fails here; a change in
float order shows up in the 17-digit energies and weights.
"""

from pathlib import Path

from golden_corpus import generate

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_cli_outputs_match_golden_corpus(tmp_path):
    generate(tmp_path)
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    differ = [
        name
        for name in expected
        if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert not differ, f"outputs differ from tests/golden/: {differ}"
