"""The CLI still writes the committed golden outputs, byte for byte.

``tests/golden/`` was written by ``tests/golden_corpus.py`` (see its
docstring for the command).  Any change to a report, a prediction, an
energy trace, a graph export or a printed summary fails here; a change in
float order shows up in the 17-digit energies and weights.  The failure
names each differing file with its first differing line, so a
regeneration shows what moved.
"""

from itertools import zip_longest
from pathlib import Path

import pytest
from golden_corpus import generate

GOLDEN = Path(__file__).resolve().parent / "golden"


def first_difference(expected: bytes, actual: bytes) -> str:
    """``line N: <expected> != <actual>`` for the first line that differs."""
    pairs = zip_longest(expected.splitlines(), actual.splitlines())
    for lineno, (want, got) in enumerate(pairs, start=1):
        if want != got:
            return f"line {lineno}: {want!r} != {got!r}"
    # the lines agree, so only the line endings or a final newline differ
    return f"line endings: {expected[-20:]!r} != {actual[-20:]!r}"


def test_first_difference_names_the_line_and_both_lines():
    assert first_difference(b"a\nb\nc\n", b"a\nB\nc\n") == "line 2: b'b' != b'B'"
    assert first_difference(b"a\n", b"a\nb\n") == "line 2: None != b'b'"
    assert first_difference(b"a\n", b"a").startswith("line endings:")


def test_cli_outputs_match_golden_corpus(tmp_path):
    generate(tmp_path)
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    differ = []
    for name in expected:
        want, got = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
        if want != got:
            differ.append(f"{name} {first_difference(want, got)}")
    if differ:
        pytest.fail("differs from tests/golden/ (expected != actual):\n" + "\n".join(differ))
