"""Byte-for-byte CLI output, pinned against the files in tests/golden/.

Each case runs ``main`` with ``--cache none`` and must exit 0 with nothing
on stderr and exactly the stored text on stdout.  A golden file is the
output of ``python -m powersums.cli <argv> --cache none``.
"""

from pathlib import Path

import pytest

from powersums.cli import main

GOLDEN = Path(__file__).parent / "golden"

SWEEP = ["sweep", "--max-n", "30", "--max-k", "12", "--divisor"]

CASES = {
    "verify": ["verify", "--max-n", "30", "--max-k", "8"],
    **{
        f"divide-{problem}-{fmt}": ["divide", str(problem), "4", "--format", fmt]
        for problem in (2, 3, 4)
        for fmt in ("plain", "json", "latex")
    },
    **{
        f"sweep-{divisor}-{fmt}": [*SWEEP, divisor, "--format", fmt]
        for divisor in ("p2", "p3", "p4")
        for fmt in ("plain", "json")
    },
    "faulhaber-12-json": ["faulhaber", "12", "--format", "json"],
    "faulhaber-range-0-20-plain": ["faulhaber", "--range", "0..20"],
    **{
        f"faulhaber-30-factored-{fmt}": ["faulhaber", "30", "--factored", "--format", fmt]
        for fmt in ("json", "latex")
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main([*CASES[name], "--cache", "none"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
