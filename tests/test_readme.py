"""The README's interactive examples run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    # failures are printed with their expected and actual output
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 8
    assert result.failed == 0
