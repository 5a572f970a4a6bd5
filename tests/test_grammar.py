"""Every Python file of the project parses under the Python 3.10 grammar,
the oldest that pyproject's `requires-python` admits.

This checks grammar only (`ast.parse` with `feature_version=(3, 10)`, so
`except*` and other newer syntax are rejected); it does not import the
files, so a library call or standard-library name that is newer than
3.10 goes unnoticed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "perfbench")
               for path in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert len(FILES) >= 25


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
