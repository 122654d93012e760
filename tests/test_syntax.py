"""The package claims Python 3.10 (``requires-python = ">=3.10"``).

Every module of the package, its tests and its benchmark must parse under
the 3.10 grammar.  The check is best-effort: ``ast.parse`` with
``feature_version`` rejects newer syntax such as ``except*`` and PEP 695
type parameters, but not every f-string that only PEP 701 allows, and it
says nothing about newer standard-library APIs such as
``BaseException.add_note``, which are not syntax.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert ROOT / "src" / "epibias" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
])
def test_newer_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
