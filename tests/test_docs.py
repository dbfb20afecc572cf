"""Each contract is written once: in its own docstring, and for a module in
one short row of the README's module table."""

import ast
import inspect
import re
from pathlib import Path

import distest

PACKAGE = Path(distest.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_function_and_class_has_a_written_docstring():
    """A docstring that a dataclass generates does not count, so this reads
    the source, not __doc__."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and ast.get_docstring(node) is None):
                missing.append(f"{path.stem}.{node.name}")
    assert missing == []


def test_the_readme_table_has_one_short_row_per_module():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\| `distest\.(\w+)` \|(.*)\|", line)
        if match:
            rows[match.group(1)] = len(match.group(2).split())
    modules = {name for name in distest.__all__ if inspect.ismodule(getattr(distest, name))}
    assert set(rows) == modules
    assert {name: words for name, words in rows.items() if words > 60} == {}
