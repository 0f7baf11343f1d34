import ast
import pathlib
import re
import sys

import pytest

import ovalbounds

SRC = pathlib.Path(ovalbounds.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def _imported_packages() -> set[str]:
    """Top-level names of every absolute import under the package, at module
    level or inside functions."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"ovalbounds"}
    assert "orjson" in third_party  # imported inside a function
    assert third_party <= declared
