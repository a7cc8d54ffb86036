"""The package imports only the standard library, numpy and itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "quantcert").glob("*.py"))


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_import_only_stdlib_numpy_or_the_package():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in _imported_modules(path)
        if name.partition(".")[0] not in allowed
    }
    assert not foreign


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
