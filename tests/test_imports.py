"""The package imports only the standard library, numpy and itself, and
every public name it defines is read by the package or the benchmark."""

import ast
import json
import os
import re
import subprocess
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


def _numpy_import_sites(path: Path):
    """(module, innermost enclosing function or None) of each numpy import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}
    for fn in ast.walk(tree):  # breadth first: an inner def overwrites its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "numpy" for name in names):
            yield path.stem, owner.get(id(node))


def test_numpy_is_imported_only_by_burau_or_inside_veech_perron():
    """Module level only in ``burau``, inside a function only in ``veech.perron``."""
    sites = {site for path in SOURCES for site in _numpy_import_sites(path)}
    assert sites <= {("burau", None), ("veech", "perron")}


#: after the request, print its exit code and whether numpy, argparse and veech were loaded
_LOADS_NUMPY = """
import contextlib, io, json, sys
from quantcert.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(code, *(name in sys.modules for name in ("numpy", "argparse", "quantcert.veech")))
"""


#: requests the reader refuses (exit 2)
_USAGE_ERRORS = (["orbits", "x", "3"], ["--quiet", "nosuchcommand"])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "1..50"],
        ["orbits", "3", "2"],
        ["blocks", "vertices=2; edges=1-2,1-2,1-2", "--level", "9"],
        ["--format", "json", "blocks", "tadpole", "--tail", "2", "--level", "16"],
        *_USAGE_ERRORS,
        ["certify", "--help"],
    ],
)
def test_request_loads_no_numpy(argv):
    """The package imports each submodule only when a caller does, and only
    ``burau`` and ``veech.perron`` import numpy, which these requests never
    reach.  No request imports argparse: the CLI reads its own arguments,
    help and reading errors included.  Only a ``veech`` request imports
    ``veech``: ``cmd_veech`` imports it, not the top of ``cli``."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS_NUMPY, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    code = 2 if argv in _USAGE_ERRORS else 0
    assert (proc.stdout, proc.stderr) == (f"{code} False False False\n", "")


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


def _defined_names(path: Path):
    """Public names bound at the top level of a module: defs, classes, assignments."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _read_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    readers = SOURCES + sorted((ROOT / "qcbench").glob("*.py"))
    read = {name for path in readers for name in _read_names(path)}
    unread = {
        (path.name, name)
        for path in SOURCES
        for name in _defined_names(path)
        if not name.startswith("_") and name not in read
    }
    assert not unread


def test_input_text_becomes_an_int_only_in_grammar():
    """One numeral rule: no parser calls or passes ``int``, and no option
    converts with ``type=int``; ``grammar.numeral`` does it all."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        parsers = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "parse" in node.name
        ]
        for node in (inner for parser in parsers for inner in ast.walk(parser)):
            if isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Name) and arg.id == "int" for arg in [node.func, *node.args]
            ):
                found.append((path.name, node.lineno, ast.unparse(node)))
        found += [
            (path.name, node.value.lineno, "type=int")
            for node in ast.walk(tree)
            if isinstance(node, ast.keyword)
            and node.arg == "type"
            and isinstance(node.value, ast.Name)
            and node.value.id == "int"
        ]
    assert not found
