"""The README states every input budget with the value the code uses."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "quantcert").glob("*.py"))
BUDGET_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(?:BUDGET|CAP)")
#: a budget named in backticks with its value, e.g. `blocks.VERTEX_BUDGET` = 100
README_BUDGET = re.compile(r"`((?:\w+\.)?[A-Z][A-Z0-9_]*_(?:BUDGET|CAP))` =\s+([^\s;,]+)")


def _budgets():
    """(module, name, value) for every module-level *_BUDGET and *_CAP."""
    for path in SOURCES:
        module = importlib.import_module(f"quantcert.{path.stem}")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and BUDGET_NAME.fullmatch(target.id):
                        yield path.stem, target.id, getattr(module, target.id)


def _usage_error_paragraph(readme: str) -> str:
    start = readme.index("These inputs are usage errors")
    return readme[start : readme.index("\n\n", start)]


def test_readme_states_every_budget_in_decimal():
    readme = (ROOT / "README.md").read_text()
    budgets = list(_budgets())
    assert len(budgets) >= 8
    documented = dict(README_BUDGET.findall(_usage_error_paragraph(readme)))
    labels = set()
    for module, name, value in budgets:
        # a name defined in several modules is written with its module where it
        # is not the unqualified one, as `blocks.VERTEX_BUDGET`
        label = f"{module}.{name}" if f"{module}.{name}" in documented else name
        assert label not in labels, f"{label} documents two budgets"
        labels.add(label)
        assert documented.get(label) == str(value), (label, documented.get(label), value)
    assert set(documented) == labels, "the README names a budget the code does not have"
    # budgets stated elsewhere in the README agree with the paragraph
    for label, text in README_BUDGET.findall(readme):
        assert documented.get(label) == text, (label, text)
