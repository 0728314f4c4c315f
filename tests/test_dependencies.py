"""Every third-party module that a test module imports is declared in
pyproject.toml, so that `pip install -e ".[test]"` gives a suite that
collects."""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

TESTS = Path(__file__).resolve().parent


def _name(requirement):
    """A requirement's distribution name, normalized (PEP 503)."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", requirement).group()).lower()


def test_every_third_party_test_import_is_declared():
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    declared = {_name(req) for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {path.stem for path in TESTS.glob("*.py")} | {"plethtomo"}
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party >= {"pytest", "hypothesis"}
    distributions = packages_distributions()
    undeclared = {
        module for module in third_party
        if not declared & {_name(dist) for dist in distributions.get(module, [module])}
    }
    assert not undeclared, f"imported under tests/ but not declared in pyproject.toml: {sorted(undeclared)}"
