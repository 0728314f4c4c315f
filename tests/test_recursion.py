"""The recursion left in the library, checked by a scan of its source.

Each function that calls its own name is listed by its qualified name
(module, then enclosing functions).  Everything else walks explicit loops
or stacks, so its depth does not grow with the input.  A function added to
or taken off this list changes the test on purpose.
"""

import ast
from pathlib import Path

import plethtomo

# _mn recurses once per cycle of length >= 2 (fixed points close by the
# hook-length formula, so 1100 of them need no recursion); the public entry
# sn_character fills its memo from the deepest level up, so (2,)*550 no
# longer runs out of stack, and the power-sum pairings stay at n <= 40.
# The Jacobi-Trudi terms are built by a loop over rows, and their
# permutation walk lives in tests/ as an oracle
KNOWN_RECURSION = ["characters._mn"]


def self_calling_functions(tree: ast.AST, module: str) -> list[str]:
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                calls = (n for n in ast.walk(child) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name))
                if any(call.func.id == child.name for call in calls):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_scan_finds_nested_and_top_level_recursion():
    source = "def f(n):\n    return f(n - 1) if n else 0\n\ndef g():\n    def rec(k):\n        return rec(k - 1)\n    return rec\n"
    assert self_calling_functions(ast.parse(source), "m") == ["m.f", "m.g.rec"]


def test_recursion_inventory():
    package = Path(plethtomo.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += self_calling_functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == KNOWN_RECURSION
