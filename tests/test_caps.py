"""The size caps of the library, checked by a scan of its source.

Every `raise SizeCapError` must sit directly under an `if` that compares
against a module-level UPPER_CASE constant of its own module, so that each
cap is one named number; and the README must name each of those constants.
"""

import ast
from pathlib import Path

import plethtomo

README = Path(__file__).resolve().parents[1] / "README.md"


def cap_guards(tree: ast.Module) -> tuple[list[str], list[int]]:
    """The constants that guard the `raise SizeCapError` statements of a
    module, and the lines of the raises that no such constant guards."""
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    guard_of = {id(stmt): node.test for node in ast.walk(tree) if isinstance(node, ast.If) for stmt in node.body}
    found, unguarded = [], []
    for node in ast.walk(tree):
        exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) else getattr(node, "exc", None)
        if not (isinstance(node, ast.Raise) and isinstance(exc, ast.Name) and exc.id == "SizeCapError"):
            continue
        test = guard_of.get(id(node))
        names = [
            operand.id
            for compare in (ast.walk(test) if test is not None else ())
            if isinstance(compare, ast.Compare)
            for operand in (compare.left, *compare.comparators)
            if isinstance(operand, ast.Name) and operand.id in constants
        ]
        if names:
            found += names
        else:
            unguarded.append(node.lineno)
    return found, sorted(unguarded)


def test_scan_finds_guarded_and_unguarded_raises():
    source = (
        "CAP = 3\n"
        "def f(n):\n"
        "    if n > CAP:\n"
        "        raise SizeCapError('over')\n"
        "    limit = 4\n"
        "    if n > limit:\n"
        "        raise SizeCapError('over')\n"
        "    raise SizeCapError('always')\n"
    )
    assert cap_guards(ast.parse(source)) == (["CAP"], [7, 8])


def test_every_size_cap_is_a_named_constant_in_the_readme():
    package = Path(plethtomo.__file__).parent
    readme = README.read_text(encoding="utf-8")
    caps = set()
    for path in sorted(package.glob("*.py")):
        found, unguarded = cap_guards(ast.parse(path.read_text(encoding="utf-8")))
        assert not unguarded, f"{path.name}: SizeCapError raised at lines {unguarded} without a named cap"
        caps.update(found)
    assert {"AXIS_STATE_CAP", "JACOBI_TRUDI_ROWS_CAP", "KRON_N_MAX", "POWER_SUM_N_MAX"} <= caps
    missing = sorted(name for name in caps if name not in readme)
    assert not missing, f"the README names no cap {missing}"
