"""The size caps and memos of the library, checked by a scan of its source.

Every `raise SizeCapError` must sit directly under an `if` that compares
against a module-level UPPER_CASE constant of its own module, so that each
cap is one named number; and the README must name each of those constants.
The README's Concurrency section must name every memo: each `lru_cache`
function and each module-level dict that starts empty.  In `characters`,
one per-size memo walks the partitions of n: `_classes`, the class table
that every character sum and Schur table reads; and only the functions that
evaluate a character build a beta mask.  The package's records are plain
slots classes: `CoefficientResult` is its one dataclass, and `coefficients`
the one module that imports `dataclasses`, whose import a fresh CLI process
pays for at start-up.
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


def memos(tree: ast.Module) -> list[str]:
    """The memos of a module: its `lru_cache`-decorated functions, bare or
    called, and its module-level names bound to an empty dict."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if (deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)) == "lru_cache":
                    found.append(node.name)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [target.id for target in targets if isinstance(target, ast.Name)]
    return found


def test_scan_finds_memos():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_memo: dict[int, int] = {}\n"
        "TABLE = {1: 2}\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def f(n): return n\n"
        "@lru_cache\n"
        "def g(n): return n\n"
        "def h(n): return {}\n"
    )
    assert sorted(memos(ast.parse(source))) == ["_memo", "f", "g"]


def test_every_memo_is_named_in_the_readme_concurrency_section():
    package = Path(plethtomo.__file__).parent
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("## Concurrency") :].split("\n## ")[0]
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(memos(ast.parse(path.read_text(encoding="utf-8"))))
    assert {"_q_cache", "_letter_counts", "kostka", "_kostka_row", "_mn", "_pyramid_table", "pyramid_marginal", "_greedy_fill"} <= found
    missing = sorted(name for name in found if f"`{name}`" not in section)
    assert not missing, f"the README's Concurrency section names no memo {missing}"


def callers_of(tree: ast.Module, name: str) -> list[str]:
    """The functions of a module, nested ones by their own name, whose body
    calls name directly or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = (call.func for call in ast.walk(node) if isinstance(call, ast.Call))
            if any((func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name for func in calls):
                found.append(node.name)
    return found


def test_scan_finds_callers():
    source = "def f(n):\n    return p(n)\n\ndef g(n):\n    return m.p(n)\n\ndef h(p):\n    return q(p)\n"
    assert callers_of(ast.parse(source), "p") == ["f", "g"]


def test_one_per_size_walk_in_characters():
    path = Path(plethtomo.__file__).parent / "characters.py"
    assert callers_of(ast.parse(path.read_text(encoding="utf-8")), "partitions_of") == ["_classes"]


def test_beta_masks_only_where_characters_are_evaluated():
    # a beta mask is the input of _mn: the class table, the character rows
    # and the Schur table read shapes, and only the four functions that
    # evaluate a character build a mask
    path = Path(plethtomo.__file__).parent / "characters.py"
    found = callers_of(ast.parse(path.read_text(encoding="utf-8")), "_beta_mask")
    assert sorted(found) == sorted(["sn_character", "_weighted_character", "_kronecker", "_pair"])


def dataclass_use(tree: ast.Module) -> tuple[list[str], bool]:
    """The classes of a module decorated with `dataclass`, bare, called or
    as an attribute, and whether the module imports `dataclasses`."""
    classes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if (deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)) == "dataclass":
                    classes.append(node.name)
    imports = any(
        (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names))
        for node in ast.walk(tree)
    )
    return classes, imports


def test_scan_finds_dataclasses():
    source = (
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class A: pass\n"
        "@dataclass\n"
        "class B: pass\n"
        "class C: pass\n"
    )
    assert dataclass_use(ast.parse(source)) == (["A", "B"], True)
    assert dataclass_use(ast.parse("from dataclasses import field\n")) == ([], True)
    assert dataclass_use(ast.parse("class D: pass\n")) == ([], False)


def test_one_dataclass_and_one_dataclasses_import():
    package = Path(plethtomo.__file__).parent
    classes, importers = {}, []
    for path in sorted(package.glob("*.py")):
        found, imports = dataclass_use(ast.parse(path.read_text(encoding="utf-8")))
        classes.update(dict.fromkeys(found, path.stem))
        if imports:
            importers.append(path.stem)
    assert classes == {"CoefficientResult": "coefficients"}
    assert importers == ["coefficients"]
