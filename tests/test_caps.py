"""The size caps and memos of the library, checked by a scan of its source.

Every `raise SizeCapError` must sit directly under an `if` that compares
against a module-level UPPER_CASE constant of its own module, so that each
cap is one named number; and the README must name each of those constants.
The README's Concurrency section must name every memo: each `lru_cache`
function and each module-level dict that starts empty.  Every `lru_cache`
has a finite maxsize, but for a commented keep-list.  In `characters`,
one per-size memo walks the partitions of n: `_classes`, the class table
that every character sum and Schur table reads; and only the functions that
evaluate a character build a beta mask.  The package's records are plain
slots classes: `CoefficientResult` is its one dataclass, and `coefficients`
the one module that imports `dataclasses`, whose import a fresh CLI process
pays for at start-up.  The memos that the scan finds are the ones the test
fixture empties; each module imports only from a lower level, but for one
pending import; and every public function or class has a reader in the
package (`__init__` aside) or in `perfbench/`, unless a commented keep-list
names it.
"""

import ast
import importlib
from pathlib import Path

from conftest import MEMOS

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
    assert {"_q_cache", "_letter_counts", "kostka", "_kostka_row", "_strip_removals", "_mn", "_pyramid_table", "pyramid_marginal", "_greedy_fill"} <= found
    missing = sorted(name for name in found if f"`{name}`" not in section)
    assert not missing, f"the README's Concurrency section names no memo {missing}"


# the memos with no bound, each on purpose: _mn, the Murnaghan-Nakayama
# recursion's memo, whose sub-results every character sum shares (the
# README's Concurrency section names it unbounded)
UNBOUNDED_MEMOS = ["characters._mn"]


def unbounded_caches(tree: ast.Module) -> list[str]:
    """The functions of a module whose memo has no finite maxsize: an
    `lru_cache` given maxsize None, by keyword or position, or `cache`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                func = deco.func if call else deco
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "cache":
                    found.append(node.name)
                elif name == "lru_cache" and call is not None:
                    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
                    if sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None:
                        found.append(node.name)
    return found


def test_scan_finds_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "CAP = 8\n"
        "@lru_cache(maxsize=None)\ndef a(n): return n\n"
        "@functools.lru_cache(None)\ndef b(n): return n\n"
        "@cache\ndef c(n): return n\n"
        "@lru_cache\ndef d(n): return n\n"
        "@lru_cache()\ndef e(n): return n\n"
        "@lru_cache(maxsize=CAP)\ndef f(n): return n\n"
        "@functools.lru_cache(16)\ndef g(n): return n\n"
    )
    assert unbounded_caches(ast.parse(source)) == ["a", "b", "c"]


def test_every_lru_cache_is_bounded():
    package = Path(plethtomo.__file__).parent
    found = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py")) for name in unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == UNBOUNDED_MEMOS, f"memos with no finite maxsize: {found}"


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


def test_every_memo_is_emptied_before_each_test():
    package = Path(plethtomo.__file__).parent
    emptied = {id(memo) for memo in MEMOS}
    missed = [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in memos(ast.parse(path.read_text(encoding="utf-8")))
        if id(getattr(importlib.import_module(f"plethtomo.{path.stem}"), name)) not in emptied
    ]
    assert not missed, f"the test fixture does not empty the memos {missed}"


def test_every_memo_starts_empty():
    # the fixture has run: no memo holds an entry that an earlier test left
    held = [
        getattr(memo, "__qualname__", "a dict memo")
        for memo in MEMOS
        if (len(memo) if isinstance(memo, dict) else memo.cache_info().currsize)
    ]
    assert not held, f"memos not emptied: {held}"


# the import levels of the modules: a module imports only from a lower one
LEVELS = {
    "partitions": 1,
    "tableaux": 2,
    "characters": 2,
    "tomography": 2,
    "coefficients": 3,
    "reductions": 4,
    "restricted": 4,
    "sympoly": 4,
    "cli": 5,
}
# the one import that is not from a lower level yet: characters reads
# SizeCapError from tomography (ROADMAP item 1 moves the class to
# partitions together with the benchmark's ready-probe fix)
PENDING_UPWARD = ["characters -> tomography"]


def package_imports(tree: ast.Module) -> list[tuple[str, list[str]]]:
    """(module, names) of every `from .x import` of a module, at any depth;
    the module is "" for `from . import`."""
    return [(node.module or "", [alias.name for alias in node.names]) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_scan_finds_package_imports():
    source = "import os\nfrom . import __version__\nfrom .a import b, c\ndef f():\n    from .d import e\nfrom os import path\n"
    assert package_imports(ast.parse(source)) == [("", ["__version__"]), ("a", ["b", "c"]), ("d", ["e"])]


def test_modules_import_only_from_lower_levels():
    package = Path(plethtomo.__file__).parent
    upward = []
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        assert path.stem in LEVELS, f"{path.stem} has no import level"
        for module, names in package_imports(ast.parse(path.read_text(encoding="utf-8"))):
            # cli reads the package's __version__
            if (path.stem, module, names) == ("cli", "", ["__version__"]):
                continue
            if LEVELS.get(module, LEVELS[path.stem]) >= LEVELS[path.stem]:
                upward.append(f"{path.stem} -> {module or '.'}")
    assert upward == PENDING_UPWARD, f"imports not from a lower level: {upward}"


# public names that nothing in src/ but __init__, and nothing in perfbench/,
# reads; each stays on purpose
KEPT_PUBLIC = {
    # the paper's maps and checkers: the witness maps of the symmetrization,
    # the pyramid and promise tests, the degree lift and the last stage
    "gamma_embed",
    "gamma_extract",
    "is_pyramid",
    "inner_lift",
    "promise_to_plethysm",
    "is_promise_instance",
    # the S_n character value, the one public character entry
    "sn_character",
    # the Schur polynomial, until sympoly's public surface is settled
    # (ROADMAP item 1)
    "schur_poly",
}


def public_definitions(tree: ast.Module) -> list[str]:
    """The public functions and classes defined at a module's top level."""
    return [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def references(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare or as an attribute, outside the
    definition of that same name (a recursive call is not a reader)."""
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name not in (None, own):
                    found.add(name)
    return found


def test_scan_finds_public_definitions_and_references():
    source = "import m\nX = 1\ndef f(n):\n    return f(n - 1)\ndef _g():\n    return m.h(f)\nclass C:\n    pass\n"
    tree = ast.parse(source)
    assert public_definitions(tree) == ["f", "C"]
    assert references(tree) == {"m", "h", "f", "n"}


def test_every_public_name_has_a_reader():
    package = Path(plethtomo.__file__).parent
    defined, read = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(dict.fromkeys(public_definitions(tree), path.stem))
        if path.stem != "__init__":
            read |= references(tree)
    for path in sorted((README.parent / "perfbench").glob("*.py")):
        read |= references(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(f"{module}.{name}" for name, module in defined.items() if name not in read | KEPT_PUBLIC)
    assert not unread, f"public names that nothing reads: {unread}"
    assert KEPT_PUBLIC <= defined.keys()
