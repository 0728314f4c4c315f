import importlib
import pkgutil

import pytest

import plethtomo
from plethtomo.coefficients import _q_cache
from plethtomo.tomography import _letter_counts


def package_memos() -> list:
    """Every memo of the package, found rather than listed: each object with
    a cache_clear in a plethtomo module (the lru_cache functions, and any
    name another module imports them under, kept once), and the two
    module-level dict memos.  __main__ is not imported: it runs the CLI."""
    found = {}
    for info in pkgutil.iter_modules(plethtomo.__path__):
        if info.name != "__main__":
            for obj in vars(importlib.import_module(f"plethtomo.{info.name}")).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return [*found.values(), _letter_counts, _q_cache]


MEMOS = package_memos()


@pytest.fixture(autouse=True)
def empty_count_memo():
    """Every test starts with every memo of the package empty, so a test
    that pins how a count runs (recursion limit, time, patched internals
    such as characters._mn or the strip step) runs the DP instead of
    reading an entry an earlier test left."""
    for memo in MEMOS:
        if isinstance(memo, dict):
            memo.clear()
        else:
            memo.cache_clear()
    yield
