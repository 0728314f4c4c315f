import pytest

from plethtomo.tomography import _count_levelwise


@pytest.fixture(autouse=True)
def empty_count_memo():
    """Every test starts with an empty sum-marginal count memo, so a test
    that pins how a count runs (recursion limit, time, patched internals)
    runs the DP instead of reading an entry an earlier test left."""
    _count_levelwise.cache_clear()
    yield
