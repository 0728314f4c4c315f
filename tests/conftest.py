import pytest

from plethtomo.tomography import _count_levelwise, _eliminate_letter, _pyramid_table


@pytest.fixture(autouse=True)
def empty_count_memo():
    """Every test starts with empty sum-marginal count memos and pyramid
    tables, so a test that pins how a count runs (recursion limit, time,
    patched internals) runs the DP instead of reading an entry an earlier
    test left."""
    _count_levelwise.cache_clear()
    _eliminate_letter.cache_clear()
    _pyramid_table.cache_clear()
    yield
