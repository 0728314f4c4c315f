import pytest

from plethtomo.characters import _character_row, plethysm_power_expansion
from plethtomo.tableaux import _strip_table
from plethtomo.tomography import _count_levelwise, _letter_counts, _pyramid_table


@pytest.fixture(autouse=True)
def empty_count_memo():
    """Every test starts with empty sum-marginal and letter count memos,
    pyramid tables, Kostka strip tables, character rows and power-sum
    expansions, so a test that pins how a count runs (recursion limit, time,
    patched internals such as characters._mn) runs the DP instead of reading
    an entry an earlier test left."""
    _count_levelwise.cache_clear()
    _letter_counts.clear()
    _pyramid_table.cache_clear()
    _strip_table.cache_clear()
    _character_row.cache_clear()
    plethysm_power_expansion.cache_clear()
    yield
