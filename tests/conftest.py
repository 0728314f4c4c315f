import pytest

from plethtomo.characters import _character_row, plethysm_power_expansion
from plethtomo.restricted import _psi_decomposition
from plethtomo.tableaux import _kostka_row, _strip_table, kostka
from plethtomo.tomography import _count_levelwise, _letter_counts, _letter_moves, _pyramid_table


@pytest.fixture(autouse=True)
def empty_count_memo():
    """Every test starts with empty sum-marginal and letter count memos,
    letter move tables, pyramid tables, Kostka numbers, rows and strip
    tables, character rows, power-sum expansions and column decompositions,
    so a test that pins how a count runs (recursion limit, time, patched
    internals such as characters._mn or the strip step) runs the DP instead
    of reading an entry an earlier test left."""
    _count_levelwise.cache_clear()
    _letter_counts.clear()
    _letter_moves.cache_clear()
    _pyramid_table.cache_clear()
    _strip_table.cache_clear()
    kostka.cache_clear()
    _kostka_row.cache_clear()
    _character_row.cache_clear()
    plethysm_power_expansion.cache_clear()
    _psi_decomposition.cache_clear()
    yield
