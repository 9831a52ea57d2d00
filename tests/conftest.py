"""Shared test set-up."""
import pytest

from torsionbounds import arith, bounds


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with empty memos, so a test that counts the work of a
    call sees it done, whatever ran before it."""
    for memo in (arith._b_exact, bounds._sieve, bounds._theorem_bounds):
        memo.cache_clear()
