import pytest

from uplane import curves


@pytest.fixture(autouse=True)
def cold_family_cache():
    """Each test starts with no family loaded: `load_family` shares one family, and its
    memo, per file content for the whole process, so an earlier test would otherwise
    decide what a later one builds."""
    curves._family_from_text.cache_clear()
