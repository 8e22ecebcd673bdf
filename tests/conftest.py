import pytest

from srlab import star_check


@pytest.fixture(autouse=True)
def _empty_verdict_memo():
    """Empty the mutual-reduction verdict memo, so that a test that names a
    search runs that search rather than reading an earlier test's entry."""
    star_check._VERDICTS.clear()
