import pytest

from helpers import global_random_state


@pytest.fixture(autouse=True)
def global_random_state_untouched():
    """Every test leaves numpy's global random generator as it found it: the
    library must neither read nor advance a caller's random state."""
    before = global_random_state()
    yield
    assert global_random_state() == before, "the test changed numpy's global random state"
