"""Every test starts from empty synthesis memos, so that a search a test
counts, times or patches is a miss whatever ran before it."""

import pytest

from rqc import synth


@pytest.fixture(autouse=True)
def empty_synthesis_memos():
    synth.synthesize.cache_clear()
    synth._least_up_to_half_turn.cache_clear()
