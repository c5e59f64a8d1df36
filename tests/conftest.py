import gc
import random

import pytest

from manetsec.crypto import DeterministicProvider


@pytest.fixture
def provider():
    return DeterministicProvider()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_collection_finish(session):
    # What collection built lives all session: frozen, the cycle collector
    # stops walking it in each full collection, a tenth of the suite's time.
    gc.collect()
    gc.freeze()
