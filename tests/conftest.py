import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# one profile for every property test: reproducible runs that write no
# example database; modules set only max_examples
settings.register_profile("morsl", derandomize=True, database=None, deadline=None)
settings.load_profile("morsl")
# hypothesis still caches the constants it reads from source files; keep
# that cache in a directory removed when the run ends
_storage = tempfile.TemporaryDirectory(prefix="morsl-hypothesis-")
set_hypothesis_home_dir(_storage.name)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_rng(seed: int = 1) -> random.Random:
    return random.Random(seed)
