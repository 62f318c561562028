import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from morsl import fqpoly

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


@pytest.fixture
def x_power_routes(monkeypatch):
    """The calls of fqpoly's x^e lane kernel, as (route, spec, deg f): the
    route is "table" when the call asked for f's squaring table and
    "lanes" when it squared coefficient by coefficient."""
    routes = []
    real_lanes, real_table = fqpoly._pow_x_lanes, fqpoly._square_table

    def pow_x_lanes(e, f):
        routes.append(("lanes", f.spec, f.degree()))
        return real_lanes(e, f)

    def square_table(f):
        routes[-1] = ("table", *routes[-1][1:])
        return real_table(f)

    monkeypatch.setattr(fqpoly, "_pow_x_lanes", pow_x_lanes)
    monkeypatch.setattr(fqpoly, "_square_table", square_table)
    return routes


def make_rng(seed: int = 1) -> random.Random:
    return random.Random(seed)
