import pytest

from gkod import oracle


_ORACLE_CACHE = {}


@pytest.fixture(scope="session")
def oracle_runner():
    """Session-cached oracle runs; the big closures execute once even when
    several tests compare against them."""

    def run(name):
        if name not in _ORACLE_CACHE:
            _ORACLE_CACHE[name] = oracle.run_target(name)
        return _ORACLE_CACHE[name]

    return run
