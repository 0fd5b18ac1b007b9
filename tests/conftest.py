import pytest

from gkod import oracle


def pytest_addoption(parser):
    parser.addoption("--heavy", action="store_true", default=False,
                     help="run the large oracle closure (SP4_5)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="heavy tier: pass --heavy to run")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


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
