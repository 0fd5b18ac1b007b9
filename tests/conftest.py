import pytest

from gkod import oracle


_ORACLE_CACHE = {}
_run_target = oracle.run_target


@pytest.fixture(scope="session")
def oracle_runner():
    """Session-cached oracle runs; the big closures execute once even when
    several tests compare against them."""

    def run(name):
        if name not in _ORACLE_CACHE:
            _ORACLE_CACHE[name] = _run_target(name)
        return _ORACLE_CACHE[name]

    return run


@pytest.fixture
def cached_oracle(monkeypatch, oracle_runner):
    """oracle.run_target answering from the session cache at the default
    seed, so that `gk oracle SU4_3` or `SP4_5` in a test closes no group
    that another test has already closed."""

    def run(name, seed=oracle.DEFAULT_SEED):
        if seed == oracle.DEFAULT_SEED:
            return oracle_runner(name)
        return _run_target(name, seed)

    monkeypatch.setattr(oracle, "run_target", run)
