from functools import lru_cache

import pytest

from gkod import oracle


_ORACLE_CACHE = {}
_run_target = oracle.run_target
_matrix_group = oracle.matrix_group


@lru_cache(maxsize=None)
def _default_matrix_group(g):
    """oracle.matrix_group(g) at DEFAULT_SEED, built once per test session."""
    return _matrix_group(g, oracle.DEFAULT_SEED)


@pytest.fixture(scope="session")
def default_group():
    """The registered matrix target of a name built at DEFAULT_SEED, from
    the same session cache that oracle_runner's closures come from."""
    return lambda name: _default_matrix_group(oracle._MATRIX_TARGETS[name])


def _cached_matrix_group(g, seed=oracle.DEFAULT_SEED):
    if seed == oracle.DEFAULT_SEED:
        return _default_matrix_group(g)
    return _matrix_group(g, seed)


@pytest.fixture(scope="session")
def oracle_runner():
    """Session-cached oracle runs; the big closures execute once even when
    several tests compare against them.  run_target runs once per target,
    and takes its matrix group from the default_group cache."""

    def run(name):
        if name not in _ORACLE_CACHE:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "matrix_group", _cached_matrix_group)
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
