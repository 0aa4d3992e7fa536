"""Make the sibling oracle helpers importable from any invocation dir, and
share the fixtures several test files use."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def replay_passes(monkeypatch) -> list:
    """The programs that ``executor._replay``, the exact replay's pass,
    runs on from here on, in call order."""
    from cvcluster import executor

    passes = []
    real = executor._replay

    def counting(program):
        passes.append(program)
        return real(program)

    monkeypatch.setattr(executor, "_replay", counting)
    return passes


@pytest.fixture
def scripts():
    """``executor._script``, the cache of frontier scripts, emptied before
    and after the test, so that no test sees another's structures."""
    from cvcluster import executor

    executor._script.cache_clear()
    yield executor._script
    executor._script.cache_clear()
