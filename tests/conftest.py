"""Fixtures and helpers shared by the tests of the process runner,
`honda.fork_map`, and of the sweeps that run on it.

Import the helpers with `from conftest import ...`: pytest puts tests/ on
sys.path.
"""

import os

import pytest

from ccsieve import honda

CPUS = 64  # the CPU count the `forked` tests pin, whatever the machine has


@pytest.fixture
def forked(monkeypatch):
    """Replace the fork step by an in-process run of the chunk, pin
    os.cpu_count to CPUS and record each chunk that would have gone to a
    child, so no test forks more than one child."""
    chunks = []
    monkeypatch.setattr(os, "cpu_count", lambda: CPUS)

    class InlineChunk:
        def __init__(self, fn, chunk):
            chunks.append(chunk)
            self.result = fn(chunk)

        def join(self):
            return self.result

        def kill(self):
            pass

    monkeypatch.setattr(honda, "_ForkedChunk", InlineChunk)
    return chunks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
