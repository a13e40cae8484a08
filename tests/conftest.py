import errno
import gc
import os
import sys
import tracemalloc

import numpy as np
import pytest

from cara import kernels

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # Fixed examples and no wall-clock deadline, so tier-1 runs the same
    # inputs every time and its duration stays bounded.
    settings.register_profile("cara", derandomize=True, deadline=None,
                              max_examples=80, database=None)
    settings.load_profile("cara")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests record one result line per criterion; echo them past
    # output capture so piped logs always show the margins
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def edge_arrays(edges):
    """The ``(i, j, R, c)`` tuples ``edges`` as the arrays ``(ii, jj,
    rotations, confidences)``, in the order :func:`cara.graph.build` takes
    them: ``gm.build(n, *edge_arrays(edges))``."""
    ii, jj, rotations, confidences = zip(*edges) if edges else ((), (), (), ())
    return (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
            np.array(rotations, dtype=float).reshape(-1, 3, 3),
            np.array(confidences, dtype=float))


def matrix_residuals(Ri, Rj, Rij):
    """The edge residuals log(Rj^T Rij Ri) of (M, 3, 3) stacks as (M, 3):
    :func:`cara.kernels.quat_residuals` on their ``batch_quat`` pairs."""
    return kernels.quat_residuals(*(kernels.batch_quat(R) for R in (Ri, Rj, Rij)))[0].T


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``, for every test with a memory bound: what ``fn()``
    returns and the peak of the memory it allocated, traced by tracemalloc.
    A full collection runs first: it empties CPython's free lists, which
    tracemalloc counts as allocated, so every bound is read from the same
    state whatever ran before."""
    def run(fn):
        gc.collect()
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak
    return run


@pytest.fixture
def failing_writes(monkeypatch):
    """``failing_writes(path, keep)``: the first write to ``path`` stores at
    most ``keep`` bytes and every later one fails with ENOSPC, as on a full
    disk. Returns the lists of descriptors opened for ``path`` and of all
    descriptors closed."""
    def install(path, keep):
        opened, closed = [], []
        real_open, real_write, real_close = os.open, os.write, os.close
        left = [keep]

        def fake_open(p, flags, *args, **kwargs):
            fd = real_open(p, flags, *args, **kwargs)
            if os.fspath(p) == os.fspath(path):
                opened.append(fd)
            return fd

        def fake_write(fd, data):
            if fd not in opened:
                return real_write(fd, data)
            if left[0] == 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            n = real_write(fd, bytes(data[:left[0]]))
            left[0] = 0
            return n

        def fake_close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", fake_open)
        monkeypatch.setattr(os, "write", fake_write)
        monkeypatch.setattr(os, "close", fake_close)
        return opened, closed
    return install
