"""File ingestion for ``cara solve``: one scan of a graph file, two stores.

:func:`scan_pairs` reads the file once through :func:`cara.graph.read_graph`,
the reader of :func:`cara.graph.parse`, so it validates exactly as it does.
It keeps the vertex count, edge indices and confidences (O(N + |E|)
scalars) and hands the quaternion pairs (w + x i, y + z i) of each block's
rotations to a sink; no rotation stack or ground truth is kept. The two
paths differ only in where the pairs go: :func:`read_edge_stream` (in
memory) joins them once in RAM, :class:`FileEdgeStream` (``--stream``)
writes them to an unlinked temporary file in ``TMPDIR`` (32 bytes per
edge) and maps it.
Both accept and reject the same files with the same error line, and give
:func:`cara.cli._solve` the same pairs, so the same estimates bit for bit.
"""
from __future__ import annotations

import tempfile

import numpy as np

from . import graph, kernels
from .graph import EdgeStream


def scan_pairs(path, sink):
    """Read and validate the graph file at ``path`` in one pass of
    :func:`cara.graph.read_graph`, handing each block's quaternion pairs,
    (2, k) complex with edges i < j, to ``sink``. Returns (n, ii, jj, conf)."""
    with graph.open_text(path) as fh:
        return graph.read_graph(fh, lambda rec: sink(kernels.batch_quat(rec.rots)))


def read_edge_stream(path) -> EdgeStream:
    """The in-memory ``cara solve``'s edges: a pair-only EdgeStream of the
    file at ``path``, its pairs joined in RAM once the scan is done."""
    pieces = []
    n, ii, jj, conf = scan_pairs(path, pieces.append)
    pairs = np.concatenate(pieces, axis=1)
    del pieces  # before the constructor's checks, which run inside the read
    return EdgeStream(n, ii, jj, conf, None, pairs)


class FileEdgeStream(EdgeStream):
    """Pair-only EdgeStream of a graph file on disk, read once by the scan.

    ``rotations`` is None; the (2, M) complex ``quaternions`` are a view
    of a map of the closed, unlinked store, which lives until the stream
    is dropped, so later changes to the file do not reach the solve.
    """

    def __init__(self, path):
        with tempfile.TemporaryFile() as store:
            n, ii, jj, conf = scan_pairs(path, lambda q: store.write(q.T))
            store.flush()
            # mmap cannot map an empty file
            pairs = (np.memmap(store, dtype=complex, mode="r", shape=(len(ii), 2))
                     if len(ii) else np.empty((0, 2), dtype=complex))
        super().__init__(n, ii, jj, conf, None, pairs.T)


def solve_file_streaming(path, solve):
    """``solve(FileEdgeStream(path))``: ``cara solve --stream`` passes the
    pipeline :func:`cara.cli._solve`, with its settings bound."""
    return solve(FileEdgeStream(path))
