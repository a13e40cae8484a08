"""Fixed-memory file ingestion for large graphs.

The graph file is parsed once. The scan keeps the vertex count, edge
indices and confidences (O(N + |E|) scalars) and spools the quaternion
pair (w + x i, y + z i) of every chunk's validated rotations to an
unlinked temporary file in ``TMPDIR`` (32 bytes per edge on disk). The
spanning tree reads the indices and confidences; propagation and the
solver's sweeps read the pairs, a read-only memory map of the store. No
rotation or quaternion stack is held in memory and the text is not parsed
again.

The scan reads through :class:`cara.graph.RecordReader` and validates
exactly as :func:`cara.graph.parse` does, so ``--stream`` accepts and
rejects exactly the files the in-memory path does, with the same error
line. This module has no solve step of its own: ``cara solve --stream``
hands the :class:`FileEdgeStream` to :func:`cara.cli._solve`, which also
solves the in-memory path's pairs of a parsed graph, so the spanning tree,
the warnings and the estimates match bit for bit for every kernel.
"""
from __future__ import annotations

import tempfile

import numpy as np

from . import graph, kernels
from .graph import EdgeStream


class FileEdgeStream(EdgeStream):
    """EdgeStream over a graph file on disk, read once by the scan.

    Edges are normalized to i < j (the rotation is transposed when the
    file stores the pair reversed), matching the in-memory builder.
    ``rotations`` is None; the (2, M) complex ``quaternions`` are a view
    of a map of the closed, unlinked store, which lives until the stream
    is dropped, so later changes to the file do not reach the solve.
    """

    def __init__(self, path):
        with graph.open_text(path) as fh, tempfile.TemporaryFile() as store:
            n, ii, jj, _, conf, _ = graph.read_graph(
                fh, spool=lambda rots: store.write(kernels.batch_quat(rots).T))
            store.flush()
            # mmap cannot map an empty file
            pairs = (np.memmap(store, dtype=complex, mode="r", shape=(len(ii), 2))
                     if len(ii) else np.empty((0, 2), dtype=complex))
        super().__init__(n, ii, jj, conf, None, pairs.T)


def solve_file_streaming(path, solve):
    """``solve(FileEdgeStream(path))``: ``cara solve --stream`` passes the
    pipeline :func:`cara.cli._solve`, with its settings bound."""
    return solve(FileEdgeStream(path))
