"""Fixed-memory file ingestion for large graphs.

The graph file is parsed once. The scan keeps the vertex count, edge
indices and confidences (O(N + |E|) scalars) and spools every chunk's
validated rotations, each followed by its quaternion (w, x, y, z), to an
unlinked temporary file in ``TMPDIR`` (13 floats, 104 bytes per edge on
disk). The tree reads the rotations as floats and the solver's sweeps read
the quaternions as complex pairs (w + x i, y + z i), two views of one
read-only memory map; no rotation or quaternion stack is held in memory
and the text is not parsed again.

The scan reads through :class:`cara.graph.RecordReader` and validates
exactly as :func:`cara.graph.parse` does, so ``--stream`` accepts and
rejects exactly the files the in-memory path does, with the same error
line. This module has no solve step of its own: ``cara solve --stream``
hands the :class:`FileEdgeStream` to :func:`cara.cli._solve`, whose two
steps (spanning tree and propagation, then the sweeps) also solve a parsed
graph, so the spanning tree, the warnings and the estimates match bit for
bit for every kernel.
"""
from __future__ import annotations

import tempfile

import numpy as np

from . import graph, kernels
from .graph import EdgeStream

# One spooled edge: its rotation's 9 entries, then its quaternion's 4.
RECORD_FLOATS = 13


def _records(rots):
    """A chunk's (k, 3, 3) rotations as (k, RECORD_FLOATS) store records."""
    records = np.empty((len(rots), RECORD_FLOATS))
    records[:, :9] = rots.reshape(-1, 9)
    records[:, 9:] = kernels.batch_quat(rots).T.view(float)
    return records


class FileEdgeStream(EdgeStream):
    """EdgeStream over a graph file on disk, read once by the scan.

    Edges are normalized to i < j (the rotation is transposed when the
    file stores the pair reversed), matching the in-memory builder.
    ``rotations`` and the (2, M) complex ``quaternions``, which the solver
    sweeps instead of converting the rotations, are views of one map of
    the closed, unlinked store; it lives until the stream is dropped, so
    later changes to the file do not reach the solve.
    """

    def __init__(self, path):
        with graph.open_text(path) as fh, tempfile.TemporaryFile() as store:
            n, ii, jj, _, conf, _ = graph.read_graph(
                fh, spool=lambda rots: store.write(_records(rots)))
            store.flush()
            # mmap cannot map an empty file
            records = (np.memmap(store, dtype=float, mode="r",
                                 shape=(len(ii), RECORD_FLOATS))
                       if len(ii) else np.empty((0, RECORD_FLOATS)))
        super().__init__(n, ii, jj, conf, records[:, :9].reshape(-1, 3, 3),
                         records[:, 9:].view(complex).T)


def solve_file_streaming(path, solve):
    """``solve(FileEdgeStream(path))``: ``cara solve --stream`` passes the
    pipeline :func:`cara.cli._solve`, with its settings bound."""
    return solve(FileEdgeStream(path))
