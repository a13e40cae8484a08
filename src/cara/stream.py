"""Fixed-memory file ingestion for large graphs.

The graph file is parsed once. The scan keeps the vertex count, edge
indices and confidences (O(N + |E|) scalars) and spools every chunk's
validated rotations to an unlinked temporary file in ``TMPDIR`` (72 bytes
per edge on disk), which the solver passes read through a read-only
memory map; no rotation stack is held in memory and the text is not
parsed again.

The scan reads through :class:`cara.graph.RecordReader` and validates
exactly as :func:`cara.graph.parse` does, so ``--stream`` accepts and
rejects exactly the files the in-memory path does, with the same error
line. Its :class:`FileEdgeStream` then takes the in-memory steps (tree,
then :mod:`cara.solver`), so the estimates match bit for bit for every kernel.
"""
from __future__ import annotations

import tempfile

import numpy as np

from . import graph, solver
from .graph import EdgeStream
from .solver import RobustKernel, SolveConfig, SolveReport
from .tree_init import maximum_spanning_tree, propagate


class FileEdgeStream(EdgeStream):
    """EdgeStream over a graph file on disk, read once by the scan.

    Edges are normalized to i < j (the rotation is transposed when the
    file stores the pair reversed), matching the in-memory builder. The
    map of the closed, unlinked store keeps it until the stream is
    dropped, so later changes to ``path`` do not reach the passes.
    """

    def __init__(self, path):
        self.path = path
        with graph.open_text(path) as fh, tempfile.TemporaryFile() as store:
            n, ii, jj, _, conf, _ = graph.read_graph(
                fh, spool=lambda rots: store.write(np.ascontiguousarray(rots)))
            store.flush()
            # mmap cannot map an empty file
            rots = (np.memmap(store, dtype=float, mode="r", shape=(len(ii), 3, 3))
                    if len(ii) else np.empty((0, 3, 3)))
        super().__init__(n, ii, jj, conf, rots)


def initialize_from_stream(stream: EdgeStream) -> tuple[np.ndarray, tuple[str, ...]]:
    """Spanning-tree initialization, as in memory; only the N-1 tree
    rotations are read from the store. Returns (rotations, the tree's
    diagnostics); the tree's index arrays are dropped before the solve."""
    tree = maximum_spanning_tree(stream)
    return propagate(tree, stream), tree.diagnostics


def solve_file_streaming(path, config: SolveConfig | None = None,
                         kernel: RobustKernel | None = None) -> SolveReport:
    """Full streaming pipeline: scan, tree-initialize, then solve (cao for
    the default confidence kernel, IRLS for the others): the in-memory
    ``cara solve`` steps and checks in the same order. The report's
    diagnostics start with the spanning tree's."""
    stream = FileEdgeStream(path)
    init, diagnostics = initialize_from_stream(stream)
    if kernel is None or kernel.kind == "confidence":
        report = solver.cao_solve(stream, init, config)
    else:
        report = solver.irls_solve(stream, init, kernel, config)
    report.diagnostics[:0] = diagnostics
    return report
