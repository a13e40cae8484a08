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
line, and solves them to the same estimates, bit for bit.
"""
from __future__ import annotations

import tempfile

import numpy as np

from . import graph
from .solver import (EdgeStream, SolveConfig, SolveReport, _check_connectivity,
                     cao_solve_stream)
from .tree_init import _chain, _pick_root, _prim


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


def initialize_from_stream(stream: EdgeStream) -> tuple[np.ndarray, int]:
    """Spanning-tree initialization from the scalar edge data: Prim, then
    only the N-1 tree rotations are gathered. Returns (rotations, root)."""
    n, ii, jj, conf = stream.n_vertices, stream.ii, stream.jj, stream.confidences
    root = _pick_root(n, ii, jj, conf)
    tree = _prim(n, ii, jj, conf, root)
    rels = stream.rotations[[e for _, _, e in tree]]
    links = [(child, parent, rel if ii[e] == parent else rel.T)
             for (child, parent, e), rel in zip(tree, rels)]
    return _chain(n, root, links), root


def solve_file_streaming(path, config: SolveConfig | None = None) -> SolveReport:
    """Full streaming pipeline: scan, tree-initialize, iterate WLS."""
    stream = FileEdgeStream(path)
    _check_connectivity(stream.n_vertices, stream.ii, stream.jj, stream.confidences)
    init, root = initialize_from_stream(stream)
    return cao_solve_stream(stream, init, config, anchor_vertex=root)
