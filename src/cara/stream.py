"""Edge-by-edge file ingestion for large graphs.

The graph file is scanned once to collect vertex count, edge indices and
confidences (O(N + |E|) scalars); edge rotation matrices are re-parsed
from disk in chunks on every solver pass instead of being buffered, so
peak memory stays independent of how many 3x3 blocks the file holds.

The scan and the passes read through :class:`cara.graph.RecordReader`
and validate exactly as :func:`cara.graph.parse` does, so ``--stream``
accepts and rejects exactly the files the in-memory path does, with the
same error line, and solves them to the same estimates.
"""
from __future__ import annotations

import numpy as np

from . import graph
from .solver import (EdgeStream, SolveConfig, SolveReport, _check_connectivity,
                     cao_solve_stream)
from .tree_init import _chain, _pick_root, _prim


class FileEdgeStream(EdgeStream):
    """EdgeStream backed by a graph file on disk.

    Edges are normalized to i < j on the fly (the rotation is transposed
    when the file stores the pair reversed), matching the in-memory
    builder.
    """

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            n, ii, jj, _, conf, _ = graph.read_graph(fh, keep_rotations=False)
        super().__init__(n, ii, jj, conf)

    def passes(self, chunk_size=graph.CHUNK_RECORDS):
        """Yield (edge_indices, rotations) chunks, re-reading the file."""
        reader = graph.RecordReader(vertex_tags=(), skip_tags=("VERTEX_GT",))
        start = 0
        with open(self.path, encoding="utf-8") as fh:
            for rec in reader.chunks(fh, chunk_size):
                stop = start + len(rec.ii)
                if stop > start:
                    yield np.arange(start, stop), rec.rots
                start = stop


def initialize_from_stream(stream: FileEdgeStream) -> tuple[np.ndarray, int]:
    """Spanning-tree initialization without holding all rotations.

    Runs Prim on the scalar edge data, then gathers only the N-1 tree
    rotations in one extra file pass. Returns (rotations, root).
    """
    n, ii, jj, conf = stream.n_vertices, stream.ii, stream.jj, stream.confidences
    root = _pick_root(n, ii, jj, conf)
    tree = _prim(n, ii, jj, conf, root)
    slot = np.full(len(ii), -1)
    slot[[e for _, _, e in tree]] = np.arange(len(tree))
    rels = np.empty((len(tree), 3, 3))
    for idx, rots in stream.passes():
        s = slot[idx]
        rels[s[s >= 0]] = rots[s >= 0]
    links = [(child, parent, rels[k] if ii[e] == parent else rels[k].T)
             for k, (child, parent, e) in enumerate(tree)]
    return _chain(n, root, links), root


def solve_file_streaming(path, config: SolveConfig | None = None) -> SolveReport:
    """Full streaming pipeline: scan, tree-initialize, iterate WLS."""
    stream = FileEdgeStream(path)
    _check_connectivity(stream.n_vertices, stream.ii, stream.jj, stream.confidences)
    init, root = initialize_from_stream(stream)
    return cao_solve_stream(stream, init, config, anchor_vertex=root)
