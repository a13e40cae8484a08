"""Initialization from a maximum spanning tree over edge confidences.

The tree is scipy's minimum spanning tree over each edge's rank under
(-c, i, j), so the highest-confidence edges win and ties break toward
the smallest pair; absolute rotations are then chained outward from the
root in breadth-first order. Both take any :class:`cara.graph.EdgeStream`,
so the in-memory graph and the ``--stream`` file scan share them.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InvalidArgumentError, NotConnectedError
from .graph import EdgeStream, components

LOW_CONFIDENCE_WARN = 0.01


@dataclass(frozen=True, eq=False)
class TreeEdge:
    child: int
    parent: int
    rotation: np.ndarray  # maps parent frame to child: R_child @ R_parent.T
    confidence: float


@dataclass(frozen=True, eq=False)
class SpanningTree:
    root: int
    parent_edges: tuple[TreeEdge, ...]
    total_confidence: float
    diagnostics: tuple[str, ...] = field(default=())


def _pick_root(n, ii, jj, conf) -> int:
    # Root where the model is most certain: max summed incident confidence,
    # ties broken by lowest index. The sums run in edge order.
    ends = np.column_stack([ii, jj]).ravel()
    return int(np.argmax(np.bincount(ends, np.repeat(conf, 2), minlength=n)))


def maximum_spanning_tree(g: EdgeStream) -> SpanningTree:
    """Deterministic maximum spanning tree of the confidence graph.

    Edges are ranked 1..M by the strict key (-c, i, j), so ties between
    equal-confidence edges go to the lexicographically smallest
    (min(i,j), max(i,j)) pair; the minimum spanning tree of those distinct
    ranks is unique and independent of edge input order. ``parent_edges``
    come in breadth-first order from the root.
    """
    ii, jj, rots, conf = g.edge_arrays()
    n = g.n_vertices
    root = _pick_root(n, ii, jj, conf)
    order = np.lexsort((jj, ii, -conf))
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)
    mst = csgraph.minimum_spanning_tree(sp.csr_matrix((rank, (ii, jj)), shape=(n, n)))
    if mst.nnz < n - 1:
        raise NotConnectedError(components(n, ii, jj))
    tree = order[np.sort(mst.data).astype(np.intp) - 1]
    nodes, pred = csgraph.breadth_first_order(mst, root, directed=False)
    # Each tree edge is the parent edge of its end whose predecessor is
    # the other end.
    a, b = ii[tree], jj[tree]
    edge_of = np.empty(n, dtype=np.intp)
    edge_of[np.where(pred[b] == a, b, a)] = tree
    children = nodes[1:]
    parents = pred[children]
    tree_edges = edge_of[children]
    tree_rots = np.asarray(rots).take(tree_edges, axis=0)
    flip = parents != ii[tree_edges]
    tree_rots[flip] = tree_rots[flip].transpose(0, 2, 1)
    edges = list(map(TreeEdge, children.tolist(), parents.tolist(), tree_rots,
                     conf[tree_edges].tolist()))

    diagnostics = []
    weak = [te for te in edges if te.confidence < LOW_CONFIDENCE_WARN]
    if weak:
        pairs = ", ".join(f"({te.parent},{te.child})" for te in weak)
        diagnostics.append(
            f"{len(weak)} spanning-tree edge(s) have confidence < "
            f"{LOW_CONFIDENCE_WARN}: {pairs}")
    return SpanningTree(root, tuple(edges), float(conf[tree].sum()), tuple(diagnostics))


def propagate(tree: SpanningTree, g: EdgeStream) -> np.ndarray:
    """Chain relative rotations from the root: (N, 3, 3) absolute rotations.

    R_root = I and R_child = tree_rotation @ R_parent, applied in BFS
    order from the root.
    """
    n = g.n_vertices
    if len(tree.parent_edges) != n - 1:
        raise InvalidArgumentError(
            f"tree has {len(tree.parent_edges)} edges, expected {n - 1}")
    children = defaultdict(list)
    for te in tree.parent_edges:
        children[te.parent].append(te)
    rotations = np.full((n, 3, 3), np.nan)
    rotations[tree.root] = np.eye(3)
    queue = deque([tree.root])
    while queue:
        v = queue.popleft()
        for te in children[v]:
            rotations[te.child] = te.rotation @ rotations[v]
            queue.append(te.child)
    if np.isnan(rotations[:, 0, 0]).any():
        raise InvalidArgumentError("spanning tree does not cover every vertex")
    return rotations
