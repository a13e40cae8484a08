"""Initialization from a maximum spanning tree over edge confidences.

Prim's algorithm picks the highest-confidence edge crossing the frontier
at each step; absolute rotations are then chained outward from the root.
Both take any :class:`cara.graph.EdgeStream`, so the in-memory graph and
the ``--stream`` file scan share them.
"""
from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

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


def _prim(n, ii, jj, conf, root) -> list[tuple[int, int, int]]:
    """Maximum spanning tree grown from root: (child, parent, edge) in the
    order the edges join. The heap holds each edge's rank under the key
    (-c, i, j), so equal confidences go to the lexicographically smallest
    pair and the tree does not depend on edge order."""
    order = np.lexsort((jj, ii, -conf))
    rank = np.argsort(order)
    ends = np.concatenate([ii, jj])
    by_vertex = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[by_vertex], np.arange(n + 1))
    ranks = np.concatenate([rank, rank])[by_vertex]
    others = np.concatenate([jj, ii])[by_vertex]

    in_tree = np.zeros(n, dtype=bool)
    heap: list[int] = []

    def join(v):
        in_tree[v] = True
        s = slice(start[v], start[v + 1])
        for r in ranks[s][~in_tree[others[s]]].tolist():
            heapq.heappush(heap, r)

    join(root)
    tree = []
    while heap and len(tree) < n - 1:
        e = int(order[heapq.heappop(heap)])
        a, b = int(ii[e]), int(jj[e])
        if in_tree[a] and in_tree[b]:
            continue
        parent, child = (a, b) if in_tree[a] else (b, a)
        tree.append((child, parent, e))
        join(child)
    if len(tree) < n - 1:
        raise NotConnectedError(components(n, ii, jj))
    return tree


def maximum_spanning_tree(g: EdgeStream) -> SpanningTree:
    """Deterministic maximum spanning tree of the confidence graph.

    Ties between equal-confidence edges are broken toward the
    lexicographically smallest (min(i,j), max(i,j)) pair, so the tree is
    independent of edge input order.
    """
    ii, jj, rots, conf = g.edge_arrays()
    root = _pick_root(g.n_vertices, ii, jj, conf)
    edges = []
    total = 0.0
    for child, parent, e in _prim(g.n_vertices, ii, jj, conf, root):
        c = float(conf[e])
        rot = rots[e] if parent == ii[e] else rots[e].T
        edges.append(TreeEdge(child, parent, rot, c))
        total += c

    diagnostics = []
    weak = [te for te in edges if te.confidence < LOW_CONFIDENCE_WARN]
    if weak:
        pairs = ", ".join(f"({te.parent},{te.child})" for te in weak)
        diagnostics.append(
            f"{len(weak)} spanning-tree edge(s) have confidence < "
            f"{LOW_CONFIDENCE_WARN}: {pairs}")
    return SpanningTree(root, tuple(edges), total, tuple(diagnostics))


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
