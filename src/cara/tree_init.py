"""Initialization from a maximum spanning tree over edge confidences.

The tree is scipy's minimum spanning tree over each edge's rank under
(-c, i, j), so the highest-confidence edges win and ties break toward
the smallest pair; absolute rotations are then chained outward from the
root in breadth-first order. Both take any :class:`cara.graph.EdgeStream`,
so the in-memory graph and the ``--stream`` file scan share them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InvalidArgumentError, NotConnectedError
from .graph import EdgeStream, components

LOW_CONFIDENCE_WARN = 0.01


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Tree edges in breadth-first order from ``root``: the k-th joins
    ``parents[k]`` to ``children[k]`` and is edge ``edges[k]`` of its graph."""
    root: int
    parents: np.ndarray
    children: np.ndarray
    edges: np.ndarray
    total_confidence: float
    diagnostics: tuple[str, ...] = ()


def _pick_root(n, ii, jj, conf) -> int:
    # Root where the model is most certain: max summed incident confidence,
    # ties broken by lowest index. The sums run in edge order.
    ends = np.column_stack([ii, jj]).ravel()
    return int(np.argmax(np.bincount(ends, np.repeat(conf, 2), minlength=n)))


def _too_few_edges(n, ii, jj) -> NotConnectedError:
    """The error for fewer than n - 1 edges, in O(M log M) whatever n:
    every vertex no edge touches is a component of its own."""
    # Vertex 0 is taken as touched, so that some vertex is.
    touched, ends = np.unique(np.concatenate([[0], ii, jj]), return_inverse=True)
    comps = [touched[c].tolist()
             for c in components(len(touched), *ends[1:].reshape(2, -1))]
    # The first few untouched vertices lie below len(touched) + that many.
    lone = np.setdiff1d(np.arange(min(n, len(touched) + NotConnectedError.LISTED)),
                        touched)
    listed = sorted(comps[:NotConnectedError.LISTED] + [[v] for v in lone.tolist()])
    return NotConnectedError(listed, n - len(touched) + len(comps))


def maximum_spanning_tree(g: EdgeStream) -> SpanningTree:
    """Deterministic maximum spanning tree of the confidence graph.

    Edges are ranked 1..M by the strict key (-c, i, j), so ties between
    equal-confidence edges go to the lexicographically smallest
    (min(i,j), max(i,j)) pair; the minimum spanning tree of those distinct
    ranks is unique and independent of edge input order.
    """
    ii, jj, _, conf = g.edge_arrays()
    n = g.n_vertices
    # Checked before any O(n) allocation, so a huge N record costs O(M).
    if len(ii) < n - 1:
        raise _too_few_edges(n, ii, jj)
    root = _pick_root(n, ii, jj, conf)
    order = np.lexsort((jj, ii, -conf))
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)
    # The ranks' CSR is this function's own, so scipy may work in it
    # rather than in a copy.
    mst = csgraph.minimum_spanning_tree(sp.csr_matrix((rank, (ii, jj)), shape=(n, n)),
                                        overwrite=True)
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
    edges = edge_of[children]

    diagnostics = []
    weak = conf[edges] < LOW_CONFIDENCE_WARN
    if weak.any():
        pairs = ", ".join(f"({p},{c})" for p, c in
                          zip(parents[weak].tolist(), children[weak].tolist()))
        diagnostics.append(
            f"{int(weak.sum())} spanning-tree edge(s) have confidence < "
            f"{LOW_CONFIDENCE_WARN}: {pairs}")
    return SpanningTree(root, parents, children, edges, float(conf[tree].sum()),
                        tuple(diagnostics))


def propagate(tree: SpanningTree, g: EdgeStream) -> np.ndarray:
    """Chain relative rotations from the root: (N, 3, 3) absolute rotations.

    R_root = I and R_child = R_edge @ R_parent in breadth-first order, with
    R_edge transposed where the graph stores the pair as (child, parent).
    """
    n = g.n_vertices
    if len(tree.edges) != n - 1:
        raise InvalidArgumentError(f"tree has {len(tree.edges)} edges, expected {n - 1}")
    rots = g.rotations.take(tree.edges, axis=0)
    flip = tree.parents != g.ii.take(tree.edges)
    rots[flip] = rots[flip].transpose(0, 2, 1)
    rotations = np.full((n, 3, 3), np.nan)
    rotations[tree.root] = np.eye(3)
    for parent, child, rot in zip(tree.parents.tolist(), tree.children.tolist(), rots):
        rotations[child] = rot @ rotations[parent]
    if np.isnan(rotations[:, 0, 0]).any():
        raise InvalidArgumentError("spanning tree does not cover every vertex")
    return rotations
