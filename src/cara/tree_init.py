"""Initialization from a maximum spanning tree over edge confidences.

The tree is scipy's minimum spanning tree over each edge's rank under
(-c, i, j), so the highest-confidence edges win and ties break toward
the smallest pair; absolute rotations are then chained outward from the
root in breadth-first order, as products of the edges' quaternion pairs.
Both take any :class:`cara.graph.EdgeStream` and read its indices,
confidences and pairs, never its rotation stack, so the in-memory graph,
its pairs alone and the ``--stream`` file scan share them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import so3
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
    ii, jj, conf = g.ii, g.jj, g.confidences
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

    q_root = 1 and q_child = q_edge q_parent in breadth-first order, over
    the edges' quaternion pairs (a, b) (see :func:`cara.kernels.quat_residuals`),
    with q_edge conjugated to (conj(a), -b) where the graph stores the pair
    as (child, parent). The N products are normalized and converted to
    matrices once.
    """
    n = g.n_vertices
    if len(tree.edges) != n - 1:
        raise InvalidArgumentError(f"tree has {len(tree.edges)} edges, expected {n - 1}")
    ea, eb = g.quaternions.take(tree.edges, axis=1)
    flip = tree.parents != g.ii.take(tree.edges)
    np.conjugate(ea, out=ea, where=flip)
    np.negative(eb, out=eb, where=flip)
    # Two lists, not N (a, b) tuples, which CPython's free list would keep.
    qa, qb = [np.nan] * n, [np.nan] * n
    qa[tree.root], qb[tree.root] = 1.0, 0.0
    for parent, child, e, f in zip(tree.parents.tolist(), tree.children.tolist(),
                                   ea.tolist(), eb.tolist()):
        a, b = qa[parent], qb[parent]
        qa[child], qb[child] = e * a - f * b.conjugate(), e * b + f * a.conjugate()
    q = np.empty((n, 2), dtype=complex)
    q[:, 0], q[:, 1] = qa, qb
    del qa, qb
    if np.isnan(q[:, 0]).any():
        raise InvalidArgumentError("spanning tree does not cover every vertex")
    q /= np.linalg.norm(q.view(float), axis=1, keepdims=True)
    return so3.matrix_from_quat(q.view(float))
