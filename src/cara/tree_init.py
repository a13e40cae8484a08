"""Initialization from a maximum spanning tree over edge confidences.

The tree is scipy's minimum spanning tree over each edge's rank under
(-c, min(i, j), max(i, j)), so the highest-confidence edges win and ties
break toward the smallest stored pair; absolute rotations are then
chained outward from the root in breadth-first order, as products of the
edges' quaternion pairs.
Both take any :class:`cara.graph.EdgeStream` and read its indices,
confidences and pairs, never its rotation stack, so the in-memory graph,
its pairs alone and the ``--stream`` file scan share them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from . import so3
from .errors import InvalidArgumentError, NotConnectedError
from .graph import EdgeStream, components, csr, pair_order, vertex_sums

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
    return int(np.argmax(vertex_sums(n, ends, np.repeat(conf, 2))))


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


def _rank_order(ii, jj, conf) -> np.ndarray:
    """The edges sorted by the key (-c, min(i, j), max(i, j)), that is
    ``np.lexsort((np.maximum(ii, jj), np.minimum(ii, jj), -conf))``.

    The pairs are taken as stored, (min, max), and put in pair order by
    :func:`cara.graph.pair_order`, which is edge order where they rise.
    Then one sort by -c, whose runs of equal keys are put back in pair
    order, gives the key's permutation at about a third of a 3-key sort's
    cost: each edge's key becomes its run's number times M plus its place
    in pair order (M^2 < 2^63), and one integer sort of those keys leaves
    each place as its remainder."""
    if (ii > jj).any():
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
    m, pairs = len(ii), pair_order(ii, jj)
    if pairs is not None:
        conf = conf[pairs]
    order = np.argsort(-conf)
    c = conf[order]
    order[1:] += m * np.cumsum(c[1:] != c[:-1])
    order.sort()
    order %= m
    return order if pairs is None else pairs[order]


def maximum_spanning_tree(g: EdgeStream) -> SpanningTree:
    """Deterministic maximum spanning tree of the confidence graph.

    Edges are ranked 1..M by the strict key (-c, min(i,j), max(i,j)) of
    :func:`_rank_order`, so ties between equal-confidence edges go to the
    lexicographically smallest stored pair, whichever way round the stream
    holds it; the minimum spanning tree of those distinct ranks is unique
    and independent of edge input order and orientation.
    """
    ii, jj, conf = g.ii, g.jj, g.confidences
    n = g.n_vertices
    # Checked before any O(n) allocation, so a huge N record costs O(M).
    if len(ii) < n - 1:
        raise _too_few_edges(n, ii, jj)
    root = _pick_root(n, ii, jj, conf)
    order = _rank_order(ii, jj, conf)
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)
    # The ranks' CSR is this function's own, so scipy may work in it
    # rather than in a copy.
    mst = csgraph.minimum_spanning_tree(csr(n, ii, jj, rank), overwrite=True)
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
    # An index, not a take: take copies a source that is not C-ordered
    # whole first, as a --stream store's (M, 2) map viewed as (2, M) is.
    ea, eb = g.quaternions[:, tree.edges]
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
