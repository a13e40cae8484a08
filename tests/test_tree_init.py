import itertools
import math

import numpy as np
import pytest

from cara import graph as gm
from cara import metrics, so3, synth, tree_init
from cara.errors import NotConnectedError
from cara.graph import EdgeStream
from conftest import edge_arrays


def make_graph(n, weighted_pairs, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, j, so3.random_rotation(rng), c) for i, j, c in weighted_pairs]
    return gm.build(n, *edge_arrays(edges))


def exhaustive_max_tree_weight(n, weighted_pairs):
    """Brute force: max total confidence over all spanning edge subsets."""
    best = None
    for subset in itertools.combinations(weighted_pairs, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j, _ in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if acyclic:
            w = sum(c for _, _, c in subset)
            best = w if best is None else max(best, w)
    return best


def tree_pairs(tree):
    """The tree's edges as a set of (smaller, larger) vertex pairs."""
    return set(zip(np.minimum(tree.parents, tree.children).tolist(),
                   np.maximum(tree.parents, tree.children).tolist()))


class TestMaximumSpanningTree:
    def test_triangle_brute_force(self):
        g = make_graph(3, [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.1)])
        tree = tree_init.maximum_spanning_tree(g)
        assert tree_pairs(tree) == {(0, 1), (0, 2)}
        assert tree.total_confidence == pytest.approx(1.7)

    def test_chain_is_unique_tree(self):
        g = make_graph(5, [(i, i + 1, 0.5) for i in range(4)])
        tree = tree_init.maximum_spanning_tree(g)
        assert tree_pairs(tree) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_exhaustive_oracle_100_seeds(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            # connected random graph: spanning chain plus random extras
            pairs = {(i, i + 1) for i in range(n - 1)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        pairs.add((i, j))
            weighted = [(i, j, float(rng.random())) for i, j in sorted(pairs)]
            g = make_graph(n, weighted, seed=int(rng.integers(1 << 30)))
            tree = tree_init.maximum_spanning_tree(g)
            assert tree.total_confidence == pytest.approx(
                exhaustive_max_tree_weight(n, weighted), abs=1e-12)

    def test_disconnected_raises_with_components(self):
        g = make_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        with pytest.raises(NotConnectedError) as err:
            tree_init.maximum_spanning_tree(g)
        assert sorted(map(tuple, err.value.components)) == [(0, 1), (2, 3)]

    def test_huge_n_counts_components_in_bounded_memory(self, traced_peak):
        # An O(N) allocation at this N fails at once.
        n = 10 ** 12
        stream = EdgeStream(n, [0, 5], [1, 7], [0.9, 0.9], np.stack([np.eye(3)] * 2))

        def tree():
            with pytest.raises(NotConnectedError) as err:
                tree_init.maximum_spanning_tree(stream)
            return err

        err, peak = traced_peak(tree)
        assert peak < 1 << 20
        assert err.value.count == n - 2
        assert err.value.components == [[0, 1], [2], [3], [4], [5, 7], [6], [8], [9],
                                        [10], [11]]

    def test_edge_order_invariance(self):
        # equal confidences: tie-breaking must not depend on input order
        rng = np.random.default_rng(5)
        pairs = [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)]
        rots = {(i, j): so3.random_rotation(rng) for i, j, _ in pairs}
        trees = []
        for perm in itertools.permutations(pairs):
            edges = [(i, j, rots[(i, j)], c) for i, j, c in perm]
            g = gm.build(4, *edge_arrays(edges))
            tree = tree_init.maximum_spanning_tree(g)
            trees.append(tuple(sorted(tree_pairs(tree))))
        assert len(set(trees)) == 1

    def test_low_confidence_diagnostic(self):
        g = make_graph(3, [(0, 1, 0.9), (1, 2, 0.001)])
        tree = tree_init.maximum_spanning_tree(g)
        assert len(tree.diagnostics) == 1

    def test_root_is_strongest_vertex(self):
        g = make_graph(4, [(0, 1, 0.2), (1, 2, 0.9), (1, 3, 0.8), (2, 3, 0.1)])
        tree = tree_init.maximum_spanning_tree(g)
        assert tree.root == 1


class TestPropagate:
    def test_two_vertices(self):
        rng = np.random.default_rng(1)
        R = so3.random_rotation(rng)
        g = gm.build(2, *edge_arrays([(0, 1, R, 0.9)]))
        tree = tree_init.maximum_spanning_tree(g)
        rotations = tree_init.propagate(tree, g)
        root = tree.root
        np.testing.assert_allclose(rotations[root], np.eye(3))
        # consistency with the edge under R_01 = R_1 R_0^T
        np.testing.assert_allclose(rotations[1] @ rotations[0].T, R, atol=1e-12)

    def test_chain_of_commuting_rotations(self):
        rz = so3.exp_map([0, 0, math.pi / 6])
        edges = [(i, i + 1, rz, 1.0 - 0.01 * i) for i in range(3)]
        g = gm.build(4, *edge_arrays(edges))
        tree = tree_init.maximum_spanning_tree(g)
        rotations = tree_init.propagate(tree, g)
        rel = rotations[3] @ rotations[0].T
        np.testing.assert_allclose(rel, so3.exp_map([0, 0, math.pi / 2]),
                                   atol=1e-12)

    def test_noise_free_complete_graph_recovers_gt(self):
        rng = np.random.default_rng(3)
        n = 8
        gt = [so3.random_rotation(rng) for _ in range(n)]
        edges = [(i, j, gt[j] @ gt[i].T, rng.random())
                 for i in range(n) for j in range(i + 1, n)]
        g = gm.build(n, *edge_arrays(edges), ground_truth=gt)
        tree = tree_init.maximum_spanning_tree(g)
        rotations = tree_init.propagate(tree, g)
        stats = metrics.error_stats(rotations, np.stack(gt))
        assert stats.mean < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_long_chain_stays_orthonormal(self, seed):
        # A 2000-camera window-1 chain composes up to 1999 edges along one
        # path. The normalized quaternion products read 2.2e-15 off
        # orthonormal; chaining the 3x3 matrices drifted to 9.2e-14.
        g = synth.generate(synth.SyntheticSceneSpec(
            n=2000, topology="chain_window", chain_window=1,
            noise_sigma=math.radians(5), seed=seed)).graph
        rotations = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
        gram = rotations @ rotations.transpose(0, 2, 1)
        assert np.abs(gram - np.eye(3)).max() <= 1e-14
