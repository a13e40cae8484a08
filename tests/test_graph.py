import tracemalloc

import numpy as np
import pytest

from cara import graph as gm
from cara import so3, synth
from cara.errors import DuplicateEdgeError, GraphParseError, InvalidArgumentError
from cara.graph import Edge


def rot(seed):
    return so3.random_rotation(seed)


def random_graph(n, p, seed, with_gt=False):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append(Edge(i, j, so3.random_rotation(rng), rng.random()))
    gt = [so3.random_rotation(rng) for _ in range(n)] if with_gt else None
    return gm.build(n, edges, gt) if edges else gm.build(n, [Edge(0, 1, np.eye(3), 1.0)], gt)


class TestBuild:
    def test_minimal(self):
        g = gm.build(2, [Edge(0, 1, rot(0), 0.5)])
        assert g.n_vertices == 2
        assert len(g.edges) == 1

    def test_orientation_normalization(self):
        R = rot(1)
        g = gm.build(3, [Edge(1, 0, R, 0.7)])
        e = g.edges[0]
        assert (e.i, e.j) == (0, 1)
        np.testing.assert_allclose(e.rotation, R.T, atol=1e-12)
        assert e.confidence == 0.7

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            gm.build(2, [Edge(0, 1, rot(0), 0.5), Edge(1, 0, rot(1), 0.2)])

    def test_index_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, [Edge(0, 2, rot(0), 0.5)])

    def test_confidence_range(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, [Edge(0, 1, rot(0), 1.5)])
        with pytest.raises(InvalidArgumentError):
            gm.build(2, [Edge(0, 1, rot(0), -0.1)])

    def test_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, [Edge(1, 1, rot(0), 0.5)])

    def test_too_few_vertices(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(1, [])

    def test_non_rotation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, [Edge(0, 1, np.eye(3) * 2.0, 0.5)])

    def test_gt_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(3, [Edge(0, 1, rot(0), 1.0)], ground_truth=[np.eye(3)])


class TestConnectivity:
    def test_complete_connected(self):
        g = random_graph(5, 1.0, 0)
        assert gm.is_connected(g, 0.0) is True

    def test_zero_confidence_bridge(self):
        # two cliques joined only by a c=0 edge
        edges = [Edge(0, 1, rot(0), 0.9), Edge(2, 3, rot(1), 0.9),
                 Edge(1, 2, rot(2), 0.0)]
        g = gm.build(4, edges)
        assert gm.is_connected(g, -1.0) is True
        assert gm.is_connected(g, 0.01) is False
        comps = gm.connected_components(g, 0.01)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3)]

    def test_against_union_find_oracle(self):
        # independent union-find implementation on 100 seeded graphs
        def uf_connected(n, pairs):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in pairs:
                parent[find(a)] = find(b)
            return len({find(v) for v in range(n)}) == 1

        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.uniform(0.1, 0.9)
            g = random_graph(n, p, int(rng.integers(1 << 30)))
            thresh = rng.uniform(0.0, 1.0)
            pairs = [(e.i, e.j) for e in g.edges if e.confidence > thresh]
            assert gm.is_connected(g, thresh) == uf_connected(n, pairs)


class TestTextFormat:
    def test_roundtrip_small(self):
        g = random_graph(3, 1.0, 5, with_gt=True)
        g2 = gm.parse(gm.serialize(g))
        assert g2.n_vertices == g.n_vertices
        for a, b in zip(g.edges, g2.edges):
            assert (a.i, a.j, a.confidence) == (b.i, b.j, b.confidence)
            assert np.array_equal(a.rotation, b.rotation)
        for a, b in zip(g.ground_truth, g2.ground_truth):
            assert np.array_equal(a, b)

    def test_roundtrip_byte_exact_1000_edges(self):
        rng = np.random.default_rng(17)
        n = 60
        edges = []
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        for i, j in pairs[:1000]:
            edges.append(Edge(i, j, so3.random_rotation(rng), rng.random()))
        g = gm.build(n, edges)
        text = gm.serialize(g)
        assert gm.serialize(gm.parse(text)) == text

    def test_bad_float_count(self):
        text = "N 2\nEDGE 0 1 1 0 0 0 1 0 0 0 0.5\n"  # 8 floats + confidence
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
        assert err.value.line_number == 2

    def test_record_before_n(self):
        with pytest.raises(GraphParseError):
            gm.parse("EDGE 0 1 1 0 0 0 1 0 0 0 1 0.5\nN 2\n")

    def test_unknown_record(self):
        with pytest.raises(GraphParseError):
            gm.parse("N 2\nFOO 1 2\n")

    def test_comments_and_blank_lines(self):
        g = random_graph(3, 1.0, 6)
        text = "# header comment\n\n" + gm.serialize(g).replace(
            "N 3", "N 3  # inline comment")
        g2 = gm.parse(text)
        assert len(g2.edges) == len(g.edges)

    def test_non_rotation_matrix_rejected(self):
        text = "N 2\nEDGE 0 1 2 0 0 0 2 0 0 0 2 0.5\n"
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
        assert err.value.line_number == 2

    def test_missing_n(self):
        with pytest.raises(GraphParseError):
            gm.parse("# empty\n")

    def test_incomplete_ground_truth(self):
        g = random_graph(3, 1.0, 8, with_gt=True)
        lines = [l for l in gm.serialize(g).splitlines()
                 if not l.startswith("VERTEX_GT 1")]
        with pytest.raises(GraphParseError):
            gm.parse("\n".join(lines))

    def test_scientific_notation_accepted(self):
        text = ("N 2\nEDGE 0 1 1.0e0 0 0 0 1E0 0 0 0 1 5e-1\n")
        g = gm.parse(text)
        assert g.edges[0].confidence == 0.5

    def test_reverse_convention_consistency(self):
        # r(j -> i) must equal r(i -> j)^T after normalization
        R = rot(9)
        g_fwd = gm.build(2, [Edge(0, 1, R, 0.5)])
        g_rev = gm.build(2, [Edge(1, 0, R.T, 0.5)])
        np.testing.assert_allclose(g_fwd.edges[0].rotation,
                                   g_rev.edges[0].rotation, atol=1e-12)


def test_parsed_graph_holds_arrays_not_edge_records():
    # 8 B each for i, j and c plus 72 B of rotation: no per-edge objects.
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=400, topology="chain_window", chain_window=10, seed=3))
    text = "\n".join(l for l in gm.serialize(scene.graph).splitlines()
                     if not l.startswith("VERTEX_GT"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = gm.parse(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    m = len(g.ii)
    assert m > 3000 and g.ground_truth is None
    assert retained / m <= 150
    for a in (g.ii, g.jj):
        assert a.dtype == np.intp and a.flags.c_contiguous
    rebuilt = gm.EpipolarConfidenceGraph(g.n_vertices, g.edges, g.ground_truth)
    for a, b in zip(rebuilt.edge_arrays(), g.edge_arrays()):
        np.testing.assert_array_equal(a, b)
