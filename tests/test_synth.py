import math

import numpy as np
import pytest

from cara import graph as gm
from cara import so3, solver, synth
from cara.errors import GenerationError, InvalidArgumentError
from cara.synth import SyntheticSceneSpec


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticSceneSpec(n=1)
        with pytest.raises(InvalidArgumentError):
            SyntheticSceneSpec(n=5, topology="ring")
        with pytest.raises(InvalidArgumentError):
            SyntheticSceneSpec(n=5, outlier_edge_fraction=1.5)
        with pytest.raises(InvalidArgumentError):
            SyntheticSceneSpec(n=5, noise_sigma=-0.1)
        with pytest.raises(InvalidArgumentError):
            SyntheticSceneSpec(n=5, confidence_model="learned")
        for bad in ({"n": 5.5}, {"n": 5, "topology": "chain_window", "chain_window": 2.5},
                    {"n": 5, "seed": 1.5}, {"n": "5"}):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                SyntheticSceneSpec(**bad)
        spec = SyntheticSceneSpec(n=np.int64(5), chain_window=np.int32(2), seed=np.uint8(1))
        assert synth.generate(spec).graph.n_vertices == 5


class TestGenerate:
    def test_noise_free_edges_exact(self):
        scene = synth.generate(SyntheticSceneSpec(n=6, seed=0))
        g = scene.graph
        gt = np.stack(g.ground_truth)
        for e in g.edges:
            np.testing.assert_allclose(e.rotation, gt[e.j] @ gt[e.i].T,
                                       atol=1e-13)
        assert solver.cal_loss(g, gt) == pytest.approx(0.0, abs=1e-24)

    def test_determinism_byte_exact(self):
        spec = SyntheticSceneSpec(n=8, noise_sigma=math.radians(5),
                                  outlier_edge_fraction=0.2,
                                  confidence_model="informative", seed=42)
        a = synth.generate(spec)
        b = synth.generate(spec)
        assert gm.serialize(a.graph) == gm.serialize(b.graph)
        assert synth.serialize_labels(a) == synth.serialize_labels(b)

    def test_outlier_count_exact(self):
        # complete N=10 has 45 edges; round(0.3 * 45) = 14
        scene = synth.generate(SyntheticSceneSpec(
            n=10, outlier_edge_fraction=0.3, seed=1))
        assert int(np.sum(~scene.edge_labels)) == 14

    def test_oracle_confidences_exact(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=9, noise_sigma=math.radians(5), outlier_edge_fraction=0.25,
            confidence_model="oracle", seed=2))
        conf = scene.graph.confidences
        assert np.all(conf[scene.edge_labels] == 1.0)
        assert np.all(conf[~scene.edge_labels] == synth.ORACLE_EPS)

    def test_chain_window_topology(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=10, topology="chain_window", chain_window=3, seed=3))
        for e in scene.graph.edges:
            assert 1 <= e.j - e.i <= 3
        g = scene.graph
        assert len(gm.components(g.n_vertices, g.ii, g.jj)) == 1

    def test_erdos_connected_or_error(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=12, topology="erdos", erdos_p=0.4, seed=4))
        g = scene.graph
        assert len(gm.components(g.n_vertices, g.ii, g.jj)) == 1
        with pytest.raises(GenerationError):
            synth.generate(SyntheticSceneSpec(
                n=40, topology="erdos", erdos_p=0.01, seed=5))

    def test_inlier_error_distribution(self):
        # mean geodesic error of inliers matches E||n|| = 2 sigma sqrt(2/pi)
        sigma = math.radians(5)
        scene = synth.generate(SyntheticSceneSpec(
            n=150, noise_sigma=sigma, seed=6))
        errs = scene.true_edge_errors[scene.edge_labels]
        assert len(errs) >= 10_000
        expected = 2.0 * sigma * math.sqrt(2.0 / math.pi)
        assert np.mean(errs) == pytest.approx(expected, rel=0.05)

    def test_labels_align_with_edges(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=8, noise_sigma=math.radians(3), outlier_edge_fraction=0.5, seed=7))
        assert len(scene.edge_labels) == len(scene.graph.edges)
        assert len(scene.true_edge_errors) == len(scene.graph.edges)
        # outliers are uniform rotations: their errors should be large on average
        assert (np.mean(scene.true_edge_errors[~scene.edge_labels])
                > np.mean(scene.true_edge_errors[scene.edge_labels]))


# The per-edge loop that synth.generate and corrupt_with_outlier_vertices
# replaced with batch kernels, kept as the reference for their draw order:
# the ground-truth quaternions, the erdos coin flips, the outlier
# permutation, then per edge three noise normals or four quaternion normals.
def reference_generate(spec):
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    gt = [so3.random_rotation(rng) for _ in range(n)]
    if spec.topology == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif spec.topology == "chain_window":
        pairs = [(i, j) for i in range(n)
                 for j in range(i + 1, min(i + spec.chain_window, n - 1) + 1)]
    else:
        while True:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < spec.erdos_p]
            ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            if len(gm.components(n, ends[:, 0], ends[:, 1])) == 1:
                break
    m = len(pairs)
    inlier = np.ones(m, dtype=bool)
    inlier[rng.permutation(m)[:int(round(spec.outlier_edge_fraction * m))]] = False
    rotations = np.empty((m, 3, 3))
    errors = np.empty(m)
    for k, (i, j) in enumerate(pairs):
        true_rel = gt[j] @ gt[i].T
        if inlier[k]:
            rotations[k] = so3.perturb(true_rel, spec.noise_sigma, rng)
        else:
            rotations[k] = so3.random_rotation(rng)
        errors[k] = so3.riemannian_distance(rotations[k], true_rel)
    conf = synth._confidences(spec, inlier, errors, rng)
    return np.array(pairs), np.stack(gt), rotations, conf, inlier, errors


def reference_corrupt(scene, k, seed):
    rng = np.random.default_rng(seed)
    n_old = scene.graph.n_vertices
    n_new = n_old + k
    gt = list(scene.graph.ground_truth) + [so3.random_rotation(rng) for _ in range(k)]
    pairs = [(i, v) for v in range(n_old, n_new) for i in range(n_old)]
    pairs += [(a, b) for a in range(n_old, n_new) for b in range(a + 1, n_new)]
    pairs.sort()
    rotations = np.stack([so3.random_rotation(rng) for _ in pairs])
    errors = np.array([so3.riemannian_distance(rotations[t], gt[j] @ gt[i].T)
                       for t, (i, j) in enumerate(pairs)])
    inlier = np.zeros(len(pairs), dtype=bool)
    conf = synth._confidences(scene.spec, inlier, errors, rng)
    return np.array(pairs), np.stack(gt), rotations, conf, inlier, errors


def assert_matches_reference(g, labels, errors, ref, first_edge=0):
    pairs, gt, rotations, conf, inlier, ref_errors = ref
    ii, jj, rots, c = (a[first_edge:] for a in (g.ii, g.jj, g.rotations, g.confidences))
    np.testing.assert_array_equal(np.stack([ii, jj], axis=1), pairs)
    np.testing.assert_array_equal(labels[first_edge:], inlier)
    np.testing.assert_allclose(np.stack(g.ground_truth), gt, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rots, rotations, rtol=0, atol=1e-14)
    np.testing.assert_allclose(c, conf, rtol=0, atol=1e-14)
    np.testing.assert_allclose(errors[first_edge:], ref_errors, rtol=0, atol=1e-14)


class TestMatchesPerEdgeReference:
    @pytest.mark.parametrize("model", synth.CONFIDENCE_MODELS)
    @pytest.mark.parametrize("topology", synth.TOPOLOGIES)
    def test_generate(self, topology, model):
        # erdos p=0.15 on 25 vertices takes three draws at seed 23
        spec = SyntheticSceneSpec(
            n=25, topology=topology, erdos_p=0.15, chain_window=4,
            noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
            confidence_model=model, seed=23)
        scene = synth.generate(spec)
        assert_matches_reference(scene.graph, scene.edge_labels,
                                 scene.true_edge_errors, reference_generate(spec))

    @pytest.mark.parametrize("model", synth.CONFIDENCE_MODELS)
    def test_corrupt_with_outlier_vertices(self, model):
        scene = synth.generate(SyntheticSceneSpec(
            n=12, noise_sigma=math.radians(5), outlier_edge_fraction=0.2,
            confidence_model=model, seed=22))
        out = synth.corrupt_with_outlier_vertices(scene, 4, 23)
        assert_matches_reference(out.graph, out.edge_labels, out.true_edge_errors,
                                 reference_corrupt(scene, 4, 23),
                                 first_edge=len(scene.graph.ii))


class TestCorruptWithOutlierVertices:
    def test_k_zero_identity(self):
        scene = synth.generate(SyntheticSceneSpec(n=7, seed=8))
        assert synth.corrupt_with_outlier_vertices(scene, 0, 1) is scene

    def test_vertex_and_edge_counts(self):
        scene = synth.generate(SyntheticSceneSpec(n=7, seed=9))
        out = synth.corrupt_with_outlier_vertices(scene, 2, 1)
        assert out.graph.n_vertices == 9
        assert len(out.graph.edges) == 21 + 2 * 7 + 1

    def test_original_edges_untouched(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(5), seed=10))
        out = synth.corrupt_with_outlier_vertices(scene, 3, 2)
        for a, b in zip(scene.graph.edges, out.graph.edges[:len(scene.graph.edges)]):
            assert (a.i, a.j, a.confidence) == (b.i, b.j, b.confidence)
            assert np.array_equal(a.rotation, b.rotation)

    def test_oracle_marks_appended_edges_outliers(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=7, confidence_model="oracle", seed=11))
        out = synth.corrupt_with_outlier_vertices(scene, 4, 3)
        appended = out.graph.edges[len(scene.graph.edges):]
        for e in appended:
            assert e.confidence <= synth.ORACLE_EPS

    def test_negative_k_rejected(self):
        scene = synth.generate(SyntheticSceneSpec(n=7, seed=12))
        with pytest.raises(InvalidArgumentError):
            synth.corrupt_with_outlier_vertices(scene, -1, 0)


class TestConfidenceErrorTable:
    def test_all_confidence_one(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=8, noise_sigma=math.radians(5), confidence_model="constant",
            constant_confidence=1.0, seed=13))
        rows = synth.confidence_error_table(scene, 20)
        assert rows[-1][2] == len(scene.graph.edges)
        assert all(count == 0 for _, _, count in rows[:-1])

    def test_single_bin_equals_direct(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=8, noise_sigma=math.radians(5), confidence_model="informative",
            seed=14))
        (mean, median, count), = synth.confidence_error_table(scene, 1)
        assert count == len(scene.graph.edges)
        assert mean == pytest.approx(float(np.mean(scene.true_edge_errors)))
        assert median == pytest.approx(float(np.median(scene.true_edge_errors)))

    def test_informative_trend_monotone(self):
        # >= 10^4 edges: per-bin mean error nonincreasing with confidence,
        # allowing one adjacent inversion
        scene = synth.generate(SyntheticSceneSpec(
            n=150, noise_sigma=math.radians(5), outlier_edge_fraction=0.2,
            confidence_model="informative", seed=15))
        assert len(scene.graph.edges) >= 10_000
        rows = synth.confidence_error_table(scene, 20)
        means = [m for m, _, count in rows if count > 0]
        inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
        assert inversions <= 1

    def test_bad_bin_count(self):
        scene = synth.generate(SyntheticSceneSpec(n=5, seed=16))
        with pytest.raises(InvalidArgumentError):
            synth.confidence_error_table(scene, 0)


class TestLabelSidecar:
    def test_roundtrip(self):
        scene = synth.generate(SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(4), outlier_edge_fraction=0.3,
            seed=17))
        labels, errors = synth.parse_labels(synth.serialize_labels(scene))
        for e, lab, err in zip(scene.graph.edges, scene.edge_labels,
                               scene.true_edge_errors):
            assert labels[(e.i, e.j)] == bool(lab)
            assert errors[(e.i, e.j)] == err

    def test_malformed_line(self):
        with pytest.raises(Exception) as err:
            synth.parse_labels("LABEL 0 1 maybe 0.5\n")
        assert "maybe" in str(err.value)
