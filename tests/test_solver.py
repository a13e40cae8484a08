import math
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.transform import Rotation as ScipyRotation

from cara import graph as gm
from cara import kernels, metrics, so3, solver, synth, tree_init
from cara.errors import (DegenerateWeightsError, InvalidArgumentError,
                         NotConnectedError)
from conftest import edge_arrays
from cara.solver import RobustKernel, SolveConfig


def noise_free_graph(n, seed, confidences=None):
    rng = np.random.default_rng(seed)
    gt = [so3.random_rotation(rng) for _ in range(n)]
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            c = confidences[k] if confidences is not None else rng.random()
            edges.append((i, j, gt[j] @ gt[i].T, c))
            k += 1
    return gm.build(n, *edge_arrays(edges), ground_truth=gt), np.stack(gt)


def cai(g):
    return tree_init.propagate(tree_init.maximum_spanning_tree(g), g)


class TestCalLoss:
    def test_noise_free_zero(self):
        g, gt = noise_free_graph(5, 0)
        assert solver.cal_loss(g, gt) == pytest.approx(0.0, abs=1e-24)

    def test_single_edge_hand_value(self):
        rng = np.random.default_rng(1)
        R0 = so3.random_rotation(rng)
        R1 = so3.random_rotation(rng)
        # relative observation off by exactly 0.2 rad
        axis = rng.standard_normal(3)
        axis *= 0.2 / np.linalg.norm(axis)
        r01 = so3.exp_map(axis) @ (R1 @ R0.T)
        g = gm.build(2, *edge_arrays([(0, 1, r01, 0.5)]))
        assert solver.cal_loss(g, np.stack([R0, R1])) == pytest.approx(
            0.5 * 0.2 ** 2, abs=1e-12)

    def test_against_naive_double_loop_oracle(self):
        # independent reimplementation using scipy for the log map
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=6, noise_sigma=math.radians(10), confidence_model="adversarial",
            seed=3))
        g = scene.graph
        rng = np.random.default_rng(4)
        rotations = np.stack([so3.random_rotation(rng) for _ in range(6)])
        expected = 0.0
        for e in g.edges:
            rel = rotations[e.j] @ rotations[e.i].T
            angle = np.linalg.norm(
                ScipyRotation.from_matrix(e.rotation @ rel.T).as_rotvec())
            expected += e.confidence * angle ** 2
        assert solver.cal_loss(g, rotations) == pytest.approx(expected, abs=1e-12)

    def test_equals_first_loss_of_solve(self):
        # The solve's own expression, conf @ theta ** 2, so the same bits;
        # an einsum of the residual vectors differs here in the last bit.
        g = synth.generate(synth.SyntheticSceneSpec(
            n=200, topology="complete", noise_sigma=math.radians(5),
            outlier_edge_fraction=0.1, confidence_model="informative", seed=1)).graph
        init = cai(g)
        assert solver.cal_loss(g, init) == solver.cao_solve(g, init).loss_history[0]

    def test_size_mismatch(self):
        g, gt = noise_free_graph(4, 5)
        with pytest.raises(InvalidArgumentError):
            solver.cal_loss(g, gt[:3])


class TestCaoSolve:
    def test_noise_free_init_left_unchanged(self):
        g, gt = noise_free_graph(7, 10)
        init = cai(g)
        report = solver.cao_solve(g, init)
        assert report.iterations_run == 0
        np.testing.assert_allclose(report.rotations, init, atol=1e-9)

    def test_noise_free_from_perturbed_init(self):
        # moderate per-vertex error is repaired within T=3 iterations
        g, gt = noise_free_graph(7, 11)
        rng = np.random.default_rng(12)
        init = np.stack([so3.perturb(r, math.radians(12), rng) for r in gt])
        report = solver.cao_solve(g, init)
        stats = metrics.error_stats(report.rotations, gt)
        assert stats.mean < 1e-6

    def test_confidence_scale_invariance(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(5), confidence_model="informative",
            seed=13))
        g = scene.graph
        init = cai(g)
        base = solver.cao_solve(g, init).rotations
        for lam in (0.1, 7.3):
            scaled_edges = [(e.i, e.j, e.rotation,
                             min(e.confidence * lam, 1.0) if lam > 1
                             else e.confidence * lam)
                            for e in g.edges]
            # keep weights proportional: skip edges that would clip
            if lam > 1 and any(e.confidence * lam > 1 for e in g.edges):
                g_scaled = gm.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences * lam,
                                         g.rotations, ground_truth=g.ground_truth)
            else:
                g_scaled = gm.build(g.n_vertices, *edge_arrays(scaled_edges),
                                    g.ground_truth)
            scaled = solver.cao_solve(g_scaled, init).rotations
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_zero_weight_edge_invariance(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=6, topology="chain_window", chain_window=2,
            noise_sigma=math.radians(5), seed=14))
        g = scene.graph
        init = cai(g)
        base = solver.cao_solve(g, init).rotations
        # append a junk edge with confidence 0 on a pair the graph lacks
        assert not any((e.i, e.j) == (0, 5) for e in g.edges)
        edges = [*zip(g.ii, g.jj, g.rotations, g.confidences),
                 (0, 5, so3.random_rotation(99), 0.0)]
        g2 = gm.build(g.n_vertices, *edge_arrays(edges), g.ground_truth)
        out = solver.cao_solve(g2, init).rotations
        np.testing.assert_allclose(out, base, atol=1e-9)

    def test_gauge_covariance(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=6, noise_sigma=math.radians(5), seed=15))
        g = scene.graph
        gt = np.stack(g.ground_truth)
        init = cai(g)
        G = so3.random_rotation(55)
        out_a = solver.cao_solve(g, init).rotations
        out_b = solver.cao_solve(g, init @ G).rotations
        err_a = metrics.error_stats(out_a, gt)
        err_b = metrics.error_stats(out_b, gt)
        np.testing.assert_allclose(err_a.per_camera_errors,
                                   err_b.per_camera_errors, atol=1e-9)

    def test_anchor_vertex_fixed_exactly(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(8), seed=16))
        g = scene.graph
        init = cai(g)
        report = solver.cao_solve(g, init)
        anchor = report.anchor_vertex
        assert np.array_equal(report.rotations[anchor], init[anchor])

    def test_loss_history_length(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(8), seed=17))
        g = scene.graph
        report = solver.cao_solve(g, cai(g), SolveConfig(max_iterations=5))
        assert len(report.loss_history) == report.iterations_run + 1

    def test_statistical_descent(self):
        # final CAL <= initial CAL in >= 95% of 100 trials at sigma <= 10 deg
        wins = 0
        for seed in range(100):
            scene = synth.generate(synth.SyntheticSceneSpec(
                n=7, noise_sigma=math.radians(10), seed=seed))
            g = scene.graph
            report = solver.cao_solve(g, cai(g))
            if report.loss_history[-1] <= report.loss_history[0] + 1e-15:
                wins += 1
        assert wins >= 95

    def test_disconnected_raises(self):
        edges = [(0, 1, np.eye(3), 0.5), (2, 3, np.eye(3), 0.5)]
        g = gm.build(4, *edge_arrays(edges))
        with pytest.raises(NotConnectedError):
            solver.cao_solve(g, np.stack([np.eye(3)] * 4))

    def test_zero_confidence_cut_raises(self):
        edges = [(0, 1, np.eye(3), 0.5), (1, 2, np.eye(3), 0.0)]
        g = gm.build(3, *edge_arrays(edges))
        with pytest.raises(DegenerateWeightsError):
            solver.cao_solve(g, np.stack([np.eye(3)] * 3))

    def test_bad_config(self):
        with pytest.raises(InvalidArgumentError):
            SolveConfig(max_iterations=0)
        # A cap the iteration count never equals would never stop a solve.
        for bad in (2.5, float("nan"), "3"):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                SolveConfig(max_iterations=bad)
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                SolveConfig(irls_max_iterations=bad)
        config = SolveConfig(max_iterations=np.int64(2))
        assert config.max_iterations == 2
        with pytest.raises(AttributeError):  # no cap set past the checks
            config.max_iterations = 2.5


class TestRobustKernel:
    def test_kinds_validated(self):
        with pytest.raises(InvalidArgumentError):
            RobustKernel(kind="huber")
        with pytest.raises(InvalidArgumentError):
            RobustKernel(kind="cauchy", alpha=0.0)

    def test_weight_formulas(self):
        x = np.array([0.0, 0.05, 0.2, 1.0])
        a = math.radians(5)
        k = RobustKernel(kind="cauchy", alpha=a)
        np.testing.assert_allclose(k.weights(x), 1.0 / (1.0 + (x / a) ** 2))
        k = RobustKernel(kind="geman_mcclure", alpha=a)
        np.testing.assert_allclose(k.weights(x), a ** 2 / (a ** 2 + x ** 2) ** 2)
        k = RobustKernel(kind="l2")
        np.testing.assert_allclose(k.weights(x), 1.0)
        k = RobustKernel(kind="l_half")
        np.testing.assert_allclose(k.weights(x),
                                   np.maximum(x, 1e-5) ** -1.5)

    def test_weights_are_rho_prime_over_x(self):
        # finite-difference check that w(x) = rho'(x) / x up to a constant
        xs = np.linspace(0.01, 1.0, 50)
        h = 1e-7
        for kind in ("l2", "cauchy", "geman_mcclure"):
            k = RobustKernel(kind=kind)
            drho = (k.rho(xs + h) - k.rho(xs - h)) / (2 * h)
            np.testing.assert_allclose(k.weights(xs), drho / xs, rtol=1e-5)


class TestIrlsSolve:
    def test_confidence_kind_equals_cao_bitwise(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(5), seed=20))
        g = scene.graph
        init = cai(g)
        config = SolveConfig()
        a = solver.cao_solve(g, init, config)
        b = solver.irls_solve(g, init, RobustKernel(kind="confidence"), config)
        assert np.array_equal(a.rotations, b.rotations)

    def test_l2_noise_free_recovery(self):
        g, gt = noise_free_graph(7, 21)
        rng = np.random.default_rng(22)
        init = np.stack([so3.perturb(r, math.radians(10), rng) for r in gt])
        report = solver.irls_solve(g, init, RobustKernel(kind="l2"))
        assert metrics.error_stats(report.rotations, gt).mean < 1e-6

    @pytest.mark.parametrize("kind", ["cauchy", "geman_mcclure", "l_half"])
    def test_robust_kernels_noise_free(self, kind):
        g, gt = noise_free_graph(6, 23)
        rng = np.random.default_rng(24)
        init = np.stack([so3.perturb(r, math.radians(5), rng) for r in gt])
        report = solver.irls_solve(g, init, RobustKernel(kind=kind))
        assert metrics.error_stats(report.rotations, gt).mean < 1e-5

    def test_cauchy_beats_l2_with_outliers(self):
        # median of mean errors over 50 seeds, 30% outlier edges
        res = {"cauchy": [], "l2": []}
        for seed in range(50):
            scene = synth.generate(synth.SyntheticSceneSpec(
                n=7, noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
                confidence_model="informative", seed=seed))
            g = scene.graph
            gt = np.stack(g.ground_truth)
            init = cai(g)
            for kind in res:
                report = solver.irls_solve(g, init, RobustKernel(kind=kind))
                res[kind].append(metrics.error_stats(report.rotations, gt).mean)
        assert np.median(res["cauchy"]) < np.median(res["l2"])

    def test_iteration_budget_respected(self):
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(5), outlier_edge_fraction=0.2,
            seed=25))
        g = scene.graph
        report = solver.irls_solve(g, cai(g), RobustKernel(kind="cauchy"),
                                   SolveConfig(irls_max_iterations=4))
        assert report.iterations_run <= 4
        assert len(report.loss_history) == report.iterations_run + 1

    def test_weight_floor_when_reweighting_disconnects(self, monkeypatch):
        # On a chain every edge is a bridge, so one zero weight disconnects
        # the graph: the step must use the floored weights, rhs included.
        # The tree init fits a chain exactly, so start from a perturbed one.
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=8, topology="chain_window", chain_window=1,
            noise_sigma=math.radians(5), seed=26))
        g = scene.graph
        rng = np.random.default_rng(26)
        init = np.stack([so3.perturb(r, math.radians(5), rng) for r in cai(g)])
        kernel_weights = RobustKernel.weights

        def weights_with_dead_edge(self, x):
            w = kernel_weights(self, x).copy()
            w[2] = 0.0
            return w

        monkeypatch.setattr(RobustKernel, "weights", weights_with_dead_edge)
        kernel = RobustKernel(kind="cauchy")
        config = SolveConfig(irls_max_iterations=1)
        report = solver.irls_solve(g, init, kernel, config)
        assert any("re-weighting disconnected" in d for d in report.diagnostics)

        ii, jj, rots, conf = g.ii, g.jj, g.rotations, g.confidences
        # the sweep weighs by the kernel's angles, not by |res|
        res, angles = kernels.quat_residuals(kernels.batch_quat(init[ii]),
                                             kernels.batch_quat(init[jj]),
                                             kernels.batch_quat(rots))
        res = res.T
        w = np.maximum(kernel.weights(angles), solver.WEIGHT_FLOOR)
        assert w[2] == solver.WEIGHT_FLOOR
        rhs = np.zeros((g.n_vertices, 3))
        np.add.at(rhs, np.column_stack([ii, jj]).ravel(),
                  np.stack([-w[:, None] * res, w[:, None] * res], axis=1).reshape(-1, 3))
        anchor = tree_init._pick_root(g.n_vertices, ii, jj, conf)
        solve = solver._LaplacianPattern(g.n_vertices, ii, jj, anchor).factor(w)
        step = init @ kernels.batch_exp(solve(rhs))
        assert report.iterations_run == 1
        np.testing.assert_array_equal(report.rotations, step)


@pytest.mark.parametrize("lam", [1e-305, 1e-300, 1e-15, 1e-10, 1e-3, 1e3])
def test_fix_root_invariant_to_confidence_scale(lam):
    # The singularity test on the factor's pivots is relative to the weight
    # scale, so even a 1e-305 scaling of a connected graph still solves.
    # Subnormal scales (1e-310) lose bits and are not covered.
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=7, noise_sigma=math.radians(5), confidence_model="informative",
        seed=1))
    g = scene.graph
    init = cai(g)
    base = solver.cao_solve(g, init).rotations
    # bypass build() so scaled weights may leave [0, 1]: only the ratio matters
    g_scaled = gm.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences * lam, g.rotations,
                             ground_truth=g.ground_truth)
    scaled = solver.cao_solve(g_scaled, init).rotations
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_fix_root_l_half_solves_large_weights():
    # l_half weights reach 1e-5 ** -1.5 (about 3.2e7) on the spanning-tree
    # edges after MST init, next to weights near 1 on the others; the
    # relative singularity test must still accept that factor.
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=7, noise_sigma=math.radians(5), seed=20))
    g = scene.graph
    gt = np.stack(g.ground_truth)
    report = solver.irls_solve(g, cai(g), RobustKernel(kind="l_half"))
    assert np.all(np.isfinite(report.rotations))
    assert math.degrees(metrics.error_stats(report.rotations, gt).mean) < 10.0


def _reference_laplacian(n, ii, jj, w, anchor):
    """The weighted Laplacian assembled from scratch, without the anchor's
    row and column."""
    L = sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                       (np.concatenate([ii, jj, ii, jj]),
                        np.concatenate([ii, jj, jj, ii]))), shape=(n, n)).toarray()
    return np.delete(np.delete(L, anchor, axis=0), anchor, axis=1)


def _dense_pairs(rng):
    """A 10-vertex graph whose vertex 6 has degree 1 (its one edge goes to
    2), in shuffled order: its Laplacian is dense, and its band is the whole
    upper triangle in vertex order."""
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)
             if 6 not in (i, j) and rng.random() < 0.6]
    pairs += [(2, 6), (0, 9), (4, 5), (8, 9)]
    return 10, (2, 6), sorted(set(pairs))


def _sparse_pairs(rng):
    """A window-3 chain on vertices 0..198 plus vertex 199 hanging off 120
    alone, in shuffled order: its Laplacian takes the banded factor."""
    pairs = [(i, j) for i in range(199) for j in range(i + 1, min(i + 4, 199))]
    return 200, (120, 199), pairs + [(120, 199)]


def _two_hub_pairs(n, window):
    """(ii, jj) of a window chain on n cameras whose cameras 0 and 1 also
    see every other camera."""
    ii = np.repeat(np.arange(n), window)
    jj = ii + np.tile(np.arange(1, window + 1), n)
    hub, seen = np.repeat([0, 1], n), np.tile(np.arange(n), 2)
    far = seen > hub + window
    return (np.concatenate([ii[jj < n], hub[far]]),
            np.concatenate([jj[jj < n], seen[far]]))


def _hub_pairs(rng):
    """Two hubs on a window-3 chain of vertices 0..398, plus vertex 399
    hanging off 120 alone: with either hub kept, the band is about as wide
    as the matrix, and the Laplacian takes SuperLU."""
    return 400, (120, 399), [*zip(*_two_hub_pairs(399, 3)), (120, 399)]


def _record_factorizations(monkeypatch):
    """A list that gets (name, copy of the input) for every
    ``cholesky_banded`` and ``splu`` call; the first overwrites its input."""
    seen = []
    for module, name in ((solver.la, "cholesky_banded"), (solver.spla, "splu")):
        def record(a, *args, _real=getattr(module, name), _name=name, **kwargs):
            seen.append((_name, a.copy()))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(module, name, record)
    return seen


def _vertex_ordered(pattern, n, anchor):
    """Whether ``pattern`` is laid out as a dense one is: its kept vertices
    in their own order, and its band the whole upper triangle."""
    keep = np.delete(np.arange(n), anchor)
    return (pattern.matrix is None and pattern.shape == (len(keep), len(keep))
            and np.array_equal(pattern.order, keep))


def _assembled(seen, pattern, w, anchor):
    """The factorizer ``pattern.factor(w)`` calls and the matrix it hands
    over, in full and in vertex order. The banded path fills the upper band
    of a zeroed array, in ``order``; SuperLU takes the whole matrix."""
    seen.clear()
    pattern.factor(w)
    ((name, a),) = seen
    if name == "splu":
        full = a.toarray()
    else:  # band row u - d holds the d-th superdiagonal
        u = len(a) - 1
        a = sum(np.diag(a[u - d, d:], d) for d in range(u + 1))
        full = np.triu(a) + np.triu(a, 1).T
    # order lists the kept vertices; their rank among the kept is the
    # reference's row.
    rank = pattern.order - (pattern.order > anchor)
    out = np.empty_like(full)
    out[np.ix_(rank, rank)] = full
    return name, out


# The ids name the anchor vertex and the gauge, fix-root, the one the
# solver has.
@pytest.mark.parametrize("make_pairs, anchor, factorizer", [
    pytest.param(_dense_pairs, 0, "cholesky_banded", id="0-fix-root"),
    pytest.param(_dense_pairs, 4, "cholesky_banded", id="4-fix-root"),
    pytest.param(_dense_pairs, 9, "cholesky_banded", id="9-fix-root"),
    pytest.param(_dense_pairs, 6, "cholesky_banded", id="6-fix-root"),
    pytest.param(_sparse_pairs, 0, "cholesky_banded", id="sparse-0-fix-root"),
    pytest.param(_sparse_pairs, 57, "cholesky_banded", id="sparse-57-fix-root"),
    pytest.param(_sparse_pairs, 198, "cholesky_banded", id="sparse-198-fix-root"),
    pytest.param(_sparse_pairs, 199, "cholesky_banded", id="sparse-199-fix-root"),
    pytest.param(_hub_pairs, 0, "splu", id="hub-0-fix-root"),
    pytest.param(_hub_pairs, 57, "splu", id="hub-57-fix-root"),
])
def test_laplacian_pattern_refill_matches_reference(monkeypatch, make_pairs, anchor,
                                                    factorizer):
    # The anchors are the first, a middle and the last vertex, and the one
    # of degree 1; on the hub scene, a hub and a middle vertex.
    rng = np.random.default_rng(30)
    n, pendant, pairs = make_pairs(rng)
    order = rng.permutation(len(pairs))
    ii = np.array([pairs[k][0] for k in order], dtype=np.intp)
    jj = np.array([pairs[k][1] for k in order], dtype=np.intp)
    pattern = solver._LaplacianPattern(n, ii, jj, anchor)
    assert _vertex_ordered(pattern, n, anchor) == (make_pairs is _dense_pairs)
    seen = _record_factorizations(monkeypatch)
    for _ in range(2):
        w = rng.uniform(0.5, 1.5, len(ii))
        w[rng.choice(len(ii), 3, replace=False)] = 0.0
        w[rng.choice(len(ii), 2, replace=False)] = 1e-5 ** -1.5  # l_half scale
        w[(ii == pendant[0]) & (jj == pendant[1])] = 0.7
        name, assembled = _assembled(seen, pattern, w, anchor)
        assert name == factorizer
        np.testing.assert_allclose(assembled, _reference_laplacian(n, ii, jj, w, anchor),
                                   rtol=1e-15, atol=0)


def _check_refill_keeps_degenerate_errors(n, dense):
    # On a chain every edge is a bridge: a zero weight disconnects it, and a
    # weight 1e-15 or 1e-17 below the rest leaves a pivot under the relative
    # test (Cholesky may instead meet a pivot that rounding made negative).
    ii, jj = np.arange(n - 1), np.arange(1, n)
    pattern = solver._LaplacianPattern(n, ii, jj, 0)
    assert _vertex_ordered(pattern, n, 0) == dense
    rhs = np.random.default_rng(31).standard_normal((n, 3))
    w = np.linspace(0.5, 1.0, n - 1)
    base = pattern.factor(w)(rhs)
    for bad in (0.0, 1e-17, 1e-15):
        with pytest.raises(DegenerateWeightsError, match="normal equations are"):
            pattern.factor(np.where(np.arange(n - 1) == 2, bad, w))
    # the pattern survives a failed refill, and the test is scale-free
    np.testing.assert_allclose(pattern.factor(1e-15 * w)(1e-15 * rhs), base, rtol=1e-12)


def test_laplacian_pattern_refill_keeps_degenerate_errors():
    _check_refill_keeps_degenerate_errors(6, dense=True)


def test_laplacian_pattern_refill_keeps_degenerate_errors_sparse():
    _check_refill_keeps_degenerate_errors(40, dense=False)


@pytest.mark.parametrize("solve", [
    solver.cao_solve,
    lambda g, init: solver.irls_solve(g, init, RobustKernel(kind="l2"))],
    ids=["cao", "irls"])
def test_one_vertex_solve_returns_its_start(solve):
    # Anchoring a one-vertex graph keeps no vertex, so its factor has no
    # pivot, and the first sweep's zero residual stops the solve.
    empty = np.array([], dtype=np.intp)
    g = gm.EdgeStream(1, empty, empty, np.array([]), np.zeros((0, 3, 3)))
    report = solve(g, np.eye(3)[None])
    assert report.stop_reason == "residual_tolerance"
    assert report.iterations_run == 0
    assert np.array_equal(report.rotations, np.eye(3)[None])


def _unit_stream(n, ii, jj):
    """A stream of identity rotations and unit confidences on (ii, jj)."""
    return gm.EdgeStream(n, ii, jj, np.ones(len(ii)), np.stack([np.eye(3)] * len(ii)))


@pytest.mark.parametrize("read", [
    solver.cal_loss, solver.cao_solve,
    lambda g, init: solver.irls_solve(g, init, RobustKernel(kind="cauchy"))],
    ids=["cal_loss", "cao", "irls"])
@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("pairs_only", [False, True], ids=["rotations", "pairs"])
def test_stream_vertex_ids_checked_before_any_read(read, bad, pairs_only):
    # A zero-confidence edge to vertex -1 or N on a path of N = 3: cal_loss
    # read -1 as vertex 2, and the solves failed by accident, if at all.
    rots = np.stack([np.eye(3)] * 3)
    pairs = kernels.batch_quat(rots) if pairs_only else None
    with pytest.raises(InvalidArgumentError, match=f"edge \\(0,{bad}\\) out of range for N=3"):
        g = gm.EdgeStream(3, [0, 1, 0], [1, 2, bad], [1.0, 1.0, 0.0],
                          None if pairs_only else rots, pairs)
        read(g, rots)


# Faults on the path 0-1-2-3. The two reversed repeats are the same pair
# (0,1) under two sets of confidences: the first makes vertex 1 the
# anchor, so the Laplacian pattern, which saw only edges off the anchor,
# let the repeat through, and the solves ran; the second makes vertex 2
# the anchor, and the pattern rejected it.
EDGE_FAULTS = {
    "float-ids": (([0.9, 1.7, 2.0], [1, 2, 3], [0.9, 0.5, 0.5]),
                  "vertex ids must be integers"),
    "loop": (([0, 1, 2, 2], [1, 2, 3, 2], [0.9, 0.5, 0.5, 0.5]), "self-loop on vertex 2"),
    "repeat": (([0, 1, 2, 1], [1, 2, 3, 2], [0.9, 0.5, 0.5, 0.1]),
               r"duplicate edge for pair \(1,2\)"),
    "reversed-repeat-anchor": (([0, 1, 2, 1], [1, 2, 3, 0], [0.9, 0.5, 0.5, 0.1]),
                               r"duplicate edge for pair \(0,1\)"),
    "reversed-repeat": (([0, 1, 2, 1], [1, 2, 3, 0], [0.2, 0.5, 0.9, 0.1]),
                        r"duplicate edge for pair \(0,1\)"),
    "nan": (([0, 1, 2], [1, 2, 3], [0.9, math.nan, 0.5]),
            r"confidence nan outside \[0, inf\) on edge \(1,2\)"),
    "negative": (([0, 1, 2], [1, 2, 3], [0.9, 0.5, -1.0]),
                 r"confidence -1.0 outside \[0, inf\) on edge \(2,3\)"),
    "inf": (([0, 1, 2], [1, 2, 3], [math.inf, 0.5, 0.5]),
            r"confidence inf outside \[0, inf\) on edge \(0,1\)"),
}


@pytest.mark.parametrize("read", [
    solver.cal_loss, lambda g, init: tree_init.maximum_spanning_tree(g), solver.cao_solve,
    lambda g, init: solver.irls_solve(g, init, RobustKernel(kind="cauchy"))],
    ids=["cal_loss", "tree", "cao", "irls"])
@pytest.mark.parametrize("fault", EDGE_FAULTS)
@pytest.mark.parametrize("pairs_only", [False, True], ids=["rotations", "pairs"])
def test_stream_edge_rules_checked_before_any_read(read, fault, pairs_only):
    # A NaN confidence made cao_solve return NaN rotations at its cap, and
    # float ids were truncated to other vertices.
    (ii, jj, conf), error = EDGE_FAULTS[fault]
    rots = np.stack([np.eye(3)] * len(ii))
    pairs = kernels.batch_quat(rots) if pairs_only else None
    with pytest.raises(InvalidArgumentError, match=error):
        g = gm.EdgeStream(4, ii, jj, conf, None if pairs_only else rots, pairs)
        read(g, np.stack([np.eye(3)] * 4))


@pytest.mark.parametrize("solve", [
    solver.cao_solve,
    lambda g, init: solver.irls_solve(g, init, RobustKernel(kind="cauchy"))],
    ids=["cao", "irls"])
def test_solve_checks_its_start(solve):
    # A NaN row ran 3 (cao) or 20 (cauchy) iterations of NaN to the cap,
    # and a 2 I row came back with an orthonormality error of 3.
    g = _unit_stream(3, [0, 1], [1, 2])
    start = np.stack([np.eye(3)] * 3)
    for row, error in ((np.full((3, 3), np.nan), "non-finite"),
                       (2 * np.eye(3), "not a rotation")):
        bad = start.copy()
        bad[1] = row
        with pytest.raises(InvalidArgumentError, match=error):
            solve(g, bad)
    # A start that already solves the graph comes back at once, as a copy.
    report = solve(g, start)
    assert report.iterations_run == 0
    assert np.array_equal(report.rotations, start)
    assert not np.shares_memory(report.rotations, start)


def test_stream_arrays_checked_for_length():
    rots = np.stack([np.eye(3)] * 2)
    for ii, jj, conf, rotations, pairs in (
            ([0, 1], [1], [1.0, 1.0], rots, None),
            ([0, 1], [1, 2], [1.0], rots, None),
            ([0, 1], [1, 2], [1.0, 1.0], rots[:1], None),
            ([0, 1], [1, 2], [1.0, 1.0], None, kernels.batch_quat(rots[:1])),
            ([[0, 1]], [[1, 2]], [[1.0, 1.0]], rots, None)):
        with pytest.raises(InvalidArgumentError, match="differ in length"):
            gm.EdgeStream(3, ii, jj, conf, rotations, pairs)
    with pytest.raises(InvalidArgumentError, match="rotations or quaternion pairs"):
        gm.EdgeStream(3, [0, 1], [1, 2], [1.0, 1.0], None)


def test_laplacian_pattern_refill_keeps_degenerate_errors_superlu():
    # The hub scene's edge (120, 399) is a bridge, so the chain checks above
    # carry over to the SuperLU factor.
    n, (a, b), pairs = _hub_pairs(None)
    ii, jj = np.array(pairs).T
    pattern = solver._LaplacianPattern(n, ii, jj, 0)
    assert pattern.matrix is not None
    rhs = np.random.default_rng(31).standard_normal((n, 3))
    w = np.linspace(0.5, 1.0, len(ii))
    base = pattern.factor(w)(rhs)
    for bad in (0.0, 1e-17, 1e-15):
        with pytest.raises(DegenerateWeightsError, match="normal equations are"):
            pattern.factor(np.where((ii == a) & (jj == b), bad, w))
    np.testing.assert_allclose(pattern.factor(1e-15 * w)(1e-15 * rhs), base, rtol=1e-12)


def _erdos_pairs():
    g = synth.generate(synth.SyntheticSceneSpec(
        n=60, topology="erdos", erdos_p=0.1, noise_sigma=math.radians(5), seed=36)).graph
    return g.n_vertices, g.ii, g.jj, tree_init._pick_root(g.n_vertices, g.ii, g.jj,
                                                          g.confidences)


def _window_pairs():
    n, _, pairs = _sparse_pairs(None)
    ii, jj = np.array(pairs).T
    return n, jj, ii, 57  # (j, i) order: the factor sees no orientation


def _hub_case():
    n, _, pairs = _hub_pairs(None)
    ii, jj = np.array(pairs).T
    return n, ii, jj, 57


# Each case is factored in reverse Cuthill-McKee order (or by SuperLU) and
# with the fill rule at 0, in vertex order with the whole upper triangle as
# its band. The star's anchor is its centre, so no edge is kept and the RCM
# band is the diagonal alone; with n = 2 one vertex is kept, a pattern the
# fill rule makes dense unless it is raised. The hub scene takes SuperLU.
@pytest.mark.parametrize("make_case, sparse_fill", [
    (_window_pairs, None),
    (lambda: (40, np.arange(39), np.arange(1, 40), 0), None),
    (_erdos_pairs, None),
    (lambda: (10, np.zeros(9, dtype=np.intp), np.arange(1, 10), 0), None),
    (lambda: (2, np.array([0]), np.array([1]), 1), math.inf),
    (_hub_case, None),
], ids=["window-3-pendant", "chain-40", "erdos-60", "star-centre", "n-2", "two-hub"])
def test_sparse_and_dense_factors_agree(monkeypatch, make_case, sparse_fill):
    n, ii, jj, anchor = make_case()
    rng = np.random.default_rng(36)
    w = rng.uniform(0.5, 1.5, len(ii))
    rhs = rng.standard_normal((n, 3))
    orderings = []
    real_rcm = solver.csgraph.reverse_cuthill_mckee
    monkeypatch.setattr(solver.csgraph, "reverse_cuthill_mckee",
                        lambda *args, **kwargs: orderings.append(1) or real_rcm(*args, **kwargs))
    solves = []
    for fill in (sparse_fill or solver.DENSE_FILL, 0.0):
        monkeypatch.setattr(solver, "DENSE_FILL", fill)
        orderings.clear()
        pattern = solver._LaplacianPattern(n, ii, jj, anchor)
        assert len(orderings) == (fill != 0.0)
        if fill == 0.0:
            assert _vertex_ordered(pattern, n, anchor)
        solves.append(pattern.factor(w)(rhs))
    sparse, dense = solves
    assert not sparse[anchor].any()
    np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


def test_two_hub_pattern_factors_in_bounded_memory_and_time(monkeypatch, traced_peak):
    # One hub is the anchor; the other keeps an arrow matrix, whose RCM band
    # is nearly the whole 2999 x 2999 matrix: a banded factor peaks at
    # 72.5 MB and takes 0.12 s. SuperLU's order keeps the factor sparse: the
    # pattern and one factor peak at 2.63 MB, and a factor takes 7 ms.
    n = 3000
    ii, jj = _two_hub_pairs(n, 10)
    rng = np.random.default_rng(37)
    w = rng.uniform(0.5, 1.5, len(ii))
    anchor = tree_init._pick_root(n, ii, jj, w)
    assert anchor in (0, 1)

    def pattern_and_factor():
        pattern = solver._LaplacianPattern(n, ii, jj, anchor)
        return pattern, pattern.factor(w)

    (pattern, solve), peak = traced_peak(pattern_and_factor)
    assert peak <= 2.7e6
    times = []
    for _ in range(3):
        start = time.perf_counter()
        pattern.factor(w)
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.05
    seen = _record_factorizations(monkeypatch)
    pattern.factor(w)
    assert [name for name, _ in seen] == ["splu"]
    keep = np.delete(np.arange(n), anchor)
    laplacian = sp.csr_matrix(sp.coo_matrix(
        (np.concatenate([w, w, -w, -w]),
         (np.concatenate([ii, jj, ii, jj]), np.concatenate([ii, jj, jj, ii]))),
        shape=(n, n)))[keep][:, keep]
    rhs = rng.standard_normal((n, 3))
    delta = solve(rhs)
    assert not delta[anchor].any()
    np.testing.assert_allclose(laplacian @ delta[keep], rhs[keep], rtol=0,
                               atol=1e-10 * np.abs(rhs).max())


def test_irls_builds_laplacian_pattern_once(monkeypatch):
    builds = []

    class CountingPattern(solver._LaplacianPattern):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "_LaplacianPattern", CountingPattern)
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), outlier_edge_fraction=0.2, seed=32))
    g = scene.graph
    report = solver.irls_solve(g, cai(g), RobustKernel(kind="cauchy"))
    assert report.iterations_run > 2
    assert len(builds) == 1
    builds.clear()
    solver.cao_solve(g, cai(g))
    assert len(builds) == 1


def test_edge_stream_rejects_repeated_pairs_and_loops():
    # The pattern lays out the valid prefix; the constructor, not the
    # pattern, rejects the repeated pair and the loop.
    for ii, jj, error in (([0, 1, 0], [1, 2, 1], "duplicate edge for pair \\(0,1\\)"),
                          ([0, 1, 1], [1, 2, 1], "self-loop on vertex 1")):
        assert _vertex_ordered(
            solver._LaplacianPattern(3, np.array(ii[:2]), np.array(jj[:2]), 2), 3, 2)
        with pytest.raises(InvalidArgumentError, match=error):
            _unit_stream(3, ii, jj)


def test_edge_stream_rejects_repeated_pairs_and_loops_sparse():
    # A 40-vertex chain, laid out sparse, plus a repeated pair (either
    # orientation) or a loop.
    ii, jj = np.arange(39), np.arange(1, 40)
    assert not _vertex_ordered(solver._LaplacianPattern(40, ii, jj, 39), 40, 39)
    for i, j, error in ((5, 6, "duplicate edge for pair \\(5,6\\)"),
                        (6, 5, "duplicate edge for pair \\(5,6\\)"),
                        (7, 7, "self-loop on vertex 7")):
        with pytest.raises(InvalidArgumentError, match=error):
            _unit_stream(40, np.append(ii, i), np.append(jj, j))


def test_cao_searches_components_once_when_connected(monkeypatch):
    # Zero-confidence edges leave the positive subgraph a proper subgraph;
    # when it is connected, the whole graph need not be searched again.
    calls = []
    real = solver.components

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "components", counting)
    g = synth.generate(synth.SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
        confidence_model="informative", seed=0)).graph
    assert (g.confidences == 0).any()
    solver.cao_solve(g, cai(g))
    assert len(calls) == 1


def _dense_outlier_graph(seed):
    """The 200-camera complete scene with 30% outlier edges."""
    return synth.generate(synth.SyntheticSceneSpec(
        n=200, noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
        confidence_model="informative", seed=seed)).graph


@pytest.mark.parametrize("make_graph, vertex_ordered", [
    (lambda: _dense_outlier_graph(3), True),
    (lambda: synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10, noise_sigma=math.radians(5),
        outlier_edge_fraction=0.1, confidence_model="informative", seed=3)).graph,
     False),
], ids=["complete-200", "chain-2000"])
def test_laplacian_factor_path_follows_fill(monkeypatch, make_graph, vertex_ordered):
    # Both take the banded Cholesky: the complete graph's band is its whole
    # upper triangle in vertex order, the chain's a narrow RCM band.
    g = make_graph()
    anchor = tree_init._pick_root(g.n_vertices, g.ii, g.jj, g.confidences)
    pattern = solver._LaplacianPattern(g.n_vertices, g.ii, g.jj, anchor)
    assert _vertex_ordered(pattern, g.n_vertices, anchor) == vertex_ordered
    seen = _record_factorizations(monkeypatch)
    pattern.factor(g.confidences)
    assert [name for name, _ in seen] == ["cholesky_banded"]


@pytest.mark.parametrize("make_graph, kind, reason", [
    (lambda: _dense_outlier_graph(0), "geman_mcclure", "iteration_cap"),
    (lambda: _dense_outlier_graph(0), "l2", "relative_tolerance"),
    (lambda: noise_free_graph(7, 33)[0], "confidence", "residual_tolerance"),
], ids=["geman-mcclure", "l2", "noise-free-cao"])
def test_stop_reason(make_graph, kind, reason):
    g = make_graph()
    report = solver.irls_solve(g, cai(g), RobustKernel(kind=kind))
    assert report.stop_reason == reason
    config = SolveConfig()
    cap = config.max_iterations if kind == "confidence" else config.irls_max_iterations
    assert (report.iterations_run == cap) == (reason == "iteration_cap")


def test_cao_drops_laplacian_pattern_before_sweeps(monkeypatch):
    # Only the factor may live through cao's sweeps; a pattern held there
    # raised the --stream peak by a quarter. IRLS refills it at every step.
    patterns = []
    alive = []

    class RecordedPattern(solver._LaplacianPattern):
        def __init__(self, *args):
            super().__init__(*args)
            patterns.append(weakref.ref(self))

    real_pass = solver._residual_pass

    def counting_pass(stream, rotations, weights):
        alive.append(sum(ref() is not None for ref in patterns))
        return real_pass(stream, rotations, weights)

    monkeypatch.setattr(solver, "_LaplacianPattern", RecordedPattern)
    monkeypatch.setattr(solver, "_residual_pass", counting_pass)
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), outlier_edge_fraction=0.2, seed=32))
    g = scene.graph
    report = solver.cao_solve(g, cai(g))
    assert len(patterns) == 1
    assert alive == [0] * (report.iterations_run + 1)
    patterns.clear()
    alive.clear()
    report = solver.irls_solve(g, cai(g), RobustKernel(kind="cauchy"))
    assert report.iterations_run > 2
    assert len(patterns) == 1 and alive == [1] * (report.iterations_run + 1)


def test_solves_convert_no_edge_rotation(monkeypatch):
    # A graph converts its edge rotations to quaternions once, a chunk at a
    # time, when it is made (after synth converts the m edge-error
    # products once for their geodesic errors); each solve converts only
    # the N vertex rotations per sweep.
    rows = []
    real_quat = kernels.batch_quat

    def counting_quat(rotations):
        rows.append(len(rotations))
        return real_quat(rotations)

    monkeypatch.setattr(kernels, "batch_quat", counting_quat)
    g = synth.generate(synth.SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), seed=34)).graph
    m, n, chunk = len(g.ii), g.n_vertices, gm.CHUNK_RECORDS
    assert m > chunk and rows == [m, chunk, m - chunk]
    init = cai(g)
    for _ in range(2):
        rows.clear()
        report = solver.cao_solve(g, init)
        assert rows == [n] * (report.iterations_run + 1)


@pytest.mark.parametrize("kind", ["l2", "l_half", "cauchy", "geman_mcclure"])
def test_irls_weighs_each_edge_once_per_step(monkeypatch, kind):
    # The sweep computes each edge's weight a chunk at a time, and the step
    # factors with those weights instead of weighing every edge again.
    rows = []
    real_weights = RobustKernel.weights

    def counting_weights(self, x):
        rows.append(len(x))
        return real_weights(self, x)

    monkeypatch.setattr(RobustKernel, "weights", counting_weights)
    g = synth.generate(synth.SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.1, seed=35)).graph
    m, chunk = len(g.ii), gm.CHUNK_RECORDS
    report = solver.irls_solve(g, cai(g), RobustKernel(kind=kind))
    assert m > chunk and report.iterations_run >= 2
    assert rows == [chunk, m - chunk] * (report.iterations_run + 1)


def test_sweep_peak_memory_is_bounded(traced_peak):
    # One sweep of the 2000-camera chain holds its chunk buffers and its
    # outputs, 1.03 MB measured; gathering both ends' vertex pairs before
    # the product reads 1.19 MB, and copying the rhs into each chunk's
    # scatter input too 1.27 MB. The bound keeps the fixed-memory --stream
    # sweep from growing.
    g = synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), seed=0)).graph
    init = cai(g)
    solver._residual_pass(g, init, g.confidences)
    _, peak = traced_peak(lambda: solver._residual_pass(g, init, g.confidences))
    assert len(g.ii) > 4 * gm.CHUNK_RECORDS
    assert peak <= 1.06e6


def test_pattern_peak_memory_is_bounded(traced_peak):
    # The sparse pattern of the 2000-camera chain peaks at 0.93 MB while its
    # RCM adjacency, int8 ones on int32 indices, is alive. Building it from
    # float COO temporaries read about 1.81 MB.
    g = synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), seed=0)).graph
    pattern, peak = traced_peak(lambda: solver._LaplacianPattern(g.n_vertices, g.ii, g.jj, 0))
    assert not _vertex_ordered(pattern, g.n_vertices, 0)
    assert peak <= 0.96e6
