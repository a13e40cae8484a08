"""End-to-end acceptance gate.

Each test exercises one numbered guarantee from the project contract and
records a single PASS/FAIL line with the measured margins; the lines are
echoed in a summary section after the run (see tests/conftest.py). Run with
`pytest tests/test_acceptance.py -v`.
"""
import functools
import itertools
import math
import time

import numpy as np
from scipy.spatial.transform import Rotation as ScipyRotation

from cara import graph as gm
from cara import cli, metrics, so3, solver, stream, synth, tree_init
from cara.solver import RobustKernel, SolveConfig
from cara.synth import SyntheticSceneSpec
from conftest import edge_arrays


RESULT_LINES = []  # echoed after the run by conftest.pytest_terminal_summary


def _check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    RESULT_LINES.append(f"[acceptance {num:2d}] {status}  {label}: {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _cai(g):
    return tree_init.propagate(tree_init.maximum_spanning_tree(g), g)


def _solve_scene(scene, kernel_kind="confidence"):
    g = scene.graph
    init = _cai(g)
    if kernel_kind == "confidence":
        return solver.cao_solve(g, init)
    return solver.irls_solve(g, init, RobustKernel(kind=kernel_kind))


def test_01_lie_group_exactness():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.0, math.pi - 1e-6) / np.linalg.norm(v)
        worst = max(worst, float(np.abs(so3.log_map(so3.exp_map(v)) - v).max()))
        r = so3.random_rotation(rng)
        worst = max(worst, float(np.abs(so3.exp_map(so3.log_map(r)) - r).max()))
        gap = abs(so3.riemannian_distance(r, np.eye(3)) - so3.rotation_angle(r))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _check(1, "Lie-group exactness", worst < 1e-9 and elapsed < 1.0,
           f"worst roundtrip/identity error {worst:.3e}, {elapsed:.2f}s")


def test_02_noise_free_recovery():
    start = time.perf_counter()
    worst_init, worst_opt = 0.0, 0.0
    for n in (3, 7, 20):
        scene = synth.generate(SyntheticSceneSpec(n=n, seed=n))
        g = scene.graph
        gt = np.stack(g.ground_truth)
        init = _cai(g)
        worst_init = max(worst_init, metrics.error_stats(init, gt).mean)
        report = solver.cao_solve(g, init)
        worst_opt = max(worst_opt, metrics.error_stats(report.rotations, gt).mean)
    elapsed = time.perf_counter() - start
    _check(2, "Noise-free recovery",
           worst_init < 1e-9 and worst_opt < 1e-6 and elapsed < 1.0,
           f"init mean {worst_init:.3e}, optimized mean {worst_opt:.3e}, "
           f"{elapsed:.2f}s")


def test_03_confidence_scale_invariance():
    scene = synth.generate(SyntheticSceneSpec(
        n=7, noise_sigma=math.radians(5), confidence_model="informative",
        seed=3))
    g = scene.graph
    init = _cai(g)
    base = solver.cao_solve(g, init).rotations
    worst = 0.0
    for lam in (0.1, 1.0, 7.3):
        # bypass build() so scaled weights may exceed 1: only the ratio matters
        g_scaled = gm.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences * lam,
                                 g.rotations, ground_truth=g.ground_truth)
        scaled = solver.cao_solve(g_scaled, init).rotations
        worst = max(worst, float(np.abs(scaled - base).max()))
    _check(3, "Confidence-scale invariance", worst < 1e-9,
           f"max rotation-entry change {worst:.3e} over lambda in {{0.1,1,7.3}}")


def test_04_zero_weight_edge_invariance():
    scene = synth.generate(SyntheticSceneSpec(
        n=6, topology="chain_window", chain_window=2,
        noise_sigma=math.radians(5), seed=4))
    g = scene.graph
    init = _cai(g)
    base = solver.cao_solve(g, init).rotations
    rng = np.random.default_rng(40)
    extended = gm.build(
        g.n_vertices,
        *edge_arrays([*zip(g.ii, g.jj, g.rotations, g.confidences),
                      (0, 5, so3.random_rotation(rng), 0.0)]),
        g.ground_truth)
    with_dead_edge = solver.cao_solve(extended, init).rotations
    worst = float(np.abs(with_dead_edge - base).max())
    _check(4, "Zero-weight edge invariance", worst < 1e-9,
           f"max rotation-entry change {worst:.3e}")


def _exhaustive_max_tree_weight(n, weighted_pairs):
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


def test_05_spanning_tree_optimality():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        pairs = [(i, j, float(rng.uniform(0.01, 1.0)))
                 for i, j in itertools.combinations(range(n), 2)
                 if rng.uniform() < 0.8]
        oracle = _exhaustive_max_tree_weight(n, pairs)
        edges = [(i, j, so3.random_rotation(rng), c) for i, j, c in pairs]
        g = gm.build(n, *edge_arrays(edges))
        if oracle is None:
            try:
                tree_init.maximum_spanning_tree(g)
                failures += 1
            except Exception:
                pass
            continue
        tree = tree_init.maximum_spanning_tree(g)
        if abs(tree.total_confidence - oracle) > 1e-12:
            failures += 1
    _check(5, "Spanning-tree optimality", failures == 0,
           f"{failures}/100 seeds deviate from exhaustive enumeration")


def test_06_alignment_oracle():
    grid = ScipyRotation.random(1_000_000, random_state=6).as_matrix()
    rng = np.random.default_rng(60)
    worst_gap = -np.inf
    for case in range(20):
        gt = np.stack([so3.random_rotation(rng) for _ in range(5)])
        est = np.stack([so3.perturb(r, 0.3, rng) for r in gt])
        S = metrics.align(est, gt)
        A = np.einsum("nji,njk->ik", est, gt)
        obj_svd = -2.0 * np.trace(S.T @ A)
        obj_grid = -2.0 * np.einsum("mjk,jk->m", grid, A).max()
        worst_gap = max(worst_gap, obj_svd - obj_grid)
    _check(6, "Gauge-alignment oracle", worst_gap < 1e-4,
           f"worst objective gap vs 1e6-point grid search {worst_gap:.3e}")


def test_07_outlier_vertex_trend():
    start = time.perf_counter()
    results = {("oracle", 0): [], ("oracle", 10): [],
               ("constant", 0): [], ("constant", 10): []}
    for seed in range(50):
        for model in ("oracle", "constant"):
            base = synth.generate(SyntheticSceneSpec(
                n=7, noise_sigma=math.radians(5), confidence_model=model,
                seed=seed))
            for k in (0, 10):
                scene = synth.corrupt_with_outlier_vertices(
                    base, k, seed + 10_000 + k)
                report = _solve_scene(scene)
                # score only the original cameras; the appended vertices
                # carry no usable geometry by construction
                stats = metrics.error_stats(
                    report.rotations[:7],
                    np.stack(scene.graph.ground_truth)[:7])
                results[(model, k)].append(stats.mean)
    elapsed = time.perf_counter() - start
    med = {key: float(np.median(vals)) for key, vals in results.items()}
    ratio_oracle = med[("oracle", 10)] / med[("oracle", 0)]
    ratio_const = med[("constant", 10)] / med[("constant", 0)]
    _check(7, "Outlier-vertex robustness trend",
           ratio_oracle < 2.0 and ratio_const > 5.0 and elapsed < 60.0,
           f"k=10/k=0 median-error ratio: weighted {ratio_oracle:.2f} (<2), "
           f"unweighted {ratio_const:.2f} (>5), {elapsed:.1f}s")


def test_08_kernel_ordering():
    start = time.perf_counter()
    kinds = ("confidence", "cauchy", "geman_mcclure", "l2")
    errors = {kind: [] for kind in kinds}
    for seed in range(50):
        scene = synth.generate(SyntheticSceneSpec(
            n=7, noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
            confidence_model="informative", seed=seed))
        gt = np.stack(scene.graph.ground_truth)
        for kind in kinds:
            report = _solve_scene(scene, kind)
            errors[kind].append(metrics.error_stats(report.rotations, gt).mean)
    elapsed = time.perf_counter() - start
    med = {kind: math.degrees(np.median(vals)) for kind, vals in errors.items()}
    ok = (med["confidence"] < med["cauchy"] < med["l2"]
          and med["confidence"] < med["geman_mcclure"] < med["l2"])
    _check(8, "Robust-kernel ordering", ok and elapsed < 120.0,
           "median mean error (deg): "
           + " ".join(f"{k}={med[k]:.2f}" for k in kinds)
           + f", {elapsed:.1f}s")


def test_09_confidence_error_trend():
    scene = synth.generate(SyntheticSceneSpec(
        n=150, noise_sigma=math.radians(5), outlier_edge_fraction=0.2,
        confidence_model="informative", seed=9))
    n_edges = len(scene.graph.edges)
    rows = synth.confidence_error_table(scene, 20)
    means = [m for m, _, count in rows if count > 0]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
    _check(9, "Confidence-vs-error binned trend",
           n_edges >= 10_000 and inversions <= 1,
           f"{n_edges} edges, 20 bins, {inversions} adjacent inversion(s)")


def test_10_statistical_descent():
    descended = 0
    rng = np.random.default_rng(10)
    for seed in range(100):
        sigma = float(rng.uniform(math.radians(1), math.radians(10)))
        scene = synth.generate(SyntheticSceneSpec(
            n=7, noise_sigma=sigma, confidence_model="informative",
            seed=1_000 + seed))
        report = solver.cao_solve(scene.graph, _cai(scene.graph),
                                  SolveConfig(max_iterations=3))
        if report.loss_history[-1] <= report.loss_history[0] + 1e-15:
            descended += 1
    _check(10, "Statistical descent over 3 iterations", descended >= 95,
           f"loss non-increased in {descended}/100 runs")


def test_11_streaming_scale(tmp_path):
    scene = synth.generate(SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), confidence_model="informative", seed=11))
    path = tmp_path / "large.graph"
    path.write_text(gm.serialize(scene.graph))
    start = time.perf_counter()
    report_s = stream.solve_file_streaming(
        path, functools.partial(cli._solve, kernel=RobustKernel(), config=SolveConfig()))
    elapsed = time.perf_counter() - start
    report_m = solver.cao_solve(scene.graph, _cai(scene.graph))
    gap = float(np.abs(report_s.rotations - report_m.rotations).max())
    _check(11, "Streaming scale smoke test",
           elapsed < 10.0 and gap < 1e-12,
           f"N=2000, {len(scene.graph.edges)} edges, streaming solve "
           f"{elapsed:.2f}s, in-memory gap {gap:.3e}")
