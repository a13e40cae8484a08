"""Micro-benchmark: the batched SO(3) kernels, one solver sweep and the tree.

Times batch_exp, batch_log, batch_quat, quat_residuals (from the
(2, M) complex quaternion pairs of Ri, Rj and Rij, contiguous as the
sweep's gathers are) and edge_residuals (from the matrices) on growing
batch sizes, and edge_residuals on a residual mix with 8% of rows
past 2.69 rad, as on a dense scene with 30% outlier edges. Then times one
``solver._residual_pass`` over a 4096-edge stream on 200 vertices, the
chunk the solver sweeps at a time, whose edge quaternion pairs are
converted beforehand, and ``EdgeStream.quaternions`` (the conversion to
pairs each graph makes once, a row per edge), ``maximum_spanning_tree``
(a row per edge) and ``propagate`` (a row per tree edge) on the
2000-camera chain scene of seed 3 (window 10, 10% outlier edges,
informative confidences). ``_LaplacianPattern.factor`` (a row per edge)
runs on the 200-camera complete scene of seed 3 (30% outlier edges,
informative confidences), whose Laplacian takes the dense Cholesky, and
on that chain scene, whose Laplacian takes SuperLU. Last, it reports the
worst error of batch_log against scipy's ``as_rotvec``.
Run as:

    python benchmarks/bench_kernels.py [--sizes 1000,10000,100000] [--repeats 5]
"""
import argparse
import math
import time

import numpy as np
from scipy.spatial.transform import Rotation

from cara import kernels, solver, synth, tree_init
from cara.graph import CHUNK_RECORDS, EdgeStream
from cara.tree_init import _pick_root

FAR_ANGLE = 2.69
FAR_SHARE = 0.08
SWEEP_VERTICES = 200
CHAIN = synth.SyntheticSceneSpec(
    n=2000, topology="chain_window", chain_window=10, noise_sigma=math.radians(5.0),
    outlier_edge_fraction=0.1, confidence_model="informative", seed=3)
DENSE = synth.SyntheticSceneSpec(
    n=200, noise_sigma=math.radians(5.0), outlier_edge_fraction=0.3,
    confidence_model="informative", seed=3)


def make_inputs(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, 3))
    v *= (rng.uniform(0, math.pi - 1e-3, m) / np.linalg.norm(v, axis=1))[:, None]
    rots = kernels.batch_exp(v)
    perm = rng.permutation(m)
    return v, rots, rots[perm]


def far_mix(m, seed):
    """(Ri, Rj, Rij) whose residuals log(Rj^T Rij Ri) have angles past
    FAR_ANGLE on FAR_SHARE of the rows and below it on the rest."""
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((m, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    far = rng.random(m) < FAR_SHARE
    angles = np.where(far, rng.uniform(FAR_ANGLE, math.pi, m), rng.uniform(0, FAR_ANGLE, m))
    Ri, Rj = (Rotation.random(m, random_state=rng).as_matrix() for _ in range(2))
    Rij = Rj @ kernels.batch_exp(axes * angles[:, None]) @ np.transpose(Ri, (0, 2, 1))
    return Ri, Rj, Rij


def sweep_inputs(m, seed):
    """(stream, rotations, weights) for one residual pass over m edges; the
    stream's quaternion pairs are converted here."""
    rng = np.random.default_rng(seed)
    n = SWEEP_VERTICES
    ii = rng.integers(0, n - 1, m)
    jj = rng.integers(ii + 1, n)
    stream = EdgeStream(n, ii, jj, rng.random(m), Rotation.random(m, random_state=rng).as_matrix())
    rotations = Rotation.random(n, random_state=rng).as_matrix()
    stream.quaternions  # converted once, outside the timed sweep
    return stream, rotations, stream.confidences


def edge_quaternions(g):
    """The quaternion pairs of g's edges, converted anew: a graph keeps them."""
    return EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences, g.rotations).quaternions


def factor_inputs(g):
    """(pattern, weights) for one fix-root Laplacian factor of g."""
    anchor = _pick_root(g.n_vertices, g.ii, g.jj, g.confidences)
    pattern = solver._LaplacianPattern(g.n_vertices, g.ii, g.jj, anchor)
    return pattern, g.confidences


def time_call(fn, args, repeats):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    header = f"{'kernel':<24}{'batch':>9}{'ms':>12}{'ns/row':>10}"
    print(header)
    print("-" * len(header))

    def row(name, fn, call_args, m):
        t = time_call(fn, call_args, args.repeats)
        print(f"{name:<24}{m:>9}{1e3 * t:>12.3f}{1e9 * t / m:>10.1f}")

    worst_log = 0.0
    for m in sizes:
        v, ra, rb = make_inputs(m, seed=m)
        worst_log = max(worst_log, float(np.abs(
            kernels.batch_log(ra) - Rotation.from_matrix(ra).as_rotvec()).max()))
        row("batch_exp", kernels.batch_exp, (v,), m)
        row("batch_log", kernels.batch_log, (ra,), m)
        row("batch_quat", kernels.batch_quat, (ra,), m)
        row("quat_residuals", kernels.quat_residuals,
            tuple(np.ascontiguousarray(kernels.batch_quat(R)) for R in (ra, rb, ra)), m)
        row("edge_residuals", kernels.edge_residuals, (ra, rb, ra), m)
        row("edge_residuals_far8", kernels.edge_residuals, far_mix(m, seed=m), m)
    row("residual_pass", solver._residual_pass, sweep_inputs(CHUNK_RECORDS, seed=0),
        CHUNK_RECORDS)
    chain = synth.generate(CHAIN).graph
    row("edge_quaternions", edge_quaternions, (chain,), len(chain.ii))
    tree = tree_init.maximum_spanning_tree(chain)
    row("spanning_tree", tree_init.maximum_spanning_tree, (chain,), len(chain.ii))
    row("propagate", tree_init.propagate, (tree, chain), len(tree.edges))
    for name, g in (("factor_dense", synth.generate(DENSE).graph), ("factor_sparse", chain)):
        pattern, w = factor_inputs(g)
        row(name, pattern.factor, (w,), len(g.ii))
    print(f"\nmax |batch_log - scipy as_rotvec|: {worst_log:.3e}")


if __name__ == "__main__":
    main()
