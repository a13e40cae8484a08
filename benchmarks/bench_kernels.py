"""Micro-benchmark: the batched SO(3) kernels.

Times batch_exp, batch_log, and edge_residuals on growing batch sizes and
reports the worst error of batch_log against scipy's ``as_rotvec``. Run as:

    python benchmarks/bench_kernels.py [--sizes 1000,10000,100000] [--repeats 5]
"""
import argparse
import math
import time

import numpy as np
from scipy.spatial.transform import Rotation

from cara import kernels


def make_inputs(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, 3))
    v *= (rng.uniform(0, math.pi - 1e-3, m) / np.linalg.norm(v, axis=1))[:, None]
    rots = kernels.batch_exp(v)
    perm = rng.permutation(m)
    return v, rots, rots[perm]


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

    header = f"{'kernel':<16}{'batch':>9}{'ms':>12}{'ns/row':>10}"
    print(header)
    print("-" * len(header))
    worst_log = 0.0
    for m in sizes:
        v, ra, rb = make_inputs(m, seed=m)
        worst_log = max(worst_log, float(np.abs(
            kernels.batch_log(ra) - Rotation.from_matrix(ra).as_rotvec()).max()))
        cases = [
            ("batch_exp", (v,)),
            ("batch_log", (ra,)),
            ("edge_residuals", (ra, rb, ra)),
        ]
        for name, call_args in cases:
            t = time_call(getattr(kernels, name), call_args, args.repeats)
            print(f"{name:<16}{m:>9}{1e3 * t:>12.3f}{1e9 * t / m:>10.1f}")
    print(f"\nmax |batch_log - scipy as_rotvec|: {worst_log:.3e}")


if __name__ == "__main__":
    main()
