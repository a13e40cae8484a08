"""Micro-benchmark: compiled rotation kernels vs the numpy fallback.

Times batch_exp, batch_log, and edge_residuals on growing batch sizes and
reports the speedup of the compiled extension over pure numpy, the worst
numerical disagreement between the two, and the worst error of numpy's
batch_log against scipy's ``as_rotvec``. Run as:

    python benchmarks/bench_kernels.py [--sizes 1000,10000,100000] [--repeats 5]
"""
import argparse
import math
import time

import numpy as np
from scipy.spatial.transform import Rotation

from cara import _numpy_kernels as npk

try:
    from cara import _speedups as spk
except ImportError:
    spk = None


def make_inputs(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, 3))
    v *= (rng.uniform(0, math.pi - 1e-3, m) / np.linalg.norm(v, axis=1))[:, None]
    rots = npk.batch_exp(v)
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

    if spk is None:
        print("compiled extension not available; showing numpy timings only")

    header = f"{'kernel':<16}{'batch':>9}{'numpy ms':>12}{'compiled ms':>13}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    worst_gap = worst_log = 0.0
    for m in sizes:
        v, ra, rb = make_inputs(m, seed=m)
        worst_log = max(worst_log, float(np.abs(
            npk.batch_log(ra) - Rotation.from_matrix(ra).as_rotvec()).max()))
        cases = [
            ("batch_exp", (v,)),
            ("batch_log", (ra,)),
            ("edge_residuals", (ra, rb, ra)),
        ]
        for name, call_args in cases:
            t_np = time_call(getattr(npk, name), call_args, args.repeats)
            if spk is not None:
                t_c = time_call(getattr(spk, name), call_args, args.repeats)
                gap = float(np.abs(getattr(npk, name)(*call_args)
                                   - getattr(spk, name)(*call_args)).max())
                worst_gap = max(worst_gap, gap)
                print(f"{name:<16}{m:>9}{1e3 * t_np:>12.3f}{1e3 * t_c:>13.3f}"
                      f"{t_np / t_c:>8.1f}x")
            else:
                print(f"{name:<16}{m:>9}{1e3 * t_np:>12.3f}{'-':>13}{'-':>9}")
    print(f"\nmax |numpy batch_log - scipy as_rotvec|: {worst_log:.3e}")
    if spk is not None:
        print(f"max |compiled - numpy| across all calls: {worst_gap:.3e}")


if __name__ == "__main__":
    main()
