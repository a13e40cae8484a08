"""Micro-benchmark: text ingest.

Generates a chain-window scene, writes its graph file and an estimate file
(the ground truth as VERTEX_EST records), then reports the wall time (best
of ``--repeats``) and the ``tracemalloc`` peak of ``graph.parse`` reading
the graph file line by line, and of ``cara eval``'s reader
(``cli._read_rotations``) on the estimate and on the graph file. Run as:

    python benchmarks/bench_ingest.py [--n 2000] [--window 10] [--repeats 5]
"""
import argparse
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np

from cara import cli, synth
from cara import graph as gm


def measure(fn, repeats):
    """(best wall seconds, traced peak bytes) of ``fn()``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak


def parse_file(path):
    with gm.open_text(path) as fh:
        return gm.parse(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--window", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    scene = synth.generate(synth.SyntheticSceneSpec(
        n=args.n, topology="chain_window", chain_window=args.window,
        noise_sigma=math.radians(5.0), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=args.seed))
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "scene.graph")
        est_path = os.path.join(tmp, "scene.est")
        gm.write_text(graph_path, gm.serialize(scene.graph))
        cli._write_estimates(est_path, np.stack(scene.graph.ground_truth))
        print(f"N={args.n} |E|={len(scene.graph.ii)} "
              f"graph file {os.path.getsize(graph_path) / 1e6:.2f} MB")
        header = f"{'read':<28}{'ms':>10}{'peak MB':>10}"
        print(header)
        print("-" * len(header))
        cases = [
            ("parse(graph file)", lambda: parse_file(graph_path)),
            ("_read_rotations(estimates)", lambda: cli._read_rotations(est_path)),
            ("_read_rotations(graph file)", lambda: cli._read_rotations(graph_path)),
        ]
        for name, fn in cases:
            wall, peak = measure(fn, args.repeats)
            print(f"{name:<28}{1e3 * wall:>10.2f}{peak / 1e6:>10.2f}")


if __name__ == "__main__":
    main()
