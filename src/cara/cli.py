"""Command-line front-end: generate / solve / eval / bench.

Exit codes: 0 success, 2 I/O or parse failure, 3 unsolvable input
(disconnected or degenerate graph), 64 usage error. Angles cross the CLI
boundary in degrees; everything internal is radians.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import graph as graphmod
from . import metrics, stream, synth
from .errors import (CaraError, DegenerateWeightsError, GraphParseError,
                     InvalidArgumentError, NotConnectedError)
from .solver import RobustKernel, SolveConfig, cao_solve, irls_solve
from .tree_init import maximum_spanning_tree, propagate

EXIT_OK = 0
EXIT_IO = 2
EXIT_UNSOLVABLE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- generate

def _scene_spec_from_args(args) -> synth.SyntheticSceneSpec:
    return synth.SyntheticSceneSpec(
        n=args.n,
        topology=args.topology.replace("-", "_"),
        erdos_p=args.erdos_p,
        chain_window=args.window,
        noise_sigma=math.radians(args.sigma_deg),
        outlier_edge_fraction=args.outlier_frac,
        confidence_model=args.confidence_model,
        constant_confidence=args.constant_c,
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    spec = _scene_spec_from_args(args)
    scene = synth.generate(spec)
    if args.outlier_vertices:
        scene = synth.corrupt_with_outlier_vertices(
            scene, args.outlier_vertices, args.seed + 1)
    graph_path = args.out
    label_path = args.out + ".labels"
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(graphmod.serialize(scene.graph))
    with open(label_path, "w", encoding="utf-8") as fh:
        fh.write(synth.serialize_labels(scene))
    n_out = int(np.sum(~scene.edge_labels))
    print(f"wrote {graph_path} and {label_path}: "
          f"N={scene.graph.n_vertices} |E|={len(scene.graph.edges)} "
          f"outliers={n_out}")
    return EXIT_OK


# ---------------------------------------------------------------- solve

def _write_estimates(path, rotations):
    lines = [f"N {len(rotations)}"]
    for idx, r in enumerate(rotations):
        lines.append(f"VERTEX_EST {idx} " + " ".join(_fmt(x) for x in r.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_solve(args) -> int:
    config = SolveConfig(max_iterations=args.iters, anchor=args.anchor)
    kernel = RobustKernel(kind=args.kernel.replace("-", "_"),
                          alpha=math.radians(args.alpha_deg))
    if args.stream:
        if kernel.kind != "confidence":
            raise UsageError("--stream supports only the confidence kernel")
        report = stream.solve_file_streaming(args.infile, config)
    else:
        with graphmod.open_text(args.infile) as fh:
            g = graphmod.parse(fh.read())
        tree = maximum_spanning_tree(g)
        if args.dump_tree:
            print(f"spanning tree root {tree.root} "
                  f"(total confidence {tree.total_confidence:.6g})")
            for te in tree.parent_edges:
                print(f"  {te.parent} -> {te.child}  c={te.confidence:.6g}")
        init = propagate(tree, g)
        if kernel.kind == "confidence":
            report = cao_solve(g, init, config)
        else:
            report = irls_solve(g, init, kernel, config)
    for warning in report.diagnostics:
        print(f"warning: {warning}", file=sys.stderr)
    print("loss history: " + " ".join(f"{x:.6e}" for x in report.loss_history))
    print(f"iterations: {report.iterations_run}  "
          f"final max residual: {report.max_residual_history[-1]:.3e} rad")
    if args.out:
        _write_estimates(args.out, report.rotations)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- eval

def _read_rotations(path):
    """(N, 3, 3) validated rotations from VERTEX_EST or VERTEX_GT records."""
    reader = graphmod.RecordReader(vertex_tags=("VERTEX_EST", "VERTEX_GT"),
                                   skip_tags=("EDGE",))
    with graphmod.open_text(path) as fh:
        records = list(reader.chunks(fh))
    n = reader.n
    if len(reader.vertex_ids) != n:
        raise GraphParseError(0, f"file {path} does not carry rotations for all "
                                 f"{n} vertices")
    rotations = np.empty((n, 3, 3))
    for rec in records:
        rotations[rec.vertex_ids] = rec.vertex_rots
    return rotations


def cmd_eval(args) -> int:
    est = _read_rotations(args.est)
    gt = _read_rotations(args.gt)
    if est.shape != gt.shape:
        raise GraphParseError(0, f"vertex count mismatch: {est.shape[0]} estimates "
                                 f"vs {gt.shape[0]} ground truth")
    thresholds = [float(t) for t in args.thresholds.split(",")]
    stats = metrics.error_stats(est, gt, thresholds)

    print(f"{'camera':>8} {'error_deg':>12}")
    for idx, err in enumerate(stats.per_camera_errors):
        print(f"{idx:>8} {math.degrees(err):>12.6f}")
    print(f"mean   {math.degrees(stats.mean):.6f} deg")
    print(f"median {math.degrees(stats.median):.6f} deg")
    for t, frac in stats.accuracy.items():
        print(f"Acc@{t:g}deg {frac:.4f}")

    if args.out:
        lines = ["# cara-eval v1", "camera,error_deg"]
        for idx, err in enumerate(stats.per_camera_errors):
            lines.append(f"{idx},{math.degrees(err):.12g}")
        lines.append(f"mean,{math.degrees(stats.mean):.12g}")
        lines.append(f"median,{math.degrees(stats.median):.12g}")
        for t, frac in stats.accuracy.items():
            lines.append(f"acc@{t:g},{frac:.12g}")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- bench

BENCH_HEADER = ("scenario,kernel,confidence_model,n,k_outliers,sigma_deg,"
                "mean_error_deg,median_error_deg,acc3,acc5,acc10,wall_ms,seed")


def _solve_scene(scene, kernel: RobustKernel, config: SolveConfig):
    g = scene.graph
    tree = maximum_spanning_tree(g)
    init = propagate(tree, g)
    if kernel.kind == "confidence":
        return cao_solve(g, init, config)
    return irls_solve(g, init, kernel, config)


def _bench_row(scenario, kernel_kind, scene, seed):
    config = SolveConfig()
    start = time.perf_counter()
    report = _solve_scene(scene, RobustKernel(kind=kernel_kind), config)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    stats = metrics.error_stats(report.rotations,
                                np.stack(scene.graph.ground_truth))
    spec = scene.spec
    k_out = int(np.sum(~scene.edge_labels))
    return (f"{scenario},{kernel_kind},{spec.confidence_model},"
            f"{scene.graph.n_vertices},{k_out},"
            f"{math.degrees(spec.noise_sigma):.6g},"
            f"{math.degrees(stats.mean):.6g},{math.degrees(stats.median):.6g},"
            f"{stats.accuracy[3.0]:.4f},{stats.accuracy[5.0]:.4f},"
            f"{stats.accuracy[10.0]:.4f},{wall_ms:.3f},{seed}")


def _suite_outliers(seeds):
    rows = []
    for seed in seeds:
        for model in ("oracle", "constant"):
            base = synth.generate(synth.SyntheticSceneSpec(
                n=7, topology="complete", noise_sigma=math.radians(5.0),
                confidence_model=model, seed=seed))
            for k in (0, 2, 4, 6, 8, 10):
                scene = synth.corrupt_with_outlier_vertices(base, k, seed + 10_000 + k)
                rows.append(_bench_row(f"outliers_k{k}", "confidence", scene, seed))
    return rows


def _suite_kernels(seeds):
    rows = []
    for seed in seeds:
        scene = synth.generate(synth.SyntheticSceneSpec(
            n=7, topology="complete", noise_sigma=math.radians(5.0),
            outlier_edge_fraction=0.3, confidence_model="informative",
            seed=seed))
        for kind in ("confidence", "l2", "cauchy", "geman_mcclure", "l_half"):
            rows.append(_bench_row(f"kernels_30pct", kind, scene, seed))
    return rows


def _suite_scale(seeds):
    rows = []
    for seed in seeds:
        for n in (200, 500, 1000, 2000):
            scene = synth.generate(synth.SyntheticSceneSpec(
                n=n, topology="chain_window", chain_window=10,
                noise_sigma=math.radians(5.0), confidence_model="oracle",
                seed=seed))
            rows.append(_bench_row(f"scale_n{n}", "confidence", scene, seed))
    return rows


SUITES = {"outliers": _suite_outliers, "kernels": _suite_kernels,
          "scale": _suite_scale}


def cmd_bench(args) -> int:
    seeds = list(range(args.seeds))
    rows = sorted(SUITES[args.suite](seeds))
    out_lines = ["# cara-bench v1", BENCH_HEADER] + rows
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------- wiring

def build_parser() -> Parser:
    parser = Parser(prog="cara",
                    description="Confidence-aware rotation averaging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic confidence graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--topology", default="complete",
                   choices=["complete", "erdos", "chain-window", "chain_window"])
    p.add_argument("--erdos-p", type=float, default=0.5)
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--sigma-deg", type=float, default=0.0)
    p.add_argument("--outlier-frac", type=float, default=0.0)
    p.add_argument("--outlier-vertices", type=int, default=0,
                   help="append this many all-outlier vertices")
    p.add_argument("--confidence-model", default="oracle",
                   choices=list(synth.CONFIDENCE_MODELS))
    p.add_argument("--constant-c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="estimate absolute rotations from a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kernel", default="confidence",
                   choices=["confidence", "l2", "l-half", "l_half", "cauchy",
                            "geman-mcclure", "geman_mcclure"])
    p.add_argument("--alpha-deg", type=float, default=5.0)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--anchor", default="fix-root", choices=["fix-root", "tikhonov"])
    p.add_argument("--stream", action="store_true",
                   help="edge-by-edge file ingestion (low memory)")
    p.add_argument("--dump-tree", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="gauge-aligned error metrics")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--thresholds", default="3,5,10",
                   help="accuracy thresholds in degrees, comma separated")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--seeds", type=int, default=10,
                   help="number of seeds (0..seeds-1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            # validate value ranges up front so bad flags exit 64, not 2
            if args.command == "generate":
                _scene_spec_from_args(args)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc)) from exc
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotConnectedError, DegenerateWeightsError) as exc:
        print(f"unsolvable input: {exc}", file=sys.stderr)
        if isinstance(exc, NotConnectedError):
            for idx, comp in enumerate(exc.components):
                print(f"  component {idx}: {comp}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except (GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CaraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
