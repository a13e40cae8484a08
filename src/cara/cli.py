"""Command-line front-end: generate / solve / eval / bench.

``cara solve`` reads the file with the one scan of :mod:`cara.stream`,
which keeps the indices, confidences and quaternion pairs, in memory or,
under ``--stream``, in a memory-mapped store; it builds no graph, rotation
stack or ground truth. One pipeline, :func:`_solve`, solves either stream.

Exit codes: 0 success, 2 I/O or parse failure, 3 unsolvable input (a
disconnected or degenerate graph, or no connected scene to generate), 64
usage error. Angles cross the CLI boundary in degrees, radians inside.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import graph as graphmod
from . import metrics, stream, synth
from .errors import (CaraError, DegenerateWeightsError, GenerationError,
                     GraphParseError, InvalidArgumentError, NotConnectedError)
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
    graphmod.write_text(graph_path, graphmod.serialize(scene.graph))
    graphmod.write_text(label_path, synth.serialize_labels(scene))
    n_out = int(np.sum(~scene.edge_labels))
    print(f"wrote {graph_path} and {label_path}: "
          f"N={scene.graph.n_vertices} |E|={len(scene.graph.ii)} "
          f"outliers={n_out}")
    return EXIT_OK


# ---------------------------------------------------------------- solve

def _write_estimates(path, rotations):
    lines = [f"N {len(rotations)}", *graphmod.vertex_lines("VERTEX_EST", rotations)]
    graphmod.write_text(path, "\n".join(lines) + "\n")


def _solve_settings_from_args(args) -> tuple[SolveConfig, RobustKernel]:
    kernel = RobustKernel(kind=args.kernel.replace("-", "_"),
                          alpha=math.radians(args.alpha_deg))
    if args.iters is not None and args.iters < 1:
        raise InvalidArgumentError(f"--iters must be >= 1, got {args.iters}")
    cap = "max_iterations" if kernel.kind == "confidence" else "irls_max_iterations"
    iters = {} if args.iters is None else {cap: args.iters}
    return SolveConfig(**iters), kernel


def _solve(edges, kernel: RobustKernel, config: SolveConfig, dump_tree=False):
    """The ``cara solve`` pipeline over any EdgeStream, a caller's graph
    or a file's pair-only stream: spanning tree (printed if asked),
    propagation, then cao_solve for the confidence kernel or irls_solve
    for any other, with the tree's diagnostics first. It reads the edges'
    indices, confidences and quaternion pairs and alters nothing, so a
    caller's graph can be solved again."""
    tree = maximum_spanning_tree(edges)
    if dump_tree:
        print(f"spanning tree root {tree.root} "
              f"(total confidence {tree.total_confidence:.6g})")
        for parent, child, c in zip(tree.parents.tolist(), tree.children.tolist(),
                                    edges.confidences[tree.edges].tolist()):
            print(f"  {parent} -> {child}  c={c:.6g}")
    init, diagnostics = propagate(tree, edges), tree.diagnostics
    del tree
    if kernel.kind == "confidence":
        report = cao_solve(edges, init, config)
    else:
        report = irls_solve(edges, init, kernel, config)
    report.diagnostics[:0] = diagnostics
    return report


def cmd_solve(args) -> int:
    config, kernel = _solve_settings_from_args(args)
    solve = functools.partial(_solve, kernel=kernel, config=config,
                              dump_tree=args.dump_tree)
    if args.stream:
        report = stream.solve_file_streaming(args.infile, solve)
    else:
        report = solve(stream.read_edge_stream(args.infile))
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

def _read_rotations(path, what):
    """(N, 3, 3) rotations from VERTEX_EST or VERTEX_GT records; ``what`` names them."""
    reader = graphmod.RecordReader(vertex_tags=("VERTEX_EST", "VERTEX_GT"), skip_edges=True)
    with graphmod.open_text(path) as fh:
        pieces = [(rec.vertex_ids, rec.vertex_rots) for rec in reader.chunks(fh)]
    reader.require_all_vertices(what)
    return graphmod.vertex_stack(reader.n, pieces)


def _thresholds_from_args(args) -> list[float]:
    try:
        thresholds = [float(t) for t in args.thresholds.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"--thresholds takes comma-separated numbers, got {args.thresholds!r}"
        ) from None
    if not all(math.isfinite(t) for t in thresholds):
        raise InvalidArgumentError(f"--thresholds must be finite, got {args.thresholds!r}")
    return thresholds


def cmd_eval(args) -> int:
    est = _read_rotations(args.est, "estimates")
    gt = _read_rotations(args.gt, "ground truth")
    if est.shape != gt.shape:
        raise GraphParseError(0, f"vertex count mismatch: {est.shape[0]} estimates "
                                 f"vs {gt.shape[0]} ground truth")
    stats = metrics.error_stats(est, gt, _thresholds_from_args(args))

    degrees = list(map(math.degrees, stats.per_camera_errors.tolist()))
    print(f"{'camera':>8} {'error_deg':>12}\n"
          + "".join(map("%8d %12.6f\n".__mod__, enumerate(degrees))), end="")
    print(f"mean   {math.degrees(stats.mean):.6f} deg")
    print(f"median {math.degrees(stats.median):.6f} deg")
    for t, frac in stats.accuracy.items():
        print(f"Acc@{t:g}deg {frac:.4f}")

    if args.out:
        lines = ["# cara-eval v1", "camera,error_deg"]
        lines += [f"{idx},{deg:.12g}" for idx, deg in enumerate(degrees)]
        lines.append(f"mean,{math.degrees(stats.mean):.12g}")
        lines.append(f"median,{math.degrees(stats.median):.12g}")
        for t, frac in stats.accuracy.items():
            lines.append(f"acc@{t:g},{frac:.12g}")
        graphmod.write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- bench

BENCH_HEADER = ("scenario,kernel,confidence_model,n,k_outliers,sigma_deg,"
                "mean_error_deg,median_error_deg,acc3,acc5,acc10,wall_ms,seed")


def _bench_row(scenario, kernel_kind, scene, seed):
    config = SolveConfig()
    start = time.perf_counter()
    report = _solve(scene.graph, RobustKernel(kind=kernel_kind), config)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    stats = metrics.error_stats(report.rotations, scene.graph.ground_truth)
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
        graphmod.write_text(args.out, text)
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
    p.add_argument("--iters", type=int, default=None,
                   help=f"iteration cap (default {SolveConfig.max_iterations}; "
                        f"{SolveConfig.irls_max_iterations} under a robust kernel)")
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
                if args.outlier_vertices < 0:
                    raise InvalidArgumentError("--outlier-vertices must be >= 0")
            elif args.command == "solve":
                _solve_settings_from_args(args)
            elif args.command == "eval":
                _thresholds_from_args(args)
            elif args.command == "bench" and args.seeds < 1:
                raise InvalidArgumentError("--seeds must be >= 1")
        except InvalidArgumentError as exc:
            raise UsageError(str(exc)) from exc
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotConnectedError, DegenerateWeightsError, GenerationError) as exc:
        print(f"unsolvable input: {exc}", file=sys.stderr)
        if isinstance(exc, NotConnectedError):
            for idx, comp in enumerate(exc.components):
                print(f"  component {idx}: {comp}", file=sys.stderr)
            if exc.count > len(exc.components):
                print(f"  ... and {exc.count - len(exc.components)} more", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except (CaraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
