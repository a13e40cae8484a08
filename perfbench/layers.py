"""Which cara functions are layers, and the per-layer metrics built from them.

Every function is wrapped at the name its callers look up: ``cara.cli``
imports ``maximum_spanning_tree``, ``propagate``, ``cao_solve`` and
``irls_solve`` by name, ``cara.solver`` and ``cara.tree_init`` import
``connected_components`` by name, and ``cara.stream`` imports
``cao_solve_stream`` by name. Module attributes looked up at call time
(``kernels.edge_residuals``, ``metrics.error_stats``, ``graph.parse`` ...)
are wrapped once on their module. A function that no longer exists is
skipped by the tracer, and its layer reads as absent.
"""
from __future__ import annotations

import os
from collections import Counter

from cara import cli, graph, kernels, metrics, solver, stream, tree_init

# Bytes each kernel must read and write per row: 3x3 float64 = 72 B,
# 3-vector = 24 B. A lower bound on traffic, reported as "computed".
KERNEL_ROW_BYTES = {"edge_residuals": 3 * 72 + 24, "batch_exp": 24 + 72,
                    "batch_log": 72 + 24}


def _calls(key):
    return lambda args, kwargs, result: {key: 1}


def _rows(kernel, arg):
    key = f"kernels.{kernel}_rows"
    return lambda args, kwargs, result: {key: len(args[arg])}


def _cao(args, kwargs, result):
    return {"solver.cao_iterations": result.iterations_run}


def _irls(args, kwargs, result):
    config = (args[3] if len(args) > 3 else kwargs.get("config")) or solver.SolveConfig()
    capped = result.iterations_run >= config.irls_max_iterations
    return {"solver.irls_solves": 1, "solver.irls_iterations": result.iterations_run,
            "solver.irls_cap_hits": int(capped)}


def _file_read(path_of):
    def count(args, kwargs, result):
        return {"stream.file_passes": 1,
                "stream.bytes_read": os.path.getsize(path_of(args))}
    return count


def wrap_layers(t):
    """Install every layer wrapper on tracer ``t``."""
    t.wrap(cli, "cmd_solve", "cli.solve")
    t.wrap(cli, "cmd_eval", "cli.eval")

    t.wrap(graph, "parse", "graph.parse",
           lambda a, k, g: {"graph.parse_edges": len(g.edges)})
    t.wrap(graph, "build", "graph.build")
    t.wrap(graph, "serialize", "graph.serialize")
    components = _calls("graph.components_calls")
    for owner, attr in ((graph, "connected_components"),
                        (tree_init, "connected_components"),
                        (solver, "connected_components"),
                        (solver, "_components_from_arrays"),
                        (stream, "_check_stream_connectivity")):
        t.wrap(owner, attr, "graph.components", components)

    for owner in (cli, tree_init):
        t.wrap(owner, "maximum_spanning_tree", "tree_init.mst")
        t.wrap(owner, "propagate", "tree_init.propagate")

    for owner in (cli, solver):
        t.wrap(owner, "cao_solve", "solver.cao", _cao)
        t.wrap(owner, "irls_solve", "solver.irls", _irls)
    t.wrap(stream, "cao_solve_stream", "solver.stream")
    t.wrap(getattr(solver, "spla", None), "splu", "solver.factor",
           _calls("solver.factor_calls"))

    t.wrap(kernels, "edge_residuals", "kernels.edge_residuals", _rows("edge_residuals", 2))
    t.wrap(kernels, "batch_exp", "kernels.batch_exp", _rows("batch_exp", 0))
    t.wrap(kernels, "batch_log", "kernels.batch_log", _rows("batch_log", 0))

    file_stream = getattr(stream, "FileEdgeStream", None)
    t.wrap(file_stream, "__init__", "stream.scan", _file_read(lambda a: a[1]))
    t.wrap(stream, "initialize_from_stream", "stream.init")
    t.wrap_generator(file_stream, "passes", "stream.pass",
                     _file_read(lambda a: a[0].path))

    t.wrap(metrics, "error_stats", "metrics.error_stats")


# metric -> the layer whose self time per op it reports.
SELF_TIME_LAYERS = {
    "cli.solve_self_s": "cli.solve", "cli.eval_self_s": "cli.eval",
    "graph.parse_s": "graph.parse", "graph.build_s": "graph.build",
    "graph.components_s": "graph.components",
    "tree_init.mst_s": "tree_init.mst", "tree_init.propagate_s": "tree_init.propagate",
    "solver.cao_s": "solver.cao", "solver.irls_s": "solver.irls",
    "solver.factor_s": "solver.factor", "solver.stream_s": "solver.stream",
    "kernels.edge_residuals_s": "kernels.edge_residuals",
    "kernels.batch_exp_s": "kernels.batch_exp", "kernels.batch_log_s": "kernels.batch_log",
    "stream.scan_s": "stream.scan", "stream.init_s": "stream.init",
    "stream.pass_s": "stream.pass", "metrics.error_stats_s": "metrics.error_stats",
}
# count metric -> the layer whose wrapper counts it. A count whose layer was
# entered is reported even when it is 0.
COUNTS = {
    "graph.components_calls": "graph.components",
    "solver.cao_iterations": "solver.cao",
    "solver.irls_iterations": "solver.irls", "solver.irls_cap_hits": "solver.irls",
    "solver.factor_calls": "solver.factor",
    "kernels.edge_residuals_rows": "kernels.edge_residuals",
    "kernels.batch_exp_rows": "kernels.batch_exp",
    "kernels.batch_log_rows": "kernels.batch_log",
    "stream.file_passes": "stream.scan", "stream.bytes_read": "stream.scan",
}


def op_layer_metrics(t, scale: float) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics of one traced op (tracer ``t`` holds only that op),
    plus the raw counters. Times are multiplied by the op's speed ``scale``.
    A metric whose layer the op never entered is left out."""
    self_s = {layer: v * scale for layer, v in t.self_times().items()}
    total_s = {layer: v * scale for layer, v in t.total_times().items()}
    entered = t.entered()
    counts = t.counts
    out = {name: self_s[layer] for name, layer in SELF_TIME_LAYERS.items()
           if layer in entered}
    out.update({name: float(counts[name]) for name, layer in COUNTS.items()
                if layer in entered})
    if counts["graph.parse_edges"]:
        out["graph.parse_us_per_edge"] = (1e6 * total_s["graph.parse"]
                                          / counts["graph.parse_edges"])
    if counts["solver.irls_solves"]:
        out["solver.irls_converged_ratio"] = (
            1.0 - counts["solver.irls_cap_hits"] / counts["solver.irls_solves"])
    rows = sum(counts[f"kernels.{k}_rows"] for k in KERNEL_ROW_BYTES)
    if rows:
        kernel_s = sum(self_s.get(f"kernels.{k}", 0.0) for k in KERNEL_ROW_BYTES)
        out["kernels.ns_per_row"] = 1e9 * kernel_s / rows
        out["kernels.bytes_computed"] = float(sum(
            counts[f"kernels.{k}_rows"] * b for k, b in KERNEL_ROW_BYTES.items()))
    if "op" in entered:
        out["trace.op_s"] = total_s["op"]
        out["trace.unattributed_s"] = self_s["op"]
    return out, counts


def peak_layer_metrics(t) -> dict[str, float]:
    """Layer peaks from a memory-mode tracer run over one op, in MB."""
    peaks = t.layer_peaks()
    out = {}
    if "graph.parse" in peaks:
        out["graph.parse_peak_mb"] = peaks["graph.parse"] / 1e6
    stream_peaks = [p for layer, p in peaks.items()
                    if layer.startswith("stream.") or layer == "solver.stream"]
    if stream_peaks:
        out["stream.peak_mb"] = max(stream_peaks) / 1e6
    return out
