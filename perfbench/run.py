"""Run one cara benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-file --seed 0 --seconds 8 --trace 0

One process, one client, closed loop: each op starts when the previous one
ends. A run sets up the scene ``SETUP_REPEATS`` times (``setup_s`` is the
median), runs one op under tracemalloc for the memory figures (this op is
also the warm-up), then runs ops until ``--seconds`` have passed. Every
set-up and op runs between two speed probes (``speed.py``), and its times
are reported in seconds at the probes' reference speed. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced ops and prints the
per-layer metrics. The result line names every metric of BENCHMARK.json
with a number, so a metric whose layer the workload never enters is
written as 0 there; the text output marks it absent, and the record lists
it under ``absent``. The last line of stdout is the JSON result. The full
record (labels, every sample, fingerprints, counts, spans) goes to
``--out``.

Every op is checked (exit codes, loss descent, accuracy, --stream equal to
in memory, the same fingerprint on every op); an op failing a check counts
in ``failed``. The BLAS and OpenMP pools are pinned to one thread.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("chain-file", "chain-stream", "kernels-dense")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="record path (default perfbench/results/<workload>-"
                        "seed<seed>-trace<trace>.json)")
    return p.parse_args(argv)


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cara").glob("*.*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_labels(args) -> dict:
    import numpy
    import scipy

    from cara import kernels
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": kernels.BACKEND, "git_rev": git_rev(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def median(values):
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def run_op(wl, probe, tracer=None):
    """One op between two speed probes; with ``tracer`` it runs under the
    layer wrappers. An exception is a failed op, not a failed run."""
    import layers
    from workloads import OpResult

    def op():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = wl.op()
            else:
                with tracer.installed(layers.wrap_layers), tracer.span("op"):
                    res = wl.op()
        except Exception as exc:  # the harness must keep measuring
            traceback.print_exc()
            res = OpResult(problems=[f"op raised {exc!r}"])
        res.wall_s = time.perf_counter() - t0
        return res

    res, scale = probe.measure(op)
    res.scale = scale
    return res


def measure(args, wl, probe):
    """Peak pass, then the closed loop.

    Returns (ops, untraced results, traced ops as (tracer, scale), peak
    bytes, and the memory-mode tracer of the peak pass, which records spans
    only when tracing)."""
    from tracer import Tracer

    peak_tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        first = run_op(wl, probe, peak_tracer if args.trace else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    ops, timed, traced = [first], [], []
    start = time.perf_counter()
    while True:
        if args.trace and len(timed) > len(traced):
            tracer = Tracer()
            res = run_op(wl, probe, tracer)
            traced.append((tracer, res.scale))
        else:
            res = run_op(wl, probe)
            timed.append(res)
        ops.append(res)
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    return ops, timed, traced, peak, peak_tracer


def end_to_end(wl, setups, timed, peak):
    from speed import at_reference_speed
    n = len(timed)
    # The solve is long enough that machine drift dominates its noise, which
    # the run's total probe time evens out best; the eval is a short section
    # where single slow ops dominate, so it takes the median op.
    solve_s = at_reference_speed((r.solve_s, r.scale) for r in timed)
    return {
        "solve_s": (solve_s, n),
        "edges_per_s": (wl.edges * wl.solves_per_op / solve_s, n),
        "eval_s": (median(r.eval_s * r.scale for r in timed), n),
        "setup_s": (median(s["setup_s"] * s["scale"] for s in setups), len(setups)),
        "peak_mb": (peak / 1e6, 1),
    }


def per_layer(setups, timed, traced, peak_tracer):
    import layers
    samples = defaultdict(list)
    counts = []
    for tracer, scale in traced:
        values, op_counts = layers.op_layer_metrics(tracer, scale)
        counts.append(dict(op_counts))
        for name, v in values.items():
            samples[name].append(v)
    for key in ("synth.generate_s", "graph.serialize_s"):
        for s in setups:
            if key in s:
                samples[key].append(s[key] * s["scale"])
    for name, v in layers.peak_layer_metrics(peak_tracer).items():
        samples[name].append(v)
    samples["trace.untraced_op_s"] = [r.wall_s * r.scale for r in timed]
    out = {name: (median(vs), len(vs)) for name, vs in samples.items()}
    if "trace.op_s" in out:
        out["trace.overhead_s"] = (out["trace.op_s"][0] - out["trace.untraced_op_s"][0],
                                   len(traced))
    return out, counts


def check_repeats(ops, counts):
    """Same seed, same process: every op must give the same answer and counts."""
    for k, res in enumerate(ops[1:], start=1):
        if res.fingerprint != ops[0].fingerprint and not res.problems:
            res.problems.append(f"op {k} fingerprint differs from op 0")
    if any(c != counts[0] for c in counts[1:]):
        ops[-1].problems.append("layer counts differ between traced ops")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cara
    except ImportError as exc:
        print(f"perfbench: cannot import cara from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cara.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported cara from {cara.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads
    from speed import SpeedProbe

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        probe = SpeedProbe()
        setups = []
        for _ in range(SETUP_REPEATS):
            times, scale = probe.measure(wl.setup)
            setups.append({**times, "scale": scale})
        wl.prepare()
        ops, timed, traced, peak, peak_tracer = measure(args, wl, probe)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    if args.trace:
        values, counts = per_layer(setups, timed, traced, peak_tracer)
        wanted = bench["per_layer"]
    else:
        values, counts = end_to_end(wl, setups, timed, peak), []
        wanted = bench["end_to_end"]
    check_repeats(ops, counts)
    failed = sum(1 for r in ops if r.problems)
    labels = run_labels(args)

    print("labels: " + " ".join(f"{k}={v}" for k, v in labels.items()))
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops "
          f"({len(timed)} untraced, {len(traced)} traced), {failed} failed")
    # Printed, not in the JSON: fail_ratio reads 0 on a correct run, and the
    # gauge-aligned error of a chain scene is a property of the seed (drift
    # along the chain) that spreads wider across seeds than any bound allows.
    print(f"  {'fail_ratio':<30} {failed / len(ops):>14.6g} {'ratio':<6} "
          f"{failed} of {len(ops)} ops")
    print(f"  {'mean_err_deg':<30} {median(r.mean_err_deg for r in ops):>14.6g} "
          f"{'deg':<6} median of {len(ops)}")
    print(f"  times below are wall seconds x speed scale (median scale "
          f"{median(r.scale for r in timed):.4g}); raw wall medians: solve "
          f"{median(r.solve_s for r in timed):.6g} s, eval "
          f"{median(r.eval_s for r in timed):.6g} s, set-up "
          f"{median(s['setup_s'] for s in setups):.6g} s")
    for r in ops:
        for problem in r.problems:
            print(f"  FAIL {problem}")
    missing = sorted(set().union(*(t.missing for t, _ in traced)))
    if missing:
        print(f"  functions not found, layers absent: {', '.join(missing)}")
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] in values:
            value, n = values[m["name"]]
            print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<6} {n} samples")
        else:
            value = 0.0
            absent.append(m["name"])
            print(f"  {m['name']:<30} {'absent':>14} {m['unit']:<6} layer not entered")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    if args.trace and "trace.op_s" in values:
        op_s, untraced_s = values["trace.op_s"][0], values["trace.untraced_op_s"][0]
        layer_sum = op_s - values["trace.unattributed_s"][0]
        print(f"  layer self times sum to {layer_sum:.6g} s; untraced op "
              f"{untraced_s:.6g} s; gap {layer_sum - untraced_s:.6g} s against "
              f"tracing overhead {op_s - untraced_s:.6g} s")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {
        "labels": labels, "result": result,
        "setups": setups,
        "ops": [{"solve_s": r.solve_s, "eval_s": r.eval_s, "wall_s": r.wall_s,
                 "scale": r.scale, "mean_err_deg": r.mean_err_deg,
                 "problems": r.problems} for r in ops],
        "fingerprint": ops[0].fingerprint,
        "counts": counts[0] if counts else {},
        "absent": absent, "missing_functions": missing,
        "spans": [t.spans for t, _ in traced],
    }
    out = Path(args.out) if args.out else (
        RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
