"""The benchmark workloads: scene set-up, one op, and the checks on its output.

Every input comes from ``synth.generate`` under the run's seed. An op is
what a user waits for: ``cara solve`` plus ``cara eval`` on a graph file
(the chain workloads), or the robust-kernel sweep of ``cara bench --suite
kernels`` on one dense in-memory scene (``kernels-dense``).
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cara import cli, graph, metrics, solver, stream, synth, tree_init
from tracer import patched

SIGMA = math.radians(5.0)
ALPHA = math.radians(5.0)
IRLS_KERNELS = ("l2", "cauchy", "geman_mcclure", "l_half")
# --stream must reproduce the in-memory estimates (README promise).
STREAM_TOL = 1e-12
# Garbage guard, not an accuracy target: random rotations score ~126 deg,
# while chain drift and l2 under 30% outliers stay below ~12 deg here.
MAX_MEAN_ERR_DEG = 45.0


@dataclass
class OpResult:
    solve_s: float = math.nan
    eval_s: float = math.nan
    wall_s: float = math.nan
    scale: float = math.nan           # wall seconds -> reference seconds
    mean_err_deg: float = math.nan
    fingerprint: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def captured(*targets):
    """Record what each ``owner.attr`` returns while the block runs."""
    results = {attr: [] for _, attr in targets}

    def recorder(out):
        def make(orig):
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                out.append(result)
                return result
            return wrapper
        return make

    with patched() as patch:
        for owner, attr in targets:
            patch(owner, attr, recorder(results[attr]))
        yield results


def descent_problems(name, losses):
    """The cao loss must never rise, and the solve must lower it."""
    problems = [f"{name}: loss rose from {a!r} to {b!r} at iteration {k + 1}"
                for k, (a, b) in enumerate(zip(losses, losses[1:])) if b > a]
    if not losses[-1] < losses[0]:
        problems.append(f"{name}: loss did not fall ({losses[0]!r} -> {losses[-1]!r})")
    return problems


def accuracy_problems(name, err_deg):
    if not err_deg < MAX_MEAN_ERR_DEG:
        return [f"{name}: mean error {err_deg!r} deg exceeds {MAX_MEAN_ERR_DEG} deg"]
    return []


class ChainWorkload:
    """``cara solve`` (in memory or ``--stream``) then ``cara eval``, in process."""
    N = 2000
    WINDOW = 10
    OUTLIER_FRACTION = 0.1
    solves_per_op = 1

    def __init__(self, seed: int, workdir: str, use_stream: bool):
        self.spec = synth.SyntheticSceneSpec(
            n=self.N, topology="chain_window", chain_window=self.WINDOW,
            noise_sigma=SIGMA, outlier_edge_fraction=self.OUTLIER_FRACTION,
            confidence_model="informative", seed=seed)
        self.use_stream = use_stream
        self.graph_path = os.path.join(workdir, "scene.graph")
        self.est_path = os.path.join(workdir, "scene.est")
        self.edges = 0
        self.reference = None

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        scene = synth.generate(self.spec)
        t1 = time.perf_counter()
        text = graph.serialize(scene.graph)
        t2 = time.perf_counter()
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        t3 = time.perf_counter()
        self.edges = len(scene.graph.edges)
        return {"setup_s": t3 - t0, "synth.generate_s": t1 - t0,
                "graph.serialize_s": t2 - t1}

    def prepare(self):
        """Solve the file in memory once: the reference for --stream."""
        if not self.use_stream:
            return
        with captured((cli, "cao_solve")) as got, \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--in", self.graph_path])
        if code != cli.EXIT_OK or len(got["cao_solve"]) != 1:
            raise RuntimeError(f"in-memory reference solve failed (exit {code})")
        self.reference = got["cao_solve"][0].rotations

    def op(self) -> OpResult:
        res = OpResult()
        argv = ["solve", "--in", self.graph_path, "--out", self.est_path]
        if self.use_stream:
            argv.append("--stream")
            target = (stream, "solve_file_streaming")
        else:
            target = (cli, "cao_solve")
        with captured(target, (metrics, "error_stats")) as got, \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            solve_code = cli.main(argv)
            t1 = time.perf_counter()
            eval_code = cli.main(["eval", "--est", self.est_path, "--gt", self.graph_path])
            t2 = time.perf_counter()
        res.solve_s, res.eval_s = t1 - t0, t2 - t1

        for name, code in (("solve", solve_code), ("eval", eval_code)):
            if code != cli.EXIT_OK:
                res.problems.append(f"cara {name} exited {code}")
        reports, stats = got[target[1]], got["error_stats"]
        if len(reports) != 1 or len(stats) != 1:
            res.problems.append(f"expected one solve and one eval, got "
                                f"{len(reports)} and {len(stats)}")
            return res
        report = reports[0]
        res.mean_err_deg = math.degrees(stats[0].mean)
        res.problems += descent_problems("cao", report.loss_history)
        res.problems += accuracy_problems("cao", res.mean_err_deg)
        if self.use_stream:
            gap = float(np.max(np.abs(report.rotations - self.reference)))
            if not gap <= STREAM_TOL:
                res.problems.append(f"--stream differs from in-memory by {gap!r}")
        res.fingerprint = {"final_loss": report.loss_history[-1],
                           "iterations": report.iterations_run,
                           "mean_err_deg": res.mean_err_deg}
        return res


class KernelsDenseWorkload:
    """MST, propagate, ``cao_solve`` and four ``irls_solve`` kernels, with
    ``error_stats`` after each solve, on one complete graph held in memory."""
    N = 200
    OUTLIER_FRACTION = 0.3
    solves_per_op = 1 + len(IRLS_KERNELS)

    def __init__(self, seed: int, workdir: str):
        self.spec = synth.SyntheticSceneSpec(
            n=self.N, topology="complete", noise_sigma=SIGMA,
            outlier_edge_fraction=self.OUTLIER_FRACTION,
            confidence_model="informative", seed=seed)
        self.edges = 0

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        scene = synth.generate(self.spec)
        t1 = time.perf_counter()
        self.graph = scene.graph
        self.ground_truth = np.stack(scene.graph.ground_truth)
        self.edges = len(scene.graph.edges)
        return {"setup_s": t1 - t0, "synth.generate_s": t1 - t0}

    def prepare(self):
        pass

    def op(self) -> OpResult:
        res = OpResult(solve_s=0.0, eval_s=0.0)
        g = self.graph
        config = solver.SolveConfig()
        t0 = time.perf_counter()
        init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
        res.solve_s += time.perf_counter() - t0
        errors = []
        for kind in ("confidence",) + IRLS_KERNELS:
            t0 = time.perf_counter()
            if kind == "confidence":
                report = solver.cao_solve(g, init, config)
            else:
                kernel = solver.RobustKernel(kind=kind, alpha=ALPHA)
                report = solver.irls_solve(g, init, kernel, config)
            t1 = time.perf_counter()
            err_deg = math.degrees(metrics.error_stats(report.rotations,
                                                       self.ground_truth).mean)
            res.eval_s += time.perf_counter() - t1
            res.solve_s += t1 - t0
            errors.append(err_deg)
            if kind == "confidence":
                res.problems += descent_problems(kind, report.loss_history)
            res.problems += accuracy_problems(kind, err_deg)
            res.fingerprint[kind] = {"final_loss": report.loss_history[-1],
                                     "iterations": report.iterations_run,
                                     "mean_err_deg": err_deg}
        res.mean_err_deg = sum(errors) / len(errors)
        return res


WORKLOADS = {
    "chain-file": lambda seed, workdir: ChainWorkload(seed, workdir, use_stream=False),
    "chain-stream": lambda seed, workdir: ChainWorkload(seed, workdir, use_stream=True),
    "kernels-dense": KernelsDenseWorkload,
}
