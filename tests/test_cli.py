import builtins
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from cara import cli, metrics, solver, stream, synth
from cara import graph as gm


def run(argv):
    return cli.main(argv)


def test_usage_error_exit_64(capsys):
    assert run(["generate", "--n", "7", "--outlier-frac", "1.5",
                "--out", "/tmp/x"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_exit_64():
    assert run(["generate", "--n", "7", "--frobnicate", "--out", "/tmp/x"]) == 64


def test_generate_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.graph"
    out_b = tmp_path / "b.graph"
    flags = ["generate", "--n", "7", "--topology", "complete",
             "--sigma-deg", "5", "--seed", "1"]
    assert run(flags + ["--out", str(out_a)]) == 0
    assert run(flags + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.graph.labels").read_bytes() == \
        (tmp_path / "b.graph.labels").read_bytes()


def test_solve_noise_free(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    est_path = tmp_path / "est.txt"
    assert run(["generate", "--n", "7", "--seed", "3",
                "--out", str(graph_path)]) == 0
    capsys.readouterr()
    assert run(["solve", "--in", str(graph_path), "--out", str(est_path)]) == 0
    out = capsys.readouterr().out
    first_loss = float(out.split("loss history: ")[1].split()[0])
    assert first_loss < 1e-18
    assert est_path.exists()
    text = est_path.read_text()
    assert text.startswith("N 7")
    assert text.count("VERTEX_EST") == 7


def test_solve_peak_memory_is_bounded(tmp_path, capsys):
    # In-memory cara solve of the 2000-camera chain holds no rotation stack
    # (72 B an edge), ground truth or graph: the scan keeps the indices,
    # confidences and each block's quaternion pairs (32 B an edge), joined
    # once, so the read peaks near 2.5 MB. cao_solve sets the peak, 3.06 MB
    # measured, holding each of its arrays once; the bound leaves 3% over
    # that, less than one more edge-rotation stack or parsed graph would
    # take. The first solve of a process also imports modules and fills
    # caches (0.1 MB more), so the traced solve is the second.
    g = synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), seed=0)).graph
    graph_path, est_path = tmp_path / "g.graph", tmp_path / "est.txt"
    gm.write_text(graph_path, gm.serialize(g))
    del g
    argv = ["solve", "--in", str(graph_path), "--out", str(est_path)]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3.14e6


@pytest.mark.parametrize("extra", [[], ["--stream"]], ids=["memory", "stream"])
def test_solve_reads_pairs_only(tmp_path, monkeypatch, capsys, extra):
    # Past the validator nothing reads the edge rotations or the ground
    # truth, so both paths scan the file in spool mode: no graph is
    # parsed, and no rotation stack or ground truth is ever joined.
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "7", "--sigma-deg", "5", "--seed", "3",
         "--out", str(graph_path)])
    reads, real_read = [], gm.read_graph

    def parse(source):
        raise AssertionError("cara solve parsed a graph")

    def read_graph(lines, spool=None):
        out = real_read(lines, spool)
        reads.append((spool is not None, out[3], out[5]))
        return out

    monkeypatch.setattr(gm, "parse", parse)
    monkeypatch.setattr(gm, "read_graph", read_graph)
    assert run(["solve", "--in", str(graph_path), "--out", str(tmp_path / "est")]
               + extra) == 0
    assert reads == [(True, None, None)]


def test_solve_frees_graph_before_writing(tmp_path, monkeypatch, capsys):
    # The in-memory path's edge stream, all that cara solve keeps of the
    # file, is dropped with the pipeline, before the estimates are written.
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "7", "--seed", "3", "--out", str(graph_path)])
    refs, alive = [], []
    real_read, real_write = stream.read_edge_stream, cli._write_estimates

    def read_edge_stream(path):
        edges = real_read(path)
        refs.append(weakref.ref(edges))
        return edges

    def write(path, rotations):
        alive.append(refs[0]() is not None)
        real_write(path, rotations)

    monkeypatch.setattr(stream, "read_edge_stream", read_edge_stream)
    monkeypatch.setattr(cli, "_write_estimates", write)
    assert run(["solve", "--in", str(graph_path), "--out", str(tmp_path / "est")]) == 0
    assert len(refs) == 1 and alive == [False]


@pytest.mark.parametrize("kernel", ["confidence", "cauchy"])
def test_solve_frees_edge_rotations_before_factoring(tmp_path, monkeypatch, capsys,
                                                     kernel):
    # The edge rotations exist only block by block while the scan turns them
    # into quaternion pairs, and the spanning tree only until propagation
    # is done: every block and the tree are freed before the Laplacian is
    # first factored.
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "7", "--sigma-deg", "5", "--seed", "3",
         "--out", str(graph_path)])
    refs, alive = [], []
    real_read, real_tree = gm.read_graph, cli.maximum_spanning_tree
    real_factor = solver._LaplacianPattern.factor

    def read_graph(lines, spool=None):
        def watch(rots):
            root = rots
            while isinstance(root.base, np.ndarray):
                root = root.base
            refs.append(weakref.ref(root))
            spool(rots)
        return real_read(lines, watch)

    def maximum_spanning_tree(edges):
        tree = real_tree(edges)
        refs.append(weakref.ref(tree))
        return tree

    def factor(self, w):
        alive.append(any(ref() is not None for ref in refs))
        return real_factor(self, w)

    monkeypatch.setattr(gm, "read_graph", read_graph)
    monkeypatch.setattr(cli, "maximum_spanning_tree", maximum_spanning_tree)
    monkeypatch.setattr(solver._LaplacianPattern, "factor", factor)
    assert run(["solve", "--in", str(graph_path), "--kernel", kernel]) == 0
    assert len(refs) >= 2 and alive and not any(alive)


@pytest.mark.parametrize("kind", ["confidence", "cauchy"])
def test_solve_leaves_callers_graph_alone(kind):
    # cara bench, and the kernels-dense benchmark, solve one graph they hold
    # again and again: the pipeline must not alter it or drop its arrays.
    g = synth.generate(synth.SyntheticSceneSpec(
        n=30, noise_sigma=math.radians(5), outlier_edge_fraction=0.3,
        confidence_model="informative", seed=3)).graph
    arrays = (g.ii, g.jj, g.confidences, g.rotations, g.quaternions, g.ground_truth)
    before = [a.tobytes() for a in arrays]
    reports = [cli._solve(g, solver.RobustKernel(kind=kind), solver.SolveConfig())
               for _ in range(2)]
    assert reports[0].rotations.tobytes() == reports[1].rotations.tobytes()
    assert reports[0].loss_history == reports[1].loss_history
    assert reports[0].diagnostics == reports[1].diagnostics
    after = (g.ii, g.jj, g.confidences, g.rotations, g.quaternions, g.ground_truth)
    assert all(a is b for a, b in zip(arrays, after))
    assert [a.tobytes() for a in after] == before


def test_solve_missing_file(capsys):
    assert run(["solve", "--in", "/nonexistent/graph"]) == 2


def test_solve_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("N 3\nEDGE 0 1 1 0 0 0 1 0 0 0 0.9\n")
    assert run(["solve", "--in", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_disconnected_exit_3(tmp_path, capsys):
    row = "1 0 0 0 1 0 0 0 1"
    bad = tmp_path / "disc.graph"
    bad.write_text(f"N 4\nEDGE 0 1 {row} 0.9\nEDGE 2 3 {row} 0.9\n")
    assert run(["solve", "--in", str(bad)]) == 3
    assert "component" in capsys.readouterr().err


def test_generate_disconnected_exit_3(tmp_path, capsys):
    out = tmp_path / "g.graph"
    assert run(["generate", "--topology", "erdos", "--erdos-p", "1e-9", "--n", "3",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unsolvable input: ")
    assert "stayed disconnected" in err
    assert not out.exists()


def test_stream_matches_in_memory(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    est_a = tmp_path / "a.est"
    est_b = tmp_path / "b.est"
    run(["generate", "--n", "40", "--topology", "chain-window", "--window", "5",
         "--sigma-deg", "5", "--seed", "4", "--out", str(graph_path)])
    assert run(["solve", "--in", str(graph_path), "--out", str(est_a)]) == 0
    assert run(["solve", "--in", str(graph_path), "--stream",
                "--out", str(est_b)]) == 0
    ra = cli._read_rotations(str(est_a), "estimates")
    rb = cli._read_rotations(str(est_b), "estimates")
    assert np.abs(ra - rb).max() < 1e-12


# --stream hands its file-backed edges to the in-memory pipeline, so every
# kernel, with and without --dump-tree, gives the same exit code, warnings,
# stdout and estimate bytes on both paths. Vertex 40 hangs on one weak
# edge, so both print the spanning tree's warning. The ids name the gauge,
# fix-root, the one the solver has.
@pytest.mark.parametrize("kernel", ["confidence", "l2", "cauchy", "geman-mcclure",
                                    "l-half"], ids=lambda kernel: f"{kernel}-fix-root")
def test_stream_and_memory_solve_alike(tmp_path, capsys, kernel):
    scene_path = tmp_path / "scene.graph"
    run(["generate", "--n", "40", "--topology", "chain-window", "--window", "5",
         "--sigma-deg", "5", "--outlier-frac", "0.1", "--confidence-model",
         "informative", "--seed", "4", "--out", str(scene_path)])
    g = gm.parse(scene_path.read_text())
    graph_path = tmp_path / "weak.graph"
    graph_path.write_text(gm.serialize(gm.build(
        41, list(g.edges) + [gm.Edge(0, 40, np.eye(3), 0.005)])))
    est = tmp_path / "est.txt"
    capsys.readouterr()
    for flags in ([], ["--dump-tree"]):
        results = []
        for extra in ([], ["--stream"]):
            code = run(["solve", "--in", str(graph_path), "--kernel", kernel,
                        "--out", str(est)] + flags + extra)
            out, err = capsys.readouterr()
            results.append((code, out, err, est.read_bytes()))
        assert results[0][0] == 0
        assert results[0][2] == ("warning: 1 spanning-tree edge(s) have confidence "
                                 "< 0.01: (0,40)\n")
        assert results[0][1].startswith("spanning tree root") == bool(flags)
        assert results[1] == results[0]


# perfbench captures what cli.cao_solve returns on the in-memory path and
# what stream.solve_file_streaming returns under --stream. Each must be
# called once per `cara solve` and return the report whose rotations --out
# holds; a refactor that drops either name fails every chain benchmark op.
@pytest.mark.parametrize("extra", [[], ["--stream"]], ids=["memory", "stream"])
def test_solve_calls_benchmarked_names_once(tmp_path, capsys, monkeypatch, extra):
    graph_path = tmp_path / "g.graph"
    est = tmp_path / "est.txt"
    run(["generate", "--n", "12", "--sigma-deg", "5", "--seed", "2",
         "--out", str(graph_path)])
    returned = {"cao_solve": [], "solve_file_streaming": []}
    for owner, name in ((cli, "cao_solve"), (stream, "solve_file_streaming")):
        def recording(*args, real=getattr(owner, name), out=returned[name], **kwargs):
            out.append(real(*args, **kwargs))
            return out[-1]
        monkeypatch.setattr(owner, name, recording)
    assert run(["solve", "--in", str(graph_path), "--out", str(est)] + extra) == 0
    assert len(returned["cao_solve"]) == 1
    assert len(returned["solve_file_streaming"]) == len(extra)
    report = returned["solve_file_streaming" if extra else "cao_solve"][0]
    assert cli._read_rotations(str(est), "estimates").tobytes() == report.rotations.tobytes()


@pytest.mark.parametrize("extra", [[], ["--stream"]], ids=["memory", "stream"])
def test_iters_caps_robust_kernel(tmp_path, capsys, extra):
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "30", "--sigma-deg", "5", "--outlier-frac", "0.3",
         "--seed", "3", "--out", str(graph_path)])

    def iterations(argv):
        capsys.readouterr()
        assert run(["solve", "--in", str(graph_path), "--kernel", "cauchy"]
                   + argv + extra) == 0
        return int(capsys.readouterr().out.split("iterations: ")[1].split()[0])

    assert iterations([]) > 2
    assert iterations(["--iters", "2"]) <= 2



def test_solve_reads_input_line_by_line(tmp_path, capsys, monkeypatch):
    # The in-memory path hands the open file to graph.parse, which reads it
    # line by line: the whole text is never held.
    path = tmp_path / "g.graph"
    assert run(["generate", "--n", "6", "--sigma-deg", "5", "--out", str(path)]) == 0
    assert run(["solve", "--in", str(path), "--out", str(tmp_path / "a.est")]) == 0
    reads = []
    open_text = gm.open_text

    class NoRead:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            return iter(self.fh)

        def read(self, *args):
            reads.append(args)
            return self.fh.read(*args)

    monkeypatch.setattr(gm, "open_text", lambda p: NoRead(open_text(p)))
    assert run(["solve", "--in", str(path), "--out", str(tmp_path / "b.est")]) == 0
    assert reads == []
    assert (tmp_path / "a.est").read_bytes() == (tmp_path / "b.est").read_bytes()


def test_dump_tree(tmp_path, capsys):
    # A path tree whose edges 4-3, 3-0 and 2-1 are stored the other way;
    # --stream prints it as the in-memory path does.
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "5", "--seed", "6", "--sigma-deg", "5",
         "--outlier-frac", "0.2", "--confidence-model", "informative",
         "--out", str(graph_path)])
    capsys.readouterr()
    for extra in ([], ["--stream"]):
        assert run(["solve", "--in", str(graph_path), "--dump-tree"] + extra) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:5] == [
            "spanning tree root 4 (total confidence 3.60379)",
            "  4 -> 3  c=0.89305",
            "  3 -> 0  c=0.906075",
            "  0 -> 2  c=0.846649",
            "  2 -> 1  c=0.958018",
        ]


def test_eval_zero_errors(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    est_path = tmp_path / "est.txt"
    csv_path = tmp_path / "eval.csv"
    run(["generate", "--n", "7", "--seed", "7", "--out", str(graph_path)])
    run(["solve", "--in", str(graph_path), "--out", str(est_path)])
    capsys.readouterr()
    assert run(["eval", "--est", str(est_path), "--gt", str(graph_path),
                "--out", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Acc@10deg 1.0000" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# cara-eval v1"
    assert lines[1] == "camera,error_deg"
    assert len(lines) == 2 + 7 + 2 + 3  # header x2, cameras, mean/median, acc x3


def test_eval_stdout_is_pinned(tmp_path, capsys):
    # The table is printed as one string: a header, one row per camera,
    # then the summaries, each line as its own print would give it.
    graph_path = tmp_path / "g.graph"
    est_path = tmp_path / "est.txt"
    run(["generate", "--n", "12", "--sigma-deg", "5", "--seed", "4",
         "--out", str(graph_path)])
    run(["solve", "--in", str(graph_path), "--out", str(est_path)])
    capsys.readouterr()
    assert run(["eval", "--est", str(est_path), "--gt", str(graph_path)]) == 0
    stats = metrics.error_stats(cli._read_rotations(est_path, "estimates"),
                                cli._read_rotations(graph_path, "ground truth"))
    want = [f"{'camera':>8} {'error_deg':>12}"]
    want += [f"{idx:>8} {math.degrees(err):>12.6f}"
             for idx, err in enumerate(stats.per_camera_errors)]
    want += [f"mean   {math.degrees(stats.mean):.6f} deg",
             f"median {math.degrees(stats.median):.6f} deg",
             *(f"Acc@{t:g}deg {frac:.4f}" for t, frac in stats.accuracy.items())]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_eval_vertex_mismatch_exit_2(tmp_path):
    g7 = tmp_path / "g7.graph"
    g5 = tmp_path / "g5.graph"
    run(["generate", "--n", "7", "--seed", "8", "--out", str(g7)])
    run(["generate", "--n", "5", "--seed", "8", "--out", str(g5)])
    est = tmp_path / "est.txt"
    run(["solve", "--in", str(g7), "--out", str(est)])
    assert run(["eval", "--est", str(est), "--gt", str(g5)]) == 2


def test_eval_custom_thresholds(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    est_path = tmp_path / "est.txt"
    run(["generate", "--n", "6", "--sigma-deg", "5", "--seed", "9",
         "--out", str(graph_path)])
    run(["solve", "--in", str(graph_path), "--out", str(est_path)])
    capsys.readouterr()
    assert run(["eval", "--est", str(est_path), "--gt", str(graph_path),
                "--thresholds", "1,45"]) == 0
    out = capsys.readouterr().out
    assert "Acc@1deg" in out and "Acc@45deg" in out


def test_bench_kernels_row_count(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert run(["bench", "--suite", "kernels", "--seeds", "2",
                "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# cara-bench v1"
    assert lines[1] == cli.BENCH_HEADER
    assert len(lines) == 2 + 2 * 5  # 2 seeds x 5 kernels


def test_bench_outliers_grid(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert run(["bench", "--suite", "outliers", "--seeds", "1",
                "--out", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()[2:]
    assert len(rows) == 1 * 2 * 6  # seeds x models x k grid
    ks = {int(r.split(",")[4]) for r in rows}
    # appended outlier vertices make every incident edge an outlier
    assert len(ks) == 6


def test_bench_deterministic_modulo_timing(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["bench", "--suite", "kernels", "--seeds", "1", "--out", str(a)])
    run(["bench", "--suite", "kernels", "--seeds", "1", "--out", str(b)])

    def strip_timing(path):
        rows = []
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith("scenario"):
                rows.append(line)
            else:
                parts = line.split(",")
                del parts[11]  # wall_ms column
                rows.append(",".join(parts))
        return rows

    assert strip_timing(a) == strip_timing(b)


# --stream and the in-memory path read through the same record reader, so
# a malformed file exits 2 with the same line number on both.
ROW = "1 0 0 0 1 0 0 0 1"


def _solve_both(tmp_path, text, capsys):
    path = tmp_path / "g.graph"
    path.write_text(text)
    results = []
    for extra in ([], ["--stream"]):
        code = run(["solve", "--in", str(path)] + extra)
        results.append((code, capsys.readouterr().err))
    return results


@pytest.mark.parametrize("text, line", [
    (f"N 3\nEDGE 0 1 2 0 0 0 2 0 0 0 2 0.9\nEDGE 1 2 {ROW} 0.9\n", 2),
    (f"N 3\nEDGE 0 1 1 0 0 0 nan 0 0 0 1 0.9\nEDGE 1 2 {ROW} 0.9\n", 2),
    (f"N 3\nEDGE 0 1 {ROW} 0.9\nN 3\nEDGE 1 2 {ROW} 0.9\n", 3),
    (f"N x\nEDGE 0 1 {ROW} 0.9\n", 1),
    (f"N 3\nEDGE 0 1 {ROW} 0.9\nEDGE 1 2 {ROW} 0.9\nEDGE 1 0 {ROW} 0.5\n", 4),
    (f"N 3\nEDGE 0 1 {ROW} 0.9\nEDGE 1 3 {ROW} 0.9\n", 3),
    (f"N 100000000000000000000\nEDGE 0 1 {ROW} 0.9\n", 1),
    ("N 1\n", 0),
    (f"N 0\nEDGE 0 1 {ROW} 0.9\n", 1),
    (f"N 3 4\nEDGE 0 1 {ROW} 0.9\n", 1),
    (f"N 3\nVERTEX_GT 0 1 0 0\nEDGE 0 1 {ROW} 0.9\nEDGE 1 2 {ROW} 0.9\n", 2),
], ids=["non-rotation", "nan", "duplicate-N", "bad-N", "duplicate-pair",
        "out-of-range", "N-past-intp", "N-below-2", "N-below-1", "N-two-fields",
        "short-vertex"])
def test_stream_and_memory_reject_alike(tmp_path, capsys, text, line):
    for code, err in _solve_both(tmp_path, text, capsys):
        assert code == 2
        assert f"line {line}:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--stream"]], ids=["memory", "stream"])
def test_huge_n_exits_3_without_allocating(tmp_path, capsys, extra):
    # N is far past any memory: a component count that allocates O(N)
    # fails at once instead of exiting 3.
    path = tmp_path / "g.graph"
    path.write_text(f"N 1000000000000\nEDGE 0 1 {ROW} 0.9\nEDGE 5 7 {ROW} 0.9\n")
    assert run(["solve", "--in", str(path)] + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "unsolvable input: graph is disconnected: 999999999998 components",
        *(f"  component {k}: {c}" for k, c in enumerate(
            [[0, 1], [2], [3], [4], [5, 7], [6], [8], [9], [10], [11]])),
        "  ... and 999999999988 more",
    ]


def test_many_components_listed_first_ten(tmp_path, capsys):
    # Eleven triangles: enough edges for a tree, so the forest is found
    # by the spanning tree itself.
    lines = ["N 33"] + [f"EDGE {3 * t + a} {3 * t + b} {ROW} 0.9"
                        for t in range(11) for a, b in ((0, 1), (0, 2), (1, 2))]
    path = tmp_path / "g.graph"
    path.write_text("\n".join(lines) + "\n")
    for extra in ([], ["--stream"]):
        assert run(["solve", "--in", str(path)] + extra) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "unsolvable input: graph is disconnected: 11 components"
        assert err[1:] == [f"  component {t}: [{3 * t}, {3 * t + 1}, {3 * t + 2}]"
                           for t in range(10)] + ["  ... and 1 more"]


def _eval_file(tmp_path, body):
    path = tmp_path / "est.txt"
    path.write_text(body)
    gt = tmp_path / "g.graph"
    run(["generate", "--n", "2", "--seed", "1", "--out", str(gt)])
    return run(["eval", "--est", str(path), "--gt", str(gt)])


def test_eval_bad_vertex_id_exit_2(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST a {ROW}\nVERTEX_EST 1 {ROW}\n") == 2
    assert "line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [-3, 0])
def test_eval_rejects_n_below_1_at_its_line(tmp_path, capsys, n):
    assert _eval_file(tmp_path, f"N {n}\n") == 2
    err = capsys.readouterr().err
    assert f"line 1: N must be at least 1, got {n}" in err
    assert "Traceback" not in err


def test_eval_rejects_non_rotation(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST 0 {ROW}\n"
                                "VERTEX_EST 1 2 0 0 0 2 0 0 0 2\n") == 2
    assert "line 3:" in capsys.readouterr().err


def test_eval_rejects_duplicate_vertex(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST 0 {ROW}\nVERTEX_EST 0 {ROW}\n"
                                f"VERTEX_EST 1 {ROW}\n") == 2
    assert "line 3:" in capsys.readouterr().err


def test_missing_vertex_same_error_on_solve_and_eval(tmp_path, capsys):
    # One completeness check for every reader: cara solve on both paths and
    # cara eval report a file without VERTEX_GT 3 (or VERTEX_EST 3) alike.
    g = synth.generate(synth.SyntheticSceneSpec(n=5, seed=1)).graph
    text = "".join(line + "\n" for line in gm.serialize(g).splitlines()
                   if not line.startswith("VERTEX_GT 3 "))
    want = (2, "error: line 0: incomplete ground truth, missing vertices [3]\n")
    assert _solve_both(tmp_path, text, capsys) == [want, want]
    est = tmp_path / "est.txt"
    lines = gm.vertex_lines("VERTEX_EST", g.ground_truth)
    est.write_text("N 5\n" + "".join(line + "\n" for line in lines))
    code = run(["eval", "--est", str(est), "--gt", str(tmp_path / "g.graph")])
    assert (code, capsys.readouterr().err) == want
    est.write_text("N 5\n" + "".join(line + "\n" for line in lines[:3] + lines[4:]))
    code = run(["eval", "--est", str(est), "--gt", str(tmp_path / "g.graph")])
    assert (code, capsys.readouterr().err) == (
        2, "error: line 0: incomplete estimates, missing vertices [3]\n")


def test_eval_degenerate_alignment_exit_2(tmp_path, capsys):
    # I and diag(1, -1, -1) against two identities: the alignment sum
    # diag(2, 0, 0) has rank 1, so no gauge rotation can be projected.
    gt = tmp_path / "gt.graph"
    gt.write_text(f"N 2\nVERTEX_GT 0 {ROW}\nVERTEX_GT 1 {ROW}\n")
    est = tmp_path / "est.txt"
    est.write_text(f"N 2\nVERTEX_EST 0 {ROW}\nVERTEX_EST 1 1 0 0 0 -1 0 0 0 -1\n")
    assert run(["eval", "--est", str(est), "--gt", str(gt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("data, line", [
    (f"N 2\nEDGE 0 1 {ROW} 0.5".encode() + b"\xff\n", 2),
    (f"N 3\n# caf".encode() + b"\xe9\n" + f"EDGE 0 1 {ROW} 0.5\n".encode(), 2),
    (f"N 3\nEDGE 0 1 2 0 0 0 2 0 0 0 2 0.9\nEDGE 1 2 {ROW} 0.9".encode()
     + b"\xff\n", 2),
], ids=["edge", "comment", "earlier-bad-rotation"])
def test_invalid_utf8_exit_2_alike(tmp_path, capsys, data, line):
    path = tmp_path / "g.graph"
    path.write_bytes(data)
    errs = []
    for extra in ([], ["--stream"]):
        assert run(["solve", "--in", str(path)] + extra) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: line {line}:")
    assert "Traceback" not in errs[0]


def test_eval_invalid_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_bytes(f"N 2\nEDGE 0 1 {ROW} 0.5".encode() + b"\xff\n")
    assert run(["eval", "--est", str(path), "--gt", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8")
    assert "Traceback" not in err


def test_no_edges_exit_3_alike(tmp_path, capsys):
    for code, err in _solve_both(tmp_path, "N 3\n", capsys):
        assert code == 3
        assert "disconnected" in err


# Out-of-range flag values are usage errors on every command and path: exit
# 64 before any file is read, never 2 or a traceback. So is the removed
# --anchor flag: fix-root is the solver's one gauge.
@pytest.mark.parametrize("argv", [
    ["eval", "--thresholds", "abc"],
    ["eval", "--thresholds", ""],
    ["eval", "--thresholds", "1,,2"],
    ["eval", "--thresholds", "nan"],
    ["solve", "--iters", "0"],
    ["solve", "--iters", "0", "--stream"],
    ["solve", "--kernel", "cauchy", "--iters", "0"],
    ["solve", "--kernel", "cauchy", "--iters", "0", "--stream"],
    ["solve", "--kernel", "cauchy", "--alpha-deg", "0"],
    ["solve", "--kernel", "cauchy", "--alpha-deg", "0", "--stream"],
    ["solve", "--kernel", "cauchy", "--alpha-deg", "nan"],
    ["solve", "--kernel", "cauchy", "--alpha-deg", "nan", "--stream"],
    ["solve", "--kernel", "geman-mcclure", "--alpha-deg", "inf"],
    ["solve", "--anchor", "tikhonov"],
    ["solve", "--anchor", "tikhonov", "--stream"],
    ["generate", "--sigma-deg", "nan"],
    ["generate", "--sigma-deg", "inf"],
    ["generate", "--seed", "-1"],
    ["generate", "--constant-c", "2", "--confidence-model", "constant"],
    ["generate", "--outlier-vertices", "-1"],
    ["bench", "--seeds", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_value_exit_64(tmp_path, capsys, argv):
    path = tmp_path / "g.graph"
    path.write_text(f"N 2\nEDGE 0 1 {ROW} 0.5\n")
    files = {"eval": ["--est", str(path), "--gt", str(path)],
             "solve": ["--in", str(path)],
             "generate": ["--n", "5", "--out", str(tmp_path / "out.graph")],
             "bench": ["--suite", "kernels", "--out", str(tmp_path / "out.graph")]}
    assert run(argv[:1] + files[argv[0]] + argv[1:]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.graph").exists()



@pytest.mark.parametrize("extra", [[], ["--stream"], ["--kernel", "cauchy"],
                                   ["--kernel", "cauchy", "--stream"]],
                         ids=["confidence", "confidence-stream", "cauchy", "cauchy-stream"])
def test_iters_usage_error_names_the_flag(tmp_path, capsys, extra):
    # The message names the flag the user gave, not the SolveConfig field
    # it sets (max_iterations or irls_max_iterations).
    path = tmp_path / "g.graph"
    path.write_text(f"N 2\nEDGE 0 1 {ROW} 0.5\n")
    assert run(["solve", "--in", str(path), "--iters", "0"] + extra) == 64
    assert capsys.readouterr().err == "usage error: --iters must be >= 1, got 0\n"

def test_low_confidence_tree_warning_alike(tmp_path, capsys):
    # The bridge (1,2) must join the spanning tree despite c = 0.005.
    text = f"N 3\nEDGE 0 1 {ROW} 0.9\nEDGE 1 2 {ROW} 0.005\n"
    errs = [err for code, err in _solve_both(tmp_path, text, capsys) if code == 0]
    assert errs == [errs[0]] * 2
    assert errs[0] == ("warning: 1 spanning-tree edge(s) have confidence < 0.01: "
                       "(1,2)\n")


# Every --out goes through graph.write_text: an existing file is rewritten
# in place, as open(path, "w") would leave it but without its truncate to
# zero, which costs tens of milliseconds on a filesystem that discards
# freed blocks.
OUT_COMMANDS = {
    "generate": ["generate", "--n", "7", "--seed", "5"],
    "solve": ["solve", "--in", "{g}"],
    "solve --stream": ["solve", "--in", "{g}", "--stream"],
    "eval": ["eval", "--est", "{est}", "--gt", "{g}"],
    "bench": ["bench", "--suite", "kernels", "--seeds", "1"],
}


def _out_argv(tmp_path, command, out):
    """``command`` with ``--out out``, after writing the files it reads."""
    g, est = tmp_path / "in.graph", tmp_path / "in.est"
    run(["generate", "--n", "7", "--sigma-deg", "5", "--seed", "5", "--out", str(g)])
    run(["solve", "--in", str(g), "--out", str(est)])
    return [a.format(g=g, est=est) for a in OUT_COMMANDS[command]] + ["--out", str(out)]


@pytest.mark.parametrize("command", ["solve", "solve --stream"])
def test_solve_out_rewrites_in_place(tmp_path, capsys, command):
    # A 7-camera solve over a 2000-camera estimate file leaves the bytes of
    # a fresh path, on the same inode with the same mode.
    fresh, old = tmp_path / "fresh.est", tmp_path / "old.est"
    assert run(_out_argv(tmp_path, command, fresh)) == 0
    cli._write_estimates(old, np.tile(np.eye(3), (2000, 1, 1)))
    old.chmod(0o640)
    before = old.stat()
    assert run(_out_argv(tmp_path, command, old)) == 0
    after = old.stat()
    assert before.st_size > 10 * after.st_size
    assert old.read_bytes() == fresh.read_bytes()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_out_through_symlink_writes_target(tmp_path, capsys):
    fresh, target, link = (tmp_path / n for n in ("fresh.est", "target.est", "link.est"))
    assert run(_out_argv(tmp_path, "solve", fresh)) == 0
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    assert run(_out_argv(tmp_path, "solve", link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", ["solve", "solve --stream", "eval", "bench"])
def test_out_dev_null_exit_0(tmp_path, capsys, command):
    # A device is written, never cut to length.
    assert run(_out_argv(tmp_path, command, os.devnull)) == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["generate", "solve", "solve --stream", "eval"])
def test_out_dev_full_exit_2(tmp_path, capsys, command):
    argv = _out_argv(tmp_path, command, "/dev/full")
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_failed_write_cuts_file_and_exits_2(tmp_path, capsys, failing_writes):
    # A write that fails partway leaves the bytes written and no tail of
    # the old, longer file that could still read as complete estimates.
    fresh, old = tmp_path / "fresh.est", tmp_path / "old.est"
    assert run(_out_argv(tmp_path, "solve", fresh)) == 0
    cli._write_estimates(old, np.tile(np.eye(3), (2000, 1, 1)))
    argv = _out_argv(tmp_path, "solve", old)
    capsys.readouterr()
    opened, closed = failing_writes(old, keep=100)
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert old.read_bytes() == fresh.read_bytes()[:100]
    assert len(opened) == 1 and set(opened) <= set(closed)


def test_no_output_opened_with_truncate(tmp_path, capsys, monkeypatch):
    # Each command writes its --out twice; no file written, inputs included,
    # may be opened with O_TRUNC (open(path, "w") truncates too).
    writes = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):
            writes.append((os.fspath(path), bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)

    def builtin_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+"):
            writes.append((os.fspath(file), "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", builtin_open)
    outputs = []
    for k, command in enumerate(OUT_COMMANDS):
        out = tmp_path / f"{k}.out"
        argv = _out_argv(tmp_path, command, out)
        assert run(argv) == 0 and run(argv) == 0
        outputs.append(str(out))
    outputs.append(outputs[0] + ".labels")
    assert [p for p, truncates in writes if truncates] == []
    for path in outputs:
        assert [p for p, _ in writes].count(path) == 2
