import math

import numpy as np
import pytest

from cara import cli
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


def test_stream_matches_in_memory(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    est_a = tmp_path / "a.est"
    est_b = tmp_path / "b.est"
    run(["generate", "--n", "40", "--topology", "chain-window", "--window", "5",
         "--sigma-deg", "5", "--seed", "4", "--out", str(graph_path)])
    assert run(["solve", "--in", str(graph_path), "--out", str(est_a)]) == 0
    assert run(["solve", "--in", str(graph_path), "--stream",
                "--out", str(est_b)]) == 0
    ra = cli._read_rotations(str(est_a))
    rb = cli._read_rotations(str(est_b))
    assert np.abs(ra - rb).max() < 1e-12


def test_stream_rejects_robust_kernel(tmp_path):
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "7", "--seed", "5", "--out", str(graph_path)])
    assert run(["solve", "--in", str(graph_path), "--stream",
                "--kernel", "cauchy"]) == 64


def test_dump_tree(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    run(["generate", "--n", "5", "--seed", "6", "--out", str(graph_path)])
    capsys.readouterr()
    assert run(["solve", "--in", str(graph_path), "--dump-tree"]) == 0
    out = capsys.readouterr().out
    assert "spanning tree root" in out
    assert out.count("->") == 4


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
], ids=["non-rotation", "nan", "duplicate-N", "bad-N", "duplicate-pair",
        "out-of-range"])
def test_stream_and_memory_reject_alike(tmp_path, capsys, text, line):
    for code, err in _solve_both(tmp_path, text, capsys):
        assert code == 2
        assert f"line {line}:" in err
        assert "Traceback" not in err


def _eval_file(tmp_path, body):
    path = tmp_path / "est.txt"
    path.write_text(body)
    gt = tmp_path / "g.graph"
    run(["generate", "--n", "2", "--seed", "1", "--out", str(gt)])
    return run(["eval", "--est", str(path), "--gt", str(gt)])


def test_eval_bad_vertex_id_exit_2(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST a {ROW}\nVERTEX_EST 1 {ROW}\n") == 2
    assert "line 2:" in capsys.readouterr().err


def test_eval_rejects_non_rotation(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST 0 {ROW}\n"
                                "VERTEX_EST 1 2 0 0 0 2 0 0 0 2\n") == 2
    assert "line 3:" in capsys.readouterr().err


def test_eval_rejects_duplicate_vertex(tmp_path, capsys):
    assert _eval_file(tmp_path, f"N 2\nVERTEX_EST 0 {ROW}\nVERTEX_EST 0 {ROW}\n"
                                f"VERTEX_EST 1 {ROW}\n") == 2
    assert "line 3:" in capsys.readouterr().err


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
