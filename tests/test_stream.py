import functools
import gc
import math
import os
import tempfile

import numpy as np
import pytest

from cara import graph as gm
from cara import cli, kernels, so3, solver, stream, synth, tree_init
from cara.errors import (DegenerateWeightsError, GraphParseError, InvalidArgumentError,
                         NotConnectedError)
from cara.synth import SyntheticSceneSpec
from conftest import edge_arrays, matrix_residuals


def _solve_file(path, kernel=solver.RobustKernel(), config=solver.SolveConfig()):
    """``cara solve --stream``'s pipeline on the graph file at ``path``."""
    return stream.solve_file_streaming(
        path, functools.partial(cli._solve, kernel=kernel, config=config))


@pytest.fixture
def scene_file(tmp_path):
    def make(spec):
        scene = synth.generate(spec)
        path = tmp_path / "scene.graph"
        path.write_text(gm.serialize(scene.graph))
        return path, scene
    return make


def test_scan_collects_scalars(scene_file):
    path, scene = scene_file(SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), confidence_model="informative",
        seed=0))
    fs = stream.FileEdgeStream(path)
    assert fs.n_vertices == 12
    np.testing.assert_array_equal(fs.ii, scene.graph.ii)
    np.testing.assert_array_equal(fs.jj, scene.graph.jj)
    np.testing.assert_array_equal(fs.confidences, scene.graph.confidences)


def _assert_spooled_pairs(fs, g):
    """``fs`` holds no rotations, and its quaternion pairs are a view of
    the store with the bytes of the parsed graph ``g``'s."""
    assert fs.rotations is None
    assert isinstance(fs.quaternions, np.memmap)
    assert np.ascontiguousarray(fs.quaternions).tobytes() == g.quaternions.tobytes()


@pytest.mark.parametrize("read", [stream.read_edge_stream, stream.FileEdgeStream],
                         ids=["memory", "file"])
def test_pair_only_stream_has_no_edge_records(scene_file, read):
    path, _ = scene_file(SyntheticSceneSpec(n=5, seed=0))
    with pytest.raises(InvalidArgumentError, match="quaternion pairs only"):
        read(path).edges


@pytest.mark.parametrize("read", [stream.read_edge_stream, stream.FileEdgeStream],
                         ids=["memory", "file"])
@pytest.mark.parametrize("make", [
    lambda s: gm.build(s.n_vertices, s.ii, s.jj, s.rotations, s.confidences),
    gm.serialize], ids=["build", "serialize"])
def test_pair_only_stream_makes_no_graph(scene_file, read, make):
    path, _ = scene_file(SyntheticSceneSpec(n=5, seed=0))
    s = read(path)
    with pytest.raises(InvalidArgumentError, match="rotations"):
        make(s)


def test_passes_reproduce_rotations(scene_file):
    path, _ = scene_file(SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), seed=1))
    fs = stream.FileEdgeStream(path)
    _assert_spooled_pairs(fs, gm.parse(path.read_text()))


def test_streaming_matches_in_memory(scene_file):
    path, scene = scene_file(SyntheticSceneSpec(
        n=60, topology="chain_window", chain_window=6,
        noise_sigma=math.radians(6), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=2))
    report_s = _solve_file(path)
    g = gm.parse(path.read_text())
    init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    report_m = solver.cao_solve(g, init)
    assert np.abs(report_s.rotations - report_m.rotations).max() < 1e-12
    assert report_s.iterations_run == report_m.iterations_run


def test_streaming_init_matches_in_memory(scene_file):
    path, scene = scene_file(SyntheticSceneSpec(
        n=30, noise_sigma=math.radians(4), confidence_model="informative",
        seed=3))
    fs = stream.FileEdgeStream(path)
    tree_s = tree_init.maximum_spanning_tree(fs)
    init_s, diagnostics_s = tree_init.propagate(tree_s, fs), tree_s.diagnostics
    g = gm.parse(path.read_text())
    tree = tree_init.maximum_spanning_tree(g)
    init_m = tree_init.propagate(tree, g)
    assert diagnostics_s == tree.diagnostics
    np.testing.assert_array_equal(init_s, init_m)


def test_disconnected_file(tmp_path):
    g = gm.build(4, *edge_arrays([(0, 1, np.eye(3), 0.5), (2, 3, np.eye(3), 0.5)]))
    path = tmp_path / "bad.graph"
    path.write_text(gm.serialize(g))
    with pytest.raises(NotConnectedError):
        _solve_file(path)


def test_zero_confidence_cut_file(tmp_path):
    g = gm.build(3, *edge_arrays([(0, 1, np.eye(3), 0.5), (1, 2, np.eye(3), 0.0)]))
    path = tmp_path / "bad.graph"
    path.write_text(gm.serialize(g))
    with pytest.raises(DegenerateWeightsError):
        _solve_file(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("N 3\nEDGE 0 1 1 0 0 0 1 0 0 0 0.9\n")
    with pytest.raises(GraphParseError) as err:
        stream.FileEdgeStream(path)
    assert err.value.line_number == 2


def test_duplicate_edge_detected(tmp_path):
    path = tmp_path / "bad.graph"
    row = "1 0 0 0 1 0 0 0 1"
    path.write_text(f"N 3\nEDGE 0 1 {row} 0.9\nEDGE 1 0 {row} 0.8\n")
    with pytest.raises(GraphParseError) as err:
        stream.FileEdgeStream(path)
    assert err.value.line_number == 3


def _weak_bridge_file(tmp_path):
    """A chain scene plus vertex 40 on one weak edge, so the spanning tree
    warns; returns the file's path, its graph and the tree."""
    scene = synth.generate(SyntheticSceneSpec(
        n=40, topology="chain_window", chain_window=5,
        noise_sigma=math.radians(6), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=8))
    weak = (0, 40, kernels.batch_exp(np.array([[0.1, -0.2, 0.3]]))[0], 0.005)
    s = scene.graph
    g = gm.build(41, *edge_arrays([*zip(s.ii, s.jj, s.rotations, s.confidences), weak]))
    path = tmp_path / "weak.graph"
    path.write_text(gm.serialize(g))
    tree = tree_init.maximum_spanning_tree(g)
    assert tree.diagnostics
    return path, g, tree


def _recording(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((name, args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)


def _assert_same_report(a, b):
    assert a.rotations.tobytes() == b.rotations.tobytes()
    assert a.loss_history == b.loss_history
    assert a.max_residual_history == b.max_residual_history
    assert (a.iterations_run, a.anchor_vertex, a.stop_reason) == \
        (b.iterations_run, b.anchor_vertex, b.stop_reason)


def test_streaming_is_one_cao_solve(tmp_path, monkeypatch):
    # --stream runs the in-memory pipeline: tree, then one cao_solve, looked
    # up in cli, over the memory-mapped edges, then the tree's warnings first.
    path, g, tree = _weak_bridge_file(tmp_path)
    report_m = solver.cao_solve(g, tree_init.propagate(tree, g))
    calls = []
    _recording(monkeypatch, cli, "cao_solve", calls)
    _recording(monkeypatch, cli, "irls_solve", calls)
    report_s = _solve_file(path)
    assert len(calls) == 1 and calls[0][0] == "cao_solve"
    assert isinstance(calls[0][1], stream.FileEdgeStream)
    _assert_same_report(report_s, report_m)
    assert report_s.diagnostics == list(tree.diagnostics) + report_m.diagnostics


def test_streaming_robust_kernel_is_one_irls_solve(tmp_path, monkeypatch):
    path, g, tree = _weak_bridge_file(tmp_path)
    kernel = solver.RobustKernel(kind="cauchy")
    report_m = solver.irls_solve(g, tree_init.propagate(tree, g), kernel)
    calls = []
    _recording(monkeypatch, cli, "cao_solve", calls)
    _recording(monkeypatch, cli, "irls_solve", calls)
    report_s = _solve_file(path, kernel=kernel)
    assert len(calls) == 1 and calls[0][0] == "irls_solve"
    assert isinstance(calls[0][1], stream.FileEdgeStream)
    assert report_m.iterations_run > 2
    _assert_same_report(report_s, report_m)
    assert report_s.diagnostics == list(tree.diagnostics) + report_m.diagnostics


# The ids name the gauge, fix-root, the one the solver has.
@pytest.mark.parametrize("kind", ["l2", "cauchy", "geman_mcclure", "l_half"],
                         ids=lambda kind: f"{kind}-fix-root")
def test_irls_on_file_stream_equals_parsed_graph(scene_file, kind):
    # more than one chunk of edges, so the weights are drawn chunk by chunk
    path, _ = scene_file(SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=4))
    fs = stream.FileEdgeStream(path)
    assert len(fs.ii) > gm.CHUNK_RECORDS
    g = gm.parse(path.read_text())
    init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    kernel = solver.RobustKernel(kind=kind)
    report_s = solver.irls_solve(fs, init, kernel)
    report_m = solver.irls_solve(g, init, kernel)
    _assert_same_report(report_s, report_m)
    assert report_s.diagnostics == report_m.diagnostics


def test_weight_floor_on_file_stream(tmp_path, monkeypatch):
    # The stream twin of test_solver's weight-floor test: on a chain one
    # zero weight disconnects the graph, and the floored rhs is swept again
    # over the memory-mapped quaternion pairs.
    scene = synth.generate(SyntheticSceneSpec(
        n=8, topology="chain_window", chain_window=1,
        noise_sigma=math.radians(5), seed=26))
    g = scene.graph
    path = tmp_path / "chain.graph"
    path.write_text(gm.serialize(g))
    rng = np.random.default_rng(26)
    init = np.stack([so3.perturb(r, math.radians(5), rng)
                     for r in tree_init.propagate(tree_init.maximum_spanning_tree(g), g)])
    kernel_weights = solver.RobustKernel.weights

    def weights_with_dead_edge(self, x):
        w = kernel_weights(self, x).copy()
        w[2] = 0.0
        return w

    monkeypatch.setattr(solver.RobustKernel, "weights", weights_with_dead_edge)
    kernel = solver.RobustKernel(kind="cauchy")
    config = solver.SolveConfig(irls_max_iterations=1)
    report_m = solver.irls_solve(g, init, kernel, config)
    passes = []
    real_pass = solver._residual_pass

    def recording_pass(edges, rotations, weights):
        passes.append((type(edges), callable(weights)))
        return real_pass(edges, rotations, weights)

    monkeypatch.setattr(solver, "_residual_pass", recording_pass)
    report_s = solver.irls_solve(stream.FileEdgeStream(path), init, kernel, config)
    assert any("re-weighting disconnected" in d for d in report_s.diagnostics)
    assert report_s.diagnostics == report_m.diagnostics
    # the kernel's sweep, the floored rhs's, then the last step's
    assert passes == [(stream.FileEdgeStream, True), (stream.FileEdgeStream, False),
                      (stream.FileEdgeStream, True)]
    _assert_same_report(report_s, report_m)


def _in_memory_solve(path):
    g = gm.parse(path.read_text())
    init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    return solver.cao_solve(g, init)


def test_streaming_equals_in_memory_exactly(scene_file):
    # more than one chunk of edges, after N ground-truth records
    path, _ = scene_file(SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=4))
    report_s = _solve_file(path)
    report_m = _in_memory_solve(path)
    assert len(stream.FileEdgeStream(path).ii) > gm.CHUNK_RECORDS
    np.testing.assert_array_equal(report_s.rotations, report_m.rotations)
    assert report_s.loss_history == report_m.loss_history


def test_spooled_quaternions_equal_in_memory_conversion(scene_file):
    # The scan converts each reader chunk as it spools it, to the store or
    # to memory; a parsed graph converts its rotations CHUNK_RECORDS rows
    # at a time. All must give the same bits.
    path, _ = scene_file(SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=4))
    fs, ms = stream.FileEdgeStream(path), stream.read_edge_stream(path)
    g = gm.parse(path.read_text())
    assert len(g.ii) > gm.CHUNK_RECORDS
    for s in (fs, ms):
        assert s.rotations is None
        assert s.quaternions.shape == g.quaternions.shape == (2, len(g.ii))
        assert s.quaternions.dtype == g.quaternions.dtype == complex
        assert np.ascontiguousarray(s.quaternions).tobytes() == g.quaternions.tobytes()
        for name in ("ii", "jj", "confidences"):
            assert getattr(s, name).tobytes() == getattr(g, name).tobytes()
        assert s.n_vertices == g.n_vertices
    # the store's view, not a conversion
    assert isinstance(fs.quaternions, np.memmap)


def test_cal_loss_on_file_stream_equals_parsed_graph(scene_file):
    # cal_loss reads the stream's pairs, so it takes a file stream, whose
    # rotations are None, or a pair-only stream, and gives the parsed
    # graph's bits; more than one chunk of edges.
    path, scene = scene_file(SyntheticSceneSpec(
        n=500, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=4))
    g = gm.parse(path.read_text())
    assert len(g.ii) > gm.CHUNK_RECORDS
    rotations = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    pairs_only = gm.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences, None,
                               g.quaternions)
    for R in (rotations, scene.graph.ground_truth):
        expected = solver.cal_loss(g, R)
        assert solver.cal_loss(stream.FileEdgeStream(path), R) == expected
        assert solver.cal_loss(pairs_only, R) == expected


@pytest.mark.parametrize("chunk_size", [1, 7, 4096])
def test_rhs_independent_of_chunking(scene_file, monkeypatch, chunk_size):
    path, scene = scene_file(SyntheticSceneSpec(
        n=40, topology="chain_window", chain_window=5,
        noise_sigma=math.radians(6), confidence_model="informative", seed=5))
    g = scene.graph
    init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    whole = solver.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences, g.rotations)
    rhs_w, norms_w, w_w = solver._residual_pass(whole, init, whole.confidences)
    chunked = stream.FileEdgeStream(path)
    monkeypatch.setattr(solver, "CHUNK_RECORDS", chunk_size)
    rhs_c, norms_c, w_c = solver._residual_pass(chunked, init, chunked.confidences)
    np.testing.assert_array_equal(rhs_c, rhs_w)
    np.testing.assert_array_equal(norms_c, norms_w)
    assert w_w is whole.confidences and w_c is chunked.confidences
    # reference: one unbuffered scatter of the signed terms in edge order
    ii, jj, conf = g.ii, g.jj, g.confidences
    wres = conf[:, None] * matrix_residuals(init[ii], init[jj], g.rotations)
    ref = np.zeros((g.n_vertices, 3))
    np.add.at(ref, np.column_stack([ii, jj]).ravel(),
              np.stack([-wres, wres], axis=1).reshape(-1, 3))
    np.testing.assert_array_equal(rhs_c, ref)


@pytest.mark.parametrize("change", ["delete", "overwrite"])
def test_store_outlives_the_file(scene_file, change):
    path, _ = scene_file(SyntheticSceneSpec(
        n=30, noise_sigma=math.radians(4), confidence_model="informative",
        seed=6))
    expected = _in_memory_solve(path)
    g = gm.parse(path.read_text())
    fs = stream.FileEdgeStream(path)
    if change == "delete":
        path.unlink()
    else:
        path.write_text(f"N 2\nEDGE 0 1 {' '.join(['0'] * 9)} 0.5\n")
    _assert_spooled_pairs(fs, g)
    init = tree_init.propagate(tree_init.maximum_spanning_tree(fs), fs)
    report = solver.cao_solve(fs, init)
    np.testing.assert_array_equal(report.rotations, expected.rotations)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs /proc/self/fd")


@needs_proc
def test_dropped_stream_leaves_no_fd(scene_file):
    path, _ = scene_file(SyntheticSceneSpec(n=12, seed=7))
    gc.collect()
    before = _open_fds()
    fs = stream.FileEdgeStream(path)
    _assert_spooled_pairs(fs, gm.parse(path.read_text()))
    tree_init.propagate(tree_init.maximum_spanning_tree(fs), fs)
    del fs
    gc.collect()
    assert _open_fds() == before


@needs_proc
def test_parse_error_mid_scan_closes_store(tmp_path, monkeypatch):
    n = gm.CHUNK_RECORDS + 100
    row = "1 0 0 0 1 0 0 0 1"
    lines = [f"N {n}"] + [f"EDGE {i} {i + 1} {row} 0.5" for i in range(n - 1)]
    path = tmp_path / "bad.graph"
    path.write_text("\n".join(lines + ["EDGE 0 x"]) + "\n")
    stores = []
    real = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        stores.append(real(*args, **kwargs))
        return stores[-1]

    monkeypatch.setattr(stream.tempfile, "TemporaryFile", recording)
    gc.collect()
    before = _open_fds()
    with pytest.raises(GraphParseError) as err:
        stream.FileEdgeStream(path)
    assert err.value.line_number == n + 1
    assert len(stores) == 1 and stores[0].closed
    del err
    gc.collect()
    assert _open_fds() == before
