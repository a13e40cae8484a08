import functools
import gc
import math
import os
import tempfile

import numpy as np
import pytest

from cara import graph as gm
from cara import kernels, solver, stream, synth, tree_init
from cara.errors import DegenerateWeightsError, GraphParseError, NotConnectedError
from cara.graph import Edge
from cara.synth import SyntheticSceneSpec


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
    ii, jj, rots, conf = scene.graph.edge_arrays()
    assert fs.n_vertices == 12
    np.testing.assert_array_equal(fs.ii, ii)
    np.testing.assert_array_equal(fs.jj, jj)
    np.testing.assert_array_equal(fs.confidences, conf)


def test_passes_reproduce_rotations(scene_file):
    path, scene = scene_file(SyntheticSceneSpec(
        n=12, noise_sigma=math.radians(5), seed=1))
    fs = stream.FileEdgeStream(path)
    rots = scene.graph.edge_arrays()[2]
    collected = np.empty_like(rots)
    for idx, chunk in fs.passes(chunk_size=7):
        collected[idx] = chunk
    np.testing.assert_array_equal(collected, rots)


def test_streaming_matches_in_memory(scene_file):
    path, scene = scene_file(SyntheticSceneSpec(
        n=60, topology="chain_window", chain_window=6,
        noise_sigma=math.radians(6), outlier_edge_fraction=0.1,
        confidence_model="informative", seed=2))
    report_s = stream.solve_file_streaming(path)
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
    init_s, root_s = stream.initialize_from_stream(fs)
    g = gm.parse(path.read_text())
    tree = tree_init.maximum_spanning_tree(g)
    init_m = tree_init.propagate(tree, g)
    assert root_s == tree.root
    np.testing.assert_allclose(init_s, init_m, atol=1e-15)


def test_disconnected_file(tmp_path):
    g = gm.build(4, [Edge(0, 1, np.eye(3), 0.5), Edge(2, 3, np.eye(3), 0.5)])
    path = tmp_path / "bad.graph"
    path.write_text(gm.serialize(g))
    with pytest.raises(NotConnectedError):
        stream.solve_file_streaming(path)


def test_zero_confidence_cut_file(tmp_path):
    g = gm.build(3, [Edge(0, 1, np.eye(3), 0.5), Edge(1, 2, np.eye(3), 0.0)])
    path = tmp_path / "bad.graph"
    path.write_text(gm.serialize(g))
    with pytest.raises(DegenerateWeightsError):
        stream.solve_file_streaming(path)


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
    report_s = stream.solve_file_streaming(path)
    report_m = _in_memory_solve(path)
    assert len(stream.FileEdgeStream(path).ii) > gm.CHUNK_RECORDS
    np.testing.assert_array_equal(report_s.rotations, report_m.rotations)
    assert report_s.loss_history == report_m.loss_history


@pytest.mark.parametrize("chunk_size", [1, 7, 4096])
def test_rhs_independent_of_chunking(scene_file, chunk_size):
    path, scene = scene_file(SyntheticSceneSpec(
        n=40, topology="chain_window", chain_window=5,
        noise_sigma=math.radians(6), confidence_model="informative", seed=5))
    g = scene.graph
    init = tree_init.propagate(tree_init.maximum_spanning_tree(g), g)
    whole = solver.EdgeStream.from_graph(g)
    chunked = stream.FileEdgeStream(path)
    chunked.passes = functools.partial(chunked.passes, chunk_size=chunk_size)
    rhs_w, norms_w = solver._residual_pass(whole, init, whole.confidences)
    rhs_c, norms_c = solver._residual_pass(chunked, init, chunked.confidences)
    np.testing.assert_array_equal(rhs_c, rhs_w)
    np.testing.assert_array_equal(norms_c, norms_w)
    # reference: one unbuffered scatter of the signed terms in edge order
    ii, jj, rots, conf = g.edge_arrays()
    wres = conf[:, None] * kernels.edge_residuals(init[ii], init[jj], rots)
    ref = np.zeros((g.n_vertices, 3))
    np.add.at(ref, np.column_stack([ii, jj]).ravel(),
              np.stack([-wres, wres], axis=1).reshape(-1, 3))
    np.testing.assert_array_equal(rhs_c, ref)


@pytest.mark.parametrize("change", ["delete", "overwrite"])
def test_store_outlives_the_file(scene_file, change):
    path, scene = scene_file(SyntheticSceneSpec(
        n=30, noise_sigma=math.radians(4), confidence_model="informative",
        seed=6))
    expected = _in_memory_solve(path)
    fs = stream.FileEdgeStream(path)
    if change == "delete":
        path.unlink()
    else:
        path.write_text(f"N 2\nEDGE 0 1 {' '.join(['0'] * 9)} 0.5\n")
    collected = np.empty_like(scene.graph.edge_arrays()[2])
    for idx, chunk in fs.passes(chunk_size=64):
        collected[idx] = chunk
    np.testing.assert_array_equal(collected, scene.graph.edge_arrays()[2])
    init, root = stream.initialize_from_stream(fs)
    report = solver.cao_solve_stream(fs, init, anchor_vertex=root)
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
    assert sum(len(idx) for idx, _ in fs.passes(chunk_size=5)) == len(fs.ii)
    stream.initialize_from_stream(fs)
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
