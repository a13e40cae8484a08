import errno
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from cara import cli, so3, stream, synth
from cara import graph as gm
from cara.errors import DuplicateEdgeError, GraphParseError, InvalidArgumentError
from conftest import edge_arrays


ROW = "1 0 0 0 1 0 0 0 1"


def rot(seed):
    return so3.random_rotation(seed)


def random_graph(n, p, seed, with_gt=False):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, so3.random_rotation(rng), rng.random()))
    gt = [so3.random_rotation(rng) for _ in range(n)] if with_gt else None
    return gm.build(n, *edge_arrays(edges or [(0, 1, np.eye(3), 1.0)]), gt)


class TestBuild:
    def test_minimal(self):
        g = gm.build(2, *edge_arrays([(0, 1, rot(0), 0.5)]))
        assert g.n_vertices == 2
        assert len(g.edges) == 1

    def test_orientation_normalization(self):
        R = rot(1)
        g = gm.build(3, *edge_arrays([(1, 0, R, 0.7)]))
        e = g.edges[0]
        assert (e.i, e.j) == (0, 1)
        np.testing.assert_allclose(e.rotation, R.T, atol=1e-12)
        assert e.confidence == 0.7

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            gm.build(2, *edge_arrays([(0, 1, rot(0), 0.5), (1, 0, rot(1), 0.2)]))

    def test_index_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, *edge_arrays([(0, 2, rot(0), 0.5)]))

    def test_confidence_range(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, *edge_arrays([(0, 1, rot(0), 1.5)]))
        with pytest.raises(InvalidArgumentError):
            gm.build(2, *edge_arrays([(0, 1, rot(0), -0.1)]))

    def test_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, *edge_arrays([(1, 1, rot(0), 0.5)]))

    def test_too_few_vertices(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(1, *edge_arrays([]))

    def test_non_rotation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(2, *edge_arrays([(0, 1, np.eye(3) * 2.0, 0.5)]))

    def test_vertex_count_must_be_an_integer(self):
        # int(2.5) once stored N = 2 for edges checked against 2.5, so edge
        # (1, 2) was kept and serialized into a file cara solve rejects.
        for bad in (2.5, np.float64(3.0), "3"):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                gm.build(bad, *edge_arrays([(1, 2, rot(0), 0.5)]))
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                gm.EdgeStream(bad, [1], [2], [0.5], [rot(0)])
        g = gm.build(np.int64(3), *edge_arrays([(1, 2, rot(0), 0.5)]))
        assert type(g.n_vertices) is int and g.n_vertices == 3

    def test_vertex_count_at_least_one(self):
        # N = 0 or below once reached the tree and the solver, which died
        # on bare numpy errors.
        for bad in (0, -2):
            with pytest.raises(InvalidArgumentError, match="N must be at least 1"):
                gm.EdgeStream(bad, [], [], [], np.zeros((0, 3, 3)))

    def test_gt_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            gm.build(3, *edge_arrays([(0, 1, rot(0), 1.0)]), ground_truth=[np.eye(3)])


def thresholded_components(g, min_confidence):
    """Components of the subgraph keeping edges with c > min_confidence."""
    keep = g.confidences > min_confidence
    return gm.components(g.n_vertices, g.ii[keep], g.jj[keep])


class TestConnectivity:
    def test_complete_connected(self):
        g = random_graph(5, 1.0, 0)
        assert len(thresholded_components(g, 0.0)) == 1

    def test_zero_confidence_bridge(self):
        # two cliques joined only by a c=0 edge
        edges = [(0, 1, rot(0), 0.9), (2, 3, rot(1), 0.9), (1, 2, rot(2), 0.0)]
        g = gm.build(4, *edge_arrays(edges))
        assert len(thresholded_components(g, -1.0)) == 1
        comps = thresholded_components(g, 0.01)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3)]

    def test_against_union_find_oracle(self):
        # independent union-find implementation on 100 seeded graphs
        def uf_connected(n, pairs):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in pairs:
                parent[find(a)] = find(b)
            return len({find(v) for v in range(n)}) == 1

        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.uniform(0.1, 0.9)
            g = random_graph(n, p, int(rng.integers(1 << 30)))
            thresh = rng.uniform(0.0, 1.0)
            pairs = [(e.i, e.j) for e in g.edges if e.confidence > thresh]
            assert (len(thresholded_components(g, thresh)) == 1) == uf_connected(n, pairs)


class TestTextFormat:
    def test_roundtrip_small(self):
        g = random_graph(3, 1.0, 5, with_gt=True)
        g2 = gm.parse(gm.serialize(g))
        assert g2.n_vertices == g.n_vertices
        for a, b in zip(g.edges, g2.edges):
            assert (a.i, a.j, a.confidence) == (b.i, b.j, b.confidence)
            assert np.array_equal(a.rotation, b.rotation)
        for a, b in zip(g.ground_truth, g2.ground_truth):
            assert np.array_equal(a, b)

    def test_edge_stream_serializes_without_ground_truth(self):
        # Any EdgeStream with rotations serializes; only ground truth
        # writes VERTEX_GT records.
        g = random_graph(6, 0.7, 4, with_gt=True)
        s = gm.EdgeStream(g.n_vertices, g.ii, g.jj, g.confidences, g.rotations)
        text = gm.serialize(s)
        assert text.splitlines() == [line for line in gm.serialize(g).splitlines()
                                     if not line.startswith("VERTEX_GT")]
        parsed = gm.parse(text)
        assert parsed.ground_truth is None
        assert parsed.rotations.tobytes() == g.rotations.tobytes()

    def test_roundtrip_byte_exact_1000_edges(self):
        rng = np.random.default_rng(17)
        n = 60
        edges = []
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        for i, j in pairs[:1000]:
            edges.append((i, j, so3.random_rotation(rng), rng.random()))
        g = gm.build(n, *edge_arrays(edges), [so3.random_rotation(rng) for _ in range(n)])
        text = gm.serialize(g)
        assert gm.serialize(gm.parse(text)) == text

    def test_line_format_is_17g_per_float(self):
        # -0.0, nan, inf, -inf and the smallest subnormal among them: one %
        # call per line prints what formatting each float alone prints.
        vals = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1 / 3, -1e300, 1.0]
        want = " ".join(f"{x:.17g}" for x in vals)
        rot = np.array(vals).reshape(1, 3, 3)
        g = gm.EdgeStream(2, [0], [1], [-0.0], rot, ground_truth=(rot[0], rot[0]))
        assert gm.serialize(g).splitlines() == [
            "N 2", f"VERTEX_GT 0 {want}", f"VERTEX_GT 1 {want}", f"EDGE 0 1 {want} -0"]
        assert gm.vertex_lines("VERTEX_EST", rot) == [f"VERTEX_EST 0 {want}"]

    def test_bad_float_count(self):
        text = "N 2\nEDGE 0 1 1 0 0 0 1 0 0 0 0.5\n"  # 8 floats + confidence
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
        assert err.value.line_number == 2

    def test_record_before_n(self):
        with pytest.raises(GraphParseError):
            gm.parse("EDGE 0 1 1 0 0 0 1 0 0 0 1 0.5\nN 2\n")

    def test_unknown_record(self):
        with pytest.raises(GraphParseError):
            gm.parse("N 2\nFOO 1 2\n")

    def test_comments_and_blank_lines(self):
        g = random_graph(3, 1.0, 6)
        text = "# header comment\n\n" + gm.serialize(g).replace(
            "N 3", "N 3  # inline comment")
        g2 = gm.parse(text)
        assert len(g2.edges) == len(g.edges)

    def test_non_rotation_matrix_rejected(self):
        text = "N 2\nEDGE 0 1 2 0 0 0 2 0 0 0 2 0.5\n"
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
        assert err.value.line_number == 2

    def test_missing_n(self):
        with pytest.raises(GraphParseError):
            gm.parse("# empty\n")

    def test_incomplete_ground_truth(self):
        g = random_graph(3, 1.0, 8, with_gt=True)
        lines = [l for l in gm.serialize(g).splitlines()
                 if not l.startswith("VERTEX_GT 1")]
        with pytest.raises(GraphParseError):
            gm.parse("\n".join(lines))

    def test_incomplete_ground_truth_message_is_bounded(self, traced_peak):
        # The message names the first 10 missing ids and the count, built
        # without a set of all N ids.
        text = (f"N 1000000\nVERTEX_GT 0 {ROW}\nEDGE 0 1 {ROW} 0.5\n")

        def parse():
            with pytest.raises(GraphParseError) as err:
                gm.parse(text)
            return err

        err, peak = traced_peak(parse)
        assert str(err.value).endswith(
            "incomplete ground truth, missing vertices "
            "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999989 more")
        assert peak < 1_000_000

    def test_scientific_notation_accepted(self):
        text = ("N 2\nEDGE 0 1 1.0e0 0 0 0 1E0 0 0 0 1 5e-1\n")
        g = gm.parse(text)
        assert g.edges[0].confidence == 0.5

    def test_reverse_convention_consistency(self):
        # r(j -> i) must equal r(i -> j)^T after normalization
        R = rot(9)
        g_fwd = gm.build(2, *edge_arrays([(0, 1, R, 0.5)]))
        g_rev = gm.build(2, *edge_arrays([(1, 0, R.T, 0.5)]))
        np.testing.assert_allclose(g_fwd.edges[0].rotation,
                                   g_rev.edges[0].rotation, atol=1e-12)


def test_pairs_past_int32_do_not_collide(tmp_path):
    # (2^31, 2^31 + 5) and (0, 2^31 + 5) are distinct pairs; a key
    # i * N + j with N = 2^33 wraps int64 and made them equal.
    text = (f"N 8589934592\nEDGE 2147483648 2147483653 {ROW} 0.5\n"
            f"EDGE 0 2147483653 {ROW} 0.5\n")
    path = tmp_path / "g.graph"
    path.write_text(text)
    for g in (gm.parse(text), stream.FileEdgeStream(path)):
        assert g.n_vertices == 2 ** 33
        assert g.ii.tolist() == [2 ** 31, 0]
        assert g.jj.tolist() == [2 ** 31 + 5] * 2


def test_first_duplicate_in_file_order():
    # The first repeat in file order is row 3, though pair (0,1) sorts first.
    ii = np.array([2, 0, 5, 2, 0, 2])
    jj = np.array([3, 1, 6, 3, 1, 3])
    assert gm._first_duplicate(ii, jj) == 3
    assert gm._first_duplicate(ii[:3], jj[:3]) is None


def test_stream_checks_allocate_only_row_bools(traced_peak):
    # The constructor runs inside the read of `cara solve`, so on pairs as
    # the reader hands them over (intp, i < j, rising) its checks may hold
    # bool temporaries of the rows but no copy of an index array (8 B an
    # edge).
    g = synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10, seed=0)).graph
    args = (g.n_vertices, g.ii, g.jj, g.confidences, None, g.quaternions)
    _, peak = traced_peak(lambda: gm.EdgeStream(*args))
    assert peak < 8 * len(g.ii)


def test_parsed_graph_holds_arrays_not_edge_records(traced_peak):
    # 8 B each for i, j and c plus 72 B of rotation: no per-edge objects.
    scene = synth.generate(synth.SyntheticSceneSpec(
        n=400, topology="chain_window", chain_window=10, seed=3))
    text = "\n".join(l for l in gm.serialize(scene.graph).splitlines()
                     if not l.startswith("VERTEX_GT"))

    def parse():
        g = gm.parse(text)
        return g, tracemalloc.get_traced_memory()[0]

    (g, retained), _ = traced_peak(parse)
    m = len(g.ii)
    assert m > 3000 and g.ground_truth is None
    assert retained / m <= 150
    for a in (g.ii, g.jj):
        assert a.dtype == np.intp and a.flags.c_contiguous
    rebuilt = gm.build(g.n_vertices, *edge_arrays(
        [(e.i, e.j, e.rotation, e.confidence) for e in g.edges]))
    for name in ("ii", "jj", "rotations", "confidences"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(g, name))


def _is_gt_array(gt, n):
    return (isinstance(gt, np.ndarray) and gt.shape == (n, 3, 3)
            and gt.dtype == np.float64)


def test_ground_truth_is_one_array(monkeypatch, tmp_path):
    # build, parse and synth.generate hold ground truth as one (N, 3, 3)
    # array whose rows have the bytes of the rotations given, read or drawn.
    rng = np.random.default_rng(5)
    gt = [so3.random_rotation(rng) for _ in range(6)]
    edges = [(i, i + 1, gt[i + 1] @ gt[i].T, 0.5) for i in range(5)]
    built = gm.build(6, *edge_arrays(edges), ground_truth=gt)
    assert _is_gt_array(built.ground_truth, 6)
    assert built.ground_truth.tobytes() == b"".join(r.tobytes() for r in gt)

    # Vertex records in any order land at their ids: here in reverse id
    # order over three 3-line blocks, parsed from text and from a file, and
    # read by cara eval's reader.
    lines = gm.serialize(built).splitlines()
    lines[1:7] = lines[6:0:-1]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "g.graph"
    path.write_text(text)
    monkeypatch.setattr(gm, "BLOCK_LINES", 3)
    with gm.open_text(path) as fh:
        from_file = gm.parse(fh).ground_truth
    for got in (gm.parse(text).ground_truth, from_file,
                cli._read_rotations(path, "ground truth")):
        assert _is_gt_array(got, 6)
        assert got.tobytes() == built.ground_truth.tobytes()

    # Ground-truth quaternions are the seed's first draw.
    spec = synth.SyntheticSceneSpec(n=9, noise_sigma=0.1, seed=11)
    drawn = synth._quat_rotations(np.random.default_rng(11).standard_normal((9, 4)))
    generated = synth.generate(spec).graph.ground_truth
    assert _is_gt_array(generated, 9)
    assert generated.tobytes() == b"".join(r.tobytes() for r in drawn)


def test_read_graph_fields_across_blocks(monkeypatch, tmp_path):
    # 16-line blocks: the fourth holds the last 3 VERTEX_GT lines and the
    # first 13 EDGE lines, and EDGE runs cross every later boundary. Each
    # field read_graph joins, the rotations of the blocks it hands over and
    # every field parse joins has the bytes of the graph written; so has
    # the --stream scan, which spools the blocks' quaternion pairs.
    monkeypatch.setattr(gm, "BLOCK_LINES", 16)
    g = synth.generate(synth.SyntheticSceneSpec(
        n=50, topology="chain_window", chain_window=3,
        noise_sigma=math.radians(5), outlier_edge_fraction=0.2, seed=2)).graph
    text = gm.serialize(g)
    path = tmp_path / "g.graph"
    path.write_text(text)
    want = [a.tobytes() for a in (g.ii, g.jj, g.rotations, g.confidences, g.ground_truth)]

    with gm.open_text(path) as fh:
        parsed = gm.parse(fh)
    assert [a.tobytes() for a in (parsed.ii, parsed.jj, parsed.rotations,
                                  parsed.confidences, parsed.ground_truth)] == want

    blocks = []
    with gm.open_text(path) as fh:
        n, ii, jj, conf = gm.read_graph(fh, blocks.append)
    rots = np.concatenate([rec.rots for rec in blocks])
    assert n == 50 and len(blocks) > 2
    assert [a.tobytes() for a in (ii, jj, rots, conf)] == want[:4]

    s = stream.FileEdgeStream(path)
    assert [a.tobytes() for a in (s.ii, s.jj, s.confidences)] == want[:2] + want[3:4]
    assert s.rotations is None and isinstance(s.quaternions, np.memmap)
    assert np.ascontiguousarray(s.quaternions).tobytes() == gm.parse(text).quaternions.tobytes()


def test_parse_peak_memory_is_bounded(tmp_path, traced_peak):
    # Parsing the 2000-camera chain file (19 945 edges) peaks as the
    # rotations are joined: the blocks' pieces and the joined stack, 72 B
    # an edge each, over the joined indices and confidences and the ground
    # truth pieces, 3.55 MB. The bound holds while each block keeps only its
    # own rotations, not a view of its (k, 10) floats, and read_graph drops
    # each field's pieces as it joins it, so the index and confidence
    # pieces are gone before the rotations are joined.
    g = synth.generate(synth.SyntheticSceneSpec(
        n=2000, topology="chain_window", chain_window=10,
        noise_sigma=math.radians(5), seed=0)).graph
    path = tmp_path / "g.graph"
    gm.write_text(path, gm.serialize(g))
    del g

    def parse():
        with gm.open_text(path) as fh:
            return gm.parse(fh)

    g, peak = traced_peak(parse)
    assert len(g.ii) > 19000
    assert peak <= 3.60e6


def _spy_per_line_reads(monkeypatch):
    """The (first line, line count) of every block the per-line reader reads."""
    reads, per_line = [], gm.RecordReader._read

    def spy(self, start, block):
        reads.append((start, len(block)))
        return per_line(self, start, block)

    monkeypatch.setattr(gm.RecordReader, "_read", spy)
    return reads


def test_per_line_reader_sees_only_header_blocks(monkeypatch, tmp_path):
    # N and 5 VERTEX_GT lines fill the first two 4-line blocks, and the
    # second ends with 2 of the 10 EDGE lines. Blocks are cut at the N line
    # and at the VERTEX_GT/EDGE boundary, so on every ingest (parse, the
    # --stream scan, and cara eval, which skips the EDGE lines unread) the
    # per-line reader sees the N line alone and the rest takes the fast path.
    g = synth.generate(synth.SyntheticSceneSpec(n=5, seed=1)).graph
    text = gm.serialize(g)
    path = tmp_path / "g.graph"
    path.write_text(text)
    monkeypatch.setattr(gm, "BLOCK_LINES", 4)
    reads = _spy_per_line_reads(monkeypatch)
    for read in (lambda: gm.parse(text), lambda: stream.FileEdgeStream(path),
                 lambda: cli._read_rotations(path, "ground truth")):
        reads.clear()
        read()
        assert reads == [(1, 1)]
    parsed = gm.parse(text)
    for name in ("ii", "jj", "rotations", "confidences"):
        assert getattr(parsed, name).tobytes() == getattr(g, name).tobytes()


@pytest.mark.parametrize("line, row, error", [
    (4, "VERTEX_GT 1 " + ROW, "duplicate VERTEX_GT 1"),
    (5, "VERTEX_GT 0 " + ROW, "duplicate VERTEX_GT 0"),
    (4, "VERTEX_GT 5 " + ROW, "vertex id 5 out of range"),
    (4, "VERTEX_GT 2 2 0 0 0 2 0 0 0 2",
     "matrix is not a rotation (orthonormality deviation 5.196e+00)"),
], ids=["repeat-in-run", "repeat-across-blocks", "range", "not-rotation"])
def test_bad_vertex_values_stay_on_fast_path(monkeypatch, tmp_path, line, row, error):
    # The blocks of test_per_line_reader_sees_only_header_blocks, with one
    # vertex line given a bad value: every ingest rejects it at its line
    # from the loadtxt numbers, and the per-line reader still sees only N.
    lines = gm.serialize(synth.generate(synth.SyntheticSceneSpec(n=5, seed=1)).graph
                         ).splitlines()
    lines[line - 1] = row
    text = "\n".join(lines) + "\n"
    path = tmp_path / "g.graph"
    path.write_text(text)
    monkeypatch.setattr(gm, "BLOCK_LINES", 4)
    reads = _spy_per_line_reads(monkeypatch)
    for read in (lambda: gm.parse(text), lambda: stream.FileEdgeStream(path),
                 lambda: cli._read_rotations(path, "ground truth")):
        reads.clear()
        with pytest.raises(GraphParseError) as err:
            read()
        assert str(err.value) == f"line {line}: {error}"
        assert reads == [(1, 1)]


@pytest.mark.parametrize("idx", [2**63, -2**63 - 1, 10**30])
def test_vertex_id_past_int64_is_out_of_range(tmp_path, idx):
    # loadtxt cannot read the id, so the per-line reader converts it with
    # int(); the validator then compares Python ints, on every ingest.
    text = f"N 2\nVERTEX_GT 0 {ROW}\nVERTEX_GT {idx} {ROW}\nEDGE 0 1 {ROW} 0.5\n"
    path = tmp_path / "g.graph"
    path.write_text(text)
    for read in (lambda: gm.parse(text), lambda: stream.FileEdgeStream(path),
                 lambda: cli._read_rotations(path, "ground truth")):
        with pytest.raises(GraphParseError) as err:
            read()
        assert str(err.value) == f"line 3: vertex id {idx} out of range"



def _parsed(read):
    """The arrays of the graph ``read()`` returns, or its error."""
    try:
        g = read()
    except GraphParseError as exc:
        return exc.line_number, str(exc)
    return [a.tobytes() for a in (g.ii, g.jj, g.rotations, g.confidences,
                                  np.stack(g.ground_truth))]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final", "no-final"])
@pytest.mark.parametrize("bad_line", [None, 3, 9], ids=["valid", "bad-vertex", "bad-edge"])
def test_parse_text_and_file_agree(monkeypatch, tmp_path, newline, final_newline, bad_line):
    # parse(text) splits at '\n' only, while the file is read with universal
    # newlines: the '\r' left on each line sends its run to the per-line
    # reader, which reads the same numbers and errors.
    monkeypatch.setattr(gm, "BLOCK_LINES", 4)
    lines = gm.serialize(synth.generate(synth.SyntheticSceneSpec(n=5, seed=1)).graph).splitlines()
    if bad_line is not None:
        lines[bad_line - 1] = lines[bad_line - 1].replace(" 0", " x", 1)
    text = newline.join(lines) + (newline if final_newline else "")
    path = tmp_path / "g.graph"
    path.write_bytes(text.encode())
    with gm.open_text(path) as fh:
        from_file = _parsed(lambda: gm.parse(fh))
    assert from_file == _parsed(lambda: gm.parse(text))
    if bad_line is None:
        assert len(from_file) == 5
    else:
        assert from_file[0] == bad_line


def test_block_of_many_runs_read_line_by_line(monkeypatch):
    # A comment after every record cuts a block into more runs than
    # MAX_RUNS; the block then goes to the per-line reader as a whole
    # instead of one loadtxt call per line.
    monkeypatch.setattr(gm, "BLOCK_LINES", 20)
    text = gm.serialize(synth.generate(synth.SyntheticSceneSpec(n=5, seed=1)).graph)
    commented = "".join(line + "\n# note\n" for line in text.splitlines())
    reads = _spy_per_line_reads(monkeypatch)
    got = _parsed(lambda: gm.parse(commented))
    assert reads == [(1, 20), (21, 12)]
    assert got == _parsed(lambda: gm.parse(text))

def test_skipped_edge_block_still_rejects_invalid_utf8(monkeypatch):
    # cara eval passes over blocks of EDGE lines unread, but not one with a
    # byte that is not UTF-8 (a lone surrogate from open_text).
    monkeypatch.setattr(gm, "BLOCK_LINES", 2)
    edge = "EDGE 0 1 1 0 0 0 1 0 0 0 1 0.5\n"
    lines = ["N 2\n", edge, edge, edge.replace("0.5", "0.5\udcff")]
    reader = gm.RecordReader(vertex_tags=("VERTEX_EST",), skip_edges=True)
    with pytest.raises(GraphParseError) as err:
        list(reader.chunks(lines))
    assert str(err.value) == "line 4: invalid UTF-8"


EDGE_01 = "EDGE 0 1 1 0 0 0 1 0 0 0 1 0.5"


@pytest.mark.parametrize("text, error", [
    # loadtxt would read EDGE lines ahead of the N record
    (f"{EDGE_01}\n{EDGE_01}\nN 2\n", "line 1: record before N"),
    # and warn on a block without data
    (f"N 2\n{EDGE_01}\n\n\n", None),
])
def test_blocks_kept_from_loadtxt(monkeypatch, text, error):
    monkeypatch.setattr(gm, "BLOCK_LINES", 2)
    if error is None:
        assert len(gm.parse(text).ii) == 1
    else:
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
        assert str(err.value) == error



@pytest.mark.parametrize("tag, settings", [
    ("VERTEX_ESTX", {"vertex_tags": ("VERTEX_EST", "VERTEX_GT")}),
    ("VERTEX_EST\x00", {"vertex_tags": ("VERTEX_EST", "VERTEX_GT")}),
    ("VERTEX_GTX", {}),
    ("VERTEX_GT\x00", {}),
])
def test_longer_vertex_tag_not_read_as_shorter(monkeypatch, tag, settings):
    # The bad tag sits inside a block of vertex lines taken as one run, so
    # only the width of loadtxt's tag field and the character check keep it
    # from reading as the tag it starts with.
    monkeypatch.setattr(gm, "BLOCK_LINES", 3)
    good = settings.get("vertex_tags", ("VERTEX_GT",))[0]
    lines = ["N 5\n"] + [f"{tag if k == 3 else good} {k} 1 0 0 0 1 0 0 0 1\n"
                         for k in range(5)]
    with pytest.raises(GraphParseError) as err:
        list(gm.RecordReader(**settings).chunks(lines))
    assert str(err.value) == f"line 5: unknown record type {tag!r}"

def test_loadtxt_warning_sends_block_line_by_line(monkeypatch):
    # NumPy 1.23 to 1.26 read the integer field '1.9' as 1 and only warn,
    # and Python hides a DeprecationWarning by default: the block must still
    # go to the per-line reader, which rejects the index.
    loadtxt = np.loadtxt

    def truncating_loadtxt(lines, **kwargs):
        if any(" 1.9 " in line for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        return loadtxt([line.replace(" 1.9 ", " 1 ") for line in lines], **kwargs)

    monkeypatch.setattr(gm.np, "loadtxt", truncating_loadtxt)
    monkeypatch.setattr(gm, "BLOCK_LINES", 2)
    text = (f"N 3\n{EDGE_01}\n{EDGE_01.replace(' 0 1 ', ' 0 2 ', 1)}\n"
            f"{EDGE_01.replace(' 0 1 ', ' 1.9 2 ', 1)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(GraphParseError) as err:
            gm.parse(text)
    assert str(err.value) == "line 4: invalid literal for int() with base 10: '1.9'"


def test_write_text_rewrites_in_place(tmp_path):
    # A shorter text over a longer file: the bytes of a fresh write, on the
    # same inode with the same mode, seen through a hard link too.
    text = "N 2\nVERTEX_EST 0 ü\n"
    fresh = tmp_path / "fresh"
    gm.write_text(fresh, text)
    path, link = tmp_path / "old", tmp_path / "link"
    path.write_text("x" * 10_000)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    gm.write_text(path, text)
    after = path.stat()
    assert path.read_bytes() == fresh.read_bytes() == text.encode("utf-8")
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert link.read_bytes() == fresh.read_bytes()


def test_write_text_failure_cuts_at_written_bytes(tmp_path, failing_writes):
    # The old tail must not follow the new bytes, as after open(path, "w").
    path = tmp_path / "old.est"
    path.write_text("y" * 10_000)
    opened, closed = failing_writes(path, keep=100)
    with pytest.raises(OSError) as err:
        gm.write_text(path, "z" * 5_000)
    assert err.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"z" * 100
    assert len(opened) == 1 and closed == opened
