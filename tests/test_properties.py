"""Same file, same answer or same error: ``cara solve`` in memory and with
``--stream`` on mutated graph files, and the block reader's loadtxt path
against the per-line reader, for EDGE and vertex records. Also the
spanning tree against a Kruskal oracle on graphs with tied confidences,
the rotation check against its former Gram-and-det formula, the
quaternion-pair residual kernel against scipy's matrix log, and the
sweep's rhs against an in-order scatter of its edges' terms. And the
solver's contract on random small valid graphs: every kernel exits 0 or 3
with the same stderr and estimates on both paths, and the confidence
solve is invariant to the confidences' scale. And ``metrics.error_stats``
byte for byte against its plain numpy formulas."""
import contextlib
import io
import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from cara import cli, kernels, metrics, so3, solver, synth, tree_init
from cara import graph as gm
from cara.errors import (DegenerateInputError, GraphParseError, InvalidArgumentError,
                         NotConnectedError)
from conftest import edge_arrays

BASE = gm.serialize(synth.generate(synth.SyntheticSceneSpec(
    n=5, noise_sigma=math.radians(5), confidence_model="informative",
    seed=0)).graph).splitlines()
EDGE_ROWS = [k for k, line in enumerate(BASE) if line.startswith("EDGE")]
# Mutations that can keep the file well formed (cut and zero make it
# unsolvable), listed twice to weigh them as much as the malformations.
VALID_KINDS = 2 * ["reverse", "noise", "rescale", "cut", "zero"]
BAD_TOKENS = ["x", "1.5", "-1", "5", "1e3", "nan", "inf", "", "0x10", "1_0"]


def _fmt(m):
    return [f"{x:.17g}" for x in m.ravel()]


def _reversed(line):
    _, i, j, *vals = line.split()
    m = np.array(vals[:9], dtype=float).reshape(3, 3).T
    return " ".join(["EDGE", j, i] + _fmt(m) + [vals[9]])


def _set_matrix(line, m):
    parts = line.split()
    return " ".join(parts[:3] + _fmt(m) + parts[12:])


def _matrix(line):
    return np.array(line.split()[3:12], dtype=float).reshape(3, 3)


@st.composite
def mutation(draw, lines):
    kind = draw(st.sampled_from(VALID_KINDS + [
        "bad_token", "two_identity", "nan", "duplicate", "reversed_duplicate",
        "out_of_range", "drop_n", "duplicate_n"]))
    # An edge of the unmutated file, written over whatever line now sits
    # at its position.
    row = draw(st.sampled_from(EDGE_ROWS))
    line = BASE[row]
    row = min(row, len(lines) - 1)
    if kind == "bad_token":
        target = draw(st.integers(0, len(lines) - 1))
        parts = lines[target].split()
        pos = draw(st.integers(0, len(parts) - 1))
        parts[pos] = draw(st.sampled_from(BAD_TOKENS))
        lines[target] = " ".join(parts)
    elif kind == "two_identity":
        lines[row] = _set_matrix(line, 2.0 * np.eye(3))
    elif kind == "nan":
        m = _matrix(line)
        m.flat[draw(st.integers(0, 8))] = math.nan
        lines[row] = _set_matrix(line, m)
    elif kind == "rescale":
        # 1 + 1e-9 is re-projected, 1 + 1e-3 is rejected
        lines[row] = _set_matrix(line, _matrix(line) * draw(
            st.sampled_from([1.0 + 1e-9, 1.0 + 1e-3])))
    elif kind == "duplicate":
        lines.insert(draw(st.integers(1, len(lines))), line)
    elif kind == "reverse":
        lines[row] = _reversed(line)
    elif kind == "reversed_duplicate":
        lines.append(_reversed(line))
    elif kind == "out_of_range":
        parts = line.split()
        parts[draw(st.integers(1, 2))] = draw(st.sampled_from(["5", "-1", "99"]))
        lines[row] = " ".join(parts)
    elif kind == "drop_n":
        lines[:] = [x for x in lines if x != "N 5"]
    elif kind in ("cut", "zero"):
        # vertex 4 loses its edges (exit 3: disconnected) or their weight
        # (exit 3: degenerate weights)
        touches = [k for k, x in enumerate(lines)
                   if x.startswith("EDGE") and "4" in x.split()[1:3]]
        for k in reversed(touches):
            if kind == "cut":
                del lines[k]
            else:
                lines[k] = " ".join(lines[k].split()[:12] + ["0"])
    elif kind == "duplicate_n":
        lines.insert(draw(st.integers(1, len(lines))), "N 5")
    else:
        pos = draw(st.integers(0, len(lines)))
        lines.insert(pos, draw(st.sampled_from(["", "# comment", "   ", "\t# x"])))
        target = draw(st.integers(0, len(lines) - 1))
        lines[target] += draw(st.sampled_from(["", "  # trailing", "\t"]))
    return kind


@st.composite
def mutated_file(draw):
    lines = list(BASE)
    kinds = [draw(mutation(lines)) for _ in range(draw(st.integers(1, 2)))]
    return kinds, "\n".join(lines) + "\n"


def _solve(path, est, extra):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--in", str(path), "--out", str(est)] + extra)
    return code, err.getvalue()


@given(mutated_file())
def test_stream_and_memory_agree(case):
    kinds, text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "g.graph"
        path.write_text(text)
        code_m, err_m = _solve(path, tmp / "m.est", [])
        code_s, err_s = _solve(path, tmp / "s.est", ["--stream"])
        assert code_m == code_s, (kinds, err_m, err_s)
        assert code_m in (0, 2, 3), (kinds, err_m)
        if code_m == 2:
            assert err_m == err_s
        if code_m == 0:
            gap = np.abs(cli._read_rotations(tmp / "m.est", "estimates")
                         - cli._read_rotations(tmp / "s.est", "estimates")).max()
            assert gap <= 1e-12, kinds


# The N record and the EDGE lines of BASE. With 3-line blocks the first
# block holds N and goes through the per-line reader; the other three take
# the loadtxt path unless a mutation sends one back.
EDGE_ONLY = BASE[:1] + [BASE[k] for k in EDGE_ROWS]
SMALL_BLOCK = 3
# Spellings where loadtxt and int()/float() might part ways ('1.0' and '1e0'
# as an index are what older NumPy read through float); the last one
# overflows an int64 index.
ODD_NUMBERS = ["1_0", "\u0663", "+nan", ".5", "5.", "1.0", "1e0", "1e400", "0x1p0", "1.5d0",
               "--1", "9223372036854775808"]


@st.composite
def edge_only_file(draw):
    lines = list(EDGE_ONLY)
    row = draw(st.integers(1, len(lines) - 1))
    parts = lines[row].split()
    kind = draw(st.sampled_from(["number", "tag", "column", "comment", "blank", "space"]))
    if kind == "number":
        parts[draw(st.integers(1, 12))] = draw(st.sampled_from(ODD_NUMBERS))
    elif kind == "tag":
        # a "U5" tag reads EDGE\0 as EDGE: the character check must catch it
        parts[0] = draw(st.sampled_from(["EDGEX", "EDGEXY", "EDGE\x00"]))
    elif kind == "column":
        parts.append("0.5")
    elif kind == "comment":
        parts.append("#")
    lines[row] = " ".join(parts)
    if kind == "blank":
        lines.insert(row, "")
    elif kind == "space":
        # tab, form feed and NBSP separate tokens for str.split; the
        # character check sends their block line by line
        cut = draw(st.integers(1, 12))
        lines[row] = (" ".join(parts[:cut]) + draw(st.sampled_from(["\t", "\x0c", "\xa0"]))
                      + " ".join(parts[cut:]))
    return kind, "\n".join(lines) + "\n"


def _read(read):
    """The fields of the Records ``read()`` returns, or its error."""
    try:
        records = read()
    except GraphParseError as exc:
        return exc.line_number, str(exc)
    return [np.concatenate([getattr(rec, name) for rec in records]).tobytes()
            for name in ("edge_lines", "ii", "jj", "rots", "conf", "vertex_ids",
                         "vertex_rots")]


@given(edge_only_file())
def test_block_reader_agrees_with_per_line_reader(case):
    kind, text = case
    lines = text.split("\n")
    with mock.patch.object(gm, "BLOCK_LINES", SMALL_BLOCK), \
            tempfile.TemporaryDirectory() as tmp:
        assert (_read(lambda: list(gm.RecordReader().chunks(lines)))
                == _read(lambda: [gm.RecordReader()._read(1, lines)])), kind
        tmp = Path(tmp)
        path = tmp / "g.graph"
        path.write_text(text, encoding="utf-8")
        code_m, err_m = _solve(path, tmp / "m.est", [])
        code_s, err_s = _solve(path, tmp / "s.est", ["--stream"])
        assert (code_m, err_m) == (code_s, err_s), kind
        assert code_m in (0, 2, 3), (kind, err_m)
        if code_m == 0:
            assert (tmp / "m.est").read_text() == (tmp / "s.est").read_text(), kind


# An estimate file (N and 5 VERTEX_EST lines) and BASE (N, 5 VERTEX_GT and
# 10 EDGE lines). With 3-line blocks, blocks are cut at the N line and at
# the VERTEX_GT/EDGE boundary.
EST = BASE[:1] + [line.replace("VERTEX_GT", "VERTEX_EST") for line in BASE
                  if line.startswith("VERTEX_GT")]
NOT_ROTATIONS = [2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.diag([1.0, math.nan, 1.0]),
                 (1.0 + 1e-3) * np.eye(3)]
EVAL_READER = {"vertex_tags": ("VERTEX_EST", "VERTEX_GT"), "skip_edges": True}


@st.composite
def vertex_file(draw):
    name = draw(st.sampled_from(["est", "gt"]))
    lines = list(EST if name == "est" else BASE)
    rows = [k for k, line in enumerate(lines) if line.startswith("VERTEX")]
    row = draw(st.sampled_from(rows))
    parts = lines[row].split()
    kind = draw(st.sampled_from(["number", "tag", "duplicate", "range", "matrix",
                                 "near", "drop", "comment", "blank", "space", "none"]))
    if kind == "number":
        parts[draw(st.integers(1, 10))] = draw(st.sampled_from(ODD_NUMBERS))
    elif kind == "tag":
        # a tag field as wide as VERTEX_EST would read VERTEX_ESTX as it
        parts[0] = draw(st.sampled_from(["VERTEX_ESTX", "VERTEX_EST\x00", "VERTEX_GTX",
                                         "VERTEX_GT\x00", "VERTEX_EST_", "VERTEX_ESTXY",
                                         "VERTEX_GT" if name == "est" else "VERTEX_EST"]))
    elif kind == "duplicate":
        parts[1] = draw(st.sampled_from([str(k) for k in range(5)]))
    elif kind == "range":
        parts[1] = draw(st.sampled_from(["5", "-1", "99"]))
    elif kind == "matrix":
        parts[2:] = _fmt(draw(st.sampled_from(NOT_ROTATIONS)))
    elif kind == "near":
        # re-projected, on both paths alike
        parts[2:] = _fmt((1.0 + 1e-9) * np.array(parts[2:], dtype=float))
    lines[row] = " ".join(parts)
    if kind == "drop":
        del lines[row]
    elif kind == "comment":
        lines[row] += "  # note"
    elif kind == "blank":
        lines.insert(row, "")
    elif kind == "space":
        cut = draw(st.integers(1, 10))
        lines[row] = (" ".join(parts[:cut]) + draw(st.sampled_from(["\t", "\x0c", "\xa0"]))
                      + " ".join(parts[cut:]))
    return name, kind, "\n".join(lines) + "\n"


def _eval(est, gt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--est", str(est), "--gt", str(gt)])
    return code, out.getvalue(), err.getvalue()


@given(vertex_file())
def test_vertex_blocks_agree_with_per_line_reader(case):
    name, kind, text = case
    lines = text.split("\n")
    readers = [{}, EVAL_READER] if name == "gt" else [EVAL_READER]
    with mock.patch.object(gm, "BLOCK_LINES", SMALL_BLOCK), \
            tempfile.TemporaryDirectory() as tmp:
        for settings in readers:
            assert (_read(lambda: list(gm.RecordReader(**settings).chunks(lines)))
                    == _read(lambda: [gm.RecordReader(**settings)._read(1, lines)])), kind
        tmp = Path(tmp)
        mutated, est, gt = tmp / "mutated", tmp / "est", tmp / "gt"
        mutated.write_text(text, encoding="utf-8")
        est.write_text("\n".join(EST) + "\n")
        gt.write_text("\n".join(BASE) + "\n")
        pair = (mutated, gt) if name == "est" else (est, mutated)
        fast = _eval(*pair)
        with mock.patch.object(gm.RecordReader, "_rows", lambda *args: None):
            per_line = _eval(*pair)
        assert fast == per_line, kind
        assert fast[0] in (0, 2), (kind, fast[2])


@st.composite
def tied_graph(draw):
    """A graph on 2-8 vertices with few distinct confidences, its edges
    shuffled and some given reversed."""
    n = draw(st.integers(2, 8))
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    pairs = draw(st.permutations(pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = []
    for i, j in pairs:
        c = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        i, j = (j, i) if draw(st.booleans()) else (i, j)
        edges.append((i, j, so3.random_rotation(rng), c))
    return n, edges


def _kruskal(n, ii, jj, conf):
    """Maximum spanning forest by Kruskal over the strict key (-c, i, j)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    forest = set()
    for c, i, j in sorted(zip((-conf).tolist(), ii.tolist(), jj.tolist())):
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            forest.add((i, j))
    return forest


def _lexsort_first_duplicate(ii, jj):
    """First repeat by a stable two-key lexsort alone: the reference."""
    order = np.lexsort((jj, ii))
    a, b = ii[order], jj[order]
    later = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    return int(later.min()) if len(later) else None


@given(pairs=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
       changes=st.sets(st.sampled_from(["shuffle", "reverse", "repeat"])),
       seed=st.integers(0, 2 ** 16))
@example(pairs={(0, 1), (0, 2), (1, 2)}, changes=set(), seed=0)
@example(pairs={(0, 1), (1, 2)}, changes={"repeat"}, seed=0)
def test_first_duplicate_matches_lexsort_reference(pairs, changes, seed):
    # Distinct pairs in rising order, optionally shuffled, some rows
    # reversed, and some rows repeated at random later places.
    rng = np.random.default_rng(seed)
    ii, jj = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2).T.copy()
    if "shuffle" in changes:
        order = rng.permutation(len(ii))
        ii, jj = ii[order], jj[order]
    if "reverse" in changes:
        flip = rng.random(len(ii)) < 0.5
        ii, jj = np.where(flip, jj, ii), np.where(flip, ii, jj)
    if "repeat" in changes and len(ii):
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(len(ii)))
            at = int(rng.integers(k + 1, len(ii) + 1))
            ii, jj = np.insert(ii, at, ii[k]), np.insert(jj, at, jj[k])
    assert gm._first_duplicate(ii, jj) == _lexsort_first_duplicate(ii, jj)


@given(tied_graph())
def test_propagate_follows_every_tree_edge(case):
    n, edges = case
    g = gm.build(n, *edge_arrays(edges))
    try:
        tree = tree_init.maximum_spanning_tree(g)
    except NotConnectedError:
        return
    R = tree_init.propagate(tree, g)
    for p, c, k in zip(tree.parents.tolist(), tree.children.tolist(), tree.edges.tolist()):
        # The graph stores r_ij ~ R_j R_i^T with i < j.
        rel = g.rotations[k] if g.ii[k] == p else g.rotations[k].T
        np.testing.assert_allclose(R[c] @ R[p].T, rel, rtol=0, atol=1e-12)


@given(tied_graph())
def test_spanning_tree_matches_kruskal(case):
    n, edges = case
    g = gm.build(n, *edge_arrays(edges))
    forest = _kruskal(n, g.ii, g.jj, g.confidences)
    if len(forest) < n - 1:
        with pytest.raises(NotConnectedError) as err:
            tree_init.maximum_spanning_tree(g)
        comps = gm.components(n, g.ii, g.jj)
        assert err.value.components == comps[:NotConnectedError.LISTED]
        assert err.value.count == len(comps)
        return
    tree = tree_init.maximum_spanning_tree(g)
    parents, children = tree.parents.tolist(), tree.children.tolist()
    assert {(min(p, c), max(p, c)) for p, c in zip(parents, children)} == forest
    # Each tree edge is the graph edge of its pair.
    assert [{p, c} for p, c in zip(parents, children)] == [
        {i, j} for i, j in zip(g.ii[tree.edges].tolist(), g.jj[tree.edges].tolist())]
    # Breadth-first order: every parent is the root or an earlier child.
    seen = {tree.root}
    for p, c in zip(parents, children):
        assert p in seen and c not in seen
        seen.add(c)


def _gram_det_rejects(ms, tol=so3.ROTATION_TOL):
    """The former ``so3.as_rotations`` test, through the @ Gram product and
    ``np.linalg.det``: (rejected rows, deviations)."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = ms.transpose(0, 2, 1) @ ms - np.eye(3)
        deviation = np.sqrt(np.einsum("kij,kij->k", d, d))
        return ~(deviation <= tol) | (np.linalg.det(ms) < 0), deviation


@st.composite
def near_rotations(draw):
    """Rotations, some reflected, perturbed at scales around ROTATION_TOL,
    with a few non-finite entries."""
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ms = np.stack([so3.random_rotation(rng) for _ in range(rows)])
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, -4.0), min_size=rows,
                                            max_size=rows)))
    ms += scales[:, None, None] * rng.standard_normal((rows, 3, 3))
    ms[rng.random(rows) < 0.2] *= -1.0
    for k in np.flatnonzero(rng.random(rows) < 0.1):
        ms[k].flat[rng.integers(9)] = rng.choice([np.nan, np.inf, -np.inf])
    return ms


@given(near_rotations())
def test_rotation_check_agrees_with_gram_and_det(ms):
    # The column-dot-product deviation and the cofactor determinant accept
    # and reject the rows the Gram product and np.linalg.det did, except
    # where the deviation is within rounding (1e-12) of the tolerance.
    old_bad, deviation = _gram_det_rejects(ms)
    clear = ~(np.abs(deviation - so3.ROTATION_TOL) <= 1e-12)
    for m, bad in zip(ms[clear], old_bad[clear]):
        try:
            so3.as_rotations(m[None])
        except InvalidArgumentError:
            assert bad
        else:
            assert not bad
    if old_bad.any() and clear.all():
        with pytest.raises(InvalidArgumentError) as err:
            so3.as_rotations(ms)
        assert err.value.index == int(np.argmax(old_bad))


@st.composite
def residual_edges(draw):
    """(Ri, Rj, Rij, signs) for a few edges whose residuals
    log(Rj^T Rij Ri) have angles in [0, pi], some tiny and some within
    1e-8 of pi, and a sign for each input quaternion of each edge."""
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = np.array(draw(st.lists(st.one_of(
        st.floats(0.0, math.pi),
        st.floats(0.0, 1e-6),
        st.floats(0.0, 1e-8).map(lambda d: math.pi - d)), min_size=rows, max_size=rows)))
    axes = rng.standard_normal((rows, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    Ri, Rj = (np.stack([so3.random_rotation(rng) for _ in range(rows)]) for _ in range(2))
    Rij = Rj @ kernels.batch_exp(axes * angles[:, None]) @ Ri.transpose(0, 2, 1)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3 * rows,
                                   max_size=3 * rows))).reshape(3, rows)
    return Ri, Rj, Rij, signs


@given(residual_edges())
def test_pair_kernel_matches_matrix_log(case):
    # Whichever sign each input quaternion has, the pair kernel gives the
    # residual's vector and angle to 1e-13; within rounding of pi either
    # antipodal vector is the residual.
    Ri, Rj, Rij, signs = case
    res, theta = kernels.quat_residuals(
        *(kernels.batch_quat(R) * sign for R, sign in zip((Ri, Rj, Rij), signs)))
    for got, angle, P in zip(res.T, theta, Rj.transpose(0, 2, 1) @ Rij @ Ri):
        want = ScipyRotation.from_matrix(P).as_rotvec()
        gap = np.abs(got - want).max()
        if math.pi - np.linalg.norm(want) <= 1e-13:
            gap = min(gap, np.abs(got + want).max())
        assert gap <= 1e-13
        assert abs(angle - np.linalg.norm(want)) <= 1e-13


# Zero, the smallest subnormal, tiny and unit weights, and the l_half
# weight cap.
SCATTER_WEIGHTS = [0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.0, solver.L_HALF_EPS ** -1.5]


@st.composite
def weighted_graph(draw):
    """(stream, vertex rotations, chunk size): 2-8 vertices, distinct
    pairs i < j in a drawn order, random rotations and drawn weights."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          min_size=1, unique=True))
    w = draw(st.lists(st.sampled_from(SCATTER_WEIGHTS), min_size=len(pairs),
                      max_size=len(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ii, jj = np.array(pairs).T
    edge_rotations = np.stack([so3.random_rotation(rng) for _ in pairs])
    rotations = np.stack([so3.random_rotation(rng) for _ in range(n)])
    chunk = draw(st.sampled_from([1, 2, 3, 4096]))
    return gm.EdgeStream(n, ii, jj, w, edge_rotations), rotations, chunk


def _scatter(stream, rotations, order):
    """rhs of a Python loop over the edges in ``order``: each edge's
    w * residual subtracted at i and added at j."""
    ii, jj, w = stream.ii, stream.jj, stream.confidences
    res = kernels.edge_residuals(rotations[ii], rotations[jj], stream.rotations)
    ref = np.zeros((stream.n_vertices, 3))
    for e in order:
        t = w[e] * res[e]
        ref[ii[e]] -= t
        ref[jj[e]] += t
    return ref


@given(weighted_graph())
def test_sweep_rhs_is_an_in_order_scatter(case):
    # Each vertex sums its terms in edge order from the running total,
    # across chunks of any size, bit for bit.
    stream, rotations, chunk = case
    with mock.patch.object(solver, "CHUNK_RECORDS", chunk):
        rhs = solver._residual_pass(stream, rotations, stream.confidences)[0]
    ref = _scatter(stream, rotations, range(len(stream.ii)))
    assert rhs.tobytes() == ref.tobytes()


def test_sweep_rhs_order_is_visible():
    # A star around vertex 0 whose in-order sum differs from its reversed
    # sum, so the exact comparison above can see a reordered scatter.
    rng = np.random.default_rng(0)
    n = 5
    stream = gm.EdgeStream(n, np.zeros(n - 1, dtype=int), np.arange(1, n),
                           [SCATTER_WEIGHTS[-1], 0.3, 1.0, 0.3],
                           np.stack([so3.random_rotation(rng) for _ in range(n - 1)]))
    rotations = np.stack([so3.random_rotation(rng) for _ in range(n)])
    in_order = _scatter(stream, rotations, range(n - 1))
    assert in_order.tobytes() != _scatter(stream, rotations, range(n - 2, -1, -1)).tobytes()
    rhs = solver._residual_pass(stream, rotations, stream.confidences)[0]
    assert rhs.tobytes() == in_order.tobytes()


# Confidences from zero and the subnormals up, as a hostile front-end may
# write them; a drawn graph takes these or uniform ones.
HOSTILE_CONFIDENCES = [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.3, 1.0]
EDGE_KINDS = ("exact", "noisy", "random", "half_turn", "rescaled")
SOLVE_KERNELS = ("confidence", "l2", "l-half", "cauchy", "geman-mcclure")


@st.composite
def small_graph_file(draw):
    """(text, sparse): a valid graph file of 2-7 vertices with about 60% of
    all pairs as edges, each exact, noisy, a random or exact half-turn
    outlier, or off by 1 + 1e-9 (re-projected on reading), 30% written as
    (j, i, R^T); and whether to factor every Laplacian as a band, which
    small graphs otherwise never reach."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pick = lambda: float(rng.choice(HOSTILE_CONFIDENCES))
    else:
        pick = lambda: float(rng.uniform())
    truth = [so3.random_rotation(rng) for _ in range(n)]
    lines = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.uniform() >= 0.6:
            continue
        rot = truth[j] @ truth[i].T
        kind = EDGE_KINDS[rng.integers(len(EDGE_KINDS))]
        if kind == "noisy":
            rot = so3.exp_map(rng.normal(scale=0.1, size=3)) @ rot
        elif kind == "random":
            rot = so3.random_rotation(rng)
        elif kind == "half_turn":
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rot = (2.0 * np.outer(axis, axis) - np.eye(3)) @ rot
        elif kind == "rescaled":
            rot = rot * (1.0 + 1e-9)
        if rng.uniform() < 0.3:
            i, j, rot = j, i, rot.T
        lines.append(" ".join(["EDGE", str(i), str(j)] + _fmt(rot) + [f"{pick():.17g}"]))
    rng.shuffle(lines)
    return "\n".join([f"N {n}"] + lines) + "\n", draw(st.booleans())


@given(small_graph_file())
@hypothesis.settings(max_examples=40)
def test_solve_contract_on_small_graphs(case):
    # Every kernel, on both paths: exit 0 or 3 and never an exception, the
    # same stderr and estimate bytes, estimates written as rotations, and
    # only finite numbers printed.
    text, sparse = case
    fill = math.inf if sparse else solver.DENSE_FILL
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(solver, "DENSE_FILL", fill):
        tmp = Path(tmp)
        path = tmp / "g.graph"
        path.write_text(text)
        for kernel in SOLVE_KERNELS:
            results = []
            for extra in ([], ["--stream"]):
                est = tmp / ("s.est" if extra else "m.est")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["solve", "--in", str(path), "--out", str(est),
                                     "--kernel", kernel] + extra)
                assert code in (0, 3), (kernel, extra, err.getvalue())
                results.append((code, err.getvalue(), est.read_bytes() if code == 0 else None))
                if code == 0:
                    losses, residual = out.getvalue().splitlines()[:2]
                    numbers = (losses.removeprefix("loss history: ").split()
                               + residual.split("final max residual: ")[1].split()[:1])
                    assert all(math.isfinite(float(x)) for x in numbers), (kernel, numbers)
                    # the written floats, not re-projected as a reader would
                    rots = np.array([line.split()[2:] for line in
                                     est.read_text().splitlines()[1:]], dtype=float)
                    rots = rots.reshape(-1, 3, 3)
                    gram = np.einsum("nij,nkj->nik", rots, rots)
                    assert np.abs(gram - np.eye(3)).max() <= 1e-12, kernel
                    assert (np.linalg.det(rots) > 0).all(), kernel
            assert results[0] == results[1], kernel


@st.composite
def scaled_graph(draw):
    """(stream, initial rotations, scale): a connected graph of 3-11
    vertices, a random spanning tree plus random extra pairs, about 20% of
    edges random outliers, the rest noisy; about 15% of the extra edges
    weigh 0 and the others at least 0.01, so every scale down to 1e-305
    keeps the weights normal floats. The initial rotations are chained
    along the maximum spanning tree."""
    n = draw(st.integers(3, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n)
    pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(k)]))))
             for k in range(1, n)}
    tree = set(pairs)
    pairs |= {p for p in itertools.combinations(range(n), 2) if rng.uniform() < 0.3}
    pairs = sorted(pairs)
    truth = [so3.random_rotation(rng) for _ in range(n)]
    rots = np.stack([so3.random_rotation(rng) if rng.uniform() < 0.2
                     else so3.exp_map(rng.normal(scale=0.05, size=3)) @ truth[j] @ truth[i].T
                     for i, j in pairs])
    conf = rng.uniform(0.01, 1.0, len(pairs))
    conf[[p not in tree and rng.uniform() < 0.15 for p in pairs]] = 0.0
    ii, jj = np.array(pairs).T
    stream = gm.EdgeStream(n, ii, jj, conf, rots)
    init = tree_init.propagate(tree_init.maximum_spanning_tree(stream), stream)
    return stream, init, 10.0 ** draw(st.floats(-305.0, 3.0))


@given(scaled_graph())
def test_cao_invariant_to_confidence_scale(case):
    # The anchor and the relative pivot test follow the weights' scale, so
    # the confidence solve from one start gives the same rotations at any
    # scale of its confidences, zeros included.
    stream, init, scale = case
    base = solver.cao_solve(stream, init)
    scaled = solver.cao_solve(gm.EdgeStream(stream.n_vertices, stream.ii, stream.jj,
                                            stream.confidences * scale, stream.rotations),
                              init)
    assert scaled.anchor_vertex == base.anchor_vertex
    np.testing.assert_allclose(scaled.rotations, base.rotations, rtol=0, atol=1e-12)


def reference_error_stats(est, gt, thresholds_deg):
    """error_stats in plain numpy: the projection through ``np.linalg.det``
    and ``np.diag``, ``np.median`` and one ``np.mean(deg <= t)`` per
    threshold. The library must reproduce its bits."""
    acc = np.einsum("nji,njk->ik", est, gt)
    if not np.all(np.isfinite(acc)):
        raise InvalidArgumentError("expected a finite 3x3 matrix")
    U, s, Vt = np.linalg.svd(acc)
    if s[1] < 1e-12:
        raise DegenerateInputError(
            "matrix is (numerically) rank-deficient; projection is not unique")
    gauge = U @ np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))]) @ Vt
    rel = np.transpose(gt, (0, 2, 1)) @ (est @ gauge)
    errors = np.linalg.norm(kernels.batch_log(rel), axis=1)
    deg = np.degrees(errors)
    return metrics.AlignedErrorStats(
        per_camera_errors=errors, mean=float(np.mean(errors)),
        median=float(np.median(errors)),
        accuracy={float(t): float(np.mean(deg <= t)) for t in thresholds_deg},
        gauge=gauge)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _outcome(f, *args):
    """What f(*args) returns, as bytes, or the error it raises."""
    try:
        with np.errstate(all="ignore"):  # the overflowing cameras
            stats = f(*args)
    except (InvalidArgumentError, DegenerateInputError) as e:
        return type(e), str(e)
    return (_bits(stats.per_camera_errors), _bits(stats.mean), _bits(stats.median),
            [(_bits(t), _bits(a)) for t, a in stats.accuracy.items()], _bits(stats.gauge))


# A broken camera: "scaled" is twice a rotation, "mirror" has det -1, and
# "overflow" (1.7e308 everywhere, against a 1e-10 ground truth) overflows
# once aligned, so its error comes out NaN.
BROKEN = ["scaled", "mirror", "overflow"]
THRESHOLD = st.one_of(st.sampled_from([3.0, 5.0, 10.0, 0.0, 180.0]),
                      st.floats(allow_nan=True, allow_infinity=True))


@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 16), sigma=st.sampled_from(
    [0.0, 1e-9, 0.05, 1.0, 3.0]), broken=st.lists(st.tuples(st.integers(0, 8),
    st.sampled_from(BROKEN)), max_size=3), thresholds=st.lists(THRESHOLD, max_size=6))
@example(n=1, seed=3, sigma=0.0, broken=[], thresholds=[0.0])
@example(n=2, seed=0, sigma=0.05, broken=[], thresholds=[10.0, 3.0, 3.0, -math.inf, math.inf])
@example(n=4, seed=1, sigma=0.05, broken=[(0, "overflow")], thresholds=[math.nan, 5.0, math.nan])
@example(n=5, seed=2, sigma=1.0, broken=[(1, "overflow"), (3, "overflow")], thresholds=[3.0])
def test_error_stats_bits_match_plain_numpy(n, seed, sigma, broken, thresholds):
    rng = np.random.default_rng(seed)
    gt = ScipyRotation.random(n, random_state=rng).as_matrix()
    noise = ScipyRotation.from_rotvec(sigma * rng.standard_normal((n, 3))).as_matrix()
    est = gt @ noise @ so3.random_rotation(rng)
    for k, kind in broken:
        k %= n
        if kind == "scaled":
            with np.errstate(over="ignore"):  # an overflow camera doubled
                est[k] *= 2.0
        elif kind == "mirror":
            est[k] = -est[k]
        else:
            est[k], gt[k] = 1.7e308, 1e-10 * gt[k]
    want = _outcome(reference_error_stats, est, gt, thresholds)
    if not isinstance(want[0], type):
        # One threshold exactly at an error.
        thresholds = thresholds + [float(np.degrees(np.frombuffer(want[0])[0]))]
        want = _outcome(reference_error_stats, est, gt, thresholds)
    assert _outcome(metrics.error_stats, est, gt, thresholds) == want
