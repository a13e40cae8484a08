"""Epipolar confidence graph: data model, validation, text interchange.

A graph is an :class:`EdgeStream` (index, confidence and rotation arrays)
plus optional ground truth; :class:`Edge` records are built only on request.

Relative-rotation convention: the edge rotation r_ij estimates
R_j @ R_i.T, so reversing an edge transposes the rotation.

File format (UTF-8, one record per line, '#' starts a comment):

    N <n_vertices>
    VERTEX_GT <id> <9 floats row-major>       # optional ground truth
    EDGE <i> <j> <9 floats row-major> <confidence>

Records may appear in any order except that ``N`` must come first.
Estimate files (``cara solve --out``) hold ``VERTEX_EST <id> <9 floats>``
records instead of VERTEX_GT and EDGE.

The :class:`EdgeStream` constructor checks every graph's edge rows; the
tree and the solver rely on its rules and check none again. Every path
that reads the format (:func:`parse`, the ``cara solve`` scan, ``cara
eval``) opens files with :func:`open_text` and uses one
:class:`RecordReader` (see :meth:`RecordReader.chunks`), so all accept and
reject the same files and report the same first offending line, with the
constructor's row rule and wording. :func:`parse` and the scan both read
through :func:`read_graph`, whose sink gets each block's records:
:func:`parse` keeps rotations and ground truth, the scan quaternion pairs.
Duplicate edge pairs are found once the whole file is read; a missing N or
a missing vertex record is reported as line 0.

Every file cara writes (graphs, labels, estimates, eval and bench CSV) goes
through :func:`write_text`, which rewrites an existing file in place.
"""
from __future__ import annotations

import operator
import os
import stat
import string
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools, csgraph

from . import kernels, so3
from .errors import DuplicateEdgeError, GraphParseError, InvalidArgumentError

CHUNK_RECORDS = 4096
BLOCK_LINES = 1024

# An EDGE line as np.loadtxt reads it, and the only characters a run of
# EDGE lines may hold to be read that way; vertex runs also admit '_' for
# their tags.
_EDGE_ROW = np.dtype([("tag", "U5"), ("ij", "i8", (2,)), ("vals", "f8", (10,))])
_PLAIN_BYTES = (string.ascii_letters + string.digits + "+-. \n").encode()
_VERTEX_BYTES = _PLAIN_BYTES + b"_"
# Kinds of line a block is cut at, and the most runs a block is cut into:
# a loadtxt call costs about as much as 30 lines read one at a time, so a
# block that alternates kinds more often is read line by line as a whole.
_OTHER, _EDGE, _VERTEX = 0, 1, 2
MAX_RUNS = 8
# The largest N record: vertex ids are np.intp indices.
_MAX_INDEX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True, eq=False)
class Edge:
    """Confidence-weighted relative rotation between vertices i < j."""
    i: int
    j: int
    rotation: np.ndarray  # (3, 3), estimates R_j @ R_i.T
    confidence: float


class EdgeStream:
    """The one graph type: edges as index and confidence arrays plus an
    (M, 3, 3) rotation array, and ground truth, an (N, 3, 3) array or None.

    ``quaternions`` are the rotations' unit quaternions as (2, M) complex
    pairs (see :func:`cara.kernels.batch_quat`), which the solver sweeps;
    unless given, they are converted on first use, or by :func:`build` and
    :func:`parse`, and kept. A stream given its pairs may have None for
    rotations, as ``cara solve``'s streams do; only :attr:`edges` and
    :func:`serialize` need them (or raise InvalidArgumentError).
    The constructor is the one check of the edge rows that every reader
    relies on. N is an integer of at least 1, the arrays agree in length,
    vertex ids are integers in [0, N), no edge is a loop, confidences are
    finite and non-negative at any scale (else InvalidArgumentError), and
    no unordered pair repeats (else DuplicateEdgeError). :func:`build` and
    the file readers also require rotations and confidences in [0, 1].
    """

    def __init__(self, n_vertices, ii, jj, confidences, rotations, quaternions=None,
                 ground_truth=None):
        try:
            self.n_vertices = n = operator.index(n_vertices)
        except TypeError:
            raise InvalidArgumentError(
                f"vertex count must be an integer, got {n_vertices!r}") from None
        if n < 1:
            raise InvalidArgumentError(f"N must be at least 1, got {n}")
        ids = [np.asarray(ii), np.asarray(jj)]
        if any(a.dtype.kind not in "iu" and a.size for a in ids):
            raise InvalidArgumentError("vertex ids must be integers")
        self.ii, self.jj = (np.ascontiguousarray(a, dtype=np.intp) for a in ids)
        self.confidences = np.asarray(confidences, dtype=float)
        self.rotations = None if rotations is None else np.asarray(rotations, dtype=float)
        self.ground_truth = ground_truth
        m = len(self.ii)
        if rotations is None and quaternions is None:
            raise InvalidArgumentError("edge stream needs rotations or quaternion pairs")
        if not (self.ii.shape == self.jj.shape == self.confidences.shape == (m,)
                and (rotations is None or self.rotations.shape[:1] == (m,))
                and (quaternions is None or np.shape(quaternions) == (2, m))):
            raise InvalidArgumentError("edge arrays differ in length")
        if fault := (_edge_fault(n, self.ii, self.jj, self.confidences, unit=False)
                     or _duplicate_fault(self.ii, self.jj)):
            raise fault
        if quaternions is not None:
            self.quaternions = quaternions

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as :class:`Edge` records, built anew on every read."""
        if self.rotations is None:
            raise InvalidArgumentError("edge stream holds quaternion pairs only, no rotations")
        return tuple(map(Edge, self.ii.tolist(), self.jj.tolist(), self.rotations,
                         self.confidences.tolist()))

    @cached_property
    def quaternions(self) -> np.ndarray:
        """The edge rotations' quaternions as (2, M) complex pairs
        (a, b) = (w + x i, y + z i), converted ``CHUNK_RECORDS`` rows at a
        time, which keeps the conversion's temporaries to a chunk.
        Conversion is row by row, so any chunking gives the same bits."""
        m = len(self.ii)
        pairs = np.empty((2, m), dtype=complex)
        for start in range(0, m, CHUNK_RECORDS):
            chunk = slice(start, start + CHUNK_RECORDS)
            pairs[:, chunk] = kernels.batch_quat(self.rotations[chunk])
        return pairs


def _edge_fault(n, ii, jj, conf, unit=True) -> InvalidArgumentError | None:
    """The error of the first row with a loop, a vertex id outside [0, n) or
    a confidence outside [0, 1] (not ``unit``: [0, inf)), or None."""
    loop = ii == jj
    outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)
    bad = loop | outside | ~((conf >= 0.0) & ((conf <= 1.0) if unit else (conf < np.inf)))
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    i, j = ii[k], jj[k]
    return InvalidArgumentError(
        f"self-loop on vertex {i}" if loop[k] else
        f"edge ({i},{j}) out of range for N={n}" if outside[k] else
        f"confidence {conf[k]} outside {'[0, 1]' if unit else '[0, inf)'} on edge ({i},{j})",
        index=k)


def _validated_edges(n, ii, jj, rots, conf):
    """Validate edge rows, raising InvalidArgumentError whose ``index`` is
    the first offending row, and normalize them to i < j (the rotation is
    transposed where the pair was reversed)."""
    fault = _edge_fault(n, ii, jj, conf)
    # A rejected rotation before the faulty row is the first offending row.
    rots = so3.as_rotations(rots[:len(ii) if fault is None else fault.index])
    if fault is not None:
        raise fault
    flip = ii > jj
    if flip.any():
        rots = rots.copy()
        rots[flip] = rots[flip].transpose(0, 2, 1)
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
    return ii, jj, rots


def _validated_vertices(n, seen, ids, tags, rots):
    """Validate vertex rows, Python int ids in [0, n) new to the rows and
    ``seen``, and add them to ``seen``. Raises InvalidArgumentError whose
    ``index`` is the first offending row; on it, a bad id beats a rotation."""
    new, k = set(ids), len(ids)
    if ids and (len(new) < k or not seen.isdisjoint(new) or min(new) < 0 or max(new) >= n):
        k = next(k for k, idx in enumerate(ids)
                 if not 0 <= idx < n or idx in seen or ids.index(idx) < k)
    rots = so3.as_rotations(rots[:k])
    if k < len(ids):
        raise InvalidArgumentError(f"vertex id {ids[k]} out of range" if not 0 <= ids[k] < n
                                   else f"duplicate {tags[k]} {ids[k]}", index=k)
    seen |= new
    return np.array(ids, dtype=np.intp), rots


def pair_order(ii, jj) -> np.ndarray | None:
    """The one sort of edges by pair: None where the pairs (ii[k], jj[k])
    rise strictly with k, by ii and then by jj, as :func:`cara.synth.generate`
    makes them, which one O(M) pass tells; else the stable sort of the rows
    by (ii, jj), which keeps equal pairs in row order."""
    if ((ii[1:] > ii[:-1]) | ((ii[1:] == ii[:-1]) & (jj[1:] > jj[:-1]))).all():
        return None
    return np.lexsort((jj, ii))


def _first_duplicate(ii, jj) -> int | None:
    """Row of the first normalized edge repeating an earlier pair, or None.
    Strictly rising pairs are free of repeats; else :func:`pair_order`
    keeps equal pairs in file order, and the first repeat is the smallest
    row of a group past its first member."""
    if (order := pair_order(ii, jj)) is None:
        return None
    a, b = ii[order], jj[order]
    later = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    return int(later.min()) if len(later) else None


def _duplicate_fault(ii, jj) -> DuplicateEdgeError | None:
    """The error of the first edge repeating an unordered pair, or None."""
    if (ii > jj).any():
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
    if (k := _first_duplicate(ii, jj)) is not None:
        return DuplicateEdgeError(f"duplicate edge for pair ({ii[k]},{jj[k]})", index=k)


def build(n: int, ii, jj, rotations, confidences, ground_truth=None) -> EdgeStream:
    """Validate and normalize a graph given as edge arrays (stored with i < j).

    An edge given as (j, i, r) is stored as (i, j, r.T). Past the
    :class:`EdgeStream` constructor's rules, N < 2, non-rotations and
    confidences outside [0, 1] are rejected. Ground truth, any sequence of
    N rotations, is validated and stored as an (N, 3, 3) array. The edge
    rotations are converted to quaternions now, so no solve allocates them.
    """
    g = EdgeStream(n, ii, jj, confidences, rotations)
    n = g.n_vertices
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 vertices, got {n}")
    g.ii, g.jj, g.rotations = _validated_edges(n, g.ii, g.jj, g.rotations, g.confidences)
    if ground_truth is not None:
        if len(ground_truth) != n:
            raise InvalidArgumentError(
                f"ground truth has {len(ground_truth)} rotations, expected {n}")
        g.ground_truth = so3.as_rotations(np.array(ground_truth, dtype=float))
    g.quaternions  # converted now, not by its first solve
    return g


def csr(n: int, rows, cols, data) -> sp.csr_matrix:
    """The n x n CSR matrix holding data[k] at (rows[k], cols[k]), whose
    positions must not repeat, built by scipy's compiled COO-to-CSR pass
    with int32 indices where they fit, as scipy's own constructor stores
    them. That pass keeps each row's entries in input order; the rows are
    sorted by column after, which costs one check where the columns rise,
    so that csgraph's traversals see each row in scipy's order."""
    index = np.int32 if max(n, len(rows)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(n + 1, dtype=index)
    indices, values = np.empty(len(rows), dtype=index), np.empty_like(data)
    _sparsetools.coo_tocsr(n, n, len(rows), rows.astype(index, copy=False),
                           cols.astype(index, copy=False), data, indptr, indices, values)
    matrix = sp.csr_matrix((values, indices, indptr), shape=(n, n))
    matrix.sort_indices()
    return matrix


def vertex_sums(n: int, ends, values) -> np.ndarray:
    """``np.bincount(ends, values, minlength=n)`` with its bits, at about
    two thirds of its time: scipy's compiled product with one CSC column
    that holds every entry adds each value into its end's row in entry
    order, as bincount does, and a product by 1.0 is exact. The ends must
    lie in [0, n), as :class:`EdgeStream` ids do: the product does not
    bound-check."""
    sums = np.zeros(n)
    _sparsetools.csc_matvec(n, 1, np.array([0, len(ends)], dtype=ends.dtype), ends, values,
                            np.ones(1), sums)
    return sums


def component_count(n: int, ii, jj) -> int:
    """The number of connected components of the graph on n vertices with
    edges (ii, jj), without listing them."""
    return csgraph.connected_components(csr(n, ii, jj, np.ones(len(ii))), directed=False,
                                        return_labels=False)


def components(n: int, ii, jj) -> list[list[int]]:
    """Connected components of the graph on n vertices with edges (ii, jj).

    Each component is a sorted vertex list; components are listed by
    their smallest vertex.
    """
    _, labels = csgraph.connected_components(csr(n, ii, jj, np.ones(len(ii))),
                                             directed=False)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return sorted((c.tolist() for c in np.split(order, cuts)), key=lambda c: c[0])


# Nine floats to 17 significant digits, enough to read back every value
# bit-exactly.
_NINE_FLOATS = " %.17g" * 9


def vertex_lines(tag: str, rotations) -> list[str]:
    """``<tag> <id> <9 floats row-major>`` lines of an (N, 3, 3) stack."""
    line = tag + " %d" + _NINE_FLOATS
    return [line % (idx, *r) for idx, r in enumerate(np.reshape(rotations, (-1, 9)).tolist())]


def serialize(g: EdgeStream) -> str:
    """A graph with rotations to canonical text; floats carry 17
    significant digits so parse(serialize(g)) reproduces every value
    bit-exactly. A pair-only stream raises InvalidArgumentError."""
    if g.rotations is None:
        raise InvalidArgumentError("edge stream holds quaternion pairs only, no rotations")
    lines = [f"N {g.n_vertices}"]
    if g.ground_truth is not None:
        lines += vertex_lines("VERTEX_GT", g.ground_truth)
    line = "EDGE %d %d" + _NINE_FLOATS + " %.17g"
    lines += [line % (i, j, *r, c) for i, j, r, c in zip(
        g.ii.tolist(), g.jj.tolist(), g.rotations.reshape(-1, 9).tolist(),
        g.confidences.tolist())]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class Records:
    """Validated records of one block of lines, in file order; edges have i < j."""
    edge_lines: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    rots: np.ndarray
    conf: np.ndarray
    vertex_ids: np.ndarray
    vertex_rots: np.ndarray


class RecordReader:
    """Tokenizer and validator of the text format, one block of lines at a time.

    ``vertex_tags`` are the vertex records read; with ``skip_edges``, EDGE
    records are passed over unread. After reading, ``n`` holds the N
    record and ``vertex_ids`` every vertex id seen.
    """

    def __init__(self, vertex_tags=("VERTEX_GT",), skip_edges=False):
        self.vertex_tags = vertex_tags
        self.skip_edges = skip_edges
        self.n = None
        self.vertex_ids: set[int] = set()
        self._vertex_heads = tuple(t + " " for t in vertex_tags)
        # A tag field one character wider than the longest tag, so that
        # VERTEX_ESTX cannot read as VERTEX_EST (a field as wide as the tag
        # would cut it there).
        width = max(map(len, vertex_tags), default=0) + 1
        self._vertex_row = np.dtype([("tag", f"U{width}"), ("id", "i8"),
                                     ("vals", "f8", (9,))])

    def chunks(self, lines):
        """Yield the :class:`Records` of the input, ``BLOCK_LINES`` lines at a
        time. Each block is cut into runs of one kind of line: EDGE lines,
        vertex lines (a tag of ``vertex_tags``) and other lines, such as
        the N record and comments. Each run takes one of two paths.

        - Fast path: a run of EDGE lines or of vertex lines, after the N
          record and in plain ASCII, goes through one ``np.loadtxt`` call,
          taken only when it returns one row per line with the run's tags.
        - Per-line path: every other run is read one line at a time with
          ``int()`` and ``float()``. It decides the syntax: the fast path
          takes only runs that it reads to the same numbers. Both paths
          hand the numbers to one validator of values (ids, repeats,
          rotations, confidences), so both accept and reject the same lines.

        Raises GraphParseError at the first offending line, or with line 0
        when the input has no N record.
        """
        lines, start = iter(lines), 1
        while block := list(islice(lines, BLOCK_LINES)):
            for kind, lo, hi in self._runs(block):
                run = block[lo:hi]
                text = "".join(run)
                if kind == _EDGE and self.skip_edges:
                    # ASCII, so no line holds an invalid byte, and every line
                    # a skipped record: nothing in the run is read.
                    if not (text.isascii()
                            and all(map(str.startswith, run, repeat("EDGE ")))):
                        yield self._read(start + lo, run)
                elif (rec := self._fast_records(kind, start + lo, run, text)) is not None:
                    yield rec
                else:
                    yield self._read(start + lo, run)
            start += len(block)
        if self.n is None:
            raise GraphParseError(0, "missing N record")

    def _kind(self, line):
        return (_EDGE if line.startswith("EDGE ") else
                _VERTEX if line.startswith(self._vertex_heads) else _OTHER)

    def _runs(self, block):
        """``(kind, lo, hi)`` for each run of lines of one kind in ``block``.

        A block whose first and last lines are of one kind is taken as one
        run without looking at the others; the fast path checks every tag
        and sends a run with a line of another kind to the per-line reader.
        A block of more than ``MAX_RUNS`` runs is one run of other lines.
        """
        first = self._kind(block[0])
        if first == self._kind(block[-1]):
            return [(first, 0, len(block))]
        n = len(block)
        kinds = (_EDGE * np.fromiter(map(str.startswith, block, repeat("EDGE ")), bool, n)
                 + _VERTEX * np.fromiter(map(str.startswith, block,
                                             repeat(self._vertex_heads)), bool, n))
        cuts = [0, *(np.flatnonzero(np.diff(kinds)) + 1).tolist(), n]
        if len(cuts) > MAX_RUNS + 1:
            return [(_OTHER, 0, n)]
        return [(int(kinds[lo]), lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def _fast_records(self, kind, start, run, text) -> Records | None:
        """The run's records from one ``np.loadtxt`` call, or None when the
        per-line reader must decide the run."""
        lines = np.arange(start, start + len(run))
        if kind == _EDGE:
            rows = self._rows(run, text, _EDGE_ROW, _PLAIN_BYTES)
            if rows is None or not (rows["tag"] == "EDGE").all():
                return None
            return self._records(lines, rows["ij"].astype(np.intp),
                                 np.ascontiguousarray(rows["vals"]))
        if kind == _VERTEX:
            rows = self._rows(run, text, self._vertex_row, _VERTEX_BYTES)
            if rows is None or not np.isin(rows["tag"], self.vertex_tags).all():
                return None
            return self._records(np.arange(0), np.empty((0, 2), np.intp), np.empty((0, 10)),
                                 lines, rows["id"].tolist(), rows["tag"],
                                 np.ascontiguousarray(rows["vals"]))
        return None

    def _rows(self, run, text, dtype, plain_bytes):
        """The run's rows converted by ``np.loadtxt``, or None unless it
        returns one row per line (the caller then checks the tags)."""
        # loadtxt accepts fewer number spellings than int() and float()
        # (no '_', no non-ASCII digits), skips blank lines and ends lines
        # at '\r', so a run with any other character, or with a row count
        # that is not its line count, is not taken. A tag field one
        # character wider than the tags keeps EDGEX and EDGEXY apart from
        # EDGE but reads EDGE\0 as EDGE, hence the character check. A run
        # starts with its tag, so it is never all blank lines, which would
        # make loadtxt warn. NumPy 1.23 to 1.26 read an integer field such
        # as '1.9' through float, truncated, with only a DeprecationWarning,
        # which Python hides by default: any warning sends the run to the
        # per-line reader, whatever the caller's filters.
        if (self.n is None or not text.isascii()
                or text.encode().translate(None, plain_bytes)):
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(run, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
        return rows if len(rows) == len(run) else None

    def _read(self, start, block) -> Records:
        """Records of ``block``, lines numbered from ``start``, one line at a
        time with ``int()`` and ``float()``."""
        e_lines, e_ints, e_floats = [], array("q"), array("d")
        v_lines, v_ids, v_tags, v_floats = [], [], [], []
        failures = []
        for lineno, raw in enumerate(block, start):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate from open_text
                    failures.append(GraphParseError(lineno, "invalid UTF-8"))
                    break
            body = raw.partition("#")[0]
            if self.skip_edges and body.split(None, 1)[:1] == ["EDGE"]:
                continue
            parts = body.split()
            if not parts:
                continue
            try:
                if parts[0] == "EDGE" and len(parts) == 13 and self.n is not None:
                    e_ints.extend((int(parts[1]), int(parts[2])))
                    e_floats.extend(map(float, parts[3:]))
                    e_lines.append(lineno)
                elif (idx := self._other_record(parts)) is not None:
                    v_lines.append(lineno)
                    v_ids.append(idx)
                    v_tags.append(parts[0])
                    v_floats += [float(x) for x in parts[2:]]
            except (ValueError, OverflowError) as exc:
                del e_ints[2 * len(e_lines):], e_floats[10 * len(e_lines):]
                failures.append(GraphParseError(lineno, str(exc)))
                break
        ij = np.frombuffer(e_ints, dtype=np.int64).reshape(-1, 2).astype(np.intp)
        return self._records(np.array(e_lines, dtype=np.intp), ij,
                             np.frombuffer(e_floats).reshape(-1, 10),
                             v_lines, v_ids, v_tags, v_floats, failures)

    def _records(self, e_lines, ij, vals, v_lines=(), v_ids=(), v_tags=(), v_vals=(),
                 failures=()) -> Records:
        """Validate a block's converted numbers into :class:`Records`; the
        earliest offending line wins, whichever check found it. The last
        vertex id may lack numbers that failed to convert; a bad id wins."""
        checked = []
        try:
            v_ids, v_rots = _validated_vertices(self.n, self.vertex_ids, v_ids, v_tags,
                                                np.reshape(v_vals, (-1, 3, 3)))
        except InvalidArgumentError as exc:
            checked.append(GraphParseError(int(v_lines[exc.index]), str(exc)))
        try:
            ii, jj, rots = _validated_edges(self.n or 0, ij[:, 0], ij[:, 1],
                                            vals[:, :9].reshape(-1, 3, 3), vals[:, 9])
        except InvalidArgumentError as exc:
            checked.append(GraphParseError(int(e_lines[exc.index]), str(exc)))
        if failures := checked + list(failures):
            raise min(failures, key=lambda f: f.line_number)
        # Copies, 72 and 8 B an edge, so that no piece a caller keeps holds
        # the block's (k, 10) floats alive.
        return Records(e_lines, ii, jj, np.ascontiguousarray(rots), vals[:, 9].copy(),
                       v_ids, v_rots)

    def _other_record(self, parts) -> int | None:
        """Every record but a well-formed EDGE: takes n from the N record,
        returns a vertex record's id, raises ValueError on a bad record."""
        tag = parts[0]
        if tag == "N":
            if self.n is not None:
                raise ValueError("duplicate N record")
            if len(parts) != 2:
                raise ValueError("N record needs one integer")
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"N must be at least 1, got {n}")
            if n > _MAX_INDEX:
                raise ValueError(f"N {n} exceeds the largest index {_MAX_INDEX}")
            self.n = n
        elif tag != "EDGE" and tag not in self.vertex_tags:
            raise ValueError(f"unknown record type {tag!r}")
        elif self.n is None:
            raise ValueError("record before N")
        elif tag == "EDGE":
            raise ValueError("EDGE needs i, j, 9 floats, confidence")
        else:
            if len(parts) != 11:
                raise ValueError(f"{tag} needs id + 9 floats")
            return int(parts[1])
        return None

    def require_all_vertices(self, what: str) -> None:
        """Raise GraphParseError (line 0) naming ``what`` and the first 10
        missing ids unless all N vertices were read; allocates nothing of N."""
        if count := self.n - len(self.vertex_ids):
            first = list(islice((v for v in range(self.n) if v not in self.vertex_ids), 10))
            more = f" and {count - len(first)} more" if count > len(first) else ""
            raise GraphParseError(0, f"incomplete {what}, missing vertices {first}{more}")


def open_text(path):
    """Open a file of the text format. Bytes that are not UTF-8 are read as
    lone surrogates, which :class:`RecordReader` rejects at their line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, rewriting an existing file in place.

    The result is what ``open(path, "w")`` leaves: the same bytes, inode and
    mode, written through symlinks and hard links, and device outputs such as
    ``/dev/null`` work. Only the truncate to zero on open is skipped, which
    on a filesystem that discards freed blocks costs tens of milliseconds
    for a file that holds data; a regular file is cut to the written length
    afterwards instead. If a write fails, the file is cut at the bytes
    written, so no tail of the old content is left behind the new bytes.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def read_graph(lines, sink):
    """Read and validate a graph file given as an iterable of lines, handing
    each block's validated :class:`Records` to ``sink``. Joins only the edge
    indices, lines and confidences, dropping each field's pieces as it joins
    them; checks N >= 2, duplicate pairs and, given VERTEX_GT records, that
    every vertex has one. Returns (n, ii, jj, conf)."""
    reader = RecordReader()
    pieces = {name: [] for name in ("edge_lines", "ii", "jj", "conf")}
    for rec in reader.chunks(lines):
        sink(rec)
        for name, out in pieces.items():
            out.append(getattr(rec, name))

    def cat(name):
        return np.concatenate(pieces.pop(name))

    n, ii, jj = reader.n, cat("ii"), cat("jj")
    if n < 2:
        raise GraphParseError(0, f"need at least 2 vertices, got {n}")
    if fault := _duplicate_fault(ii, jj):
        raise GraphParseError(int(cat("edge_lines")[fault.index]), str(fault))
    del pieces["edge_lines"]
    if reader.vertex_ids:
        reader.require_all_vertices("ground truth")
    return n, ii, jj, cat("conf")


def vertex_stack(n, pieces):
    """(n, 3, 3) stack of ``(ids, rots)`` pieces that cover every id once."""
    stack = np.empty((n, 3, 3))
    for ids, rots in pieces:
        stack[ids] = rots
    return stack


def parse(source) -> EdgeStream:
    """Parse the text format from a ``str`` or an iterable of lines, such as
    a file from :func:`open_text`, which is then read line by line; raises
    GraphParseError with the line number."""
    lines = source
    if isinstance(source, str):
        lines = source.split("\n")
        if not lines[-1]:
            lines.pop()  # after the final newline: it would send its run line by line
    rots, ground_truth = [], []

    def keep(rec):
        rots.append(rec.rots)
        if len(rec.vertex_ids):
            ground_truth.append((rec.vertex_ids, rec.vertex_rots))

    # Each list of pieces is dropped as it is joined, before the quaternions.
    n, ii, jj, conf = read_graph(lines, keep)
    rots = np.concatenate(rots)
    ground_truth = vertex_stack(n, ground_truth) if ground_truth else None
    g = EdgeStream(n, ii, jj, conf, rots, ground_truth=ground_truth)
    g.quaternions  # converted now, not by its first solve
    return g
