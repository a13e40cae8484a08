"""Epipolar confidence graph: data model, validation, text interchange.

Relative-rotation convention: the edge rotation r_ij estimates
R_j @ R_i.T, so reversing an edge transposes the rotation.

File format (UTF-8, one record per line, '#' starts a comment):

    N <n_vertices>
    VERTEX_GT <id> <9 floats row-major>       # optional ground truth
    EDGE <i> <j> <9 floats row-major> <confidence>

Records may appear in any order except that ``N`` must come first.
Estimate files (``cara solve --out``) hold ``VERTEX_EST <id> <9 floats>``
records instead of VERTEX_GT and EDGE.

Every path that reads the format (:func:`parse`, the ``--stream`` scan,
``cara eval``) opens files with :func:`open_text` and uses one
:class:`RecordReader` and one rotation validator, so all accept and reject
the same files and report the same first offending line, also for bytes
that are not UTF-8. Duplicate edge pairs are found once the whole file is
read; a missing N or incomplete ground truth is reported as line 0.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import so3
from .errors import DuplicateEdgeError, GraphParseError, InvalidArgumentError

CHUNK_RECORDS = 4096


@dataclass(frozen=True, eq=False)
class Edge:
    """Confidence-weighted relative rotation between vertices i < j."""
    i: int
    j: int
    rotation: np.ndarray  # (3, 3), estimates R_j @ R_i.T
    confidence: float


@dataclass(frozen=True, eq=False)
class EpipolarConfidenceGraph:
    n_vertices: int
    edges: tuple[Edge, ...]
    ground_truth: tuple[np.ndarray, ...] | None = None
    _arrays: dict = field(default_factory=dict, repr=False, compare=False)

    def edge_arrays(self):
        """Edges as (idx_i, idx_j, rotations, confidences) arrays, cached."""
        if not self._arrays:
            self._arrays.update(zip(("ii", "jj", "rots", "conf"), _columns(self.edges)))
        a = self._arrays
        return a["ii"], a["jj"], a["rots"], a["conf"]


def _columns(edges):
    """(idx_i, idx_j, rotations, confidences) arrays of a sequence of Edges."""
    m = len(edges)
    ii = np.fromiter((e.i for e in edges), dtype=np.intp, count=m)
    jj = np.fromiter((e.j for e in edges), dtype=np.intp, count=m)
    rots = np.stack([e.rotation for e in edges]) if m else np.zeros((0, 3, 3))
    conf = np.fromiter((e.confidence for e in edges), dtype=float, count=m)
    return ii, jj, rots, conf


def _validated_edges(n, ii, jj, rots, conf):
    """Validate edge rows and normalize them to i < j (the rotation is
    transposed where the pair was reversed).

    Raises InvalidArgumentError whose ``index`` is the first offending row.
    """
    loop = ii == jj
    outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)
    bad = loop | outside | ~((conf >= 0.0) & (conf <= 1.0))
    k = int(np.argmax(bad)) if bad.any() else len(ii)
    # A rejected rotation before row k is the first offending row.
    rots = so3.as_rotations(rots[:k])
    if k < len(ii):
        i, j = ii[k], jj[k]
        raise InvalidArgumentError(
            f"self-loop on vertex {i}" if loop[k] else
            f"edge ({i},{j}) out of range for N={n}" if outside[k] else
            f"confidence {conf[k]} outside [0, 1] on edge ({i},{j})", index=k)
    flip = ii > jj
    if flip.any():
        rots = rots.copy()
        rots[flip] = rots[flip].transpose(0, 2, 1)
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
    return ii, jj, rots


def _first_duplicate(n, ii, jj) -> int | None:
    """Row of the first normalized edge repeating an earlier pair, or None."""
    _, first = np.unique(ii * n + jj, return_index=True)
    if len(first) == len(ii):
        return None
    repeat = np.ones(len(ii), dtype=bool)
    repeat[first] = False
    return int(np.argmax(repeat))


def _assemble(n, ii, jj, rots, conf, ground_truth) -> EpipolarConfidenceGraph:
    """Graph over validated, normalized edge arrays (kept as its edge_arrays)."""
    edges = tuple(map(Edge, ii.tolist(), jj.tolist(), rots, conf.tolist()))
    g = EpipolarConfidenceGraph(n, edges, ground_truth)
    g._arrays.update(ii=ii, jj=jj, rots=rots, conf=conf)
    return g


def build(n: int, edges, ground_truth=None) -> EpipolarConfidenceGraph:
    """Validate and normalize a graph (edges stored with i < j).

    An edge given as (j, i, r) is stored as (i, j, r.T). Duplicate pairs,
    out-of-range indices and confidences outside [0, 1] are rejected.
    """
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 vertices, got {n}")
    ii, jj, rots, conf = _columns(list(edges))
    ii, jj, rots = _validated_edges(n, ii, jj, rots, conf)
    k = _first_duplicate(n, ii, jj)
    if k is not None:
        raise DuplicateEdgeError(f"duplicate edge for pair ({ii[k]},{jj[k]})", index=k)
    if ground_truth is not None:
        if len(ground_truth) != n:
            raise InvalidArgumentError(
                f"ground truth has {len(ground_truth)} rotations, expected {n}")
        ground_truth = tuple(so3.as_rotations(np.array(ground_truth, dtype=float)))
    return _assemble(n, ii, jj, rots, conf, ground_truth)


def components(n: int, ii, jj) -> list[list[int]]:
    """Connected components of the graph on n vertices with edges (ii, jj).

    Each component is a sorted vertex list; components are listed by
    their smallest vertex.
    """
    adj = sp.coo_matrix((np.ones(len(ii), dtype=bool), (ii, jj)), shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=False)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return sorted((c.tolist() for c in np.split(order, cuts)), key=lambda c: c[0])


def connected_components(g: EpipolarConfidenceGraph,
                         min_confidence: float = 0.0) -> list[list[int]]:
    """Components of the subgraph keeping edges with c > min_confidence."""
    ii, jj, _, conf = g.edge_arrays()
    keep = conf > min_confidence
    return components(g.n_vertices, ii[keep], jj[keep])


def is_connected(g: EpipolarConfidenceGraph, min_confidence: float = 0.0) -> bool:
    return len(connected_components(g, min_confidence)) == 1


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize(g: EpipolarConfidenceGraph) -> str:
    """Graph to canonical text; floats carry 17 significant digits so
    parse(serialize(g)) reproduces every value bit-exactly."""
    lines = [f"N {g.n_vertices}"]
    if g.ground_truth is not None:
        for idx, r in enumerate(g.ground_truth):
            lines.append(f"VERTEX_GT {idx} " + " ".join(_fmt(x) for x in r.ravel()))
    for e in g.edges:
        lines.append(f"EDGE {e.i} {e.j} "
                     + " ".join(_fmt(x) for x in e.rotation.ravel())
                     + f" {_fmt(e.confidence)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class Records:
    """Validated records of one chunk, in file order; edges have i < j."""
    edge_lines: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    rots: np.ndarray
    conf: np.ndarray
    vertex_ids: np.ndarray
    vertex_rots: np.ndarray


class RecordReader:
    """Tokenizer and validator of the text format, one chunk of lines at a time.

    ``vertex_tags`` are the vertex records read, ``skip_tags`` the records
    passed over unread. After reading, ``n`` holds the N record and
    ``vertex_ids`` every vertex id seen.
    """

    def __init__(self, vertex_tags=("VERTEX_GT",), skip_tags=()):
        self.vertex_tags = vertex_tags
        self.skip_tags = skip_tags
        self.n = None
        self.vertex_ids: set[int] = set()

    def chunks(self, lines, chunk_records=CHUNK_RECORDS):
        """Yield :class:`Records` holding ``chunk_records`` edge and vertex
        records each, except the last, which holds the rest.

        Raises GraphParseError at the first offending line, or with line 0
        when the input has no N record.
        """
        numbered = enumerate(lines, start=1)
        more = True
        while more:
            records, more = self._read(numbered, chunk_records)
            yield records
        if self.n is None:
            raise GraphParseError(0, "missing N record")

    def _read(self, numbered, size) -> tuple[Records, bool]:
        """The next ``size`` records, and whether input may remain."""
        e_lines, e_ints, e_floats = [], array("q"), array("d")
        v_lines, v_ids, v_floats = [], [], []
        failures = []
        more = False
        for lineno, raw in numbered:
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate from open_text
                    failures.append(GraphParseError(lineno, "invalid UTF-8"))
                    break
            parts = raw.partition("#")[0].split()
            if not parts or parts[0] in self.skip_tags:
                continue
            try:
                if parts[0] == "EDGE" and len(parts) == 13 and self.n is not None:
                    e_ints.extend((int(parts[1]), int(parts[2])))
                    e_floats.extend(map(float, parts[3:]))
                    e_lines.append(lineno)
                elif (idx := self._other_record(parts)) is not None:
                    v_floats += [float(x) for x in parts[2:]]
                    v_lines.append(lineno)
                    v_ids.append(idx)
            except (ValueError, OverflowError) as exc:
                del e_ints[2 * len(e_lines):], e_floats[10 * len(e_lines):]
                failures.append(GraphParseError(lineno, str(exc)))
                break
            if len(e_lines) + len(v_lines) == size:
                more = True
                break

        # Numbers are converted and rotations validated per chunk; the
        # earliest offending line wins, whichever check found it.
        ij = np.frombuffer(e_ints, dtype=np.int64).reshape(-1, 2).astype(np.intp)
        vals = np.frombuffer(e_floats).reshape(-1, 10)
        try:
            ii, jj, rots = _validated_edges(self.n or 0, ij[:, 0], ij[:, 1],
                                            vals[:, :9].reshape(-1, 3, 3), vals[:, 9])
        except InvalidArgumentError as exc:
            failures.append(GraphParseError(e_lines[exc.index], str(exc)))
        try:
            v_rots = so3.as_rotations(np.array(v_floats).reshape(-1, 3, 3))
        except InvalidArgumentError as exc:
            failures.append(GraphParseError(v_lines[exc.index], str(exc)))
        if failures:
            raise min(failures, key=lambda f: f.line_number)
        return Records(np.array(e_lines, dtype=np.intp), ii, jj, rots, vals[:, 9].copy(),
                       np.array(v_ids, dtype=np.intp), v_rots), more

    def _other_record(self, parts) -> int | None:
        """Every record but a well-formed EDGE: takes n from the N record,
        returns a vertex record's id, raises ValueError on a bad record."""
        tag = parts[0]
        if tag == "N":
            if self.n is not None:
                raise ValueError("duplicate N record")
            if len(parts) != 2:
                raise ValueError("N record needs one integer")
            self.n = int(parts[1])
        elif tag != "EDGE" and tag not in self.vertex_tags:
            raise ValueError(f"unknown record type {tag!r}")
        elif self.n is None:
            raise ValueError("record before N")
        elif tag == "EDGE":
            raise ValueError("EDGE needs i, j, 9 floats, confidence")
        else:
            if len(parts) != 11:
                raise ValueError(f"{tag} needs id + 9 floats")
            idx = int(parts[1])
            if not 0 <= idx < self.n:
                raise ValueError(f"vertex id {idx} out of range")
            if idx in self.vertex_ids:
                raise ValueError(f"duplicate {tag} {idx}")
            self.vertex_ids.add(idx)
            return idx
        return None


def open_text(path):
    """Open a file of the text format. Bytes that are not UTF-8 are read as
    lone surrogates, which :class:`RecordReader` rejects at their line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def read_graph(lines, spool=None):
    """Read and validate a whole graph file given as an iterable of lines.

    Returns (n, ii, jj, rots, conf, ground_truth). With ``spool``, every
    chunk's validated (k, 3, 3) rotations are passed to ``spool(rots)`` and
    dropped, so memory stays O(N + |E|) scalars, and rots and ground_truth
    are None.
    """
    reader = RecordReader()
    chunks = []
    for rec in reader.chunks(lines):
        if spool is not None:
            spool(rec.rots)
            rec = replace(rec, rots=None, vertex_rots=None)
        chunks.append(rec)

    def cat(name):
        return np.concatenate([getattr(rec, name) for rec in chunks])

    n, ii, jj = reader.n, cat("ii"), cat("jj")
    if n < 2:
        raise GraphParseError(0, f"need at least 2 vertices, got {n}")
    k = _first_duplicate(n, ii, jj)
    if k is not None:
        raise GraphParseError(int(cat("edge_lines")[k]),
                              f"duplicate edge for pair ({ii[k]},{jj[k]})")
    ground_truth = None
    if reader.vertex_ids:
        if len(reader.vertex_ids) != n:
            missing = sorted(set(range(n)) - reader.vertex_ids)
            raise GraphParseError(0, f"incomplete ground truth, missing vertices {missing}")
        if spool is None:
            gt = np.empty((n, 3, 3))
            gt[cat("vertex_ids")] = cat("vertex_rots")
            ground_truth = tuple(gt)
    return n, ii, jj, cat("rots") if spool is None else None, cat("conf"), ground_truth


def parse(text: str) -> EpipolarConfidenceGraph:
    """Parse the text format; raises GraphParseError with the line number."""
    n, ii, jj, rots, conf, ground_truth = read_graph(text.split("\n"))
    return _assemble(n, ii, jj, rots, conf, ground_truth)
