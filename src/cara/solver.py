"""Iterative Lie-algebra weighted least squares over the confidence graph.

Each iteration linearizes the consistency residuals
``log(R_j^T @ r_ij @ R_i)`` around the current estimates and solves the
weighted normal equations. Because every weight block is a scalar times
the identity, the 3N x 3N system factors into a weighted graph Laplacian
acting on three right-hand-side columns; the Laplacian is assembled
sparse, anchored by deleting the anchor vertex's row/column, and
factorized once per weight setting.

Edges are swept in fixed-size chunks of one :class:`EdgeStream` (edge
arrays plus a rotation array, which ``--stream`` memory-maps), so the
in-memory and ``--stream`` paths run the same sweeps and give
bit-identical estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .errors import DegenerateWeightsError, InvalidArgumentError, NotConnectedError
from .graph import CHUNK_RECORDS, EpipolarConfidenceGraph, components
from .tree_init import _pick_root

KERNEL_KINDS = ("confidence", "l2", "l_half", "cauchy", "geman_mcclure")

# Clamp for the l_half IRLS weight x^(-3/2) at zero residual.
L_HALF_EPS = 1e-5
# Weight floor applied when IRLS re-weighting disconnects the graph.
WEIGHT_FLOOR = 1e-6


@dataclass
class SolveConfig:
    max_iterations: int = 3
    anchor: str = "fix-root"          # "fix-root" | "tikhonov"
    tikhonov_lambda: float = 1e-8
    residual_tolerance: float = 1e-10
    irls_max_iterations: int = 20
    irls_rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be >= 1")
        if self.anchor not in ("fix-root", "tikhonov"):
            raise InvalidArgumentError(f"unknown anchor mode {self.anchor!r}")
        if self.anchor == "tikhonov" and not self.tikhonov_lambda > 0:
            raise InvalidArgumentError("tikhonov_lambda must be positive")
        if self.irls_max_iterations < 1:
            raise InvalidArgumentError("irls_max_iterations must be >= 1")


@dataclass
class RobustKernel:
    kind: str = "confidence"
    alpha: float = math.radians(5.0)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidArgumentError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("cauchy", "geman_mcclure") and not self.alpha > 0:
            raise InvalidArgumentError("alpha must be positive for this kernel")

    def weights(self, x: np.ndarray) -> np.ndarray:
        """IRLS weights psi(x)/x for residual angles x."""
        if self.kind == "l2":
            return np.ones_like(x)
        if self.kind == "cauchy":
            return 1.0 / (1.0 + (x / self.alpha) ** 2)
        if self.kind == "geman_mcclure":
            a2 = self.alpha ** 2
            return a2 / (a2 + x ** 2) ** 2
        if self.kind == "l_half":
            return np.maximum(x, L_HALF_EPS) ** -1.5
        raise InvalidArgumentError("confidence kernel has fixed weights c_ij")

    def rho(self, x: np.ndarray) -> np.ndarray:
        """Robust cost per residual angle."""
        if self.kind == "l2":
            return 0.5 * x ** 2
        if self.kind == "cauchy":
            return 0.5 * self.alpha ** 2 * np.log1p((x / self.alpha) ** 2)
        if self.kind == "geman_mcclure":
            return x ** 2 / (2.0 * (self.alpha ** 2 + x ** 2))
        if self.kind == "l_half":
            return np.sqrt(np.abs(x))
        raise InvalidArgumentError("confidence kernel cost is c * x^2")


@dataclass
class SolveReport:
    rotations: np.ndarray              # (N, 3, 3)
    loss_history: list[float]
    max_residual_history: list[float]
    iterations_run: int
    anchor_vertex: int
    diagnostics: list[str] = field(default_factory=list)


class EdgeStream:
    """Edges as index and confidence arrays plus an (M, 3, 3) rotation
    array, which may be a read-only memory map.

    ``passes()`` yields (edge_indices, rotations) chunks of consecutive
    edges covering every edge once; the solver sweeps it once per pass.
    """

    def __init__(self, n_vertices, ii, jj, confidences, rotations):
        self.n_vertices = int(n_vertices)
        self.ii = np.asarray(ii, dtype=np.intp)
        self.jj = np.asarray(jj, dtype=np.intp)
        self.confidences = np.asarray(confidences, dtype=float)
        self.rotations = np.asarray(rotations, dtype=float)

    @classmethod
    def from_graph(cls, g: EpipolarConfidenceGraph) -> "EdgeStream":
        ii, jj, rots, conf = g.edge_arrays()
        return cls(g.n_vertices, ii, jj, conf, rots)

    def passes(self, chunk_size=CHUNK_RECORDS):
        m = len(self.ii)
        for start in range(0, m, chunk_size):
            stop = min(start + chunk_size, m)
            yield np.arange(start, stop), self.rotations[start:stop]


def cal_loss(g: EpipolarConfidenceGraph, rotations: np.ndarray) -> float:
    """Confidence-weighted sum of squared geodesic residuals."""
    rotations = np.asarray(rotations, dtype=float)
    if rotations.shape != (g.n_vertices, 3, 3):
        raise InvalidArgumentError(
            f"expected {g.n_vertices} rotations, got shape {rotations.shape}")
    ii, jj, rots, conf = g.edge_arrays()
    if len(conf) == 0:
        return 0.0
    res = kernels.edge_residuals(rotations[ii], rotations[jj], rots)
    return float(conf @ np.einsum("ij,ij->i", res, res))


def _check_connectivity(n, ii, jj, conf=None):
    """Raise NotConnectedError for a disconnected graph and, given
    confidences, DegenerateWeightsError when its positive-confidence
    edges leave it disconnected."""
    comps = components(n, ii, jj)
    if len(comps) > 1:
        raise NotConnectedError(comps)
    if conf is None:
        return
    comps = components(n, ii[conf > 0], jj[conf > 0])
    if len(comps) > 1:
        raise DegenerateWeightsError(
            f"positive-confidence subgraph splits into {len(comps)} components; "
            "the weighted normal equations are singular")


def _factor_laplacian(n, ii, jj, w, anchor, config):
    """Factorized solve for the anchored / regularized weighted Laplacian."""
    rows = np.concatenate([ii, jj, ii, jj])
    cols = np.concatenate([ii, jj, jj, ii])
    data = np.concatenate([w, w, -w, -w])
    L = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
    if config.anchor == "tikhonov":
        L = L + config.tikhonov_lambda * sp.identity(n, format="csc")
        keep = np.arange(n)
    else:
        keep = np.array([v for v in range(n) if v != anchor])
        L = L[keep][:, keep]
    try:
        lu = spla.splu(L.tocsc())
    except RuntimeError as exc:
        raise DegenerateWeightsError(f"normal equations are singular: {exc}") from exc
    # Fix-root pivots scale with the weights, so that test is relative to the
    # largest; under tikhonov the gauge pivot is about n * lambda whatever
    # the weight scale, so the threshold stays absolute.
    tol = 1e-14 * np.max(w, initial=0.0) if config.anchor == "fix-root" else 1e-14
    if np.min(np.abs(lu.U.diagonal())) < tol:
        raise DegenerateWeightsError("normal equations are numerically singular")

    def solve(rhs_full):
        delta = np.zeros((n, 3))
        delta[keep] = lu.solve(rhs_full[keep])
        return delta

    return solve


def _residual_pass(stream: EdgeStream, rotations, weights):
    """One sweep over the edges: accumulated rhs B^T W db and per-edge
    residual norms.

    Each vertex's rhs terms are summed in edge order whatever the chunking:
    bincount adds its input in order, and each chunk's input starts with
    the running totals.
    """
    n = stream.n_vertices
    rhs = np.zeros((n, 3))
    norms = np.zeros(len(stream.ii))
    vertices = np.arange(n)
    for idx, rots in stream.passes():
        ii = stream.ii[idx]
        jj = stream.jj[idx]
        res = kernels.edge_residuals(rotations[ii], rotations[jj], rots)
        wres = weights[idx, None] * res
        ends = np.concatenate([vertices, np.column_stack([ii, jj]).ravel()])
        terms = np.concatenate([rhs, np.stack([-wres, wres], axis=1).reshape(-1, 3)])
        rhs = np.column_stack([np.bincount(ends, terms[:, k]) for k in range(3)])
        norms[idx] = np.sqrt(np.einsum("ij,ij->i", res, res))
    return rhs, norms


def _apply_update(rotations, delta, anchor, config):
    if config.anchor == "fix-root":
        delta = delta.copy()
        delta[anchor] = 0.0
    return rotations @ kernels.batch_exp(delta)


def cao_solve_stream(stream: EdgeStream, initial_rotations, config=None,
                     anchor_vertex=None, diagnostics=None) -> SolveReport:
    """Fixed-weight iterated WLS over an edge stream (memory O(N + |E|))."""
    config = config or SolveConfig()
    n = stream.n_vertices
    R = np.array(initial_rotations, dtype=float)
    if R.shape != (n, 3, 3):
        raise InvalidArgumentError(f"expected {n} initial rotations, got {R.shape}")
    conf = stream.confidences
    if anchor_vertex is None:
        anchor_vertex = 0
    diagnostics = list(diagnostics or [])

    solve = _factor_laplacian(n, stream.ii, stream.jj, conf, anchor_vertex, config)

    loss_history: list[float] = []
    max_residual_history: list[float] = []
    iterations_run = 0
    while True:
        rhs, norms = _residual_pass(stream, R, conf)
        loss_history.append(float(conf @ norms ** 2))
        max_residual_history.append(float(norms.max()) if len(norms) else 0.0)
        if (max_residual_history[-1] < config.residual_tolerance
                or iterations_run == config.max_iterations):
            break
        R = _apply_update(R, solve(rhs), anchor_vertex, config)
        iterations_run += 1
    return SolveReport(R, loss_history, max_residual_history, iterations_run,
                       anchor_vertex, diagnostics)


def cao_solve(g: EpipolarConfidenceGraph, initial_rotations,
              config: SolveConfig | None = None) -> SolveReport:
    """Confidence-weighted optimization (fixed weights c_ij)."""
    stream = EdgeStream.from_graph(g)
    n, ii, jj, conf = g.n_vertices, stream.ii, stream.jj, stream.confidences
    _check_connectivity(n, ii, jj, conf)
    return cao_solve_stream(stream, initial_rotations, config,
                            anchor_vertex=_pick_root(n, ii, jj, conf))


def irls_solve(g: EpipolarConfidenceGraph, initial_rotations,
               kernel: RobustKernel | None = None,
               config: SolveConfig | None = None) -> SolveReport:
    """Iteratively re-weighted least squares under a robust kernel.

    ``kind="confidence"`` degenerates to :func:`cao_solve`. Otherwise
    each outer iteration re-derives per-edge weights from the current
    residual angles and takes one weighted least-squares step; it stops
    when the relative change of the robust objective falls below
    ``irls_rel_tol`` or after ``irls_max_iterations`` steps.
    """
    kernel = kernel or RobustKernel()
    config = config or SolveConfig()
    if kernel.kind == "confidence":
        return cao_solve(g, initial_rotations, config)

    stream = EdgeStream.from_graph(g)
    n, ii, jj = g.n_vertices, stream.ii, stream.jj
    _check_connectivity(n, ii, jj)
    R = np.array(initial_rotations, dtype=float)
    if R.shape != (n, 3, 3):
        raise InvalidArgumentError(f"expected {n} initial rotations, got {R.shape}")
    anchor = _pick_root(n, ii, jj, stream.confidences)
    diagnostics: list[str] = []

    loss_history: list[float] = []
    max_residual_history: list[float] = []
    iterations_run = 0
    prev_obj = None
    while True:
        _, norms = _residual_pass(stream, R, np.zeros(len(stream.ii)))
        obj = float(np.sum(kernel.rho(norms)))
        loss_history.append(obj)
        max_residual_history.append(float(norms.max()) if len(norms) else 0.0)
        converged = prev_obj is not None and (
            abs(prev_obj - obj) <= config.irls_rel_tol * max(abs(prev_obj), 1e-30))
        if (converged or iterations_run == config.irls_max_iterations
                or max_residual_history[-1] < config.residual_tolerance):
            break
        prev_obj = obj

        w = kernel.weights(norms)
        if len(components(n, ii[w > 0], jj[w > 0])) > 1:
            w = np.maximum(w, WEIGHT_FLOOR)
            diagnostics.append(
                "re-weighting disconnected the graph; weights floored at "
                f"{WEIGHT_FLOOR}")
        rhs, _ = _residual_pass(stream, R, w)
        solve = _factor_laplacian(n, ii, jj, w, anchor, config)
        R = _apply_update(R, solve(rhs), anchor, config)
        iterations_run += 1
    return SolveReport(R, loss_history, max_residual_history, iterations_run,
                       anchor, diagnostics)
