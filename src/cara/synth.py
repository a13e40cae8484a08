"""Synthetic confidence-graph generator.

Stands in for a learned front-end: ground-truth rotations are drawn
uniformly on SO(3), relative rotations are perturbed (inliers) or
replaced with uniform random rotations (outliers), and confidences come
from a pluggable model. Everything is deterministic under the seed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import graph as graphmod
from . import kernels, so3
from .errors import GenerationError, GraphParseError, InvalidArgumentError
from .graph import EdgeStream

TOPOLOGIES = ("complete", "erdos", "chain_window")
CONFIDENCE_MODELS = ("oracle", "informative", "constant", "adversarial")

ERDOS_MAX_RETRIES = 100
# Oracle confidence of an outlier edge.
ORACLE_EPS = 0.01
# Informative confidences: a Gaussian of the edge's error (rad) with this
# scale, plus uniform jitter of this half-width, clipped to [0, 1].
INFORMATIVE_SCALE = math.radians(10.0)
INFORMATIVE_JITTER = 0.05


@dataclass(frozen=True)
class SyntheticSceneSpec:
    n: int
    topology: str = "complete"
    erdos_p: float = 0.5
    chain_window: int = 1
    noise_sigma: float = 0.0              # radians
    outlier_edge_fraction: float = 0.0
    confidence_model: str = "oracle"
    constant_confidence: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "chain_window", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise InvalidArgumentError(f"{name} must be an integer") from None
        if self.n < 2:
            raise InvalidArgumentError("need at least 2 cameras")
        if self.topology not in TOPOLOGIES:
            raise InvalidArgumentError(f"unknown topology {self.topology!r}")
        if self.confidence_model not in CONFIDENCE_MODELS:
            raise InvalidArgumentError(
                f"unknown confidence model {self.confidence_model!r}")
        if not 0.0 <= self.outlier_edge_fraction <= 1.0:
            raise InvalidArgumentError("outlier_edge_fraction must be in [0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise InvalidArgumentError("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.constant_confidence <= 1.0:
            raise InvalidArgumentError("constant_confidence must be in [0, 1]")
        if self.topology == "chain_window" and self.chain_window < 1:
            raise InvalidArgumentError("chain_window must be >= 1")
        if self.topology == "erdos" and not 0.0 < self.erdos_p <= 1.0:
            raise InvalidArgumentError("erdos_p must be in (0, 1]")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    graph: EdgeStream
    edge_labels: np.ndarray           # bool per edge, True = inlier
    true_edge_errors: np.ndarray      # radians per edge
    spec: SyntheticSceneSpec


def _topology_pairs(spec: SyntheticSceneSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoints (ii, jj), i < j, in lexicographic order."""
    n = spec.n
    if spec.topology == "chain_window":
        w = min(spec.chain_window, n - 1)
        ii = np.repeat(np.arange(n), w)
        jj = ii + np.tile(np.arange(1, w + 1), n)
        return ii[jj < n], jj[jj < n]
    ii, jj = np.triu_indices(n, 1)
    if spec.topology == "complete":
        return ii, jj
    # erdos: re-draw until connected
    for _ in range(ERDOS_MAX_RETRIES):
        keep = rng.random(len(ii)) < spec.erdos_p
        if len(graphmod.components(n, ii[keep], jj[keep])) == 1:
            return ii[keep], jj[keep]
    raise GenerationError(
        f"erdos(p={spec.erdos_p}) stayed disconnected after "
        f"{ERDOS_MAX_RETRIES} attempts")


def _quat_rotations(q: np.ndarray) -> np.ndarray:
    """Uniform rotations from (M, 4) Gaussian quaternions, normalized per row."""
    return so3.matrix_from_quat(q / np.linalg.norm(q, axis=1, keepdims=True))


def _geodesic_errors(rotations: np.ndarray, true_rel: np.ndarray) -> np.ndarray:
    """Geodesic angle between each edge's rotation and its true one."""
    return np.linalg.norm(kernels.batch_log(rotations @ true_rel.transpose(0, 2, 1)), axis=1)


def _confidences(spec: SyntheticSceneSpec, inlier: np.ndarray,
                 errors: np.ndarray, rng) -> np.ndarray:
    m = len(errors)
    if spec.confidence_model == "oracle":
        return np.where(inlier, 1.0, ORACLE_EPS)
    if spec.confidence_model == "informative":
        base = np.exp(-errors ** 2 / (2.0 * INFORMATIVE_SCALE ** 2))
        jitter = rng.uniform(-INFORMATIVE_JITTER, INFORMATIVE_JITTER, m)
        return np.clip(base + jitter, 0.0, 1.0)
    if spec.confidence_model == "constant":
        return np.full(m, spec.constant_confidence)
    return rng.uniform(0.0, 1.0, m)  # adversarial


def generate(spec: SyntheticSceneSpec) -> SyntheticScene:
    """Build a scene: ground truth, noisy/outlier edges, confidences.

    The draw order is fixed: ground-truth quaternions, erdos coin flips, the
    outlier permutation, then per edge in edge order three noise normals
    (inlier) or four quaternion normals (outlier), then confidences.
    """
    rng = np.random.default_rng(spec.seed)
    gt = _quat_rotations(rng.standard_normal((spec.n, 4)))
    ii, jj = _topology_pairs(spec, rng)
    m = len(ii)
    n_outliers = int(round(spec.outlier_edge_fraction * m))
    inlier = np.ones(m, dtype=bool)
    inlier[rng.permutation(m)[:n_outliers]] = False

    width = np.where(inlier, 3, 4)
    start = np.cumsum(width) - width
    draws = rng.standard_normal(int(width.sum()))
    k_in, k_out = np.flatnonzero(inlier), np.flatnonzero(~inlier)
    true_rel = gt[jj] @ gt[ii].transpose(0, 2, 1)
    rotations = np.empty((m, 3, 3))
    noise = spec.noise_sigma * draws[start[k_in, None] + np.arange(3)]
    rotations[k_in] = true_rel[k_in] @ kernels.batch_exp(noise)
    rotations[k_out] = _quat_rotations(draws[start[k_out, None] + np.arange(4)])
    errors = _geodesic_errors(rotations, true_rel)

    conf = _confidences(spec, inlier, errors, rng)
    g = graphmod.build(spec.n, ii, jj, rotations, conf, ground_truth=gt)
    return SyntheticScene(g, inlier, errors, spec)


def corrupt_with_outlier_vertices(scene: SyntheticScene, k: int,
                                  seed: int) -> SyntheticScene:
    """Append k vertices whose every incident edge is an outlier.

    New vertices are connected to every other vertex (original and
    appended); all their relative rotations are uniform random, and
    confidences follow the scene's confidence model with the actual
    errors.
    """
    if k < 0:
        raise InvalidArgumentError("k must be nonnegative")
    if k == 0:
        return scene
    rng = np.random.default_rng(seed)
    spec = scene.spec
    old = scene.graph
    n_old = old.n_vertices
    n_new = n_old + k
    gt = np.concatenate([old.ground_truth,
                         _quat_rotations(rng.standard_normal((k, 4)))])

    # Lexicographic order: each old vertex to every new one, then new to new.
    a, b = np.triu_indices(k, 1)
    new_ii = np.concatenate([np.repeat(np.arange(n_old), k), n_old + a])
    new_jj = np.concatenate([np.tile(np.arange(n_old, n_new), n_old), n_old + b])
    rotations = _quat_rotations(rng.standard_normal((len(new_ii), 4)))
    errors = _geodesic_errors(rotations, gt[new_jj] @ gt[new_ii].transpose(0, 2, 1))
    inlier = np.zeros(len(new_ii), dtype=bool)
    conf = _confidences(spec, inlier, errors, rng)

    g = graphmod.build(n_new, np.concatenate([old.ii, new_ii]),
                       np.concatenate([old.jj, new_jj]),
                       np.concatenate([old.rotations, rotations]),
                       np.concatenate([old.confidences, conf]), ground_truth=gt)
    return SyntheticScene(
        g,
        np.concatenate([scene.edge_labels, inlier]),
        np.concatenate([scene.true_edge_errors, errors]),
        replace(spec, n=n_new),
    )


def confidence_error_table(scene: SyntheticScene, n_bins: int):
    """Bin edges by confidence into equal intervals over [0, 1].

    Returns a list of (mean_error, median_error, count) per bin; empty
    bins carry count 0 and NaN statistics.
    """
    if n_bins < 1:
        raise InvalidArgumentError("n_bins must be >= 1")
    conf = scene.graph.confidences
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    rows = []
    for b in range(n_bins):
        errs = scene.true_edge_errors[idx == b]
        if len(errs) == 0:
            rows.append((math.nan, math.nan, 0))
        else:
            rows.append((float(np.mean(errs)), float(np.median(errs)), len(errs)))
    return rows


def serialize_labels(scene: SyntheticScene) -> str:
    """Sidecar label file: LABEL <i> <j> <inlier|outlier> <true_error_rad>."""
    lines = []
    for i, j, lab, err in zip(scene.graph.ii.tolist(), scene.graph.jj.tolist(),
                              scene.edge_labels, scene.true_edge_errors):
        word = "inlier" if lab else "outlier"
        lines.append(f"LABEL {i} {j} {word} {err:.17g}")
    return "\n".join(lines) + "\n"


def parse_labels(text: str):
    """Parse a label sidecar into ({(i, j): is_inlier}, {(i, j): error})."""
    labels: dict[tuple[int, int], bool] = {}
    errors: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "LABEL" or len(parts) != 5:
            raise GraphParseError(lineno, "expected LABEL <i> <j> <kind> <error>")
        try:
            i, j = int(parts[1]), int(parts[2])
            err = float(parts[4])
        except ValueError as exc:
            raise GraphParseError(lineno, str(exc)) from exc
        if parts[3] not in ("inlier", "outlier"):
            raise GraphParseError(lineno, f"unknown label kind {parts[3]!r}")
        labels[(i, j)] = parts[3] == "inlier"
        errors[(i, j)] = err
    return labels, errors
