"""Gauge alignment and rotation-error statistics.

Estimates are only defined up to one global rotation, so all statistics
first solve the chordal alignment problem

    S* = argmin_{S in SO(3)} sum_i || S - R_i^T Rhat_i ||_F^2

(closed form: project the summed matrix onto SO(3)) and then measure
per-camera angles between R_i S* and Rhat_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidArgumentError
from .so3 import project_to_so3

DEFAULT_THRESHOLDS_DEG = (3.0, 5.0, 10.0)


@dataclass(frozen=True, eq=False)
class AlignedErrorStats:
    per_camera_errors: np.ndarray       # radians, each in [0, pi]
    mean: float                         # radians
    median: float                       # radians
    accuracy: dict[float, float]        # threshold in degrees -> fraction
    gauge: np.ndarray                   # the aligning rotation S*


def _check_pair(estimates, ground_truth):
    est = np.asarray(estimates, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if est.ndim != 3 or est.shape[1:] != (3, 3) or est.shape[0] == 0:
        raise InvalidArgumentError(f"estimates must be (N, 3, 3), got {est.shape}")
    if gt.shape != est.shape:
        raise InvalidArgumentError(
            f"shape mismatch: estimates {est.shape} vs ground truth {gt.shape}")
    return est, gt


def _gauge(est, gt):
    """S* for a checked pair: the summed R_i^T Rhat_i projected onto SO(3)."""
    return project_to_so3(np.einsum("nji,njk->ik", est, gt))


def align(estimates, ground_truth) -> np.ndarray:
    """Gauge rotation S* minimizing the summed chordal distance."""
    return _gauge(*_check_pair(estimates, ground_truth))


def error_stats(estimates, ground_truth,
                thresholds_deg=DEFAULT_THRESHOLDS_DEG) -> AlignedErrorStats:
    """Aligned per-camera errors plus mean / median / accuracy summaries.

    The median and every accuracy come from one sorted copy of the errors,
    with the bits of ``np.median`` and ``np.mean(errors_deg <= t)``: NaN
    errors sort last and make the median NaN, and a NaN threshold counts
    no camera.
    """
    est, gt = _check_pair(estimates, ground_truth)
    gauge = _gauge(est, gt)
    # Angle of gt^T @ (est @ gauge) per camera. Computed through batch_log,
    # whose 2 atan2(|v|, |w|) of the unit quaternion agrees with
    # arccos((trace - 1) / 2) but stays accurate near zero angle, where
    # arccos loses half the significant digits, and near pi.
    rel = np.transpose(gt, (0, 2, 1)) @ (est @ gauge)
    errors = np.linalg.norm(kernels.batch_log(rel), axis=1)
    n = len(errors)
    mean = float(errors.sum()) / n
    ranked = np.sort(errors)
    half = n // 2
    if ranked[-1] != ranked[-1]:
        # A NaN error, carried as the mean carries it: np.sort would
        # replace it by the canonical NaN, np.median keeps its bits.
        median = mean
    elif n % 2:
        median = float(ranked[half])
    else:
        median = (float(ranked[half - 1]) + float(ranked[half])) / 2
    keys = [float(t) for t in thresholds_deg]
    counts = np.degrees(ranked).searchsorted(keys, side="right").tolist()
    accuracy = {t: c / n if t == t else 0.0 for t, c in zip(keys, counts)}
    return AlignedErrorStats(
        per_camera_errors=errors,
        mean=mean,
        median=median,
        accuracy=accuracy,
        gauge=gauge,
    )


def alignment_loss(estimates, ground_truth) -> float:
    """Mean Frobenius distance between aligned estimates and ground truth."""
    est, gt = _check_pair(estimates, ground_truth)
    diff = est @ _gauge(est, gt) - gt
    return float(np.mean(np.linalg.norm(diff, axis=(1, 2))))
