"""Batched SO(3) kernels: exp, log, quaternion and edge residuals.

The solvers' inner loop runs through these, over all edges at once, in
vectorized numpy. There is one implementation; ``BACKEND`` names it for
records that log which kernels ran.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_SMALL = 1e-6
_EYE = np.eye(3)


def batch_exp(vs: np.ndarray) -> np.ndarray:
    """(M, 3) axis-angle vectors -> (M, 3, 3) rotation matrices."""
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    m = vs.shape[0]
    theta2 = np.einsum("ij,ij->i", vs, vs)
    theta = np.sqrt(theta2)
    small = theta < _SMALL
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - theta2 / 24.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    K = np.zeros((m, 3, 3))
    K[:, 0, 1] = -vs[:, 2]
    K[:, 0, 2] = vs[:, 1]
    K[:, 1, 0] = vs[:, 2]
    K[:, 1, 2] = -vs[:, 0]
    K[:, 2, 0] = -vs[:, 1]
    K[:, 2, 1] = vs[:, 0]
    out = a[:, None, None] * K + b[:, None, None] * (K @ K)
    out += _EYE
    return out


def batch_quat(Rs: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotation matrices -> (M, 4) unit quaternions (w,x,y,z), w >= 0."""
    Rs = np.ascontiguousarray(Rs, dtype=np.float64)
    m = Rs.shape[0]
    d0, d1, d2 = Rs[:, 0, 0], Rs[:, 1, 1], Rs[:, 2, 2]
    t = d0 + d1 + d2
    # Shepperd: per matrix, branch on the largest of (trace, R00, R11, R22).
    cand = np.stack([t, d0, d1, d2], axis=1)
    case = np.argmax(cand, axis=1)

    q = np.empty((m, 4))
    A = Rs
    for c in range(4):
        idx = np.nonzero(case == c)[0]
        if idx.size == 0:
            continue
        R = A[idx]
        if c == 0:
            r = np.sqrt(1.0 + t[idx])
            s = 0.5 / r
            q[idx, 0] = 0.5 * r
            q[idx, 1] = (R[:, 2, 1] - R[:, 1, 2]) * s
            q[idx, 2] = (R[:, 0, 2] - R[:, 2, 0]) * s
            q[idx, 3] = (R[:, 1, 0] - R[:, 0, 1]) * s
        else:
            i = c - 1
            j = (i + 1) % 3
            k = (i + 2) % 3
            r = np.sqrt(1.0 - t[idx] + 2.0 * R[:, i, i])
            s = 0.5 / r
            q[idx, 0] = (R[:, k, j] - R[:, j, k]) * s
            q[idx, 1 + i] = 0.5 * r
            q[idx, 1 + j] = (R[:, j, i] + R[:, i, j]) * s
            q[idx, 1 + k] = (R[:, k, i] + R[:, i, k]) * s
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    flip = q[:, 0] < 0
    q[flip] = -q[flip]
    return q


def _log_from_quat(q: np.ndarray) -> np.ndarray:
    """(M, 4) unit quaternions (w >= 0) -> (M, 3) axis-angle vectors."""
    n = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(n, q[:, 0])
    small = n < _SMALL
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 2.0 + angle * angle / 12.0,
                         angle / np.where(small, 1.0, n))
    return scale[:, None] * q[:, 1:]


def _batch_log(Rs: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotation matrices -> (M, 3) canonical axis-angle vectors.

    The skew part v = 2 sin(theta) * axis and the trace 1 + 2 cos(theta)
    give theta = atan2(|v|, tr - 1) and the vector theta / |v| * v for all
    rows at once. Near pi the skew part vanishes and loses the axis, so
    rows with tr < -0.8 (theta above about 2.69) go through the Shepperd
    quaternion instead.
    """
    Rs = np.ascontiguousarray(Rs, dtype=np.float64)
    v = np.stack([Rs[:, 2, 1] - Rs[:, 1, 2], Rs[:, 0, 2] - Rs[:, 2, 0],
                  Rs[:, 1, 0] - Rs[:, 0, 1]], axis=1)
    tr = Rs[:, 0, 0] + Rs[:, 1, 1] + Rs[:, 2, 2]
    s = np.sqrt(np.einsum("ij,ij->i", v, v))
    theta = np.arctan2(s, tr - 1.0)
    small = theta < _SMALL
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 0.5 + theta * theta / 12.0, theta / s)
    out = scale[:, None] * v
    far = np.flatnonzero(tr < -0.8)
    if far.size:
        out[far] = _log_from_quat(batch_quat(Rs[far]))
    return out


# Exported under the public name; edge_residuals calls the private one, so
# a wrapper put on ``kernels.batch_log`` sees only outside callers.
batch_log = _batch_log


def edge_residuals(Ri: np.ndarray, Rj: np.ndarray, Rij: np.ndarray) -> np.ndarray:
    """Per-edge tangent residuals log(Rj^T @ Rij @ Ri), all (M, 3, 3) stacked."""
    return _batch_log(np.transpose(Rj, (0, 2, 1)) @ Rij @ Ri)
