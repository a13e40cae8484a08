"""Batched SO(3) kernels: exp, log and edge residuals.

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


def _batch_log(Rs: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotation matrices -> (M, 3) canonical axis-angle vectors.

    The skew part v = 2 sin(theta) * axis and the trace 1 + 2 cos(theta)
    give theta = atan2(|v|, tr - 1) and the vector theta / |v| * v for all
    rows at once. Near pi the skew part vanishes and loses the axis, so
    rows with tr < -0.8 (theta above about 2.69) take it from the
    symmetric part instead: R + R^T - (tr - 1) I = 2 (1 - cos theta) a a^T,
    whose column with the largest diagonal entry is the axis a up to a
    sign, and the sign is that of v. Either antipodal axis may come out at
    exactly pi.
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
        B = Rs.take(far, axis=0)
        B += B.transpose(0, 2, 1)
        diag = B.reshape(-1, 9)[:, ::4]  # a view: B's diagonal
        diag -= (tr[far] - 1.0)[:, None]
        axis = B[np.arange(far.size), :, diag.argmax(axis=1)]
        dot = np.einsum("ij,ij->i", axis, v.take(far, axis=0))
        axis *= np.copysign(theta[far] / np.sqrt(np.einsum("ij,ij->i", axis, axis)),
                            dot)[:, None]
        out[far] = axis
    return out


# Exported under the public name; edge_residuals calls the private one, so
# a wrapper put on ``kernels.batch_log`` sees only outside callers.
batch_log = _batch_log


def edge_residuals(Ri: np.ndarray, Rj: np.ndarray, Rij: np.ndarray) -> np.ndarray:
    """Per-edge tangent residuals log(Rj^T @ Rij @ Ri), all (M, 3, 3) stacked."""
    return _batch_log(np.transpose(Rj, (0, 2, 1)) @ Rij @ Ri)
