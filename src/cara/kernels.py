"""Batched SO(3) kernels: exp, log, quaternions and edge residuals.

The solvers' inner loop runs through these, over all edges at once, in
vectorized numpy. Edge residuals are swept in unit quaternions, each held
as a Cayley-Dickson pair of complex numbers (w + x i, y + z i), so that
numpy multiplies quaternions with complex multiplies: each rotation is
converted once by :func:`batch_quat` to a column of a (2, M) complex
array, and :func:`quat_residuals` takes one quaternion product per edge
and its log, the one :func:`batch_log` takes of each rotation's own. There
is one implementation; ``BACKEND`` names it for records of what ran.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_SMALL = 1e-6
_EYE = np.eye(3)
# Row k of K = 4 q q^T as indices into its ten distinct entries: the
# diagonal 4w^2, 4x^2, 4y^2, 4z^2, then 4wx, 4wy, 4wz, 4xy, 4xz, 4yz.
_K_ROWS = np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3]])


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


def batch_log(Rs: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotation matrices -> (M, 3) canonical axis-angle vectors,
    from their quaternions as :func:`quat_residuals` takes its log. At
    exactly pi either antipodal vector may come out."""
    a, b = batch_quat(Rs)
    return _log_tail(a, b)[0].T


def batch_quat(Rs: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotation matrices -> (2, M) complex quaternion pairs.

    The quaternion w + x i + y j + z k is stored as its Cayley-Dickson
    pair a = w + x i, b = y + z i (see :func:`quat_residuals`); the pairs
    are a view of an (M, 2) complex array whose rows hold (w, x, y, z).
    Shepperd's conversion without a per-case loop: K = 4 q q^T is linear
    in R, and its row k is 4 q_k q, so the row with the largest diagonal
    entry divided by 2 sqrt(K_kk) is q or -q, whichever has q_k > 0.
    Both signs describe the same rotation.
    """
    r = np.asarray(Rs, dtype=np.float64).reshape(-1, 9).T
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    m = r.shape[1]
    K = np.empty((10, m))
    t = r00 + r11 + r22
    np.add(1.0, t, out=K[0])
    np.subtract(1.0, t, out=t)
    for a, raa in ((1, r00), (2, r11), (3, r22)):  # 4 x^2 = 1 - tr + 2 r00, ...
        np.add(raa, raa, out=K[a])
        K[a] += t
    np.subtract(r21, r12, out=K[4])
    np.subtract(r02, r20, out=K[5])
    np.subtract(r10, r01, out=K[6])
    np.add(r01, r10, out=K[7])
    np.add(r02, r20, out=K[8])
    np.add(r12, r21, out=K[9])
    # The largest diagonal entry and its row k, as two pairs then their
    # winners: a fifth of the time of argmax and max along the first axis.
    d0, d1, d2, d3 = K[:4]
    top, top23 = np.maximum(d0, d1), np.maximum(d2, d3)
    k = np.where(top23 > top, 2 + (d3 > d2), d1 > d0)
    q = K.take(_K_ROWS[k] * m + np.arange(m)[:, None])  # (M, 4): w, x, y, z
    np.maximum(top, top23, out=top)
    q /= (2.0 * np.sqrt(top))[:, None]
    return q.view(complex).T


def _add(a, b, out):
    """a + b for complex arrays, as float adds: numpy's complex add is
    about half as fast as its complex multiply."""
    np.add(a.view(float), b.view(float), out=out.view(float))


def _subtract(a, b, out):
    np.subtract(a.view(float), b.view(float), out=out.view(float))


def _log_tail(ra, rb):
    """Log of the (M,) quaternion pairs (ra, rb), either sign each: (3, M)
    axis-angle vectors and (M,) angles (see :func:`quat_residuals`)."""
    w, x, y, z = ra.real, ra.imag, rb.real, rb.imag
    s = x * x
    s += y * y
    s += z * z
    np.sqrt(s, out=s)
    theta = np.abs(w)
    np.arctan2(s, theta, out=theta)
    theta *= 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = theta / s
    scale[s == 0.0] = 2.0
    del s
    np.copysign(scale, w, out=scale)
    v = np.empty((3, len(ra)))
    for row, c in zip(v, (x, y, z)):
        np.multiply(c, scale, out=row)
    return v, theta


def quat_residuals(qi: np.ndarray, qj: np.ndarray, qij: np.ndarray):
    """Edge residuals log(Rj^T Rij Ri) from the (2, M) quaternion pairs of
    Ri, Rj and Rij (see :func:`batch_quat`), either sign each: returns
    (3, M) axis-angle vectors and the (M,) angles.

    A pair (a, b) is the quaternion a + b j with complex a and b, and
    (a1, b1) (a2, b2) = (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)), four
    complex multiplies where the Hamilton product takes sixteen real
    ones. The residual's quaternion is conj(qj) qij qi = (w, v), with
    conj(a, b) = (conj(a), -b); its angle is theta = 2 atan2(|v|, |w|)
    and its vector copysign(theta / |v|, w) v (the factor is 2 where
    |v| = 0). Flipping the sign of w flips v with it, so q and -q give the
    same vector, and atan2 stays exact near both 0 and pi without a
    branch. At exactly pi either antipodal vector may come out.
    """
    return residual_log(conj_product(qj, qij), qi)


def conj_product(qj: np.ndarray, qij: np.ndarray) -> np.ndarray:
    """conj(qj) qij as a (2, M) array of pairs: the first half of
    :func:`quat_residuals`."""
    (aj, bj), (e, f) = qj, qij
    m = len(e)
    # No complex multiply writes over one of its inputs: numpy computes a
    # one-element product written over an input without FMA and every
    # other product with it, so the bits would depend on the chunking.
    pa, pb = p = np.empty((2, m), complex)
    t, u = np.empty((2, m), complex)
    # (pa, pb) = (conj(aj) e + bj conj(f), conj(aj) f - bj conj(e))
    np.conjugate(aj, out=t)
    np.multiply(t, e, out=pa)
    np.multiply(t, f, out=pb)
    np.conjugate(f, out=t)
    np.multiply(bj, t, out=u)
    _add(pa, u, out=pa)
    np.conjugate(e, out=t)
    np.multiply(bj, t, out=u)
    _subtract(pb, u, out=pb)
    return p


def residual_log(p: np.ndarray, qi: np.ndarray):
    """Log of the (2, M) pairs p qi, as (3, M) vectors and (M,) angles: the
    second half of :func:`quat_residuals`. ``p`` is written over, and
    inputs passed as temporaries are freed before the log is taken."""
    (pa, pb), (ai, bi) = p, qi
    t, u = np.empty((2, len(pa)), complex)
    # (ra, rb) = p qi = (pa ai - pb conj(bi), pa bi + conj(conj(pb) ai))
    np.conjugate(bi, out=u)
    np.multiply(pb, u, out=t)
    ra = np.multiply(pa, ai, out=u)
    _subtract(ra, t, out=ra)
    rb = np.multiply(pa, bi, out=t)
    np.conjugate(pb, out=pb)
    np.multiply(pb, ai, out=pa)
    np.conjugate(pa, out=pa)
    _add(rb, pa, out=rb)
    del p, pa, pb, qi, ai, bi
    return _log_tail(ra, rb)


def edge_residuals(Ri: np.ndarray, Rj: np.ndarray, Rij: np.ndarray) -> np.ndarray:
    """Per-edge tangent residuals log(Rj^T @ Rij @ Ri), all (M, 3, 3)
    stacked, as (M, 3): the solver's quaternion sweep on matrices."""
    return quat_residuals(batch_quat(Ri), batch_quat(Rj), batch_quat(Rij))[0].T
