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
# diagonal 4w^2, 4x^2, 4y^2, 4z^2, then 4wx, 4wz, 4wy, 4xy, 4yz, 4xz.
_K_ROWS = np.array([[0, 4, 6, 5], [4, 1, 7, 9], [6, 7, 2, 8], [5, 9, 8, 3]])


def batch_exp(vs: np.ndarray) -> np.ndarray:
    """(M, 3) axis-angle vectors -> (M, 3, 3) rotation matrices,
    I + a K + b K^2 with K the skew matrix of v, a = sin(theta) / theta and
    b = (1 - cos(theta)) / theta^2, or their series below ``_SMALL``."""
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    m = vs.shape[0]
    theta2 = np.einsum("ij,ij->i", vs, vs)
    theta = np.sqrt(theta2)
    big = ~(theta < _SMALL)  # a NaN angle takes sin(theta) / theta
    a = 1.0 - theta2 / 6.0
    np.divide(np.sin(theta), theta, out=a, where=big)
    b = 0.5 - theta2 / 24.0
    np.divide(1.0 - np.cos(theta), theta2, out=b, where=big)
    # K = [[0, -z, y], [z, 0, -x], [-y, x, 0]], row by row in 9 entries:
    # y, z at 2:4, x at 7, -x, -y at 5:7 and -z at 1.
    K = np.zeros((m, 9))
    K[:, 2:4] = vs[:, 1:]
    K[:, 7] = vs[:, 0]
    np.negative(vs[:, :2], out=K[:, 5:7])
    np.negative(vs[:, 2], out=K[:, 1])
    K = K.reshape(m, 3, 3)
    KK = K @ K
    np.multiply(a[:, None, None], K, out=K)
    np.multiply(b[:, None, None], KK, out=KK)
    K += KK
    K += _EYE
    return K


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
    r = np.asarray(Rs, dtype=np.float64).reshape(-1, 9).T  # r[3 i + j] = R_ij
    m = r.shape[1]
    K = np.empty((10, m))
    diag = r[::4]
    t = r[0] + r[4]
    t += r[8]
    np.add(1.0, t, out=K[0])
    np.subtract(1.0, t, out=t)
    np.add(diag, diag, out=K[1:4])  # 4 x^2 = 2 r00 + 1 - tr, ...
    K[1:4] += t
    # Pairs of entries at a fixed stride in r, two at a time.
    np.subtract(r[7:2:-4], r[5:0:-4], out=K[4:6])  # r21 - r12, r10 - r01
    np.subtract(r[2], r[6], out=K[6])               # r02 - r20
    np.add(r[1:6:4], r[3:8:4], out=K[7:9])          # r01 + r10, r12 + r21
    np.add(r[2], r[6], out=K[9])                    # r02 + r20
    # The largest diagonal entry and its row k, as two pairs then their
    # winners: a fifth of the time of argmax and max along the first axis.
    tops = np.maximum(K[0:4:2], K[1:4:2])   # max(d0, d1), max(d2, d3)
    later = np.greater(K[1:4:2], K[0:4:2])  # d1 > d0, d3 > d2
    k = np.where(tops[1] > tops[0], later[1] + 2, later[0])
    idx = _K_ROWS.take(k, axis=0)
    idx *= m
    idx += np.arange(m)[:, None]
    q = K.take(idx)  # (M, 4): w, x, y, z
    top = np.maximum(tops[0], tops[1])
    np.sqrt(top, out=top)
    top += top
    q /= top[:, None]
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
    t = y * y
    s += t
    np.multiply(z, z, out=t)
    s += t
    np.sqrt(s, out=s)
    theta = np.abs(w)
    np.arctan2(s, theta, out=theta)
    theta += theta
    # theta / |v|, and its limit 2 where |v| = 0.
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(theta, s, out=t)
    t[s == 0.0] = 2.0
    np.copysign(t, w, out=t)
    v = np.empty((3, len(ra)))
    np.multiply(x, t, out=v[0])
    np.multiply(y, t, out=v[1])
    np.multiply(z, t, out=v[2])
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
