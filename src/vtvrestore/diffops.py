"""Discrete gradient, its adjoint, TV seminorms and the shrinkage prox.

A gradient field is stored with the two difference components stacked on
axis -3: ``p[..., 0, :, :]`` holds the x (column) forward differences and
``p[..., 1, :, :]`` the y (row) ones.  Multi-channel fields are stacks of
shape ``(m, 2, h, w)``.  All differences wrap periodically, matching the
circular-convolution framework.
"""

from __future__ import annotations

import numpy as np

#: Convolution taps realizing the forward differences (see tests).
FORWARD_DIFF_X = np.array([[1.0, -1.0, 0.0]])
FORWARD_DIFF_Y = np.array([[1.0], [-1.0], [0.0]])


def grad(u) -> np.ndarray:
    """Forward-difference gradient with periodic wrap.

    ``gx[k, l] = u[k, (l+1) % w] - u[k, l]`` and likewise for rows.
    Operates on the trailing two axes, so channel stacks pass through.
    """
    f = np.asarray(u, dtype=np.float64)
    gx = np.roll(f, -1, axis=-1) - f
    gy = np.roll(f, -1, axis=-2) - f
    return np.stack((gx, gy), axis=-3)


def grad_adjoint(p) -> np.ndarray:
    """Adjoint of :func:`grad`: backward differences, the negated divergence.

    Satisfies ``<grad(u), p> == <u, grad_adjoint(p)>`` exactly.
    """
    q = np.asarray(p, dtype=np.float64)
    px = q[..., 0, :, :]
    py = q[..., 1, :, :]
    return (np.roll(px, 1, axis=-1) - px) + (np.roll(py, 1, axis=-2) - py)


def tv_aniso(p) -> float:
    """Anisotropic TV of a field: the plain l1 sum over all components."""
    return float(np.abs(p).sum())


def tv_iso(p) -> float:
    """Isotropic TV: sum of per-pixel gradient magnitudes."""
    q = np.asarray(p, dtype=np.float64)
    return float(np.sqrt((q * q).sum(axis=-3)).sum())


def vtv(p, weights=None, isotropic: bool = False) -> float:
    """Weighted vector TV of a channel stack shaped ``(m, 2, h, w)``.

    Sums the per-channel TV with weight ``weights[i]`` (ones if omitted).
    """
    q = np.asarray(p, dtype=np.float64)
    measure = tv_iso if isotropic else tv_aniso
    per_channel = np.array([measure(q[i]) for i in range(q.shape[0])])
    if weights is None:
        return float(per_channel.sum())
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (q.shape[0],):
        raise ValueError(f"need {q.shape[0]} weights, got shape {w.shape}")
    return float((w * per_channel).sum())


def shrink(v, threshold, out=None) -> np.ndarray:
    """Component-wise soft threshold ``sgn(x) * max(|x| - T, 0)``.

    The exact minimizer of ``T*|d| + (d - v)^2 / 2`` per component for
    ``T >= 0``, with ``sgn(0) = 0``.  ``threshold`` broadcasts, so
    per-channel values can be passed as a ``(m, 1, 1, 1)`` array.  With
    ``out`` the result is written there (it must not overlap ``v``) and
    ``out`` is returned.
    """
    x = np.asarray(v, dtype=np.float64)
    t = np.asarray(threshold, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, t.shape))
    elif np.may_share_memory(x, out):
        raise ValueError("shrink: out must not overlap the input")
    # x - clip(x, -T, T) rounds exactly as sgn(x) * (|x| - T) outside the
    # dead zone and is zero inside it: two passes, no full-size temporary.
    np.clip(x, -t, t, out=out)
    return np.subtract(x, out, out=out)


def shrink_iso(p, threshold, out=None) -> np.ndarray:
    """Isotropic shrinkage: soft-threshold the per-pixel gradient magnitude.

    Shrinks the length of each ``(gx, gy)`` vector by ``threshold``, keeping
    its direction.  ``threshold`` broadcasts against the ``(..., h, w)``
    magnitude array.  With ``out`` the result is written there and ``out``
    is returned.
    """
    q = np.asarray(p, dtype=np.float64)
    px = q[..., 0, :, :]
    py = q[..., 1, :, :]
    mag = px * px
    mag += py * py
    np.sqrt(mag, out=mag)
    # max(|p| - T, 0) / |p|; where |p| = 0 the vector is zero whatever the scale
    scale = mag - threshold
    np.maximum(scale, 0.0, out=scale)
    np.divide(scale, mag, out=scale, where=mag > 0)
    return np.multiply(q, np.expand_dims(scale, axis=-3), out=out)
