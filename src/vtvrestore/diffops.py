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


def _floating(p) -> np.ndarray:
    """``p`` as an array, float64 unless it is float32 already."""
    q = np.asarray(p)
    return q if q.dtype == np.float32 else np.asarray(q, dtype=np.float64)


def vtv(p, weights=None, isotropic: bool = False) -> float:
    """Weighted vector TV of a channel stack shaped ``(m, 2, h, w)``.

    A channel's TV is the l1 sum over both components (anisotropic) or the
    sum of per-pixel gradient magnitudes (isotropic).  Sums the per-channel
    TV with weight ``weights[i]`` (ones if omitted).  A float32 stack is read
    as it is, with the sums accumulated in float64.  A TV past the float
    range is ``inf``.
    """
    q = _floating(p)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (q.shape[0],):
            raise ValueError(f"need {q.shape[0]} weights, got shape {w.shape}")
    with np.errstate(over="ignore"):
        if isotropic:
            per_channel = np.array(
                [np.sqrt((c * c).sum(axis=0)).sum(dtype=np.float64) for c in q]
            )
        else:
            per_channel = np.array([np.abs(c).sum(dtype=np.float64) for c in q])
        if weights is None:
            return float(per_channel.sum())
        return float((w * per_channel).sum())


def shrink(v, threshold) -> np.ndarray:
    """Component-wise soft threshold ``sgn(x) * max(|x| - T, 0)``.

    The exact minimizer of ``T*|d| + (d - v)^2 / 2`` per component for
    ``T >= 0``, with ``sgn(0) = 0``.  ``threshold`` broadcasts, so
    per-channel values can be passed as a ``(m, 1, 1, 1)`` array.  Returns
    a new array.
    """
    x = np.asarray(v, dtype=np.float64)
    t = np.asarray(threshold, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(x.shape, t.shape))
    # x - clip(x, -T, T) rounds exactly as sgn(x) * (|x| - T) outside the
    # dead zone and is zero inside it: two passes, no full-size temporary.
    np.clip(x, -t, t, out=out)
    return np.subtract(x, out, out=out)


def shrink_iso(p, threshold, out=None) -> np.ndarray:
    """Isotropic shrinkage: soft-threshold the per-pixel gradient magnitude.

    Shrinks the length of each ``(gx, gy)`` vector by ``threshold``, keeping
    its direction.  ``threshold`` broadcasts against the ``(..., h, w)``
    magnitude array.  With ``out`` the result is written there and ``out``
    is returned.  A float32 field is shrunk in float32.
    """
    q = _floating(p)
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
