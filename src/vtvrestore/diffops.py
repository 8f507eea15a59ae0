"""Discrete gradient, its adjoint, TV seminorms and the shrinkage prox.

A gradient field is stored with the two difference components stacked on
axis -3: ``p[..., 0, :, :]`` holds the x (column) forward differences and
``p[..., 1, :, :]`` the y (row) ones.  Multi-channel fields are stacks of
shape ``(m, 2, h, w)``.  All differences wrap periodically, matching the
circular-convolution framework.

:func:`grad` takes an image or a stack of them, converted by
:func:`~vtvrestore.image.as_stack`.  :func:`grad_adjoint`, :func:`vtv` and
:func:`shrink_iso` take a field: an array of shape ``(..., 2, h, w)``,
checked by one rule (see :func:`_field`) that keeps a float32 ndarray as it
is and converts anything else with ``as_stack``; another shape is a
:class:`~vtvrestore.errors.DimensionMismatchError`, and values that are
not real numbers a :class:`~vtvrestore.errors.NotRealError`.
:func:`shrink` works element-wise on an array or a scalar, and it,
:func:`vtv`'s weights and :func:`shrink_iso`'s threshold take real numbers
(see :func:`~vtvrestore.image.as_reals`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .image import as_reals, as_stack


def _field(p) -> np.ndarray:
    """The one check of a gradient field ``p`` of shape ``(..., 2, h, w)``.

    A float32 ndarray is returned as it is (a single-precision solve's
    blocks pass through here); anything else goes through
    :func:`~vtvrestore.image.as_stack`.  Another shape is a
    :class:`~vtvrestore.errors.DimensionMismatchError`.
    """
    q = p if isinstance(p, np.ndarray) and p.dtype == np.float32 else as_stack(p, "field")
    if q.ndim < 3 or q.shape[-3] != 2:
        raise DimensionMismatchError(f"expected a field of shape (..., 2, h, w), got {q.shape}")
    return q


def grad(u) -> np.ndarray:
    """Forward-difference gradient with periodic wrap.

    ``gx[k, l] = u[k, (l+1) % w] - u[k, l]`` and likewise for rows.
    Operates on the trailing two axes, so channel stacks pass through (see
    :func:`~vtvrestore.image.as_stack`).
    """
    f = as_stack(u)
    gx = np.roll(f, -1, axis=-1) - f
    gy = np.roll(f, -1, axis=-2) - f
    return np.stack((gx, gy), axis=-3)


def grad_adjoint(p) -> np.ndarray:
    """Adjoint of :func:`grad`: backward differences, the negated divergence.

    Satisfies ``<grad(u), p> == <u, grad_adjoint(p)>`` exactly.  Computes
    at float64 whatever the field's dtype.
    """
    q = _field(as_stack(p, "field"))
    px = q[..., 0, :, :]
    py = q[..., 1, :, :]
    return (np.roll(px, 1, axis=-1) - px) + (np.roll(py, 1, axis=-2) - py)


def vtv(p, weights=None, isotropic: bool = False) -> float:
    """Weighted vector TV of a channel stack shaped ``(m, 2, h, w)``.

    A channel's TV is the l1 sum over both components (anisotropic) or the
    sum of per-pixel gradient magnitudes (isotropic).  Sums the per-channel
    TV with weight ``weights[i]`` (ones if omitted): real numbers, one per
    channel (another count is a ``ValueError``), and finite (a NaN or Inf is
    a :class:`~vtvrestore.errors.NonFiniteError`).  A float32 stack is read
    as it is, with the sums accumulated in float64.  A TV past the float
    range is ``inf``.
    """
    q = _field(p)
    w = np.ones(len(q)) if weights is None else as_reals(weights, "weights")
    if w.shape != (len(q),):
        raise ValueError(f"need {len(q)} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteError(f"weights contain NaN or Inf, got {w.tolist()}")
    # a channel's per-pixel norm: the gradient magnitude, or |x| per component
    # in C order, so that a channel sums in one order whatever its strides
    norm = ((lambda c: np.sqrt((c * c).sum(axis=0))) if isotropic
            else (lambda c: np.abs(c, order="C")))
    with np.errstate(over="ignore"):
        per_channel = np.array([norm(c).sum(dtype=np.float64) for c in q])
        return float((w * per_channel).sum())


def shrink(v, threshold) -> np.ndarray:
    """Component-wise soft threshold ``sgn(x) * max(|x| - T, 0)``.

    The exact minimizer of ``T*|d| + (d - v)^2 / 2`` per component for
    ``T >= 0``, with ``sgn(0) = 0``.  ``threshold`` broadcasts, so
    per-channel values can be passed as a ``(m, 1, 1, 1)`` array.  Both
    are real numbers of any shape, 0-D included (see
    :func:`~vtvrestore.image.as_reals`).  Returns a new array.
    """
    x = as_reals(v, "values")
    t = as_reals(threshold, "threshold")
    out = np.empty(np.broadcast_shapes(x.shape, t.shape))
    # x - clip(x, -T, T) rounds exactly as sgn(x) * (|x| - T) outside the
    # dead zone and is zero inside it: two passes, no full-size temporary.
    np.clip(x, -t, t, out=out)
    return np.subtract(x, out, out=out)


def shrink_iso(p, threshold, out=None) -> np.ndarray:
    """Isotropic shrinkage: soft-threshold the per-pixel gradient magnitude.

    Shrinks the length of each ``(gx, gy)`` vector by ``threshold``, keeping
    its direction.  ``threshold`` is real numbers (see
    :func:`~vtvrestore.image.as_reals`) that broadcast against the
    ``(..., h, w)`` magnitude array.  With ``out`` the result is written
    there and ``out`` is returned.  A float32 field is shrunk in float32,
    its threshold cast to float32; an ndarray threshold of the field's
    dtype is used as it is (a single-precision solve's blocks pass one).
    """
    q = _field(p)
    if not (isinstance(threshold, np.ndarray) and threshold.dtype == q.dtype):
        threshold = as_reals(threshold, "threshold").astype(q.dtype)
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
