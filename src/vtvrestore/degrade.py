"""Reproducible degradation synthesis: seeded Gaussian noise and motion blur.

Noise uses numpy's PCG64 generator (``numpy.random.default_rng``) with its
ziggurat normal sampler, so a fixed seed gives a bit-identical noise field on
any platform.  :data:`RNG_DESCRIPTION` names the generator for run metadata.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .image import as_image, is_integer
from .solver import DegradationOp

RNG_DESCRIPTION = "numpy-pcg64-standard-normal"


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise: standard deviation in intensity units.

    ``sigma`` is a real number; ``seed``, an integer (not a bool), seeds
    ``numpy.random.default_rng``, which takes no negative seed.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sigma, numbers.Real) and 0 <= self.sigma < math.inf):
            raise ConfigError(f"sigma must be a finite nonnegative number, got {self.sigma!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


def gaussian_noise(u, spec: NoiseSpec) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise from the seeded generator.

    Deterministic for a fixed seed; ``sigma == 0`` returns an unchanged copy.
    A ``sigma`` whose noise passes the float range gives Inf entries, without
    warnings; the solve's check of its observation reports them.
    """
    clean = as_image(u)
    if spec.sigma == 0:
        return clean.copy()
    rng = np.random.default_rng(spec.seed)
    with np.errstate(over="ignore"):
        return clean + spec.sigma * rng.standard_normal(clean.shape)


def motion_blur_kernel(length: int) -> np.ndarray:
    """Horizontal motion-blur PSF: a 1 x length row of uniform taps.

    ``length`` must be an odd integer (not a bool) so the kernel has a
    center tap.  Length 1 gives the identity kernel.  A length numpy cannot
    allocate is a ConfigError.
    """
    if not (is_integer(length) and length >= 1 and length % 2 == 1):
        raise ConfigError(f"blur length must be an odd integer >= 1, got {length!r}")
    try:
        return np.full((1, length), 1.0 / length)
    except (ValueError, OverflowError, MemoryError):
        raise ConfigError(f"blur length {length} is too large to allocate") from None


def apply_degradation(u, op: DegradationOp, noise: NoiseSpec) -> np.ndarray:
    """Observation model: apply the operator, then add noise."""
    return gaussian_noise(op.apply(as_image(u)), noise)
