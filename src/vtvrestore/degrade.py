"""Reproducible degradation synthesis: seeded Gaussian noise and motion blur.

Noise uses numpy's PCG64 generator (``numpy.random.default_rng``) with its
ziggurat normal sampler, so a fixed seed gives a bit-identical noise field on
any platform.  :data:`RNG_DESCRIPTION` names the generator for run metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .solver import DegradationOp

RNG_DESCRIPTION = "numpy-pcg64-standard-normal"


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise: standard deviation in intensity units.

    ``seed`` seeds ``numpy.random.default_rng``, which takes no negative seed.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def gaussian_noise(u, spec: NoiseSpec) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise from the seeded generator.

    Deterministic for a fixed seed; ``sigma == 0`` returns an unchanged copy.
    """
    clean = np.asarray(u, dtype=np.float64)
    if spec.sigma == 0:
        return clean.copy()
    rng = np.random.default_rng(spec.seed)
    return clean + spec.sigma * rng.standard_normal(clean.shape)


def motion_blur_kernel(length: int) -> np.ndarray:
    """Horizontal motion-blur PSF: a 1 x length row of uniform taps.

    ``length`` must be odd so the kernel has a center tap.  Length 1 gives
    the identity kernel.
    """
    if length < 1 or length % 2 == 0:
        raise ConfigError(f"blur length must be odd and >= 1, got {length}")
    return np.full((1, length), 1.0 / length)


def apply_degradation(u, op: DegradationOp, noise: NoiseSpec) -> np.ndarray:
    """Observation model: apply the operator, then add noise."""
    return gaussian_noise(op.apply(u), noise)
