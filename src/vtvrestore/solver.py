"""Split Bregman solver for the feature-space vector-TV restoration model.

The objective over images ``u`` is

    sum_i lam_i * ||grad(F_i u)||_1  +  1/2 * ||A u - f||_2^2

where ``F_i`` is circular convolution with bank kernel ``K_i`` and ``A`` is
the identity or a circular blur.  Splitting ``d_i = grad(F_i u)`` with
Bregman multipliers ``b_i`` yields three alternating updates per iteration:

* **u-update** - an exactly FFT-diagonalized quadratic solve of
  ``(A*A + sum_i w_i F_i* G* G F_i) u = A* f + sum_i gamma_i F_i* G* (d_i - b_i)``
  (``G`` the gradient).  The variant only picks the denominator weights
  ``w``: ``full13`` uses ``w = gamma``, the true normal operator;
  ``reduced17`` uses ``w_i = gamma_1`` for every channel, which for a tight
  frame (``sum_i F_i* F_i = I``) is ``A*A + gamma_1 G*G`` and coincides with
  ``full13`` whenever all ``gamma_i`` are equal.
* **d-update** - closed-form shrinkage of ``grad(F_i u) + b_i`` at threshold
  ``lam_i / gamma_i``.
* **b-update** - ``b_i += grad(F_i u) - d_i``.

The loop stops when the relative change ``||u_new - u|| / ||u||`` falls to
``tol`` or after ``max_iter`` iterations.

Both directions of the operator run through the bank's fused stencil
(:class:`~vtvrestore.frames.FrameGradient`), one row block at a time:
``grad(F_i u)`` for all channels is one matrix product over the block's
shifted copies of ``u``, and the u-update numerator
``sum_i gamma_i F_i* G* (d_i - b_i)`` is the gamma-weighted transposed
product followed by shifted adds.  The denominator is the symbol of the
stencil's :meth:`~vtvrestore.frames.FrameGradient.normal_kernel`, built
once per solve; only its ``rfft2`` half is kept, and its smallest bin is
checked once, when the solve is set up.  The spatial-domain primitives
(:func:`~vtvrestore.frames.analyze`, :func:`~vtvrestore.diffops.grad`, ...)
remain the references that :meth:`SplitBregman.kkt_residual` and the tests
check against.

:class:`SplitBregman` keeps one ``(m, 2, h, w)`` stack, the multipliers
``b``, and one image, the ``numerator`` of the next u-update.  The splits
``d`` are never stored: :meth:`~SplitBregman.advance` makes one sweep over
row blocks and, while a block of the stencil's output is still in cache,
shrinks it, updates ``b`` and adds the block's ``d - b`` to the next
numerator (a :class:`~vtvrestore.frames.AdjointSum`).  It overwrites ``b``
and ``numerator`` **in place**: a caller that keeps either across a step
must copy it.  So the u-update is one FFT solve; it returns a fresh array
and never touches the state.  With ``record_trace``, the same sweep also
sums the TV part of the energy, so a traced iteration runs the stencil once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffops import grad, grad_adjoint, shrink_iso, vtv
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
)
from .frames import AdjointSum, FilterBank, analyze
from .image import (
    as_kernel,
    conv_adjoint,
    conv_circular,
    half_spectrum,
    identity_symbol,
    kernel_symbol,
    solve_diagonal,
)

FULL13 = "full13"
REDUCED17 = "reduced17"
ANISO = "aniso"
ISO = "iso"

#: Guard for the relative-error denominator ||u^j||.
_NORM_FLOOR = 1e-12


class DegradationOp:
    """The observation operator A: identity or circular blur with a PSF.

    Holds no per-image state: :meth:`symbol` computes the symbol afresh for
    any grid, and a solve reads it once, to build its denominator.
    """

    def __init__(self, psf=None):
        self.psf = None if psf is None else as_kernel(psf)

    @classmethod
    def identity(cls) -> "DegradationOp":
        return cls(None)

    @classmethod
    def blur(cls, psf) -> "DegradationOp":
        return cls(psf)

    def apply(self, u) -> np.ndarray:
        """A u."""
        if self.psf is None:
            return np.array(u, dtype=np.float64, copy=True)
        return conv_circular(u, self.psf)

    def adjoint(self, u) -> np.ndarray:
        """A* u."""
        if self.psf is None:
            return np.array(u, dtype=np.float64, copy=True)
        return conv_adjoint(u, self.psf)

    def symbol(self, shape) -> np.ndarray:
        """Frequency symbol of A on a ``shape`` grid, as a new array."""
        if self.psf is None:
            return identity_symbol(shape)
        return kernel_symbol(self.psf, shape)


@dataclass
class SolverConfig:
    """Per-channel weights and loop controls for :func:`solve`.

    ``lam`` weights the per-channel TV terms; ``gamma`` are the splitting
    penalties (also the u-update damping).  Lengths must equal the bank's
    channel count.
    """

    lam: tuple
    gamma: tuple
    tol: float = 5e-4
    max_iter: int = 200
    u_update: str = REDUCED17
    shrinkage: str = ANISO
    record_trace: bool = False

    def __post_init__(self):
        self.lam = tuple(float(v) for v in np.atleast_1d(self.lam))
        self.gamma = tuple(float(v) for v in np.atleast_1d(self.gamma))
        if len(self.lam) != len(self.gamma):
            raise ConfigError(
                f"lam has {len(self.lam)} entries but gamma has {len(self.gamma)}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in self.lam):
            raise ConfigError(f"lam entries must be finite and nonnegative, got {self.lam}")
        if not all(math.isfinite(v) and v > 0 for v in self.gamma):
            raise ConfigError(f"gamma entries must be finite and positive, got {self.gamma}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.u_update not in (FULL13, REDUCED17):
            raise ConfigError(f"unknown u_update variant {self.u_update!r}")
        if self.shrinkage not in (ANISO, ISO):
            raise ConfigError(f"unknown shrinkage flavor {self.shrinkage!r}")

    @classmethod
    def head_rest(
        cls,
        m: int,
        lam_head: float,
        lam_rest: float,
        gamma_head: float,
        gamma_rest: float,
        **kwargs,
    ) -> "SolverConfig":
        """Weights with a distinguished first (lowpass) channel."""
        return cls(
            lam=(lam_head,) + (lam_rest,) * (m - 1),
            gamma=(gamma_head,) + (gamma_rest,) * (m - 1),
            **kwargs,
        )


@dataclass
class SolveResult:
    """Final iterate plus per-iteration bookkeeping.

    ``trace[j]`` is the relative change after u-update ``j+1``; it always has
    one entry per iteration.  ``energy_trace`` is filled only when
    ``record_trace`` is set.  ``converged`` is true iff the last trace entry
    reached ``tol``.
    """

    u: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    converged: bool = False


def energy(u, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> float:
    """Objective value: weighted vector TV of the features plus fidelity."""
    uu = np.asarray(u, dtype=np.float64)
    ff = np.asarray(f, dtype=np.float64)
    if uu.shape != ff.shape:
        raise DimensionMismatchError(f"u {uu.shape} vs f {ff.shape}")
    if len(cfg.lam) != bank.m:
        raise ConfigError(f"config has {len(cfg.lam)} channels, bank has {bank.m}")
    reg = sum(
        vtv(g, weights=cfg.lam, isotropic=cfg.shrinkage == ISO)
        for _, g in bank.frame_gradient.blocks(uu)
    )
    return reg + _fidelity(uu, ff, op)


def _fidelity(u, f, op: DegradationOp) -> float:
    """``1/2 ||A u - f||^2``."""
    return 0.5 * float(np.sum((op.apply(u) - f) ** 2))


class SplitBregman:
    """One restoration problem with explicit per-iteration control.

    :func:`solve` drives this class; it is public so tests and callers can
    step the iteration manually and inspect ``u``, ``b`` and ``numerator``.
    """

    def __init__(self, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig):
        self.f = np.array(f, dtype=np.float64, copy=True)
        if self.f.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D image, got {self.f.shape}")
        if not np.isfinite(self.f).all():
            raise NonFiniteError("observed image contains NaN or Inf")
        if len(cfg.lam) != bank.m:
            raise ConfigError(
                f"config has {len(cfg.lam)} channels, bank has {bank.m}"
            )
        if cfg.u_update == REDUCED17 and bank.m >= 2:
            rest = cfg.gamma[1:]
            if any(g != rest[0] for g in rest):
                raise ConfigError(
                    "reduced17 needs gamma_2 .. gamma_m all equal, got "
                    f"{cfg.gamma}"
                )
        self.op = op
        self.bank = bank
        self.cfg = cfg

        h, w = self.f.shape
        m = bank.m
        self._thresholds = (np.asarray(cfg.lam) / np.asarray(cfg.gamma)).reshape(-1, 1, 1, 1)

        self._stencil = bank.frame_gradient
        #: ``w`` of the normal operator ``A*A + sum_i w_i F_i* G* G F_i``.
        self._weights = cfg.gamma if cfg.u_update == FULL13 else (cfg.gamma[0],) * m
        self._denominator = half_spectrum(
            np.abs(op.symbol((h, w))) ** 2
            + kernel_symbol(self._stencil.normal_kernel(self._weights), (h, w)).real
        )

        self._atf = op.adjoint(self.f)
        self.u = self.f.copy()
        self.b = np.zeros((m, 2, h, w))
        self._adjoint_sum = AdjointSum(self._stencil, (h, w), cfg.gamma)
        #: ``A* f + sum_i gamma_i F_i* G* (d_i - b_i)``, the right-hand side of
        #: the next u-update; ``d = b = 0`` at the start.
        self.numerator = self._adjoint_sum.fold()
        self.numerator += self._atf
        #: The weighted vector TV ``vtv(grad(F u), lam)`` of the last iterate
        #: :meth:`advance` installed, when ``cfg.record_trace`` is set; else None.
        self.regularization = None

    # -- u-updates ---------------------------------------------------------

    def u_update(self) -> np.ndarray:
        """Next u from the current numerator, per the configured variant.

        Returns a new array; ``b`` and the numerator are left untouched.
        """
        return solve_diagonal(self.numerator, self._denominator)

    def kkt_residual(self, u) -> float:
        """Relative residual of the normal equation the u-update solves.

        ``A*A u + sum_i w_i F_i* G* G F_i u - numerator`` over the norm of the
        numerator, ``w`` the denominator weights; for ``full13`` it is the
        subproblem's stationarity condition.  The normal operator is applied
        with the roll-based primitives, independently of the stencil and the
        FFT solve.
        """
        uu = np.asarray(u, dtype=np.float64)
        features = grad(analyze(uu, self.bank))
        normal = self.op.adjoint(self.op.apply(uu)) + sum(
            g * conv_adjoint(grad_adjoint(features[i]), k)
            for i, (g, k) in enumerate(zip(self._weights, self.bank.kernels))
        )
        resid = normal - self.numerator
        return float(np.linalg.norm(resid)) / max(
            float(np.linalg.norm(self.numerator)), _NORM_FLOOR
        )

    # -- d/b updates and stepping -------------------------------------------

    def advance(self, u_new) -> float:
        """Run the d and b updates for ``u_new``, install it, return rel. err.

        One sweep over row blocks overwrites ``b`` and the numerator in
        place.
        """
        # Per block, with v = grad(F u_new) + b and d = shrink(v):
        # b <- v - d, which is clip(v, -T, T) for the anisotropic shrink, and
        # the block becomes d - b = v - 2 b, which ``blocks`` then adds into
        # the next numerator; all in place (a fresh result array costs 2-4x).
        t = self._thresholds
        lam, isotropic = self.cfg.lam, self.cfg.shrinkage == ISO
        regularization = 0
        self._adjoint_sum.reset()
        for rows, v in self._stencil.blocks(u_new, then=self._adjoint_sum):
            if self.cfg.record_trace:
                regularization += vtv(v, weights=lam, isotropic=isotropic)
            b = self.b[:, :, rows]
            v += b
            if isotropic:
                shrink_iso(v, t[..., 0], out=b)
                np.subtract(v, b, out=b)
            else:
                np.clip(v, -t, t, out=b)
            v -= b
            v -= b
        self.numerator = self._adjoint_sum.fold()
        self.numerator += self._atf
        if self.cfg.record_trace:
            self.regularization = regularization
        rel = float(np.linalg.norm(u_new - self.u)) / max(
            float(np.linalg.norm(self.u)), _NORM_FLOOR
        )
        self.u = u_new
        return rel

    def step(self) -> float:
        """One full iteration; returns the relative change of u."""
        u_new = self.u_update()
        if not np.isfinite(u_new).all():
            raise NonFiniteError(
                "iterate contains NaN or Inf; parameters look divergent"
            )
        return self.advance(u_new)


def solve(f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> SolveResult:
    """Run the split Bregman loop to tolerance or the iteration cap.

    Starts from ``u = f`` with zero splits and multipliers.  Deterministic:
    identical inputs produce bit-identical results.
    """
    sb = SplitBregman(f, op, bank, cfg)
    trace: list = []
    energy_trace: list = []
    converged = False
    for _ in range(cfg.max_iter):
        rel = sb.step()
        trace.append(rel)
        if cfg.record_trace:
            energy_trace.append(sb.regularization + _fidelity(sb.u, sb.f, op))
        if rel <= cfg.tol:
            converged = True
            break
    return SolveResult(
        u=sb.u,
        iterations=len(trace),
        trace=trace,
        energy_trace=energy_trace,
        converged=converged,
    )
