"""Feature-space vector total variation image restoration via split Bregman."""

from .degrade import NoiseSpec, apply_degradation, gaussian_noise, motion_blur_kernel
from .diffops import grad, grad_adjoint, shrink, shrink_iso, vtv
from .errors import (
    ChannelMismatchError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    SingularSymbolError,
    VTVError,
)
from .fileio import quantize, read_image, write_pgm, write_trace_csv
from .frames import (
    FilterBank,
    analyze,
    bspline_bank,
    identity_bank,
    synthesize_adjoint,
    verify_uep,
)
from .image import (
    conv_adjoint,
    conv_circular,
    half_symbol,
    kernel_symbol,
    psnr,
    solve_diagonal,
)
from .solver import (
    ANISO,
    DOUBLE,
    FULL13,
    ISO,
    REDUCED17,
    SINGLE,
    DegradationOp,
    SolveResult,
    SolverConfig,
    SplitBregman,
    energy,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ANISO",
    "ChannelMismatchError",
    "ConfigError",
    "DOUBLE",
    "DegradationOp",
    "DimensionMismatchError",
    "FULL13",
    "FilterBank",
    "ISO",
    "NoiseSpec",
    "NonFiniteError",
    "REDUCED17",
    "SINGLE",
    "SingularSymbolError",
    "SolveResult",
    "SolverConfig",
    "SplitBregman",
    "VTVError",
    "analyze",
    "apply_degradation",
    "bspline_bank",
    "conv_adjoint",
    "conv_circular",
    "energy",
    "gaussian_noise",
    "grad",
    "grad_adjoint",
    "half_symbol",
    "identity_bank",
    "kernel_symbol",
    "motion_blur_kernel",
    "psnr",
    "quantize",
    "read_image",
    "shrink",
    "shrink_iso",
    "solve",
    "solve_diagonal",
    "synthesize_adjoint",
    "verify_uep",
    "vtv",
    "write_pgm",
    "write_trace_csv",
]
