import numpy as np
import pytest

from vtvrestore import analyze, bspline_bank, conv_adjoint, grad, grad_adjoint

#: Convolution taps of the forward differences of :func:`vtvrestore.grad`.
FORWARD_DIFF_X = np.array([[1.0, -1.0, 0.0]])
FORWARD_DIFF_Y = np.array([[1.0], [-1.0], [0.0]])


def conv_brute_force(f, k):
    """Double-loop circular convolution with explicit modular indexing.

    Independent oracle for the roll-based implementation.
    """
    f = np.asarray(f, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    h, w = f.shape
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    out = np.zeros_like(f)
    for row in range(h):
        for col in range(w):
            acc = 0.0
            for p in range(-ry, ry + 1):
                for q in range(-rx, rx + 1):
                    acc += f[(row - p) % h, (col - q) % w] * k[p + ry, q + rx]
            out[row, col] = acc
    return out


def kkt_residual(sb, u):
    """Relative residual of the normal equation the u-update of ``sb`` solves.

    ``A*A u + sum_i w_i F_i* G* G F_i u - numerator`` over the norm of the
    numerator, ``w`` the denominator weights of the :class:`SplitBregman`
    ``sb``; for ``full13`` it is the subproblem's stationarity condition.
    The normal operator is applied with the roll-based primitives,
    independently of the stencil and the FFT solve.
    """
    u = np.asarray(u, dtype=np.float64)
    features = grad(analyze(u, sb.bank))
    normal = sb.op.adjoint(sb.op.apply(u)) + sum(
        g * conv_adjoint(grad_adjoint(features[i]), k)
        for i, (g, k) in enumerate(zip(sb._weights, sb.bank.kernels))
    )
    numerator = float(np.linalg.norm(sb.numerator))
    return float(np.linalg.norm(normal - sb.numerator)) / max(numerator, 1e-12)


def make_phantom(n=256):
    """Deterministic piecewise-smooth stand-in image, intensities in [0, 255].

    A smooth ramp plus a Gaussian bump, cartoon shapes with sharp edges,
    vertical bars of several widths and one diagonal-stripe texture patch.
    """
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1.0)
    img = 50.0 + 100.0 * yy
    img += 55.0 * np.exp(-((xx - 0.78) ** 2 + (yy - 0.22) ** 2) / 0.015)
    img[(xx - 0.3) ** 2 + (yy - 0.32) ** 2 < 0.04] = 210.0
    img[(xx - 0.3) ** 2 + (yy - 0.32) ** 2 < 0.012] = 90.0
    img[(yy > 0.55) & (yy < 0.85) & (xx > 0.15) & (xx < 0.45)] = 35.0
    for k, (x0, wd) in enumerate(
        [(0.55, 0.012), (0.62, 0.02), (0.72, 0.03), (0.85, 0.045)]
    ):
        img[(yy > 0.5) & (yy < 0.95) & (xx > x0) & (xx < x0 + wd)] = 225.0 - 25.0 * k
    img[(yy > 0.05) & (yy < 0.18) & (np.abs(xx - yy - 0.3) < 0.025)] = 20.0
    img[(np.abs(yy - 0.47) < 0.015) & (xx > 0.5)] = 180.0
    stripes = 20.0 * np.sign(np.sin(2 * np.pi * (xx + yy) * 21.0))
    patch = (yy > 0.06) & (yy < 0.3) & (xx > 0.06) & (xx < 0.3)
    return np.clip(img + stripes * patch, 0.0, 255.0)


def smoothed_tv_minimizer(f, lam, eps=1e-8):
    """Minimize lam * sum sqrt(grad^2 + eps) + 0.5 ||u - f||^2 by L-BFGS.

    An independent first-order oracle for the single-channel TV objective.
    """
    from scipy.optimize import minimize

    f = np.asarray(f, dtype=np.float64)
    shape = f.shape

    def value(x):
        u = x.reshape(shape)
        gx = np.roll(u, -1, axis=1) - u
        gy = np.roll(u, -1, axis=0) - u
        reg = np.sum(np.sqrt(gx**2 + eps)) + np.sum(np.sqrt(gy**2 + eps))
        return lam * reg + 0.5 * np.sum((u - f) ** 2)

    def gradient(x):
        u = x.reshape(shape)
        gx = np.roll(u, -1, axis=1) - u
        gy = np.roll(u, -1, axis=0) - u
        wx = gx / np.sqrt(gx**2 + eps)
        wy = gy / np.sqrt(gy**2 + eps)
        div = (np.roll(wx, 1, axis=1) - wx) + (np.roll(wy, 1, axis=0) - wy)
        return (lam * div + (u - f)).ravel()

    res = minimize(
        value,
        f.ravel().copy(),
        jac=gradient,
        method="L-BFGS-B",
        options={"maxiter": 200000, "ftol": 1e-18, "gtol": 1e-12, "maxcor": 30},
    )
    return res.x.reshape(shape)


@pytest.fixture(scope="session")
def bank():
    return bspline_bank()


@pytest.fixture(scope="session")
def phantom256():
    return make_phantom(256)
