"""Statistics chain from photon-count frames to densities and widths.

The joint density is the cross-frame correlation estimator: the same-frame
mean product minus the accidental baseline estimated from the shifted-frame
product, which is cheap and valid because photon pairs decorrelate from one
frame to the next (Reichert, Defienne and Fleischer, Sci. Rep. 8, 7925, 2018).
Both products are accumulated in one pass over blocks of frames, so memory is
O(B*W + W^2) for blocks of B frames of W pixels, whatever the frame count.
Each block picks its kernel from its own counts: a sparse block, with at
most B*W same-frame and next-frame pairs of nonzero pixels (photon-counting
frames of up to about sqrt(W/2) counts), adds its pair list with one
np.bincount per sum; any other block multiplies its dense columns.  Every
partial sum is an exact integer in float64, so both kernels give the same
bytes.
Width calibration reads both of its profiles off that one estimator: on a
single-arm stack the autocorrelation (position arm) is the sum of the pair
counts along each diagonal x_j - x_i, the autoconvolution (momentum arm) the
sum along each anti-diagonal x_i + x_j; a Gaussian fit of the central peak
gives the width.
"""
from __future__ import annotations

import math

import numpy as np

from .density import Density2D
from .fitting import FitError, fit_gaussian_1d, fit_gaussian_2d
from .frames import FrameStack
from .states import DomainError

__all__ = [
    "estimate_density",
    "autocorrelation_profile",
    "autoconvolution_profile",
    "calibrate_sigma_minus",
    "calibrate_sigma_plus",
    "estimate_fedorov",
]


# frames per block of the streamed sums; bounds the column and pair-list temporaries
_BLOCK_FRAMES = 1024


def _nonzero_bytes(flat: np.ndarray) -> np.ndarray:
    """Indices of the nonzero entries of a contiguous 1D uint8 array, scanned eight bytes at a time."""
    if flat.size % 8:
        return np.flatnonzero(flat)
    words = flat.view(np.uint64)
    hit = np.flatnonzero(words)
    sub = np.flatnonzero(words[hit].view(np.uint8))
    return hit[sub >> 3] * 8 + (sub & 7)


def _pair_sum(x, weight, k_events, frames, starts, sizes, width) -> np.ndarray:
    """W x W sums of weight products over the pairs (k event, p event of its given frame).

    The p events of frame f are ``starts[f]`` to ``starts[f] + sizes[f]`` of
    the event list; each k event meets every one of them.
    """
    reps = sizes[frames]
    k = np.repeat(k_events, reps)
    p = np.repeat(starts[frames] - (np.cumsum(reps) - reps), reps) + np.arange(k.size)
    cells = np.bincount(x[k] * width + x[p], weight[k] * weight[p], minlength=width * width)
    return cells.reshape(width, width)


def estimate_density(stack: FrameStack, normalize: bool = True) -> Density2D:
    """Cross-frame correlation estimate of the joint density.

    Columns are the per-frame counts summed over y.  For a single-detector
    stack both axes are the same arm and the exact same-frame self-pair term
    is removed from the diagonal.  A uniform dark level cancels between the
    same-frame and shifted-frame products in expectation.

    One pass over blocks of ``_BLOCK_FRAMES`` frames sums the same-frame
    products ck^T cp and the next-frame products, carrying each block's last
    column into the next block.  Each block picks its kernel from its nonzero
    pixels ("events"): when the same-frame and next-frame event pairs of a
    block of B frames number at most B*W, one np.bincount per sum adds their
    count products over the cells x_k*W + x_p; otherwise two dense float64
    products of the block's columns do.  Either way memory is O(B*W + W^2).
    Counts are small integers, so every partial sum is an integer and exact
    in float64 while N*(255*H)^2 < 2^53 (N frames of height H): the result
    does not depend on the kernel, the block size, the summation order or
    the BLAS kernel.
    """
    n = stack.n_frames
    if n < 2:
        raise DomainError("density estimation needs at least 2 frames")
    _, arms, height, width = stack.counts.shape
    same = np.zeros((width, width))
    shifted = np.zeros((width, width))
    self_pairs = np.zeros(width)
    last_ck = None
    for start in range(0, n, _BLOCK_FRAMES):
        block = stack.counts[start : start + _BLOCK_FRAMES]
        b = block.shape[0]
        if last_ck is not None:
            shifted += np.outer(last_ck, block[0, -1].sum(axis=0, dtype=np.float64))
        last_ck = block[-1, 0].sum(axis=0, dtype=np.float64)
        sizes = np.count_nonzero(block.reshape(b, arms, -1), axis=2)  # events per frame and arm
        nk, n_p = sizes[:, 0], sizes[:, -1]
        if nk @ n_p + nk[:-1] @ n_p[1:] > b * width:
            columns = block.sum(axis=2, dtype=np.float64)
            ck, cp = columns[:, 0], columns[:, -1]  # a single arm pairs with itself
            same += ck.T @ cp
            shifted += ck[:-1].T @ cp[1:]
            if not stack.dual_arm:
                self_pairs += ck.sum(axis=0)
        else:
            flat = block.reshape(-1)
            idx = _nonzero_bytes(flat)  # frame-major, arm k before arm p
            weight = flat[idx].astype(np.float64)
            x = idx % width
            frame, arm = np.divmod(idx // (height * width), arms)
            k_events = np.flatnonzero(arm == 0)
            fk = frame[k_events]
            # first p event of each frame; frame b holds none, so the last frame has no next-frame pairs
            starts = np.append(np.cumsum(sizes).reshape(b, arms)[:, -1] - n_p, 0)
            sizes_p = np.append(n_p, 0)
            same += _pair_sum(x, weight, k_events, fk, starts, sizes_p, width)
            shifted += _pair_sum(x, weight, k_events, fk + 1, starts, sizes_p, width)
            if not stack.dual_arm:
                self_pairs += np.bincount(x, weight, minlength=width)
    values = same / n - shifted / (n - 1)
    if not stack.dual_arm:
        # remove photon-with-itself pairs from the same-frame diagonal
        values[np.diag_indices_from(values)] -= self_pairs / n
    centers = stack.pixel_centers()
    pitch = stack.detector.pixel_pitch
    density = Density2D(values, float(centers[0]), pitch, float(centers[0]), pitch)
    if normalize:
        density = density.self_normalized()
    return density


def _pair_counts(stack: FrameStack) -> np.ndarray:
    """Accidental- and self-pair-subtracted pair counts (W x W) of one arm."""
    if stack.dual_arm:
        raise DomainError("width calibration expects a single-detector stack")
    return stack.n_frames * estimate_density(stack, normalize=False).values


def autocorrelation_profile(stack: FrameStack) -> tuple[np.ndarray, np.ndarray]:
    """(lag_um, signal): pair counts summed along each diagonal j - i = lag."""
    counts = _pair_counts(stack)
    idx = np.arange(counts.shape[0])
    lag = idx[None, :] - idx[:, None]
    signal = np.bincount((lag + idx.size - 1).ravel(), weights=counts.ravel())
    return np.arange(1 - idx.size, idx.size) * stack.detector.pixel_pitch, signal


def autoconvolution_profile(stack: FrameStack) -> tuple[np.ndarray, np.ndarray]:
    """(sum_coordinate_um, signal): pair counts summed along each anti-diagonal i + j."""
    counts = _pair_counts(stack)
    idx = np.arange(counts.shape[0])
    signal = np.bincount((idx[:, None] + idx[None, :]).ravel(), weights=counts.ravel())
    pitch = stack.detector.pixel_pitch
    return 2.0 * stack.pixel_centers()[0] + np.arange(signal.size) * pitch, signal


def _fit_peak_width(coords: np.ndarray, signal: np.ndarray, pitch: float, skip_center: bool) -> float:
    """Gaussian width of the central peak, de-biased for pixel quantisation."""
    sel = np.ones_like(coords, dtype=bool)
    if skip_center:
        sel &= np.abs(coords) > 0.5 * pitch
    noise = np.std(signal[np.abs(coords) > 0.75 * np.abs(coords).max()])
    fit = fit_gaussian_1d(coords[sel], signal[sel])
    if noise > 0 and fit.amplitude < 3.0 * noise:
        raise FitError(
            f"no significant correlation peak (amplitude {fit.amplitude:.3g} "
            f"< 3 x noise {noise:.3g})"
        )
    # two pixelated coordinates each add pitch^2/12 to the peak variance
    var = fit.sigma**2 - pitch**2 / 6.0
    if var <= 0.0:
        raise FitError("correlation peak narrower than the pixel quantisation floor")
    return math.sqrt(var)


def calibrate_sigma_minus(lags: np.ndarray, signal: np.ndarray, pitch: float) -> float:
    """Pair correlation width from a near-field autocorrelation profile.

    The separation x1 - x2 of a true pair is Gaussian with standard deviation
    sigma_minus, so the fitted autocorrelation peak width maps one-to-one.
    """
    return _fit_peak_width(lags, signal, pitch, skip_center=True)


def calibrate_sigma_plus(coords: np.ndarray, signal: np.ndarray, pitch: float, scale: float) -> float:
    """Momentum anti-correlation width from a far-field autoconvolution profile.

    The pair sum q1 + q2 has standard deviation 1/sigma_plus; on the camera it
    is scaled by ``scale`` = wavelength*f/(2*pi) (the far-field stack records
    it as ``farfield_scale``), so the fitted autoconvolution width inverts to
    sigma_plus.
    """
    if scale <= 0.0:
        raise DomainError("far-field camera mapping scale must be positive")
    return scale / _fit_peak_width(coords, signal, pitch, skip_center=False)


def estimate_fedorov(density: Density2D) -> float:
    """Marginal width over conditional width of one 2D Gaussian fit's form.

    When both axes describe the same pixel grid the diagonal cells are left
    out of the fit: a photon-counting pixel cannot register both photons of a
    pair.
    """
    n, m = density.values.shape
    same_grid = n == m and (density.k_origin, density.k_pitch) == (density.p_origin, density.p_pitch)
    return fit_gaussian_2d(density, ~np.eye(n, dtype=bool) if same_grid else None).fedorov_ratio
