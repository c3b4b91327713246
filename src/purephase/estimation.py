"""Statistics chain from photon-count frames to densities and widths.

The joint density is the cross-frame correlation estimator: the same-frame
mean product minus the accidental baseline estimated from the shifted-frame
product, which is cheap and valid because photon pairs decorrelate from one
frame to the next (Reichert, Defienne and Fleischer, Sci. Rep. 8, 7925, 2018).
Every estimate comes from one pass over a stack's events, block by block,
that bins the same-frame and next-frame count products of pixel pairs
(x_k, x_p) by a cell map: x_k*W + x_p for the W x W density, the lag
x_p - x_k and the sum x_k + x_p for the width-calibration profiles.  The
events of a block are its nonzero cells and their counts, and ``frames``
cuts every stack into them: a stack's ``blocks`` are drawn by synthesis,
read from PPF1 or scanned from dense counts, so the estimator only sums.
Each block is led by the previous block's last frame, carried over as its
events, for the next-frame pairs across the boundary.  A sparse block, with
at most 0.8*B*W pairs of events (photon-counting frames of up to about
sqrt(0.4*W) counts), adds its pair list into the bins in place, so its cost
follows its pairs and not the W^2 bins; any other block adds the product of
its columns, which one np.bincount of its events forms, to W x W sums that
are binned once at the end.  Every partial sum is an exact integer in
float64, so both kernels, and any cut into blocks, give the same bytes.
Memory is O(B*W) plus the bins, W^2 for the density and 2W - 1 for a
profile (and the W x W sums once a dense block occurs), whatever the frame
count.  A Gaussian fit of a profile's central peak gives a width: sigma_-
from the near-field autocorrelation, sigma_+ from the far-field
autoconvolution.
"""
from __future__ import annotations

import math

import numpy as np

from .density import Density2D
from .fitting import FitError, fit_gaussian_1d, fit_gaussian_2d
from .frames import FrameEvents, FrameStack
from .states import DomainError

__all__ = [
    "estimate_density",
    "autocorrelation_profile",
    "autoconvolution_profile",
    "calibrate_sigma_minus",
    "calibrate_sigma_plus",
    "estimate_fedorov",
]


# A block of B frames of W pixels takes the pair list while its pairs number at
# most _PAIR_LIST_SHARE * B * W.  The 0.8 was measured with 1024-frame blocks
# whose pair lists were binned by a bincount over all W^2 bins, where the pair
# list stopped being faster at 0.88-1.8 B*W.  With 256-frame blocks summed in
# place, and the dense products binned once per stack, the pair list is 1.1-1.4x
# as fast as the dense columns at 1.5 B*W on 256 px and 2x on 512 px, and
# breaks even at 2.5 B*W on 256 px (10^4-frame binary stacks, single- and
# dual-arm, best of 5 calls, single thread), so 0.8 is on the safe side.  Any
# share <= 1 also keeps the pair list within the O(B*W) memory of the dense
# columns.
_PAIR_LIST_SHARE = 0.8


def _pair_sum(out, x, weight, k_events, frames, starts, sizes, cell) -> None:
    """Add to ``out`` the weight products of the pairs (k event, p event of its given frame), binned by ``cell``.

    The p events of frame f are ``starts[f]`` to ``starts[f] + sizes[f]`` of
    the event list; each k event meets every one of them.  The products are
    added in place, pair by pair, so a block's cost follows its pairs, not
    the bins.
    """
    reps = sizes[frames]
    k = np.repeat(k_events, reps)
    p = np.repeat(starts[frames] - (np.cumsum(reps) - reps), reps) + np.arange(k.size)
    np.add.at(out, cell(x[k], x[p]), weight[k] * weight[p])


def _binned_pair_sums(stack: FrameStack | FrameEvents, cell, n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(same-frame, next-frame, self-pair) count products of a stack, summed into ``n_bins`` bins.

    Pair (x_k of arm k, x_p of arm p) goes to bin ``cell(x_k, x_p)``; a single
    arm's count c adds c, its photon-with-itself part of c^2, at ``cell(x, x)``.
    The sums take the stack's events one block at a time.  Each block is led
    by the previous block's last frame, carried over as its events, which
    enters the block's next-frame pairs only.  A block whose own pairs of
    events number at most ``_PAIR_LIST_SHARE``*B*W bins its pair list, any
    other block the products of its float64 columns.
    """
    n = stack.n_frames
    if n < 2:
        raise DomainError("pair estimation needs at least 2 frames")
    arms, height, width = stack.arms, stack.detector.height, stack.detector.width
    frame_cells = arms * height * width
    same, shifted, self_pairs = np.zeros((3, n_bins))
    carried = carried_counts = np.zeros(0, dtype=np.int64)  # the previous block's last frame
    products = None  # the (same, next)-frame W x W column products of the dense blocks, binned at the end
    for block in stack.blocks:
        kept = block.shape[0]
        lead = min(block.first, 1)
        idx = np.concatenate([carried, block.cells + lead * frame_cells])  # frame-major, arm k before arm p
        weight = np.concatenate([carried_counts, block.counts]).astype(np.float64)
        last = np.searchsorted(block.cells, (kept - 1) * frame_cells)
        carried, carried_counts = block.cells[last:] - (kept - 1) * frame_cells, block.counts[last:]
        b = kept + lead
        x = idx % width
        frame, arm = np.divmod(idx // (height * width), arms)
        sizes = np.bincount(frame * arms + arm, minlength=b * arms).reshape(b, arms)  # events per frame and arm
        nk, n_p = sizes[:, 0], sizes[:, -1]
        if not stack.dual_arm:
            first = n_p[:lead].sum()
            np.add.at(self_pairs, cell(x[first:], x[first:]), weight[first:])
        # the lead frame's pairs, at most H*W per event of the first frame, are not counted
        if nk[lead:] @ n_p[lead:] + nk[lead:-1] @ n_p[lead + 1 :] > _PAIR_LIST_SHARE * kept * width:
            columns = np.bincount((frame * arms + arm) * width + x, weight, minlength=b * arms * width)
            columns = columns.reshape(b, arms, width)
            ck, cp = columns[:, 0], columns[:, -1]  # a single arm pairs with itself
            if products is None:
                products = np.zeros((2, width, width))
            products[0] += ck[lead:].T @ cp[lead:]
            products[1] += ck[:-1].T @ cp[1:]
        else:
            k_events = np.flatnonzero(arm == 0)
            fk = frame[k_events]
            own = fk >= lead
            # first p event of each frame; frame b holds none, so the last frame has no next-frame pairs
            starts = np.append(np.cumsum(sizes).reshape(b, arms)[:, -1] - n_p, 0)
            sizes_p = np.append(n_p, 0)
            _pair_sum(same, x, weight, k_events[own], fk[own], starts, sizes_p, cell)
            _pair_sum(shifted, x, weight, k_events, fk + 1, starts, sizes_p, cell)
    if products is not None:
        cells = cell(*np.ogrid[:width, :width]).ravel()
        same += np.bincount(cells, products[0].ravel(), minlength=n_bins)
        shifted += np.bincount(cells, products[1].ravel(), minlength=n_bins)
    return same, shifted, self_pairs


def estimate_density(stack: FrameStack | FrameEvents, normalize: bool = True) -> Density2D:
    """Cross-frame correlation estimate of the joint density, from pair sums binned by cell x_k*W + x_p.

    For a single-detector stack both axes are the same arm and the exact
    same-frame self-pair term is removed from the diagonal.  A uniform dark
    level cancels between the same-frame and shifted-frame products in
    expectation.  Every partial sum is exact in float64 while
    N*(255*H)^2 < 2^53 (N frames of height H): the result does not depend on
    the kernel, the block size, the summation order or the BLAS kernel.
    """
    n = stack.n_frames
    width = stack.detector.width
    same, shifted, self_pairs = _binned_pair_sums(stack, lambda xk, xp: xk * width + xp, width * width)
    # self_pairs is 0 off the diagonal (and everywhere for two arms), and v - 0.0 == v
    values = (same / n - shifted / (n - 1) - self_pairs / n).reshape(width, width)
    centers = stack.pixel_centers()
    pitch = stack.detector.pixel_pitch
    density = Density2D(values, float(centers[0]), pitch, float(centers[0]), pitch)
    if normalize:
        density = density.self_normalized()
    return density


def _pair_profile(stack: FrameStack | FrameEvents, cell) -> np.ndarray:
    """Accidental- and self-pair-subtracted pair counts of one arm in 2W - 1 bins given by ``cell``."""
    if stack.dual_arm:
        raise DomainError("width calibration expects a single-detector stack")
    n = stack.n_frames
    same, shifted, self_pairs = _binned_pair_sums(stack, cell, 2 * stack.detector.width - 1)
    return (same - self_pairs) - shifted * (n / (n - 1))


def autocorrelation_profile(stack: FrameStack | FrameEvents) -> tuple[np.ndarray, np.ndarray]:
    """(lag_um, signal): pair counts binned by lag x_p - x_k."""
    width = stack.detector.width
    signal = _pair_profile(stack, lambda xk, xp: xp - xk + (width - 1))
    return np.arange(1 - width, width) * stack.detector.pixel_pitch, signal


def autoconvolution_profile(stack: FrameStack | FrameEvents) -> tuple[np.ndarray, np.ndarray]:
    """(sum_coordinate_um, signal): pair counts binned by sum x_k + x_p."""
    signal = _pair_profile(stack, np.add)
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
