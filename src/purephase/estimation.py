"""Statistics chain from photon-count frames to densities and widths.

The joint density is the cross-frame correlation estimator: the same-frame
mean product minus the accidental baseline estimated from the shifted-frame
product, which is cheap and valid because photon pairs decorrelate from one
frame to the next.  Width calibration accumulates frame-wise autocorrelations
(position arm) or autoconvolutions (momentum arm) over the stack, subtracts
the cross-frame accidental background exactly the same way, and fits the
central Gaussian peak.
"""
from __future__ import annotations

import math

import numpy as np

from .density import Density2D
from .fitting import FitError, fit_gaussian_1d
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


def estimate_density(stack: FrameStack, normalize: bool = True) -> Density2D:
    """Cross-frame correlation estimate of the joint density.

    Columns are the per-frame counts summed over y.  For a single-detector
    stack both axes are the same arm and the exact same-frame self-pair term
    is removed from the diagonal.  A uniform dark level cancels between the
    same-frame and shifted-frame products in expectation.
    """
    n = stack.n_frames
    if n < 2:
        raise DomainError("density estimation needs at least 2 frames")
    ck, cp = stack.columns()
    ck = ck.astype(np.float64)
    cp = cp.astype(np.float64)
    if ck.shape[1] != cp.shape[1] and stack.dual_arm:
        raise DomainError("arm geometries do not match")
    same = ck.T @ cp / n
    shifted = ck[:-1].T @ cp[1:] / (n - 1)
    values = same - shifted
    if not stack.dual_arm:
        # remove photon-with-itself pairs from the same-frame diagonal
        values[np.diag_indices_from(values)] -= ck.sum(axis=0) / n
    centers = stack.pixel_centers()
    pitch = stack.detector.pixel_pitch
    density = Density2D(values, float(centers[0]), pitch, float(centers[0]), pitch)
    if normalize:
        density = density.self_normalized()
    return density


def _padded_fft(columns: np.ndarray) -> tuple[np.ndarray, int]:
    width = columns.shape[1]
    padded = 2 * width
    return np.fft.rfft(columns, n=padded, axis=1), padded


def autocorrelation_profile(stack: FrameStack) -> tuple[np.ndarray, np.ndarray]:
    """(lag_um, signal) of the accidental-subtracted pair-separation histogram."""
    ck, _ = stack.columns()
    ck = ck.astype(np.float64)
    n = ck.shape[0]
    if n < 2:
        raise DomainError("calibration needs at least 2 frames")
    fk, padded = _padded_fft(ck)
    same = np.fft.irfft((fk * fk.conj()).real.sum(axis=0), n=padded)
    cross = np.fft.irfft((fk[:-1].conj() * fk[1:]).sum(axis=0), n=padded).real
    signal = same - cross * (n / (n - 1.0))
    signal[0] -= ck.sum()  # photon paired with itself, exact
    width = ck.shape[1]
    # circular layout: lag 0..width-1 at the front, negative lags at the back
    lags = np.concatenate([np.arange(-width + 1, 0), np.arange(width)])
    vals = np.concatenate([signal[padded - width + 1 :], signal[:width]])
    return lags * stack.detector.pixel_pitch, vals


def autoconvolution_profile(stack: FrameStack) -> tuple[np.ndarray, np.ndarray]:
    """(sum_coordinate_um, signal) of the accidental-subtracted pair-sum histogram."""
    ck, _ = stack.columns()
    ck = ck.astype(np.float64)
    n = ck.shape[0]
    if n < 2:
        raise DomainError("calibration needs at least 2 frames")
    fk, padded = _padded_fft(ck)
    same = np.fft.irfft((fk * fk).sum(axis=0), n=padded).real
    cross = np.fft.irfft((fk[:-1] * fk[1:]).sum(axis=0), n=padded).real
    signal = same - cross * (n / (n - 1.0))
    totals = ck.sum(axis=0)
    signal[0 : 2 * ck.shape[1] : 2] -= totals  # photon summed with itself, exact
    width = ck.shape[1]
    centers = stack.pixel_centers()
    coords = 2.0 * centers[0] + np.arange(2 * width - 1) * stack.detector.pixel_pitch
    return coords, signal[: 2 * width - 1]


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


def calibrate_sigma_minus(stack: FrameStack) -> float:
    """Pair correlation width from a near-field stack.

    The separation x1 - x2 of a true pair is Gaussian with standard deviation
    sigma_minus, so the fitted autocorrelation peak width maps one-to-one.
    """
    if stack.dual_arm:
        raise DomainError("width calibration expects a single-detector stack")
    lags, signal = autocorrelation_profile(stack)
    return _fit_peak_width(lags, signal, stack.detector.pixel_pitch, skip_center=True)


def calibrate_sigma_plus(stack: FrameStack) -> float:
    """Momentum anti-correlation width from a far-field stack.

    The pair sum q1 + q2 has standard deviation 1/sigma_plus; on the camera it
    is scaled by wavelength*f/(2*pi) (recorded in the stack metadata), so the
    fitted autoconvolution width inverts to sigma_plus.
    """
    if stack.dual_arm:
        raise DomainError("width calibration expects a single-detector stack")
    scale = float(stack.metadata.get("farfield_scale", 0.0))
    if scale <= 0.0:
        raise DomainError("far-field stack metadata lacks the camera mapping scale")
    coords, signal = autoconvolution_profile(stack)
    width = _fit_peak_width(coords, signal, stack.detector.pixel_pitch, skip_center=False)
    return scale / width


def estimate_fedorov(density: Density2D) -> float:
    """Marginal width over central conditional width from Gaussian fits.

    For single-detector densities the diagonal cell of the conditioning column
    is censored (a photon-counting pixel cannot register both photons of a
    pair), so that sample is excluded from the slice fit whenever both axes
    describe the same pixel grid.
    """
    marg_k, marg_p = density.marginals()
    k_axis, p_axis = density.k_axis, density.p_axis
    marg_fit = fit_gaussian_1d(k_axis, marg_k)
    total = marg_p.sum()
    if total <= 0.0:
        raise FitError("density has no positive mass")
    center = (p_axis * marg_p).sum() / total
    idx = int(np.argmin(np.abs(p_axis - center)))
    profile = density.values[:, idx]
    keep = np.ones(k_axis.size, dtype=bool)
    if (
        k_axis.size == p_axis.size
        and density.k_origin == density.p_origin
        and density.k_pitch == density.p_pitch
    ):
        keep[idx] = False
    cond_fit = fit_gaussian_1d(k_axis[keep], profile[keep])
    return marg_fit.sigma / cond_fit.sigma
