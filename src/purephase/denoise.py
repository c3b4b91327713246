"""Statistical cleaning of estimated densities.

Finite sampling leaves the correlation estimate with a low-frequency artefact
shaped like the product of the photon marginals, riding on shot noise.  Plain
subtraction of that marginal image (the excess-correlation map) removes its
mean but not its structure, so the cleaning pipeline works spectrally instead:
wavelet-decompose the density, measure the marginal image's spatial-frequency
bandwidth on its approximation band, high-pass the density's approximation
above that bandwidth, reconstruct, then low-pass and smooth.  The marginal
image is the outer product of the two marginals, so its approximation band is
the outer product of their 1D bands and is never built in 2D; each wavelet
level is one orthogonal matrix (see :mod:`purephase.wavelets`).  Defaults
were tuned once on synthetic stacks and are frozen in :class:`CleaningConfig`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import Density2D
from .states import DomainError
from .wavelets import approximation_1d, check_divisible, daubechies_filters, wavedec2, waverec2

__all__ = ["CleaningConfig", "marginal_image", "excess_g2", "clean_density", "psd_cutoff"]


@dataclass(frozen=True)
class CleaningConfig:
    wavelet_order: int = 4
    decomp_level: int = 2
    psd_threshold: float = 0.3  # fraction of the marginal's structured power
    lowpass_cutoff: float = 0.12  # cycles per pixel of the full-resolution image
    kde_bandwidth: float = 1.5  # Gaussian smoothing width in pixels

    def __post_init__(self):
        daubechies_filters(self.wavelet_order)  # validates the order
        if self.decomp_level < 1:
            raise DomainError("decomp_level must be >= 1")
        if not (0.0 < self.psd_threshold < 1.0):
            raise DomainError("psd_threshold must lie strictly between 0 and 1")
        if not (0.0 < self.lowpass_cutoff <= 0.5):
            raise DomainError("lowpass_cutoff must lie in (0, 0.5] cycles/pixel")
        if not (self.kde_bandwidth > 0.0):
            raise DomainError("kde_bandwidth must be positive")

    def check_image(self, shape) -> None:
        limit = int(math.log2(min(shape))) - 2
        if self.decomp_level > limit:
            raise DomainError(
                f"image {shape} too small for decomp_level={self.decomp_level} "
                f"(maximum {limit})"
            )
        check_divisible(shape, self.decomp_level)


def marginal_image(density: Density2D) -> Density2D:
    """Outer product of the two axis sums, normalised like the input."""
    marg_k, marg_p = density.marginals()
    total = density.values.sum()
    if total == 0.0:
        raise DomainError("cannot form the marginal image of an all-zero density")
    values = np.outer(marg_k, marg_p) / total
    return replace(density, values=values)


def excess_g2(density: Density2D) -> Density2D:
    """Excess two-photon correlation: density minus its marginal image."""
    values = density.values - marginal_image(density).values
    return replace(density, values=values, normalized=False)


def _radial_freq(shape) -> np.ndarray:
    fy = np.fft.fftfreq(shape[0])[:, None]
    fx = np.fft.fftfreq(shape[1])[None, :]
    return np.sqrt(fy * fy + fx * fx)


def psd_cutoff(image: np.ndarray, power_fraction: float) -> float:
    """Radial frequency (cycles/pixel) holding the given fraction of the
    structured spectral power.

    The mean (DC bin) does not count as structure; a uniform pedestal has zero
    bandwidth under this definition.
    """
    spectrum = np.abs(np.fft.fft2(image)) ** 2
    radius = _radial_freq(image.shape).ravel()
    power = spectrum.ravel()
    order = np.argsort(radius)
    power = power[order][1:]  # drop the DC bin
    cumulative = np.cumsum(power)
    total = cumulative[-1]
    if total <= 0.0:
        raise DomainError("image has no structured spectral power")
    idx = int(np.searchsorted(cumulative, power_fraction * total))
    idx = min(idx, power.size - 1)
    return float(radius[order][1:][idx])


def _highpass_above(image: np.ndarray, cutoff: float) -> np.ndarray:
    """Remove the structured band up to the cutoff, keeping the mean.

    The surviving pedestal is deliberate: it is absorbed by the offset term of
    the downstream Gaussian fits, and removing it would dig negative moats
    around the signal that the final clamp turns into a fresh low-frequency
    artefact on every re-application.
    """
    r = _radial_freq(image.shape)
    mask = r > cutoff
    mask[0, 0] = True
    return np.fft.ifft2(np.fft.fft2(image) * mask).real


def _tapered_lowpass(image: np.ndarray, cutoff: float, bandwidth_px: float) -> np.ndarray:
    """Low-pass with a Gaussian roll-off of the given real-space width.

    Flat inside the pass band, so repeated application only touches the
    roll-off region; this keeps the cleaning close to idempotent while still
    smoothing at the kernel-density bandwidth.
    """
    r = _radial_freq(image.shape)
    taper_q = 1.0 / (2.0 * math.pi * bandwidth_px)
    window = np.where(r <= cutoff, 1.0, np.exp(-0.5 * ((r - cutoff) / taper_q) ** 2))
    return np.fft.ifft2(np.fft.fft2(image) * window).real


def clean_density(density: Density2D, config: CleaningConfig = CleaningConfig()) -> Density2D:
    """Appendix-style spectral cleaning; output is non-negative and renormalised.

    Steps: wavelet-decompose the density; take the structured bandwidth of the
    marginal image's approximation band, the outer product of the marginals'
    1D bands (the cutoff does not depend on the image's scale); remove that
    band from the density's approximation; reconstruct with the original
    detail bands; apply the smoothing low-pass; clamp and normalise like the
    input.
    """
    config.check_image(density.values.shape)
    bands = (approximation_1d(m, config.wavelet_order, config.decomp_level) for m in density.marginals())
    cutoff = psd_cutoff(np.outer(*bands), config.psd_threshold)
    coeffs_m = wavedec2(density.values, config.wavelet_order, config.decomp_level)
    coeffs_m[0] = _highpass_above(coeffs_m[0], cutoff)
    rebuilt = waverec2(coeffs_m, config.wavelet_order)
    rebuilt = _tapered_lowpass(rebuilt, config.lowpass_cutoff, config.kde_bandwidth)
    rebuilt = np.clip(rebuilt, 0.0, None)
    cleaned = replace(density, values=rebuilt, normalized=False)
    if density.normalized:
        cleaned = cleaned.self_normalized()
    return cleaned
