"""Statistical cleaning of estimated densities.

Finite sampling leaves the correlation estimate with a low-frequency artefact
shaped like the product of the photon marginals, riding on shot noise.  Plain
subtraction of that marginal image (the excess-correlation map) removes its
mean but not its structure, so the cleaning pipeline works spectrally instead:
wavelet-decompose the density, measure the marginal image's spatial-frequency
bandwidth, high-pass the density's approximation above that bandwidth,
reconstruct, then low-pass and smooth.  Every column of a periodized lowpass
half sums to 1/sqrt(2), so the row and column sums of the density's own
approximation band are the marginals' bands up to a scale, and their outer
product is the marginal image's band; the cutoff does not depend on scale, so
the marginal image is never decomposed.  Each wavelet level is one orthogonal
matrix (see :mod:`purephase.wavelets`).  Defaults were tuned once on
synthetic stacks and are frozen in :class:`CleaningConfig`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import Density2D
from .states import DomainError
from .wavelets import check_divisible, daubechies_filters, wavedec2, waverec2

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
    total = density.values.sum()
    if total == 0.0:
        raise DomainError("cannot form the marginal image of an all-zero density")
    values = np.outer(density.values.sum(axis=1), density.values.sum(axis=0)) / total
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


def _filtered(image: np.ndarray, window: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(np.fft.fft2(image) * window).real


def clean_density(density: Density2D, config: CleaningConfig) -> Density2D:
    """Appendix-style spectral cleaning; output is non-negative and renormalised.

    Steps: wavelet-decompose the density; take the structured bandwidth of the
    marginal image's approximation band, the outer product of the row and
    column sums of the density's approximation band (the cutoff does not
    depend on the image's scale); remove that band from the density's
    approximation; reconstruct with the original detail bands; apply the
    smoothing low-pass; clamp and normalise like the input.
    """
    config.check_image(density.values.shape)
    coeffs_m = wavedec2(density.values, config.wavelet_order, config.decomp_level)
    approx = coeffs_m[0]
    cutoff = psd_cutoff(np.outer(approx.sum(axis=1), approx.sum(axis=0)), config.psd_threshold)
    # the surviving pedestal is deliberate: it is absorbed by the offset term
    # of the downstream Gaussian fits, and removing it would dig negative moats
    # around the signal that the final clamp turns into a fresh low-frequency
    # artefact on every re-application
    highpass = _radial_freq(approx.shape) > cutoff
    highpass[0, 0] = True
    coeffs_m[0] = _filtered(approx, highpass)
    rebuilt = waverec2(coeffs_m, config.wavelet_order)
    # flat inside the pass band, so repeated application only touches the
    # Gaussian roll-off (kde_bandwidth wide in real space); this keeps the
    # cleaning close to idempotent
    r, cut = _radial_freq(rebuilt.shape), config.lowpass_cutoff
    taper_q = 1.0 / (2.0 * math.pi * config.kde_bandwidth)
    lowpass = np.where(r <= cut, 1.0, np.exp(-0.5 * ((r - cut) / taper_q) ** 2))
    rebuilt = np.clip(_filtered(rebuilt, lowpass), 0.0, None)
    cleaned = replace(density, values=rebuilt, normalized=False)
    if density.normalized:
        cleaned = cleaned.self_normalized()
    return cleaned
