"""Minimal orthonormal Daubechies wavelet transforms.

PyWavelets is not a dependency; the few pieces the cleaning pipeline needs
(filter coefficients, periodized separable 2D analysis/synthesis) are small
enough to carry here.  Filters are built by spectral factorization of the
Daubechies half-band polynomial, keeping the minimum-phase roots; order p
gives the classic 2p-tap filter with p vanishing moments.  The transform uses
periodic boundary handling, so every level requires even array lengths and
reconstruction is exact to rounding.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .states import DomainError

__all__ = ["daubechies_filters", "check_divisible", "dwt2", "idwt2", "wavedec2", "waverec2"]


@lru_cache(maxsize=None)
def daubechies_filters(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(lowpass, highpass) analysis filters for the Daubechies family."""
    if order < 1 or order > 20:
        raise DomainError(f"wavelet order must be in 1..20, got {order}")
    if order == 1:
        h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    else:
        # binomial polynomial P(y) = sum C(order-1+k, k) y^k, y = (2 - z - 1/z)/4
        poly = np.zeros(2 * order - 1)
        for k in range(order):
            c = math.comb(order - 1 + k, k) * (-0.25) ** k
            term = c * np.polynomial.polynomial.polypow([-1.0, 1.0], 2 * k)  # (z-1)^(2k)
            shift = order - 1 - k  # times z^(order-1-k)
            poly[shift : shift + term.size] += term
        roots = np.roots(poly[::-1])
        kept = roots[np.abs(roots) < 1.0]
        q = np.polynomial.polynomial.polyfromroots(kept).real
        h = np.polynomial.polynomial.polypow([1.0, 1.0], order)
        h = np.convolve(h, q)
        h = h * math.sqrt(2.0) / h.sum()
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return h, g


def _analysis_axis(arr: np.ndarray, filt: np.ndarray, axis: int) -> np.ndarray:
    """Periodized filter-and-downsample along one axis."""
    arr = np.moveaxis(arr, axis, 0)
    n = arr.shape[0]
    if n % 2 != 0:
        raise DomainError(f"axis length {n} must be even for the periodized transform")
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(filt.size)[None, :]) % n
    out = np.tensordot(arr[idx], filt, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def _synthesis_axis(low: np.ndarray, high: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    low = np.moveaxis(low, axis, 0)
    high = np.moveaxis(high, axis, 0)
    half = low.shape[0]
    n = 2 * half
    out = np.zeros((n,) + low.shape[1:], dtype=np.result_type(low, high))
    base = 2 * np.arange(half)
    for tap in range(h.size):
        pos = (base + tap) % n
        out[pos] += low * h[tap] + high * g[tap]
    return np.moveaxis(out, 0, axis)


def dwt2(img: np.ndarray, order: int):
    """One separable analysis level: (approx, (horiz, vert, diag)) detail bands."""
    h, g = daubechies_filters(order)
    lo = _analysis_axis(img, h, 0)
    hi = _analysis_axis(img, g, 0)
    ll = _analysis_axis(lo, h, 1)
    lh = _analysis_axis(lo, g, 1)
    hl = _analysis_axis(hi, h, 1)
    hh = _analysis_axis(hi, g, 1)
    return ll, (lh, hl, hh)


def idwt2(approx: np.ndarray, details, order: int) -> np.ndarray:
    h, g = daubechies_filters(order)
    lh, hl, hh = details
    lo = _synthesis_axis(approx, lh, h, g, 1)
    hi = _synthesis_axis(hl, hh, h, g, 1)
    return _synthesis_axis(lo, hi, h, g, 0)


def check_divisible(shape, level: int) -> None:
    """Refuse a shape that ``level`` periodized levels cannot halve."""
    for dim in shape:
        if dim % (1 << level) != 0:
            raise DomainError(
                f"image dimension {dim} is not divisible by 2^{level}; "
                "reduce the decomposition level or pad the image"
            )


def wavedec2(img: np.ndarray, order: int, level: int):
    """[approx_L, details_L, ..., details_1] multi-level decomposition."""
    if level < 1:
        raise DomainError("decomposition level must be >= 1")
    check_divisible(img.shape, level)
    coeffs = []
    approx = np.asarray(img, dtype=float)
    for _ in range(level):
        approx, details = dwt2(approx, order)
        coeffs.append(details)
    return [approx] + coeffs[::-1]


def waverec2(coeffs, order: int) -> np.ndarray:
    approx = coeffs[0]
    for details in coeffs[1:]:
        approx = idwt2(approx, details, order)
    return approx
