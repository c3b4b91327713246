"""Minimal orthonormal Daubechies wavelet transforms.

PyWavelets is not a dependency; the few pieces the cleaning pipeline needs
are small enough to carry here.  Filters are built by spectral factorization
of the Daubechies half-band polynomial, keeping the minimum-phase roots; order
p gives the classic 2p-tap filter with p vanishing moments.  Boundaries are
periodic, so one level on an axis of n (even) samples is one cached orthogonal
(n, n) matrix, lowpass rows over highpass rows.  A 2D level is
``m0 @ x @ m1.T`` and its inverse the transposed product, exact to rounding.
Every column of a lowpass half sums to 1/sqrt(2), wrapped taps included, so
the row and column sums of an approximation band are 2^(-level/2) times the
approximation bands of the image's row and column sums.  The approximation
band alone is ``a0 @ x @ a1.T``, with a0 and a1 the cached products of the
levels' lowpass halves; the cleaning stage uses only that, and ``wavedec2``
and ``waverec2`` give every band.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .states import DomainError

__all__ = ["daubechies_filters", "check_divisible", "wavedec2", "waverec2"]


@lru_cache(maxsize=None)
def daubechies_filters(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(lowpass, highpass) analysis filters for the Daubechies family."""
    # the factorization's roots lose precision with order: the filter's
    # orthonormality defect is 1.1e-12 at order 10 but 1.2e-10 at 11
    if order < 1 or order > 10:
        raise DomainError(f"wavelet order must be in 1..10, got {order}")
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


@lru_cache(maxsize=None)
def _level(n: int, order: int) -> np.ndarray:
    """Read-only (n, n) analysis level: row j of each half is its filter
    shifted by 2j, and taps that wrap past the end (n < 2 order) add up."""
    h, g = daubechies_filters(order)
    rows = np.arange(n // 2)[:, None]
    cols = (2 * rows + np.arange(h.size)) % n
    m = np.zeros((n, n))
    np.add.at(m, (rows, cols), h)
    np.add.at(m, (rows + n // 2, cols), g)
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _lowpass_product(n: int, order: int, level: int) -> np.ndarray:
    """Read-only (n >> level, n) product of the lowpass halves of ``level``
    levels: the approximation band of x along one axis is this times x."""
    product = _level(n, order)[: n // 2]
    for done in range(1, level):
        product = _level(n >> done, order)[: n >> (done + 1)] @ product
    product.flags.writeable = False
    return product


def check_divisible(shape, level: int) -> None:
    """Refuse a shape that ``level`` periodized levels cannot halve."""
    for dim in shape:
        if dim % (1 << level) != 0:
            raise DomainError(
                f"image dimension {dim} is not divisible by 2^{level}; "
                "reduce the decomposition level or pad the image"
            )


def wavedec2(img: np.ndarray, order: int, level: int):
    """[approx_L, details_L, ..., details_1] multi-level decomposition; each
    details entry is the (horiz, vert, diag) band triple of one level."""
    if level < 1:
        raise DomainError("decomposition level must be >= 1")
    check_divisible(img.shape, level)
    coeffs = []
    approx = np.asarray(img, dtype=float)
    for _ in range(level):
        r, c = approx.shape[0] // 2, approx.shape[1] // 2
        bands = _level(2 * r, order) @ approx @ _level(2 * c, order).T
        approx = bands[:r, :c]
        coeffs.append((bands[:r, c:], bands[r:, :c], bands[r:, c:]))
    return [approx] + coeffs[::-1]


def waverec2(coeffs, order: int) -> np.ndarray:
    approx = coeffs[0]
    for lh, hl, hh in coeffs[1:]:
        m0, m1 = (_level(2 * size, order) for size in approx.shape)
        approx = m0.T @ np.block([[approx, lh], [hl, hh]]) @ m1
    return approx
