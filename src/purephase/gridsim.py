"""Discretized two-particle wavefunction: the independent numerical oracle.

Every closed-form quantity in the analytic modules has a counterpart here
computed by FFT propagation and quadrature on an (x1, x2) grid.  Conventions
match :mod:`purephase.optics`: Fresnel kernel exp(+1j*k*(x-x')^2/(2*z)) (so the
transfer function is exp(-1j*q^2*z*lam/(4*pi))) and Fourier transforms with
the exp(-1j*q*x) kernel, which is numpy's forward FFT.

A grid is built without a full-grid transcendental.  At centred indices i, j
the exponent is a11 i^2 + a22 j^2 + 2 c i j, with a11 = m11 dx1^2,
a22 = m22 dx2^2 and c = m12 dx1 dx2, and 4ij = (i+j)^2 - (i-j)^2 splits it,
for any s, into

    (a11 - s) i^2 + (a22 - s) j^2 + (s + c)/2 (i+j)^2 + (s - c)/2 (i-j)^2.

So psi = A[i] B[j] H[i+j] T[i-j]: four 1D exp tables, with H and T read as
Hankel and Toeplitz views.  s is whichever of a11, a22 has the smaller real
part, which makes that axis's table all ones, so the grid costs one complex
product and at most one axis scaling.  Every table is then largest at the
grid centre exactly when |Re c| <= Re s; this holds for every
exchange-symmetric state on an equal-pitch grid.  When it fails (unequal
pitches can break it) a table can overflow exp, and the grid falls back to
the state's own pointwise ``evaluate``, whose exponent is one sum.

Each full-grid quantity is computed once.  A state squares its amplitudes in
one pass, on first use, into cached row and column sums; the norm, the
marginals and their widths read those sums, and a conditional slice squares
only its own row or column.  The density and the conditional-mean profile
square the grid once and normalise by their own sum.

A Fresnel propagation treats one axis at a time, axis 1 first: an FFT, the
transfer factor and an inverse FFT, in place on the result's own buffer.  An
FFT along axis 0 strides across rows and costs about three times one along
axis 1, so axis 0's pair runs on a transposed copy, made a block of rows at a
time.  The chirped axis-0 spectrum is then the axis-0 FFT of the result.  A
partial Fourier transform of photon 1 needs the DFT of (-1)^i psi, which for
an even axis is that FFT shifted by half the axis.  So the blocked copy of the
spectrum back out of the transposed buffer writes it shifted, the result keeps
it, and the partial transform takes it over and runs no FFT of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optics import _target_axes
from .states import DomainError, GaussianBiphotonState

__all__ = ["GridSpec", "GridState", "discretize", "auto_grid_spec", "fft_fresnel", "grid_pft"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform centred grid: axis i has n_i samples at pitch dx_i, origin -n_i/2*dx_i."""

    n1: int
    n2: int
    dx1: float
    dx2: float

    def __post_init__(self):
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if n < 4 or (n & (n - 1)) != 0:
                raise DomainError(f"{name} must be a power of two >= 4, got {n}")
        for name in ("dx1", "dx2"):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be positive")

    def axis(self, which: int) -> np.ndarray:
        n, dx = (self.n1, self.dx1) if which == 1 else (self.n2, self.dx2)
        return (np.arange(n) - n // 2) * dx


@dataclass(frozen=True)
class GridState:
    """Complex two-particle amplitude sampled on a uniform grid.

    axis 0 of ``amplitudes`` is the first particle's coordinate.  After a
    partial Fourier transform the first axis holds a spatial frequency in
    rad/um instead of a position; the bookkeeping is identical.  The
    amplitudes are treated as immutable: the |psi|^2 sums are cached on first
    use, and every transform returns a new state.  A state from
    ``fft_fresnel`` also keeps its axis-0 spectrum, outside the fields, until
    ``grid_pft`` takes it.
    """

    amplitudes: np.ndarray
    dx1: float
    dx2: float
    x1_0: float
    x2_0: float
    wavelength: float

    @property
    def x1_axis(self) -> np.ndarray:
        return self.x1_0 + np.arange(self.amplitudes.shape[0]) * self.dx1

    @property
    def x2_axis(self) -> np.ndarray:
        return self.x2_0 + np.arange(self.amplitudes.shape[1]) * self.dx2

    @cached_property
    def _power_sums(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(photon 1's, photon 2's) marginal sums of |psi|^2 and the total: one pass over the grid."""
        p = _power(self.amplitudes)
        rows = p.sum(axis=1)
        return rows, p.sum(axis=0), float(rows.sum())

    def _axes(self, which: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(grid axis, coordinates, other's coordinates) of particle ``which``; photon 2 sees the grid transposed."""
        axes = (self.x1_axis, self.x2_axis)
        return which - 1, axes[which - 1], axes[2 - which]

    def norm(self) -> float:
        return self._power_sums[2] * self.dx1 * self.dx2

    def density(self) -> np.ndarray:
        """|psi|^2 normalised as a continuous density (integrates to 1)."""
        d = _power(self.amplitudes)
        d /= d.sum() * self.dx1 * self.dx2
        return d

    # -- quadrature estimates ------------------------------------------------

    def marginal(self, which: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(axis, density) of one particle's marginal distribution."""
        own, x, _ = self._axes(which)
        sums = self._power_sums
        return x, sums[own] / (sums[2] * (self.dx1, self.dx2)[own])

    def marginal_std(self, which: int = 1) -> float:
        return _weighted_std(*self.marginal(which))

    def conditional_slice(self, which: int = 1, at: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Density profile of one particle with the other fixed at the nearest grid line."""
        own, x, other = self._axes(which)
        idx = int(np.argmin(np.abs(other - at)))
        return x, _power(np.moveaxis(self.amplitudes, own, 0)[:, idx]) / self.norm()

    def conditional_std(self, which: int = 1, at: float = 0.0) -> float:
        x, p = self.conditional_slice(which, at)
        if p.sum() <= 0.0:
            raise DomainError("empty conditional slice")
        return _weighted_std(x, p)

    def fedorov_ratio(self) -> float:
        return self.marginal_std(1) / self.conditional_std(1, 0.0)

    def conditional_mean_profile(self, which: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean of the ``which`` coordinate at each value of the other, with those values' weights.

        Used to regress the conditional-mean slope against the closed form.
        """
        own, x, y = self._axes(which)
        d = np.moveaxis(self.density(), own, 0)
        moments, weights = x @ d, d.sum(axis=0)
        means = np.where(weights > 0, moments / np.maximum(weights, 1e-300), 0.0)
        return y, means, weights


def _power(amp: np.ndarray) -> np.ndarray:
    """|amp|^2 as a new float array."""
    p = np.abs(amp)
    p *= p
    return p


def _weighted_std(x: np.ndarray, w: np.ndarray) -> float:
    total = w.sum()
    mean = (x * w).sum() / total
    return math.sqrt(((x - mean) ** 2 * w).sum() / total)


# ---------------------------------------------------------------------------
# construction


def _corner_phase_gradient(state: GaussianBiphotonState, half: list[float], axis: int) -> float:
    """Phase gradient 2(|Im m_ii| h_i + |Im m12| h_j) along ``axis`` at the corner of a
    grid of half-extents ``half``; a pitch samples it below Nyquist while gradient * pitch < pi."""
    m_ii = state.m11 if axis == 0 else state.m22
    return 2.0 * (abs(m_ii.imag) * half[axis] + abs(state.m12.imag) * half[1 - axis])


def _sampling_requirements(state: GaussianBiphotonState, spec: GridSpec):
    """Check extent, pitch and phase-sampling adequacy; raise listing required n."""
    half = [spec.n1 * spec.dx1 / 2.0, spec.n2 * spec.dx2 / 2.0]
    for axis, (n, dx) in enumerate(((spec.n1, spec.dx1), (spec.n2, spec.dx2))):
        extent = n * dx
        marg, cond = state.marginal_position_std(axis + 1), state.conditional_position_std(axis + 1)
        if extent < 8.0 * marg:
            need = 2 ** math.ceil(math.log2(8.0 * marg / dx))
            raise DomainError(
                f"grid axis {axis + 1} extent {extent:.3g} um < 8 marginal sigma "
                f"({8 * marg:.3g} um); need n >= {need} at this pitch"
            )
        if dx > cond / 8.0:
            raise DomainError(
                f"grid axis {axis + 1} pitch {dx:.3g} um exceeds sigma_min/8 = "
                f"{cond / 8.0:.3g} um"
            )
        kmax = _corner_phase_gradient(state, half, axis)
        if kmax * dx > math.pi:
            raise DomainError(
                f"grid axis {axis + 1} pitch {dx:.3g} um cannot resolve the quadratic phase "
                f"at the grid edge; needs pitch <= {math.pi / kmax:.3g} um"
            )


def auto_grid_spec(
    state: GaussianBiphotonState,
    extent_sigmas: float = 12.0,
    points_per_sigma: float = 8.0,
    max_n: int = 4096,
) -> GridSpec:
    """Smallest power-of-two grid meeting the sampling invariants with margin."""
    sigma_m = [state.marginal_position_std(1), state.marginal_position_std(2)]
    sigma_c = [state.conditional_position_std(1), state.conditional_position_std(2)]
    dx = [sigma_c[0] / points_per_sigma, sigma_c[1] / points_per_sigma]
    n = [8, 8]
    for _ in range(80):
        for i in (0, 1):
            n[i] = max(8, 2 ** math.ceil(math.log2(extent_sigmas * sigma_m[i] / dx[i])))
        half = [n[0] * dx[0] / 2.0, n[1] * dx[1] / 2.0]
        ok = True
        for i in (0, 1):
            kmax = _corner_phase_gradient(state, half, i)
            if kmax * dx[i] > 0.9 * math.pi:
                dx[i] = 0.8 * 0.9 * math.pi / kmax
                ok = False
        if ok:
            break
    if max(n) > max_n:
        raise DomainError(f"state needs n={max(n)} > max_n={max_n} grid points per axis")
    return GridSpec(n[0], n[1], dx[0], dx[1])


def _factor_grid(state: GaussianBiphotonState, spec: GridSpec) -> np.ndarray | None:
    """psi on the grid as A[i] B[j] H[i+j] T[i-j] (see the module docstring),
    or None when some table could grow past the peak."""
    n1, n2 = spec.n1, spec.n2
    a11, a22 = state.m11 * spec.dx1**2, state.m22 * spec.dx2**2
    c = state.m12 * spec.dx1 * spec.dx2
    s = a11 if a11.real <= a22.real else a22
    if abs(c.real) > s.real:
        return None
    u = np.arange(n1 + n2 - 1, dtype=float)
    sums = u - (n1 // 2 + n2 // 2)  # i + j at [k, l] is sums[k + l]
    diffs = u - (n1 // 2 + n2 - 1 - n2 // 2)  # i - j at [k, l] is diffs[k - l + n2 - 1]
    hankel = sliding_window_view(np.exp(state.log_norm - 0.5 * (s + c) * sums * sums), n2)
    toeplitz = sliding_window_view(np.exp(-0.5 * (s - c) * diffs * diffs), n2)[:, ::-1]
    amp = np.multiply(hankel, toeplitz)
    # s is a11 or a22: that axis's table is all ones and is skipped
    if a11 != s:
        i = np.arange(n1, dtype=float) - n1 // 2
        amp *= np.exp(-(a11 - s) * i * i)[:, None]
    if a22 != s:
        j = np.arange(n2, dtype=float) - n2 // 2
        amp *= np.exp(-(a22 - s) * j * j)
    return amp


def discretize(state: GaussianBiphotonState, spec: GridSpec) -> GridState:
    """Pointwise evaluation of the state on the grid, renormalised to unit norm."""
    _sampling_requirements(state, spec)
    x1, x2 = spec.axis(1), spec.axis(2)
    amp = _factor_grid(state, spec)
    if amp is None:
        amp = state.evaluate(x1[:, None], x2[None, :])
    # einsum sums in one fixed order, with no temporary; BLAS's vdot splits the sum across threads
    parts = amp.view(np.float64)
    # a complex /= costs twice a *= by the reciprocal
    amp *= 1.0 / math.sqrt(np.einsum("ij,ij->", parts, parts) * spec.dx1 * spec.dx2)
    return GridState(amp, spec.dx1, spec.dx2, float(x1[0]), float(x2[0]), state.wavelength)


# ---------------------------------------------------------------------------
# propagation and transforms


def _axis_freq(n: int, dx: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(n, d=dx)


def _along(vector: np.ndarray, axis: int) -> np.ndarray:
    """A 1D vector shaped to broadcast along one axis of a 2D grid."""
    return vector.reshape((-1, 1) if axis == 0 else (1, -1))


# rows per copy in a blocked transpose: on a 2048^2 complex grid, 32-64 rows
# (1-2 MB) copy fastest, and 128 or more take twice as long
_BLOCK_ROWS = 64
# key, in a propagated state's __dict__, of the half-shifted axis-0 spectrum of its amplitudes
_SPECTRUM = "_axis0_spectrum"


def _transpose(src: np.ndarray, dest: np.ndarray | None = None, shift: int = 0) -> np.ndarray:
    """src.T as a C-contiguous complex array, copied a block of rows at a time.

    Row i of the result is column (i + shift) mod n of src.
    """
    if dest is None:
        dest = np.empty(src.shape[::-1], dtype=complex)
    n = src.shape[1]
    for row in range(0, src.shape[0], _BLOCK_ROWS):
        block = src[row : row + _BLOCK_ROWS].T
        dest[: n - shift, row : row + _BLOCK_ROWS] = block[shift:]
        dest[n - shift :, row : row + _BLOCK_ROWS] = block[:shift]
    return dest


def fft_fresnel(g: GridState, z: float, target: str = "both") -> GridState:
    """Fresnel-propagate along the targeted axis (or both) by distance z (um).

    When axis 0 is targeted, the result keeps the axis-0 spectrum of its
    amplitudes, shifted by half the axis, for ``grid_pft`` (see the module
    docstring).

    The propagated field must stay inside the grid: its measured marginal
    width on each targeted axis has to fit within a quarter of the grid extent
    per side.  A field that wrapped round the periodic grid measures wide (its
    width saturates near 0.29 of the extent), so an overflow is refused too.
    """
    axes = _target_axes(target)
    if not math.isfinite(z):
        raise DomainError(f"propagation distance must be finite, got z = {z} um")
    if z == 0.0:
        return g
    k = 2.0 * math.pi / g.wavelength
    dx = (g.dx1, g.dx2)

    def transfer(axis: int) -> np.ndarray:
        q = _axis_freq(g.amplitudes.shape[axis], dx[axis])
        return np.exp(-1j * q * q * z / (2.0 * k))

    amp = g.amplitudes
    if 1 in axes:
        amp = np.fft.fft(amp, axis=1)
        amp *= transfer(1)
        np.fft.ifft(amp, axis=1, out=amp)
    spectrum = None
    if 0 in axes:
        rows = _transpose(amp)
        np.fft.fft(rows, axis=1, out=rows)
        rows *= transfer(0)
        # grid_pft's DFT of (-1)^i psi: psi's DFT shifted by half the axis (used only when even)
        spectrum = _transpose(rows, shift=rows.shape[1] // 2)
        np.fft.ifft(rows, axis=1, out=rows)
        amp = _transpose(rows, amp if amp is not g.amplitudes else None)
        del rows  # before the support check squares the grid
    out = replace(g, amplitudes=amp)
    if spectrum is not None:
        out.__dict__[_SPECTRUM] = spectrum  # not a field, so replace() never carries it
    for axis in axes:
        extent, width = amp.shape[axis] * dx[axis], out.marginal_std(axis + 1)
        if extent < 8.0 * width:
            raise DomainError(
                f"propagation by {z:.3g} um grows axis {axis + 1} to sigma ~ "
                f"{width:.3g} um; grid extent {extent:.3g} um < 8 sigma"
            )
    return out


def grid_pft(g: GridState, target: str = "photon1") -> GridState:
    """Partial Fourier transform: targeted axis goes to spatial frequency (rad/um).

    A state from ``fft_fresnel`` hands over its axis-0 spectrum once: the
    first transform of axis 0 takes that buffer as its result, with no FFT.
    """
    axes = _target_axes(target)
    amp = g.amplitudes
    for axis in axes:
        if amp.shape[axis] % 2:
            raise DomainError(
                f"partial Fourier transform needs an even axis {axis + 1}, got {amp.shape[axis]} points"
            )
    dx = [g.dx1, g.dx2]
    origin = [g.x1_0, g.x2_0]
    handed = g.__dict__.pop(_SPECTRUM, None) if 0 in axes else None
    for axis in axes:
        n = amp.shape[axis]
        if axis == 0 and handed is not None:
            spec = handed
        else:
            # (-1)^j on the input yields the DFT already fftshifted (n is even)
            sign = _along((-1.0) ** np.arange(n), axis)
            spec = np.multiply(amp, sign, out=amp if amp is not g.amplitudes else None)
            np.fft.fft(spec, axis=axis, out=spec)
        # continuum amplitude: dx * exp(-i q x0) * DFT, unitary 1/sqrt(2 pi)
        q = np.fft.fftshift(_axis_freq(n, dx[axis]))
        spec *= _along(np.exp(-1j * q * origin[axis]) * (dx[axis] / math.sqrt(2.0 * math.pi)), axis)
        amp = spec
        dq = 2.0 * math.pi / (n * dx[axis])
        dx[axis] = dq
        origin[axis] = -(n // 2) * dq
    return GridState(amp, dx[0], dx[1], origin[0], origin[1], g.wavelength)
