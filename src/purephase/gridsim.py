"""Discretized two-particle wavefunction: the independent numerical oracle.

Every closed-form quantity in the analytic modules has a counterpart here
computed by FFT propagation and quadrature on an (x1, x2) grid.  Conventions
match :mod:`purephase.optics`: Fresnel kernel exp(+1j*k*(x-x')^2/(2*z)) (so the
transfer function is exp(-1j*q^2*z*lam/(4*pi))) and Fourier transforms with
the exp(-1j*q*x) kernel, which is numpy's forward FFT.

Each full-grid quantity is computed once.  A state squares its amplitudes in
one pass, on first use, into cached row and column sums; the norm, the
marginals and their widths read those sums, and a conditional slice squares
only its own row or column.  A Fresnel propagation takes one spectrum over the
targeted axes: its marginals give the support check and the transfer factors
are multiplied into it in place before the one inverse FFT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

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
        n = self.n1 if which == 1 else self.n2
        dx = self.dx1 if which == 1 else self.dx2
        return (np.arange(n) - n // 2) * dx


@dataclass(frozen=True)
class GridState:
    """Complex two-particle amplitude sampled on a uniform grid.

    axis 0 of ``amplitudes`` is the first particle's coordinate.  After a
    partial Fourier transform the first axis holds a spatial frequency in
    rad/um instead of a position; the bookkeeping is identical.  The
    amplitudes are treated as immutable: the |psi|^2 sums are cached on first
    use, and every transform returns a new state.
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
        """(row sums, column sums, total) of |psi|^2: one pass over the grid."""
        rows, cols = _power_marginals(self.amplitudes)
        return rows, cols, float(rows.sum())

    def norm(self) -> float:
        return self._power_sums[2] * self.dx1 * self.dx2

    def density(self) -> np.ndarray:
        """|psi|^2 normalised as a continuous density (integrates to 1)."""
        d = _power(self.amplitudes)
        d /= self.norm()
        return d

    # -- quadrature estimates ------------------------------------------------

    def marginal(self, which: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(axis, density) of one particle's marginal distribution."""
        rows, cols, total = self._power_sums
        if which == 1:
            return self.x1_axis, rows / (total * self.dx1)
        return self.x2_axis, cols / (total * self.dx2)

    def marginal_std(self, which: int = 1) -> float:
        return _weighted_std(*self.marginal(which))

    def conditional_slice(self, which: int = 1, at: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Density profile of one particle with the other fixed at the nearest column."""
        if which == 1:
            idx = int(np.argmin(np.abs(self.x2_axis - at)))
            x, amp = self.x1_axis, self.amplitudes[:, idx]
        else:
            idx = int(np.argmin(np.abs(self.x1_axis - at)))
            x, amp = self.x2_axis, self.amplitudes[idx, :]
        return x, _power(amp) / self.norm()

    def conditional_std(self, which: int = 1, at: float = 0.0) -> float:
        x, p = self.conditional_slice(which, at)
        if p.sum() <= 0.0:
            raise DomainError("empty conditional slice")
        return _weighted_std(x, p)

    def fedorov_ratio(self) -> float:
        return self.marginal_std(1) / self.conditional_std(1, 0.0)

    def conditional_mean_profile(self, which: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-column mean of the ``which`` coordinate, with column weights.

        Used to regress the conditional-mean slope against the closed form.
        """
        d = self.density()
        rows, cols, _ = self._power_sums
        scale = self.norm()
        if which == 1:
            y, moments, weights = self.x2_axis, self.x1_axis @ d, cols / scale
        else:
            y, moments, weights = self.x1_axis, d @ self.x2_axis, rows / scale
        means = np.where(weights > 0, moments / np.maximum(weights, 1e-300), 0.0)
        return y, means, weights


def _power(amp: np.ndarray) -> np.ndarray:
    """|amp|^2 as a new float array."""
    p = np.abs(amp)
    p *= p
    return p


def _power_marginals(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of |amp|^2."""
    p = _power(amp)
    return p.sum(axis=1), p.sum(axis=0)


def _weighted_std(x: np.ndarray, w: np.ndarray) -> float:
    total = w.sum()
    mean = (x * w).sum() / total
    return math.sqrt(((x - mean) ** 2 * w).sum() / total)


# ---------------------------------------------------------------------------
# construction


def _sampling_requirements(state: GaussianBiphotonState, spec: GridSpec):
    """Check extent, pitch and phase-sampling adequacy; raise listing required n."""
    marg = [state.marginal_position_std(1), state.marginal_position_std(2)]
    cond = [state.conditional_position_std(1), state.conditional_position_std(2)]
    for axis, (n, dx) in enumerate(((spec.n1, spec.dx1), (spec.n2, spec.dx2))):
        extent = n * dx
        if extent < 8.0 * marg[axis]:
            need = 2 ** math.ceil(math.log2(8.0 * marg[axis] / dx))
            raise DomainError(
                f"grid axis {axis + 1} extent {extent:.3g} um < 8 marginal sigma "
                f"({8 * marg[axis]:.3g} um); need n >= {need} at this pitch"
            )
        if dx > cond[axis] / 8.0:
            raise DomainError(
                f"grid axis {axis + 1} pitch {dx:.3g} um exceeds sigma_min/8 = "
                f"{cond[axis] / 8.0:.3g} um"
            )
    # local phase gradient at the grid corner must stay below Nyquist
    half1 = spec.n1 * spec.dx1 / 2.0
    half2 = spec.n2 * spec.dx2 / 2.0
    k1 = 2.0 * (abs(state.m11.imag) * half1 + abs(state.m12.imag) * half2)
    k2 = 2.0 * (abs(state.m22.imag) * half2 + abs(state.m12.imag) * half1)
    if k1 * spec.dx1 > math.pi or k2 * spec.dx2 > math.pi:
        raise DomainError(
            "grid pitch cannot resolve the quadratic phase at the grid edge "
            f"(needs dx1 <= {math.pi / max(k1, 1e-300):.3g}, dx2 <= {math.pi / max(k2, 1e-300):.3g})"
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
    im_diag = [abs(state.m11.imag), abs(state.m22.imag)]
    im_cross = abs(state.m12.imag)
    dx = [sigma_c[0] / points_per_sigma, sigma_c[1] / points_per_sigma]
    n = [8, 8]
    for _ in range(80):
        for i in (0, 1):
            n[i] = max(8, 2 ** math.ceil(math.log2(extent_sigmas * sigma_m[i] / dx[i])))
        half = [n[0] * dx[0] / 2.0, n[1] * dx[1] / 2.0]
        ok = True
        for i in (0, 1):
            kmax = 2.0 * (im_diag[i] * half[i] + im_cross * half[1 - i])
            if kmax * dx[i] > 0.9 * math.pi:
                dx[i] = 0.8 * 0.9 * math.pi / kmax
                ok = False
        if ok:
            break
    if max(n) > max_n:
        raise DomainError(f"state needs n={max(n)} > max_n={max_n} grid points per axis")
    return GridSpec(n[0], n[1], dx[0], dx[1])


def discretize(state: GaussianBiphotonState, spec: GridSpec) -> GridState:
    """Pointwise evaluation of the state on the grid, renormalised to unit norm."""
    _sampling_requirements(state, spec)
    x1 = spec.axis(1)[:, None]
    x2 = spec.axis(2)[None, :]
    amp = state.evaluate(x1, x2)
    amp /= math.sqrt(np.vdot(amp, amp).real * spec.dx1 * spec.dx2)
    return GridState(amp, spec.dx1, spec.dx2, float(x1[0, 0]), float(x2[0, 0]), state.wavelength)


# ---------------------------------------------------------------------------
# propagation and transforms


def _axis_freq(n: int, dx: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(n, d=dx)


def _along(vector: np.ndarray, axis: int) -> np.ndarray:
    """A 1D vector shaped to broadcast along one axis of a 2D grid."""
    return vector.reshape((-1, 1) if axis == 0 else (1, -1))


def fft_fresnel(g: GridState, z: float, target: str = "both") -> GridState:
    """Fresnel-propagate along the targeted axis (or both) by distance z (um).

    The propagated field must stay inside the grid: its measured marginal
    width on each targeted axis has to fit within a quarter of the grid extent
    per side.  A field that wrapped round the periodic grid measures wide (its
    width saturates near 0.29 of the extent), so an overflow is refused too.
    """
    axes = _target_axes(target)
    if z == 0.0:
        return g
    k = 2.0 * math.pi / g.wavelength
    dx = (g.dx1, g.dx2)
    spec = np.fft.fftn(g.amplitudes, axes=axes)
    for axis in axes:
        q = _axis_freq(spec.shape[axis], dx[axis])
        spec *= _along(np.exp(-1j * q * q * z / (2.0 * k)), axis)
    out = replace(g, amplitudes=np.fft.ifftn(spec, axes=axes, out=spec))
    for axis in axes:
        extent, width = spec.shape[axis] * dx[axis], out.marginal_std(axis + 1)
        if extent < 8.0 * width:
            raise DomainError(
                f"propagation by {z:.3g} um grows axis {axis + 1} to sigma ~ "
                f"{width:.3g} um; grid extent {extent:.3g} um < 8 sigma"
            )
    return out


def grid_pft(g: GridState, target: str = "photon1") -> GridState:
    """Partial Fourier transform: targeted axis goes to spatial frequency (rad/um)."""
    axes = _target_axes(target)
    amp = g.amplitudes
    dx = [g.dx1, g.dx2]
    origin = [g.x1_0, g.x2_0]
    for axis in axes:
        n = amp.shape[axis]
        # (-1)^j on the input yields the DFT already fftshifted (n is even)
        spec = amp * _along((-1.0) ** np.arange(n), axis)
        np.fft.fft(spec, axis=axis, out=spec)
        # continuum amplitude: dx * exp(-i q x0) * DFT, unitary 1/sqrt(2 pi)
        q = np.fft.fftshift(_axis_freq(n, dx[axis]))
        spec *= _along(np.exp(-1j * q * origin[axis]) * (dx[axis] / math.sqrt(2.0 * math.pi)), axis)
        amp = spec
        dq = 2.0 * math.pi / (n * dx[axis])
        dx[axis] = dq
        origin[axis] = -(n // 2) * dq
    return GridState(amp, dx[0], dx[1], origin[0], origin[1], g.wavelength)
