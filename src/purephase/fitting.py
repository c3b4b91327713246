"""Gaussian model fits: 1D profiles, tilted 2D Gaussians, and the net
magnification fit of the tilt-vs-magnification curve.

All fits are damped least squares (MINPACK Levenberg-Marquardt via scipy)
seeded from image moments, with a bounded iteration budget; non-convergence
and degenerate inputs raise :class:`FitError` instead of returning garbage.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .density import Density2D
from .optics import measurement_quadratic, principal_angle_deg, principal_widths, tilt_angle, tilt_from_form
from .states import PurePhaseParams

__all__ = [
    "FitError",
    "Fit1D",
    "GaussianFit2D",
    "fit_gaussian_1d",
    "fit_gaussian_2d",
    "moment_estimate",
    "fit_magnification_curve",
]

_MAX_ITER = 200
_XTOL = 1e-8


class FitError(RuntimeError):
    """A least-squares fit failed to converge or the input has no usable peak."""


@dataclass(frozen=True)
class Fit1D:
    amplitude: float
    mean: float
    sigma: float
    offset: float
    residual_rms: float


def _gauss1d(x, amplitude, mean, sigma, offset):
    return amplitude * np.exp(-0.5 * ((x - mean) / sigma) ** 2) + offset


def fit_gaussian_1d(x, y) -> Fit1D:
    """Least-squares Gaussian with constant offset; needs a positive peak."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 5:
        raise FitError(f"need at least 5 samples, got {x.size}")
    offset0 = float(np.median(y))
    amp0 = float(y.max() - offset0)
    if amp0 <= 0.0 or not np.isfinite(amp0):
        raise FitError("profile has no positive peak above the baseline")
    mean0 = float(x[int(np.argmax(y))])
    weights = np.clip(y - offset0, 0.0, None)
    wsum = weights.sum()
    if wsum > 0.0:
        mu = float((x * weights).sum() / wsum)
        var = float(((x - mu) ** 2 * weights).sum() / wsum)
        sigma0 = math.sqrt(var) if var > 0 else float(np.ptp(x)) / 10.0
    else:
        sigma0 = float(np.ptp(x)) / 10.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, _ = optimize.curve_fit(
                _gauss1d,
                x,
                y,
                p0=(amp0, mean0, sigma0, offset0),
                xtol=_XTOL,
                maxfev=_MAX_ITER * 5,
            )
    except RuntimeError as exc:
        raise FitError(f"1D Gaussian fit did not converge: {exc}") from exc
    amplitude, mean, sigma, offset = popt
    sigma = abs(float(sigma))
    if amplitude <= 0.0 or sigma <= 0.0 or not np.isfinite(sigma):
        raise FitError("1D Gaussian fit collapsed (non-positive amplitude or width)")
    rms = float(np.sqrt(np.mean((_gauss1d(x, *popt) - y) ** 2)))
    return Fit1D(float(amplitude), float(mean), sigma, float(offset), rms)


@dataclass(frozen=True)
class GaussianFit2D:
    """Generalised 2D Gaussian: amp * exp(-(kk*dk^2 + 2*kp*dk*dp + pp*dp^2)) + offset."""

    amplitude: float
    center_k: float
    center_p: float
    kk: float
    kp: float
    pp: float
    offset: float
    residual_rms: float
    param_cov: np.ndarray

    def __post_init__(self):
        if not (self.kk > 0.0 and self.pp > 0.0 and self.kk * self.pp > self.kp**2):
            raise FitError("fitted quadratic form is not positive definite")

    @property
    def theta_deg(self) -> float:
        """Major-axis tilt from the position axis, same quadrant rule as the model."""
        return tilt_from_form(self.kk, self.kp, self.pp)

    @property
    def widths(self) -> tuple[float, float]:
        """(major, minor) standard deviations, as the model's principal_widths."""
        return principal_widths(self)


def moment_estimate(density: Density2D) -> tuple[float, float, float, float, float, float]:
    """(amplitude, center_k, center_p, kk, kp, pp) from clipped image moments."""
    vals = np.clip(density.values, 0.0, None)
    total = vals.sum()
    if total <= 0.0:
        raise FitError("density has no positive mass")
    k = density.k_axis[:, None]
    p = density.p_axis[None, :]
    ck = float((k * vals).sum() / total)
    cp = float((p * vals).sum() / total)
    s_kk = float(((k - ck) ** 2 * vals).sum() / total)
    s_pp = float(((p - cp) ** 2 * vals).sum() / total)
    s_kp = float(((k - ck) * (p - cp) * vals).sum() / total)
    cov = np.array([[s_kk, s_kp], [s_kp, s_pp]])
    det = np.linalg.det(cov)
    if det <= 0.0:
        raise FitError("moment covariance is degenerate")
    inv = np.linalg.inv(cov)
    kk, kp, pp = 0.5 * inv[0, 0], 0.5 * inv[0, 1], 0.5 * inv[1, 1]
    return float(vals.max()), ck, cp, float(kk), float(kp), float(pp)


def _gauss2d(coords, amplitude, ck, cp, kk, kp, pp, offset):
    k, p = coords
    dk = k - ck
    dp = p - cp
    return amplitude * np.exp(-(kk * dk * dk + 2.0 * kp * dk * dp + pp * dp * dp)) + offset


def fit_gaussian_2d(density: Density2D, init=None) -> GaussianFit2D:
    """Seven-parameter tilted Gaussian fit, seeded from image moments."""
    vals = density.values
    k = np.broadcast_to(density.k_axis[:, None], vals.shape).ravel()
    p = np.broadcast_to(density.p_axis[None, :], vals.shape).ravel()
    y = vals.ravel()
    if init is None:
        amp0, ck0, cp0, kk0, kp0, pp0 = moment_estimate(density)
        init = (amp0, ck0, cp0, kk0, kp0, pp0, float(np.median(y)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, pcov = optimize.curve_fit(
                _gauss2d,
                (k, p),
                y,
                p0=init,
                xtol=_XTOL,
                maxfev=_MAX_ITER * 10,
            )
    except RuntimeError as exc:
        raise FitError(f"2D Gaussian fit did not converge: {exc}") from exc
    amplitude, ck, cp, kk, kp, pp, offset = popt
    model = _gauss2d((k, p), *popt)
    rms = float(np.sqrt(np.mean((model - y) ** 2)))
    return GaussianFit2D(
        float(amplitude), float(ck), float(cp), float(kk), float(kp), float(pp),
        float(offset), rms, pcov,
    )


def fit_magnification_curve(
    points,
    base: PurePhaseParams,
    fourier_focal: float,
    wavelength: float,
    mag_eff_guess: float,
) -> tuple[float, np.ndarray]:
    """Fit the net preparation magnification to observed (M_m, theta) points.

    The model rescales the unmagnified pure-phase coefficients ``base`` by the
    trial magnification and predicts the tilt at every imaging-arm setting in
    one call.  Residuals are wrapped into (-90, 90] so the axis-angle branch
    cut never bites.  Returns (fitted magnification, residuals in degrees).
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 3:
        raise FitError(f"magnification fit needs at least 3 points, got {len(points)}")
    mags, thetas = points.T

    def residuals(params):
        quad = measurement_quadratic(base.rescaled(abs(params[0])), fourier_focal, mags, wavelength)
        return principal_angle_deg(tilt_angle(quad) - thetas)

    result = optimize.least_squares(
        residuals, x0=[mag_eff_guess], method="lm", xtol=_XTOL, max_nfev=_MAX_ITER * 5
    )
    if not result.success:
        raise FitError(f"magnification fit did not converge: {result.message}")
    fitted = abs(float(result.x[0]))
    if not (fitted > 0.0 and np.isfinite(fitted)):
        raise FitError("magnification fit returned a non-physical value")
    return fitted, result.fun
