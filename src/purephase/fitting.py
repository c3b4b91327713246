"""Gaussian model fits: 1D profiles, tilted 2D Gaussians, and the net
magnification fit of the tilt-vs-magnification curve.

All fits are damped least squares seeded from moments, run by one
Levenberg-Marquardt loop with a bounded evaluation budget; non-convergence and
degenerate inputs raise :class:`FitError` instead of returning garbage.  Each
fit hands the loop its normal equations: the 1D fit from its analytic
Jacobian, the magnification fit from a central difference, and the 2D fit from
separable moments of the model on the density's grid, so the 65536x7 Jacobian
of a 256^2 density is never formed.  A boolean cell mask leaves cells out of
the 2D fit's seed, residual and moments (the single-arm diagonal, for one).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import Density2D
from .optics import measurement_quadratic, principal_angle_deg, principal_widths, tilt_angle, tilt_from_form
from .states import DomainError, GaussianForm, PurePhaseParams

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
_STEP_FACTOR = 100.0  # initial trust radius, in units of ||D x0|| (MINPACK's factor)


class FitError(RuntimeError):
    """A least-squares fit failed to converge or the input has no usable peak."""


@dataclass(frozen=True)
class Fit1D:
    amplitude: float
    mean: float
    sigma: float
    offset: float


def _gauss1d_jacobian(x, params) -> np.ndarray:
    """Jacobian of amplitude * exp(-t^2 / 2) + offset, t = (x - mean) / sigma; column 0 is exp(-t^2 / 2)."""
    amplitude, mean, sigma, _ = params
    t = (x - mean) / sigma
    e = np.exp(-0.5 * t * t)
    d_mean = amplitude * e * t / sigma
    return np.stack([e, d_mean, d_mean * t, np.ones_like(e)], axis=1)


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
    wsum = weights.sum()  # positive: the peak sample weighs amp0
    mu = float((x * weights).sum() / wsum)
    var = float(((x - mu) ** 2 * weights).sum() / wsum)
    sigma0 = math.sqrt(var) if var > 0 else float(np.ptp(x)) / 10.0

    def evaluate(params, r):
        jac = _gauss1d_jacobian(x, params)
        np.subtract(params[0] * jac[:, 0] + params[3], y, out=r)
        return jac, math.sqrt(float(r @ r))

    (amplitude, mean, sigma, offset), _, _ = _least_squares(
        (amp0, mean0, sigma0, offset0), evaluate, lambda _, jac, r: (jac.T @ jac, jac.T @ r),
        y.shape, _MAX_ITER * 5, "1D Gaussian fit",
    )
    sigma = abs(float(sigma))
    if amplitude <= 0.0 or sigma <= 0.0 or not np.isfinite(sigma):
        raise FitError("1D Gaussian fit collapsed (non-positive amplitude or width)")
    return Fit1D(float(amplitude), float(mean), sigma, float(offset))


@dataclass(frozen=True)
class GaussianFit2D(GaussianForm):
    """Generalised 2D Gaussian: amp * exp(-(kk*dk^2 + 2*kp*dk*dp + pp*dp^2)) + offset."""

    amplitude: float
    center_k: float
    center_p: float
    offset: float
    residual_rms: float

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


_EXP_ZERO = -746.0  # exp(x) rounds to 0.0 for every x below -745.14


def _gauss2d(coords, amplitude, ck, cp, kk, kp, pp, offset, out=None):
    """amplitude * exp(-Q) + offset on the grid of ``coords``, built in place in ``out`` (fresh if None)."""
    k, p = coords
    dk = k - ck
    dp = p - cp
    # -Q term by term; rounding is sign-symmetric, so this is -(Q) to the bit
    out = np.multiply(-2.0 * kp * dk, dp, out=out)
    out -= kk * dk * dk
    out -= pp * dp * dp
    # exp is exactly 0 below _EXP_ZERO; skipping those points spares numpy's
    # slow path for arguments under the normal range, and changes no value
    np.exp(out, out=out, where=out > _EXP_ZERO)
    np.maximum(out, 0.0, out=out)  # the skipped points, all below _EXP_ZERO, read 0
    out *= amplitude
    out += offset
    return out


# Exponents (a, b) of the monomials dk^a dp^b, in the order 1, dk, dp, dk^2,
# dk*dp, dp^2, that the first six Jacobian columns of _gauss2d are built from.
_MONO_K = np.array([0, 1, 0, 2, 1, 0])
_MONO_P = np.array([0, 0, 1, 0, 1, 2])


def _normal_equations(k, p, params, e, r, n_cells, work=None) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r of _gauss2d at ``params`` over ``n_cells`` cells of the grid k x p.

    ``e`` is the unit Gaussian exp(-Q) on the grid and ``r`` the residual, both
    zero outside the fitted cells (a mask enters the sums through them).
    Column j < 6 of J is e times a polynomial sum_m c[m, j] * mono_m of degree
    <= 2 in dk = k - ck and dp = p - cp, and column 6 (the offset) is ones, so
    every entry is a combination of the separable moments sum e^2 dk^a dp^b
    (a + b <= 4) and sum e dk^a dp^b, sum e r dk^a dp^b (a + b <= 2).  Those
    are Vk^T W Vp with Vk = dk^(0..4), and the Jacobian itself is never formed.
    ``work``, if given, is a grid-shaped buffer for the weights W.
    """
    amp, ck, cp, kk, kp, pp, _ = params
    vk = np.vander(k - ck, 5, increasing=True).T
    vp = np.vander(p - cp, 5, increasing=True)
    w = np.multiply(e, e, out=work)
    m_ee = vk @ (w @ vp)
    m_e = vk @ (e @ vp)
    m_er = vk @ (np.multiply(e, r, out=w) @ vp)
    c = np.diag([1.0, 0.0, 0.0, -amp, -2.0 * amp, -amp])
    c[1:3, 1:3] = 2.0 * amp * np.array([[kk, kp], [kp, pp]])
    jtj = np.empty((7, 7))
    jtj[:6, :6] = c.T @ m_ee[_MONO_K[:, None] + _MONO_K, _MONO_P[:, None] + _MONO_P] @ c
    jtj[:6, 6] = jtj[6, :6] = c.T @ m_e[_MONO_K, _MONO_P]
    jtj[6, 6] = n_cells
    jtr = np.append(c.T @ m_er[_MONO_K, _MONO_P], r.sum())
    return jtj, jtr


def _damped_step(a, g, delta, par) -> tuple[float, np.ndarray]:
    """Damping ``par`` and step z = -(a + par I)^-1 g for a trust radius ``delta``.

    Moré's rule (MINPACK's lmpar) in the scaled variables: the Gauss-Newton
    step (par = 0) if it is no longer than 1.1 * delta, else the par that puts
    ||z|| within 10% of delta, found by safeguarded Newton iterations started
    from the previous ``par``.  ``a`` is symmetric positive semidefinite, so
    its eigenvectors give ||z(par)|| in closed form.
    """
    lam, vec = np.linalg.eigh(a)
    lam = np.maximum(lam, 0.0)
    gv = vec.T @ g

    def coeffs(par):
        den = lam + par
        # a direction with no curvature gets no Gauss-Newton component
        return np.divide(gv, den, out=np.zeros(g.size), where=den > 0.0)

    c = coeffs(0.0)
    znorm = np.linalg.norm(c)
    excess = znorm - delta
    if excess <= 0.1 * delta:
        return 0.0, -(vec @ c)
    full_rank = lam[0] > lam[-1] * g.size * np.finfo(float).eps
    par_lo = excess / delta * znorm**2 / np.sum(gv**2 / lam**3) if full_rank else 0.0
    gnorm = np.linalg.norm(g)
    par_hi = gnorm / delta or np.finfo(float).tiny / min(delta, 0.1)
    par = min(max(par, par_lo), par_hi) or gnorm / znorm
    for it in range(10):
        if par == 0.0:
            par = max(np.finfo(float).tiny, 0.001 * par_hi)
        c = coeffs(par)
        znorm = np.linalg.norm(c)
        last, excess = excess, znorm - delta
        if abs(excess) <= 0.1 * delta or (par_lo == 0.0 and last < 0.0 and excess <= last) or it == 9:
            break
        if excess > 0.0:
            par_lo = max(par_lo, par)
        else:
            par_hi = min(par_hi, par)
        par = max(par_lo, par + excess / delta * znorm**2 / np.sum(gv**2 / (lam + par) ** 3))
    return par, -(vec @ c)


def _least_squares(x0, evaluate, normal_equations, shape, max_nfev, name):
    """Levenberg-Marquardt with MINPACK's trust-region rules (lmder: Moré,
    "The Levenberg-Marquardt algorithm: implementation and theory", 1978).

    ``evaluate(x, r)`` writes the residual at x into r, one of two buffers of
    ``shape`` that alternate (fresh 256^2 temporaries page-fault every step),
    and returns (aux, |r|); ``normal_equations(x, aux, r)`` returns J^T J and
    J^T r.  The variables are scaled by D, the running maximum of
    sqrt(diag(J^T J)).  Stops once ||D step|| <= _XTOL ||D x|| and returns
    (x, r, |r|); raises FitError, prefixed with ``name``, after ``max_nfev``
    evaluations.
    """
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, r_t = np.empty(shape), np.empty(shape)
        aux, rnorm = evaluate(x, r)
        if not math.isfinite(rnorm):
            raise FitError(f"{name} did not converge: the initial model is not finite")
        nfev, par, scale, moved = 1, 0.0, None, True
        while True:
            if moved:
                jtj, jtr = normal_equations(x, aux, r)
                if not np.any(jtr):
                    break
                norms = np.sqrt(np.diag(jtj))
                if scale is None:
                    scale = np.where(norms > 0.0, norms, 1.0)
                    delta = _STEP_FACTOR * (float(np.linalg.norm(scale * x)) or 1.0)
                scale = np.maximum(scale, norms)
                a, g = jtj / np.outer(scale, scale), jtr / scale
            par, z = _damped_step(a, g, delta, par)
            step = z / scale
            znorm = float(np.linalg.norm(z))
            if nfev == 1:
                delta = min(delta, znorm)
            aux_t, rnorm_t = evaluate(x + step, r_t)
            nfev += 1
            # actual and predicted reductions of |r|^2, relative to |r|^2
            actual = 1.0 - (rnorm_t / rnorm) ** 2 if 0.1 * rnorm_t < rnorm else -1.0
            gauss_newton = float(step @ jtj @ step) / rnorm**2
            damping = par * znorm**2 / rnorm**2
            predicted = gauss_newton + 2.0 * damping
            ratio = actual / predicted if predicted > 0.0 else 0.0
            if ratio <= 0.25:
                slope = -(gauss_newton + damping)
                shrink = 0.5 if actual >= 0.0 else 0.5 * slope / (slope + 0.5 * actual)
                if 0.1 * rnorm_t >= rnorm or shrink < 0.1:
                    shrink = 0.1
                delta = shrink * min(delta, 10.0 * znorm)
                par /= shrink
            elif par == 0.0 or ratio >= 0.75:
                delta = 2.0 * znorm
                par *= 0.5
            moved = ratio >= 1e-4
            if moved:
                x, aux, rnorm = x + step, aux_t, rnorm_t
                r, r_t = r_t, r
            if znorm <= _XTOL * np.linalg.norm(scale * x):
                break
            if nfev >= max_nfev:
                raise FitError(
                    f"{name} did not converge: {nfev} model evaluations "
                    f"without a step below xtol={_XTOL:g}"
                )
    return x, r, rnorm


def fit_gaussian_2d(density: Density2D, mask=None) -> GaussianFit2D:
    """Seven-parameter tilted Gaussian fit, seeded from image moments, on the
    7x7 normal equations of :func:`_normal_equations`.  Cells where the
    boolean ``mask`` is False are left out of the seed and of the fit."""
    vals = density.values
    if not np.isfinite(vals).all():
        raise FitError("density contains non-finite values")
    used = vals if mask is None else vals[mask]
    seed = density if mask is None else replace(density, values=np.where(mask, vals, 0.0))
    x0 = (*moment_estimate(seed), float(np.median(used)))
    k, p = density.k_axis, density.p_axis
    grid = (k[:, None], p[None, :])
    work = np.empty(vals.shape)

    def evaluate(x, er):
        """Unit Gaussian at x into er[0] and the residual into er[1]; both are 0 outside the mask."""
        e, r = er
        _gauss2d(grid, 1.0, *x[1:6], 0.0, e)
        np.multiply(e, x[0], out=r)
        r += x[6]
        r -= vals
        if mask is not None:
            e *= mask
            r *= mask
        return e, math.sqrt(float(np.sum(np.multiply(r, r, out=work))))

    x, _, rnorm = _least_squares(
        x0, evaluate, lambda x, e, er: _normal_equations(k, p, x, e, er[1], used.size, work),
        (2, *vals.shape), _MAX_ITER * 10, "2D Gaussian fit",
    )
    amplitude, center_k, center_p, kk, kp, pp, offset = map(float, x)
    try:
        return GaussianFit2D(
            kk=kk, kp=kp, pp=pp, amplitude=amplitude, center_k=center_k, center_p=center_p,
            offset=offset, residual_rms=rnorm / math.sqrt(used.size),
        )
    except DomainError:
        raise FitError("fitted quadratic form is not positive definite") from None


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

    def residuals(mag):
        quad = measurement_quadratic(base.rescaled(abs(mag)), fourier_focal, mags, wavelength)
        return principal_angle_deg(tilt_angle(quad) - thetas)

    def evaluate(x, r):
        r[:] = residuals(x[0])
        return None, math.sqrt(float(r @ r))

    def normal_equations(x, _, r):
        h = 1e-6 * abs(x[0])
        column = (residuals(x[0] + h) - residuals(x[0] - h)) / (2.0 * h)
        return np.array([[column @ column]]), np.array([column @ r])

    x, r, _ = _least_squares(
        [mag_eff_guess], evaluate, normal_equations, thetas.shape, _MAX_ITER * 5, "magnification fit"
    )
    fitted = abs(float(x[0]))
    if not (fitted > 0.0 and np.isfinite(fitted)):
        raise FitError("magnification fit returned a non-physical value")
    return fitted, r
