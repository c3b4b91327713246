import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize

from purephase import fitting
from purephase.density import Density2D
from purephase.estimation import autoconvolution_profile, autocorrelation_profile
from purephase.frames import DetectorConfig, synthesize_farfield, synthesize_nearfield
from purephase.fitting import (
    FitError,
    fit_gaussian_1d,
    fit_gaussian_2d,
    fit_magnification_curve,
    moment_estimate,
)
from purephase.optics import PrepDesign, measurement_quadratic, principal_angle_deg, tilt_angle, tilt_from_form
from purephase.states import DGParams, dg_state, pure_phase_params
from conftest import WAVELENGTH, assert_exp_floor_moves_no_fit, paper_quad

FM = 15e4


def rasterized(quad, pitch=12.0, width=256, noise=0.0, rng=None, offset=0.0):
    centers = (np.arange(width) - width / 2.0 + 0.5) * pitch
    k = centers[:, None]
    p = centers[None, :]
    vals = np.exp(-(quad.kk * k * k + 2.0 * quad.kp * k * p + quad.pp * p * p)) + offset
    if noise > 0.0:
        vals = vals + noise * rng.standard_normal(vals.shape)
    return Density2D(vals, float(centers[0]), pitch, float(centers[0]), pitch)


def auto_pitch(quad):
    cov = quad.covariance
    return max(math.sqrt(max(cov[0, 0], cov[1, 1])) * 9.0 / 256.0, 1.0)


def reference_density(rng):
    return rasterized(paper_quad(-0.5), pitch=14.0, noise=0.003, rng=rng)


def explicit_jacobian(coords, amplitude, ck, cp, kk, kp, pp, offset):
    """The seven analytic Jacobian columns of _gauss2d, one row per point."""
    k, p = coords
    dk, dp = k - ck, p - cp
    e = np.exp(-(kk * dk * dk + 2.0 * kp * dk * dp + pp * dp * dp))
    ae = amplitude * e
    cols = (
        e,
        2.0 * ae * (kk * dk + kp * dp),
        2.0 * ae * (kp * dk + pp * dp),
        -ae * dk * dk,
        -2.0 * ae * dk * dp,
        -ae * dp * dp,
        np.ones_like(e),
    )
    return np.stack(cols, axis=-1)


class TestFit1D:
    def test_exact_recovery(self):
        x = np.linspace(-400.0, 400.0, 161)
        y = 3.2 * np.exp(-0.5 * ((x - 40.0) / 55.0) ** 2) + 0.25
        fit = fit_gaussian_1d(x, y)
        assert fit.amplitude == pytest.approx(3.2, rel=1e-6)
        assert fit.mean == pytest.approx(40.0, abs=1e-4)
        assert fit.sigma == pytest.approx(55.0, rel=1e-6)
        assert fit.offset == pytest.approx(0.25, rel=1e-5)

    def test_noisy_recovery(self, rng):
        x = np.linspace(-400.0, 400.0, 201)
        clean = 1.0 * np.exp(-0.5 * (x / 60.0) ** 2)
        y = clean + 0.1 * rng.standard_normal(x.size)
        fit = fit_gaussian_1d(x, y)
        assert fit.sigma == pytest.approx(60.0, rel=0.05)

    def test_offset_only_raises(self):
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(FitError):
            fit_gaussian_1d(x, np.full_like(x, 2.0))

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_gaussian_1d(np.arange(4.0), np.arange(4.0))


def gauss1d(x, amplitude, mean, sigma, offset):
    return amplitude * np.exp(-0.5 * ((x - mean) / sigma) ** 2) + offset


def calibration_profiles(params):
    """The two profiles cmd_calibrate fits: near-field autocorrelation without
    its centre lag, and far-field autoconvolution (5000 frames of 512 px)."""
    near_det = DetectorConfig(3.25, 512, height=1, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=31)
    far_det = DetectorConfig(16.0, 512, height=1, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=32)
    near = synthesize_nearfield(params, near_det, 5000)
    far = synthesize_farfield(params, far_det, 5000, FM, WAVELENGTH)
    lags, acorr = autocorrelation_profile(near)
    keep = np.abs(lags) > 0.5 * near_det.pixel_pitch
    return [(lags[keep], acorr[keep]), autoconvolution_profile(far)]


def random_gauss1d_params(rng):
    """(amplitude, mean, sigma, offset) of a peak well inside x = -300..500."""
    return np.array([
        rng.uniform(0.5, 5.0), rng.uniform(-50.0, 150.0), rng.uniform(20.0, 90.0), rng.uniform(0.1, 0.5),
    ])


class TestFit1DContract:
    @staticmethod
    def assert_matches_curve_fit(x, y):
        """The fit sits where MINPACK's tightly converged fit of the same model does."""
        offset0 = float(np.median(y))
        p0 = (y.max() - offset0, x[np.argmax(y)], np.ptp(x) / 10.0, offset0)
        ref, _ = optimize.curve_fit(gauss1d, x, y, p0=p0, xtol=1e-12, ftol=1e-12)
        fit = fit_gaussian_1d(x, y)
        scale = np.array([ref[0], abs(ref[2]), abs(ref[2]), ref[0]])
        got = np.array([fit.amplitude, fit.mean, fit.sigma, fit.offset])
        want = np.array([ref[0], ref[1], abs(ref[2]), ref[3]])
        # relative to each parameter's scale: the mean and offset may sit near 0
        assert np.all(np.abs(got - want) <= 1e-6 * scale), (got, want)

    def test_matches_curve_fit_on_noisy_profiles(self, rng):
        x = np.linspace(-300.0, 500.0, 241)
        for _ in range(5):
            truth = random_gauss1d_params(rng)
            y = gauss1d(x, *truth) + 0.05 * truth[0] * rng.standard_normal(x.size)
            self.assert_matches_curve_fit(x, y)

    def test_matches_curve_fit_on_calibration_profiles(self, paper_dg):
        for x, y in calibration_profiles(paper_dg):
            self.assert_matches_curve_fit(x, y)

    def test_jacobian_columns_match_central_differences(self, rng):
        x = np.linspace(-300.0, 500.0, 241)
        for _ in range(5):
            params = random_gauss1d_params(rng)
            jac = fitting._gauss1d_jacobian(x, params)
            for j in range(4):
                h = 1e-6 * abs(params[j])
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                numeric = (gauss1d(x, *up) - gauss1d(x, *down)) / (2.0 * h)
                err = np.linalg.norm(numeric - jac[:, j]) / np.linalg.norm(jac[:, j])
                assert err < 1e-7, (j, err)

    def test_exhausted_budget_raises(self, rng, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITER", 1)
        x = np.linspace(-300.0, 500.0, 241)
        y = gauss1d(x, 2.0, 60.0, 45.0, 0.1) + 0.1 * rng.standard_normal(x.size)
        with pytest.raises(FitError, match="^1D Gaussian fit did not converge: 5 model evaluations"):
            fit_gaussian_1d(x, y)


class TestFit2D:
    def test_noiseless_reference_tilt(self):
        quad = paper_quad(-0.5)
        fit = fit_gaussian_2d(rasterized(quad, pitch=14.0))
        assert fit.theta_deg == pytest.approx(tilt_angle(quad), abs=0.5)
        assert fit.offset == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("mag", [-3.0, -2.0, -1.0, -0.5, -0.3])
    def test_coefficient_recovery_across_magnifications(self, mag):
        quad = paper_quad(mag)
        cov = quad.covariance
        pitch = max(math.sqrt(max(cov[0, 0], cov[1, 1])) * 9.0 / 256.0, 1.0)
        fit = fit_gaussian_2d(rasterized(quad, pitch=pitch))
        assert fit.kk == pytest.approx(quad.kk, rel=1e-2)
        assert fit.kp == pytest.approx(quad.kp, rel=1e-2)
        assert fit.pp == pytest.approx(quad.pp, rel=1e-2)

    def test_moment_initialization_close(self):
        quad = paper_quad(-0.5)
        dens = rasterized(quad, pitch=14.0)
        _, _, _, kk, kp, pp = moment_estimate(dens)
        from purephase.optics import tilt_from_form

        assert tilt_from_form(kk, kp, pp) == pytest.approx(tilt_angle(quad), abs=3.0)

    def test_intensity_scaling_invariance(self, rng):
        quad = paper_quad(-0.75)
        dens = rasterized(quad, pitch=14.0, noise=0.003, rng=rng)
        fit_a = fit_gaussian_2d(dens)
        scaled = Density2D(dens.values * 37.5, dens.k_origin, dens.k_pitch, dens.p_origin, dens.p_pitch)
        fit_b = fit_gaussian_2d(scaled)
        assert fit_b.theta_deg == pytest.approx(fit_a.theta_deg, abs=1e-6)

    def test_degenerate_input_raises(self):
        dens = Density2D(np.zeros((32, 32)), 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(FitError):
            fit_gaussian_2d(dens)

    def test_cleaned_reference_density_tilt_band(self, paper_dg):
        # full chain at the quoted phase-plane distance: cleaned fit sits in
        # the band around the experimental 70.9 degrees
        from purephase.denoise import CleaningConfig, clean_density

        design = PrepDesign(f=10e4, f2=15e4, f3=12.5e4, z_p=2.97e4)
        scaled = pure_phase_params(paper_dg).rescaled(design.mag_eff)
        quad = measurement_quadratic(scaled, FM, -0.5, WAVELENGTH)
        dens = rasterized(quad, pitch=16.0)
        fit = fit_gaussian_2d(clean_density(dens.self_normalized(), CleaningConfig()))
        assert 66.0 <= abs(fit.theta_deg) <= 74.0
        assert abs(fit.theta_deg) == pytest.approx(69.2, abs=1.5)

    def test_widths_match_quadratic(self):
        from purephase.optics import principal_widths

        quad = paper_quad(-0.5)
        fit = fit_gaussian_2d(rasterized(quad, pitch=14.0))
        major, minor = principal_widths(quad)
        fit_major, fit_minor = fit.widths
        assert fit_major == pytest.approx(major, rel=1e-2)
        assert fit_minor == pytest.approx(minor, rel=2e-2)


class TestNormalEquations:
    # non-square grid with unequal pitches; the peak sits off its centre
    K_AXIS = -300.0 + 7.0 * np.arange(96)
    P_AXIS = -250.0 + 11.0 * np.arange(64)

    @property
    def grid(self):
        return np.meshgrid(self.K_AXIS, self.P_AXIS, indexing="ij")

    @staticmethod
    def random_params(rng):
        s_major, s_minor = rng.uniform(60.0, 120.0), rng.uniform(15.0, 40.0)
        angle = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        form = rot @ np.diag([0.5 / s_major**2, 0.5 / s_minor**2]) @ rot.T
        return np.array([
            rng.uniform(0.5, 2.0), rng.uniform(20.0, 80.0), rng.uniform(60.0, 140.0),
            form[0, 0], form[0, 1], form[1, 1], rng.uniform(0.05, 0.2),
        ])

    def test_jacobian_columns_match_central_differences(self, rng):
        coords = self.grid
        for _ in range(5):
            x = self.random_params(rng)
            jac = explicit_jacobian(coords, *x)
            for j in range(7):
                h = 1e-6 * abs(x[j])
                up, down = x.copy(), x.copy()
                up[j] += h
                down[j] -= h
                numeric = (fitting._gauss2d(coords, *up) - fitting._gauss2d(coords, *down)) / (2.0 * h)
                err = np.linalg.norm(numeric - jac[..., j]) / np.linalg.norm(jac[..., j])
                assert err < 1e-7, (j, err)

    def test_moment_sums_match_explicit_products(self, rng):
        coords = self.grid
        for _ in range(5):
            x = self.random_params(rng)
            e = fitting._gauss2d(coords, 1.0, *x[1:6], 0.0)
            r = rng.standard_normal(e.shape)
            for keep in (np.ones(e.shape, dtype=bool), rng.random(e.shape) < 0.7):
                # the fit zeroes e and r outside the mask; the reference zeroes those rows of J
                jtj, jtr = fitting._normal_equations(self.K_AXIS, self.P_AXIS, x, e * keep, r * keep, keep.sum())
                jac = (explicit_jacobian(coords, *x) * keep[..., None]).reshape(-1, 7)
                ref_jtj, ref_jtr = jac.T @ jac, jac.T @ r.ravel()
                # entries relative to their Cauchy-Schwarz bounds |J_i||J_j| and |J_i||r|
                norms = np.linalg.norm(jac, axis=0)
                assert np.all(np.abs(jtj - ref_jtj) <= 1e-12 * np.outer(norms, norms))
                assert np.all(np.abs(jtr - ref_jtr) <= 1e-12 * norms * np.linalg.norm(r))


class TestExpFloor:
    """exp(-Q) is cut to 0 at -Q <= -354 (2^-511), and no fit moves for it."""

    def test_model_is_plain_exp_above_the_floor_and_zero_below(self, rng):
        k = np.linspace(-400.0, 400.0, 257)[:, None]
        p = np.linspace(-300.0, 500.0, 255)[None, :]
        for _ in range(5):
            _, ck, cp, kk, kp, pp, _ = TestNormalEquations.random_params(rng)
            kk, kp, pp = 20.0 * kk, 20.0 * kp, 20.0 * pp  # -Q runs from 0 to beyond -746
            dk, dp = k - ck, p - cp
            neg_q = -2.0 * kp * dk * dp - kk * dk * dk - pp * dp * dp
            assert neg_q.max() > -1.0 and (neg_q < -746.0).any() and ((neg_q > -354.0) & (neg_q < -300.0)).any()
            e = fitting._gauss2d((k, p), 1.0, ck, cp, kk, kp, pp, 0.0)
            kept = neg_q > -354.0
            assert e[kept].tobytes() == np.exp(neg_q[kept]).tobytes()
            assert not e[~kept].any() and not np.signbit(e).any()
            # neither e nor e^2 is subnormal
            assert ((e == 0.0) | (e * e >= np.finfo(float).tiny)).all()
            scaled = fitting._gauss2d((k, p), 2.5, ck, cp, kk, kp, pp, 0.125)
            assert scaled.tobytes() == (2.5 * e + 0.125).tobytes()

    def test_masked_diagonal_fedorov_density(self):
        # estimate_fedorov's fit of a single-arm camera's density, diagonal left out
        state = dg_state(DGParams(120.0, 15.0), WAVELENGTH)
        x = (np.arange(128) - 63.5) * 4.0
        values = np.abs(state.evaluate(x[:, None], x[None, :])) ** 2
        np.fill_diagonal(values, 0.0)
        dens = Density2D(values, x[0], 4.0, x[0], 4.0)
        assert_exp_floor_moves_no_fit(dens, ~np.eye(128, dtype=bool))


class TestFit2DContract:
    @staticmethod
    def curve_fit_reference(density, mask):
        """MINPACK's fit of the same model from the same seed, with the analytic
        Jacobian, on the cells where ``mask`` is True: (parameters, rms residual).

        The tolerances are tight because MINPACK's default finite-difference
        Jacobian stops up to 1e-4 relative short of the minimum on noisy rasters.
        """
        vals = density.values
        coords = tuple(np.meshgrid(density.k_axis, density.p_axis, indexing="ij"))
        flat = tuple(c[mask] for c in coords)
        seed = dataclasses.replace(density, values=np.where(mask, vals, 0.0))
        init = (*moment_estimate(seed), float(np.median(vals[mask])))
        popt, _ = optimize.curve_fit(
            fitting._gauss2d, flat, vals[mask], p0=init,
            jac=explicit_jacobian, xtol=1e-12, ftol=1e-12,
        )
        return popt, math.sqrt(np.mean((fitting._gauss2d(flat, *popt) - vals[mask]) ** 2))

    @pytest.mark.parametrize(
        "mag, masked", [(-0.5, False), (-1.0, False), (-2.0, False), (-1.0, True)],
        ids=["-0.5", "-1.0", "-2.0", "-1.0-masked"],
    )
    def test_matches_curve_fit_reference(self, rng, mag, masked):
        quad = paper_quad(mag)
        dens = rasterized(quad, pitch=auto_pitch(quad), noise=0.003, rng=rng)
        mask = rng.random(dens.values.shape) < 0.8 if masked else None
        fit = fit_gaussian_2d(dens, mask)
        ref, rms = self.curve_fit_reference(dens, np.ones(dens.values.shape, dtype=bool) if mask is None else mask)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-8)
        if masked:
            # what the masked-out cells hold does not reach the fit
            poisoned = dataclasses.replace(dens, values=np.where(mask, dens.values, 1e6))
            assert fit_gaussian_2d(poisoned, mask) == fit
        assert fit.theta_deg == pytest.approx(tilt_from_form(*ref[3:6]), abs=1e-4)
        np.testing.assert_allclose([fit.kk, fit.kp, fit.pp], ref[3:6], rtol=1e-5)

    def test_exhausted_budget_raises(self, rng, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITER", 1)
        with pytest.raises(FitError, match="^2D Gaussian fit did not converge"):
            fit_gaussian_2d(reference_density(rng))

    def test_model_evaluations_without_scipy(self, rng, monkeypatch):
        calls = []
        model = fitting._gauss2d

        def counted(*args):
            calls.append(1)
            return model(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("the 2D fit must not go through scipy.optimize")

        monkeypatch.setattr(fitting, "_gauss2d", counted)
        monkeypatch.setattr(optimize, "curve_fit", refuse)
        monkeypatch.setattr(optimize, "least_squares", refuse)
        fit_gaussian_2d(reference_density(rng))
        assert 1 <= len(calls) <= 60

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        dens = reference_density(rng)
        dens.values[17, 40] = bad
        with pytest.raises(FitError, match="non-finite"):
            fit_gaussian_2d(dens)


class TestMagnificationFit:
    def test_recovers_generating_magnification(self, paper_dg):
        base = pure_phase_params(paper_dg)
        target = 1.39
        scaled = base.rescaled(target)
        mags = [-0.4, -0.75, -1.2, -2.0, -3.0]
        points = [
            (m, tilt_angle(measurement_quadratic(scaled, FM, m, WAVELENGTH))) for m in mags
        ]
        fitted, residuals = fit_magnification_curve(points, base, FM, WAVELENGTH, 1.0)
        assert fitted == pytest.approx(target, rel=1e-2)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_noisy_points_stay_in_band(self, paper_dg, rng):
        # experiment-level angle noise keeps the fit near the generating value
        base = pure_phase_params(paper_dg)
        scaled = base.rescaled(1.39)
        mags = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0]
        points = [
            (m, tilt_angle(measurement_quadratic(scaled, FM, m, WAVELENGTH)) + rng.normal(0, 2.0))
            for m in mags
        ]
        fitted, _ = fit_magnification_curve(points, base, FM, WAVELENGTH, 1.39)
        assert 1.2 <= fitted <= 1.5

    def test_matches_least_squares_reference(self, paper_dg, rng):
        # 0.05 deg of angle noise, as in a sweep's fits (residual_rms_deg ~ 0.04);
        # at 2 deg the float cost resolves the minimum only to a few 1e-9, so
        # two converged references disagree at that level among themselves
        base = pure_phase_params(paper_dg)
        mags = np.array([0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
        for _ in range(5):
            scaled = base.rescaled(rng.uniform(1.2, 1.6))
            thetas = tilt_angle(measurement_quadratic(scaled, FM, mags, WAVELENGTH))
            thetas = thetas + rng.normal(0, 0.05, mags.size)

            def residuals(params):
                quad = measurement_quadratic(base.rescaled(abs(params[0])), FM, mags, WAVELENGTH)
                return principal_angle_deg(tilt_angle(quad) - thetas)

            ref = optimize.least_squares(residuals, x0=[1.4], method="lm", xtol=1e-12, ftol=1e-12)
            fitted, res = fit_magnification_curve(np.column_stack([mags, thetas]), base, FM, WAVELENGTH, 1.4)
            assert fitted == pytest.approx(abs(ref.x[0]), rel=1e-9)
            np.testing.assert_array_equal(res, residuals([fitted]))

    def test_under_determined_raises(self, paper_dg):
        base = pure_phase_params(paper_dg)
        with pytest.raises(FitError):
            fit_magnification_curve([(-0.5, 69.0)], base, FM, WAVELENGTH, 1.4)
