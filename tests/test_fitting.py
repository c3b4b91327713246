import math

import numpy as np
import pytest

from purephase.density import Density2D
from purephase.fitting import (
    FitError,
    fit_gaussian_1d,
    fit_gaussian_2d,
    fit_magnification_curve,
    moment_estimate,
)
from purephase.optics import PrepDesign, measurement_quadratic, tilt_angle
from purephase.states import phase_plane_distance, pure_phase_params
from conftest import WAVELENGTH

FM = 15e4


def rasterized(quad, pitch=12.0, width=256, noise=0.0, rng=None, offset=0.0):
    centers = (np.arange(width) - width / 2.0 + 0.5) * pitch
    k = centers[:, None]
    p = centers[None, :]
    vals = np.exp(-(quad.kk * k * k + 2.0 * quad.kp * k * p + quad.pp * p * p)) + offset
    if noise > 0.0:
        vals = vals + noise * rng.standard_normal(vals.shape)
    return Density2D(vals, float(centers[0]), pitch, float(centers[0]), pitch)


def paper_quad(paper_dg, mag):
    design = PrepDesign(f=10e4, f2=15e4, f3=12.5e4, z_p=phase_plane_distance(paper_dg, WAVELENGTH))
    scaled = pure_phase_params(paper_dg).rescaled(design.mag_eff)
    return measurement_quadratic(scaled, FM, mag, WAVELENGTH)


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


class TestFit2D:
    def test_noiseless_reference_tilt(self, paper_dg):
        quad = paper_quad(paper_dg, -0.5)
        fit = fit_gaussian_2d(rasterized(quad, pitch=14.0))
        assert fit.theta_deg == pytest.approx(tilt_angle(quad), abs=0.5)
        assert fit.offset == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("mag", [-3.0, -2.0, -1.0, -0.5, -0.3])
    def test_coefficient_recovery_across_magnifications(self, paper_dg, mag):
        quad = paper_quad(paper_dg, mag)
        cov = quad.covariance
        pitch = max(math.sqrt(max(cov[0, 0], cov[1, 1])) * 9.0 / 256.0, 1.0)
        fit = fit_gaussian_2d(rasterized(quad, pitch=pitch))
        assert fit.kk == pytest.approx(quad.kk, rel=1e-2)
        assert fit.kp == pytest.approx(quad.kp, rel=1e-2)
        assert fit.pp == pytest.approx(quad.pp, rel=1e-2)

    def test_moment_initialization_close(self, paper_dg):
        quad = paper_quad(paper_dg, -0.5)
        dens = rasterized(quad, pitch=14.0)
        _, _, _, kk, kp, pp = moment_estimate(dens)
        from purephase.optics import tilt_from_form

        assert tilt_from_form(kk, kp, pp) == pytest.approx(tilt_angle(quad), abs=3.0)

    def test_intensity_scaling_invariance(self, paper_dg, rng):
        quad = paper_quad(paper_dg, -0.75)
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

    def test_widths_match_quadratic(self, paper_dg):
        from purephase.optics import principal_widths

        quad = paper_quad(paper_dg, -0.5)
        fit = fit_gaussian_2d(rasterized(quad, pitch=14.0))
        major, minor = principal_widths(quad)
        fit_major, fit_minor = fit.widths
        assert fit_major == pytest.approx(major, rel=1e-2)
        assert fit_minor == pytest.approx(minor, rel=2e-2)


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

    def test_under_determined_raises(self, paper_dg):
        base = pure_phase_params(paper_dg)
        with pytest.raises(FitError):
            fit_magnification_curve([(-0.5, 69.0)], base, FM, WAVELENGTH, 1.4)
