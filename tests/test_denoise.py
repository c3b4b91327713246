import math

import numpy as np
import pytest

pytestmark = pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")

from purephase.denoise import CleaningConfig, clean_density, excess_g2, marginal_image, psd_cutoff
from purephase.density import Density2D
from purephase.fitting import FitError, fit_gaussian_2d
from purephase.optics import tilt_angle
from purephase.states import DomainError
from purephase.wavelets import wavedec2, waverec2
from conftest import injected_background_density, marginal_cutoffs, paper_quad
from test_wavelets import filter_defect


def rasterized(quad, pitch, width=256):
    centers = (np.arange(width) - width / 2.0 + 0.5) * pitch
    k = centers[:, None]
    p = centers[None, :]
    vals = np.exp(-(quad.kk * k * k + 2.0 * quad.kp * k * p + quad.pp * p * p))
    return Density2D(vals, float(centers[0]), pitch, float(centers[0]), pitch).self_normalized()


def noisy_background_density(paper_dg, mag=2.5, beta=8.0, seed=101):
    return injected_background_density(mag=mag, beta=beta, seed=seed)


def radial_freq(shape):
    fy = np.fft.fftfreq(shape[0])[:, None]
    fx = np.fft.fftfreq(shape[1])[None, :]
    return np.sqrt(fy * fy + fx * fx)


@pytest.fixture(scope="module")
def criterion_8_density():
    return injected_background_density(mag=2.5, frames=3000, rate=12.0, dark=0.02, beta=8.0, seed=101)[0]


class TestMarginalImage:
    def test_separable_density_is_fixed_point(self):
        x = (np.arange(64) - 32.0) * 5.0
        prof_a = np.exp(-0.5 * (x / 60.0) ** 2)
        prof_b = np.exp(-0.5 * (x / 30.0) ** 2)
        dens = Density2D(np.outer(prof_a, prof_b), x[0], 5.0, x[0], 5.0)
        marg = marginal_image(dens)
        assert np.allclose(marg.values, dens.values, rtol=1e-12)

    def test_total_mass_preserved(self):
        dens = rasterized(paper_quad(-0.5), 14.0)
        assert marginal_image(dens).values.sum() == pytest.approx(dens.values.sum(), rel=1e-12)

    def test_captures_injected_background(self, paper_dg):
        injected, background, _ = noisy_background_density(paper_dg, beta=4.0)
        marg = marginal_image(injected)
        corr = np.corrcoef(marg.values.ravel(), background.ravel())[0, 1]
        assert corr > 0.9


class TestExcessG2:
    def test_separable_density_vanishes(self):
        x = (np.arange(64) - 32.0) * 5.0
        prof = np.exp(-0.5 * (x / 60.0) ** 2)
        dens = Density2D(np.outer(prof, prof), x[0], 5.0, x[0], 5.0)
        excess = excess_g2(dens)
        assert np.abs(excess.values).max() < 1e-12 * dens.values.max()

    def test_sums_to_zero(self):
        dens = rasterized(paper_quad(-0.75), 14.0)
        assert excess_g2(dens).values.sum() == pytest.approx(0.0, abs=1e-12)

    def test_clean_input_keeps_tilt(self):
        quad = paper_quad(-0.5)
        dens = rasterized(quad, 14.0)
        fit = fit_gaussian_2d(excess_g2(dens))
        assert fit.theta_deg == pytest.approx(tilt_angle(quad), abs=1.0)


class TestCleaningConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            CleaningConfig(decomp_level=0)
        with pytest.raises(DomainError):
            CleaningConfig(psd_threshold=1.5)
        with pytest.raises(DomainError):
            CleaningConfig(lowpass_cutoff=0.9)
        with pytest.raises(DomainError):
            CleaningConfig(kde_bandwidth=0.0)

    def test_image_size_guard(self):
        cfg = CleaningConfig(decomp_level=5)
        with pytest.raises(DomainError, match="too small"):
            cfg.check_image((64, 64))


class TestCleanDensity:
    def test_nearly_lossless_on_clean_data(self):
        quad = paper_quad(-0.5)
        dens = rasterized(quad, 14.0)
        reference = fit_gaussian_2d(dens).theta_deg
        cleaned = clean_density(dens, CleaningConfig())
        assert fit_gaussian_2d(cleaned).theta_deg == pytest.approx(reference, abs=1.0)

    def test_removes_injected_background(self, paper_dg):
        injected, _, truth = noisy_background_density(paper_dg, beta=2.0)
        cleaned = clean_density(injected, CleaningConfig())
        fit = fit_gaussian_2d(cleaned)
        assert fit.theta_deg == pytest.approx(truth, abs=2.0)
        # the naive excess-correlation route does not reach the same bound
        try:
            naive = fit_gaussian_2d(excess_g2(injected))
            assert abs(naive.theta_deg - truth) > 2.0
        except FitError:
            pass

    def test_idempotence_lite(self, paper_dg):
        injected, _, _ = noisy_background_density(paper_dg, beta=8.0)
        once = clean_density(injected, CleaningConfig())
        twice = clean_density(once, CleaningConfig())
        fit_once = fit_gaussian_2d(once)
        fit_twice = fit_gaussian_2d(twice)
        assert fit_twice.theta_deg == pytest.approx(fit_once.theta_deg, abs=0.5)
        assert fit_twice.widths[0] == pytest.approx(fit_once.widths[0], rel=0.02)
        assert fit_twice.widths[1] == pytest.approx(fit_once.widths[1], rel=0.02)

    @pytest.mark.parametrize("mag", [-0.5, -1.0, 2.0])
    def test_never_flips_tilt_sign(self, paper_dg, mag):
        injected, _, truth = noisy_background_density(paper_dg, mag=mag, beta=2.0)
        assert abs(truth) > 10.0
        cleaned = clean_density(injected, CleaningConfig())
        assert math.copysign(1.0, fit_gaussian_2d(cleaned).theta_deg) == math.copysign(1.0, truth)

    def test_output_is_normalised_and_non_negative(self, paper_dg):
        injected, _, _ = noisy_background_density(paper_dg, beta=2.0)
        cleaned = clean_density(injected, CleaningConfig())
        assert cleaned.values.min() >= 0.0
        assert cleaned.values.sum() == pytest.approx(1.0, rel=1e-9)

    def test_marginal_bandwidth_is_narrower(self, paper_dg):
        # the premise of the spectral cleaning: the marginal image concentrates
        # at lower spatial frequencies than the full density
        cfg = CleaningConfig()
        injected, _, _ = noisy_background_density(paper_dg, beta=2.0)
        rho_m = injected.values
        rho_marg = marginal_image(injected).values
        approx_m = wavedec2(rho_m, cfg.wavelet_order, cfg.decomp_level)[0]
        approx_marg = wavedec2(rho_marg, cfg.wavelet_order, cfg.decomp_level)[0]
        assert psd_cutoff(approx_marg, cfg.psd_threshold) <= psd_cutoff(approx_m, cfg.psd_threshold)

    def test_cutoff_matches_2d_route_on_criterion_8_fixture(self):
        injected, _, _ = injected_background_density(mag=2.5, frames=3000, rate=12.0, dark=0.02, beta=8.0, seed=101)
        chosen, two_d = marginal_cutoffs(injected)
        assert chosen == [two_d]

    @pytest.mark.parametrize("order, level", [(1, 2), (10, 2), (4, 1), (4, 3)])
    def test_cutoff_matches_2d_route_at_other_settings(self, order, level):
        injected, _, _ = injected_background_density(mag=2.5, frames=3000, rate=12.0, dark=0.02, beta=8.0, seed=101)
        chosen, two_d = marginal_cutoffs(injected, CleaningConfig(wavelet_order=order, decomp_level=level))
        assert chosen == [two_d]

    @staticmethod
    def full_round_trip(density, config):
        """The cleaning through every wavelet band: wavedec2, high-pass the
        approximation, waverec2, then the low-pass, all on complex FFTs."""
        coeffs = wavedec2(density.values, config.wavelet_order, config.decomp_level)
        approx = coeffs[0]
        cutoff = psd_cutoff(np.outer(approx.sum(axis=1), approx.sum(axis=0)), config.psd_threshold)
        highpass = radial_freq(approx.shape) > cutoff
        highpass[0, 0] = True
        coeffs[0] = np.fft.ifft2(np.fft.fft2(approx) * highpass).real
        rebuilt = waverec2(coeffs, config.wavelet_order)
        r, cut = radial_freq(rebuilt.shape), config.lowpass_cutoff
        taper_q = 1.0 / (2.0 * math.pi * config.kde_bandwidth)
        lowpass = np.where(r <= cut, 1.0, np.exp(-0.5 * ((r - cut) / taper_q) ** 2))
        rebuilt = np.clip(np.fft.ifft2(np.fft.fft2(rebuilt) * lowpass).real, 0.0, None)
        return rebuilt / rebuilt.sum()

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 4, 10])
    def test_matches_full_wavelet_round_trip(self, criterion_8_density, order, level):
        # only the approximation band changes, so cleaning never forms the detail bands
        config = CleaningConfig(wavelet_order=order, decomp_level=level)
        cleaned = clean_density(criterion_8_density, config).values
        reference = self.full_round_trip(criterion_8_density, config)
        # no wavelet transform is more exact than its filter (see test_wavelets)
        bound = max(1e-13, 20.0 * filter_defect(order)) * reference.max()
        assert np.abs(cleaned - reference).max() < bound

    def test_small_image_rejected(self):
        dens = Density2D(np.ones((16, 16)), 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            clean_density(dens, CleaningConfig(decomp_level=3))
