import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from purephase import estimation, frames
from purephase.density import Density2D
from purephase.estimation import (
    autoconvolution_profile,
    autocorrelation_profile,
    calibrate_sigma_minus,
    calibrate_sigma_plus,
    estimate_density,
    estimate_fedorov,
)
from purephase.fitting import FitError, fit_gaussian_2d
from purephase.frames import (
    DetectorConfig,
    FrameBlock,
    FrameEvents,
    FrameStack,
    frame_events,
    nearfield_events,
    read_events,
    synthesize_farfield,
    synthesize_frames,
    synthesize_joint,
    synthesize_nearfield,
    write_framestack,
)
from purephase.optics import PrepDesign, prepare_p3, tilt_angle
from purephase.states import DGParams, DomainError, dg_state, fedorov_ratio, phase_plane_distance
from conftest import WAVELENGTH, paper_quad, stack_columns


def sigma_minus_of(stack):
    return calibrate_sigma_minus(*autocorrelation_profile(stack), stack.detector.pixel_pitch)


def sigma_plus_of(stack):
    coords, signal = autoconvolution_profile(stack)
    return calibrate_sigma_plus(coords, signal, stack.detector.pixel_pitch, stack.metadata["farfield_scale"])


def whole_stack_values(stack):
    """Unnormalized estimate from every column at once, in float64."""
    ck, cp = stack_columns(stack)
    ck = ck.astype(np.float64)
    cp = cp.astype(np.float64)
    n = ck.shape[0]
    values = ck.T @ cp / n - ck[:-1].T @ cp[1:] / (n - 1)
    if not stack.dual_arm:
        values[np.diag_indices_from(values)] -= ck.sum(axis=0) / n
    return values


def assert_profiles_match_brute_force(stack):
    """Both profiles of a single-arm stack against a brute-force pair histogram.

    The histogram counts the same-frame ordered pairs of distinct photons
    minus n/(n-1) times the pairs between each frame and the next, binned by
    x_j - x_i and by i + j.
    """
    ck, _ = stack_columns(stack)
    n, width = ck.shape
    photons = [np.repeat(np.arange(width), row) for row in ck]
    diff = np.zeros(2 * width - 1)
    total = np.zeros(2 * width - 1)
    for t in range(n):
        for a, i in enumerate(photons[t]):
            for b, j in enumerate(photons[t]):
                if a != b:
                    diff[j - i + width - 1] += 1.0
                    total[i + j] += 1.0
            if t + 1 < n:
                for j in photons[t + 1]:
                    diff[j - i + width - 1] -= n / (n - 1.0)
                    total[i + j] -= n / (n - 1.0)
    _, acorr = autocorrelation_profile(stack)
    _, aconv = autoconvolution_profile(stack)
    assert np.max(np.abs(acorr - diff)) < 1e-9 * np.abs(diff).max()
    assert np.max(np.abs(aconv - total)) < 1e-9 * np.abs(total).max()


class TestEstimateDensity:
    def test_needs_two_frames(self):
        stack = synthesize_frames(paper_quad(), DetectorConfig(18.0, 64, seed=1), 1)
        with pytest.raises(DomainError):
            estimate_density(stack)

    def test_uncorrelated_arms_give_noise_floor(self, paper_dg):
        # pair two independent single-arm stacks: the estimator must see
        # nothing; stack seeds sit far apart so frame streams cannot collide
        state = dg_state(paper_dg, WAVELENGTH)
        det_a = DetectorConfig(8.0, 128, mean_pair_rate=2.0, seed=41 << 32)
        det_b = DetectorConfig(8.0, 128, mean_pair_rate=2.0, seed=42 << 32)
        a = synthesize_joint(state, det_a, 6000)
        b = synthesize_joint(state, det_b, 6000)
        stack = FrameStack(np.concatenate([a.counts, b.counts], axis=1), det_a, {})
        dens = estimate_density(stack, normalize=False)
        ck = a.arm_k.sum(axis=1).astype(float)
        cp = b.arm_k.sum(axis=1).astype(float)
        n = ck.shape[0]
        var_cell = (
            np.outer((ck**2).mean(0), (cp**2).mean(0)) / n
            + np.outer((ck**2).mean(0), (cp**2).mean(0)) / (n - 1)
        )
        sigma = np.sqrt(np.maximum(var_cell, 1e-12))
        # sparse edge cells are Poisson atoms of size 1/n, not Gaussian
        assert np.all(np.abs(dens.values) < 5.0 * sigma + 2.0 / n)

    def test_recovers_tilt(self):
        quad = paper_quad()
        det = DetectorConfig(18.0, 256, mean_pair_rate=4.0, dark_count_prob=1e-4, seed=5)
        stack = synthesize_frames(quad, det, 20000)
        dens = estimate_density(stack)
        fit = fit_gaussian_2d(dens)
        assert fit.theta_deg == pytest.approx(tilt_angle(quad), abs=5.0)

    def test_noise_drops_with_frame_count(self):
        quad = paper_quad()

        def offridge_rms(n_frames, seed):
            det = DetectorConfig(18.0, 128, mean_pair_rate=4.0, seed=seed)
            dens = estimate_density(synthesize_frames(quad, det, n_frames), normalize=False)
            vals = dens.values
            k = dens.k_axis[:, None]
            p = dens.p_axis[None, :]
            ridge = np.exp(-(quad.kk * k * k + 2 * quad.kp * k * p + quad.pp * p * p))
            off = vals[ridge < 1e-4]
            return float(np.sqrt(np.mean(off**2)))

        seeds = (11, 12, 13, 14)
        small = np.mean([offridge_rms(4000, s) for s in seeds])
        large = np.mean([offridge_rms(8000, s) for s in seeds])
        assert small / large == pytest.approx(math.sqrt(2.0), rel=0.25)

    def test_shifted_product_matches_full_mean_product(self):
        # the cheap accidental estimate agrees with the exact per-column means
        quad = paper_quad()
        det = DetectorConfig(18.0, 128, mean_pair_rate=4.0, seed=6)
        stack = synthesize_frames(quad, det, 8000)
        dens = estimate_density(stack, normalize=False)
        ck, cp = stack_columns(stack)
        ck = ck.astype(float)
        cp = cp.astype(float)
        n = ck.shape[0]
        exact = ck.T @ cp / n - np.outer(ck.mean(0), cp.mean(0))
        noise = np.sqrt(np.maximum(np.outer((ck**2).mean(0), (cp**2).mean(0)), 1e-12) / n)
        diff_rms = float(np.sqrt(np.mean((dens.values - exact) ** 2)))
        assert diff_rms < 2.0 * float(np.sqrt(np.mean(noise**2)))

    def test_no_marginal_background_without_unsplit_channel(self):
        # coincidence-only frames leave nothing for the excess-correlation
        # correction to remove: the off-ridge estimate is unbiased noise and
        # subtracting the marginal image does not move the fitted tilt
        from purephase.denoise import excess_g2

        quad = paper_quad()
        det = DetectorConfig(
            18.0, 128, mean_pair_rate=4.0, seed=61, keep_unsplit=False, dark_count_prob=0.0
        )
        stack = synthesize_frames(quad, det, 15000)
        dens = estimate_density(stack, normalize=False)
        k = dens.k_axis[:, None]
        p = dens.p_axis[None, :]
        ridge = np.exp(-(quad.kk * k * k + 2 * quad.kp * k * p + quad.pp * p * p))
        off = dens.values[ridge < 1e-4]
        assert abs(off.mean()) < 3.0 * off.std() / math.sqrt(off.size)
        plain = fit_gaussian_2d(dens)
        corrected = fit_gaussian_2d(excess_g2(dens))
        assert corrected.theta_deg == pytest.approx(plain.theta_deg, abs=1.0)

    def test_frame_relabeling_changes_only_noise(self, rng):
        quad = paper_quad()
        det = DetectorConfig(18.0, 128, mean_pair_rate=4.0, seed=62)
        stack = synthesize_frames(quad, det, 10000)
        base = estimate_density(stack)
        perm = rng.permutation(stack.n_frames)
        shuffled = FrameStack(stack.counts[perm], det, {})
        other = estimate_density(shuffled)
        fit_a = fit_gaussian_2d(base)
        fit_b = fit_gaussian_2d(other)
        assert fit_b.theta_deg == pytest.approx(fit_a.theta_deg, abs=1.0)

    def test_single_arm_diagonal_cleaned(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        det = DetectorConfig(6.0, 256, mean_pair_rate=2.0, seed=7)
        stack = synthesize_joint(state, det, 12000)
        dens = estimate_density(stack, normalize=False)
        diag = np.diag(dens.values)
        inner = dens.values[np.abs(dens.k_axis) < 200][:, np.abs(dens.p_axis) < 200]
        # the self-pair spike would dwarf the pair signal by orders of magnitude
        assert diag.max() < 10.0 * inner.max()


class TestStreamedSums:
    # blocks of 7 frames: n = 6, 7 and 8 sit around the first block boundary;
    # with kernel_switch the blocks of frames 7-13 and 21-27 are all ones and
    # take the dense kernel, the photon-counting blocks around them the sparse one
    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("n_frames, kernel_switch", [
        *(pytest.param(n, False, id=str(n)) for n in (2, 6, 7, 8, 15, 22)),
        pytest.param(30, True, id="30-kernel-switch"),
    ])
    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize("height", [1, 4])
    def test_blocks_match_whole_stack(self, monkeypatch, n_frames, kernel_switch, split, clip, height):
        monkeypatch.setattr(frames, "_BLOCK_FRAMES", 7)
        dark = 0.0 if clip or kernel_switch else 0.02
        rate = 0.5 if kernel_switch else 1.5  # keeps every photon-counting block sparse
        det = DetectorConfig(8.0, 24, height, mean_pair_rate=rate, dark_count_prob=dark, clip_to_binary=clip, seed=29)
        if split:
            stack = synthesize_frames(paper_quad(), dataclasses.replace(det, pixel_pitch=100.0), n_frames)
        else:
            stack = synthesize_nearfield(DGParams(60.0, 40.0), det, n_frames)
        # fixed counts in the first and last frames: a short stack may draw none
        stack.counts[0, :, 0, 3] = 1
        stack.counts[-1, :, -1, 20] = 1
        assert stack.arm_k.any()
        sparse_calls = []
        if kernel_switch:
            stack.counts[7:14] = 1
            stack.counts[21:28] = 1
            pair_sum = estimation._pair_sum
            monkeypatch.setattr(estimation, "_pair_sum", lambda *a: sparse_calls.append(a) or pair_sum(*a))
        values = estimate_density(stack, normalize=False).values
        assert values.tobytes() == whole_stack_values(stack).tobytes()
        if kernel_switch:
            # two sums (same frame, next frame) for each of blocks 0, 2 and 4
            assert len(sparse_calls) == 6

    def test_carried_frame_feeds_shifted_sum(self, monkeypatch):
        # the only counts sit in frames 6 and 7, the last of the first block
        # and the first of the second: only the carried frame pairs them
        monkeypatch.setattr(frames, "_BLOCK_FRAMES", 7)
        n = 14
        counts = np.zeros((n, 1, 1, 5), dtype=np.uint8)
        counts[6, 0, 0, 1] = 1
        counts[7, 0, 0, 3] = 1
        stack = FrameStack(counts, DetectorConfig(10.0, 5), {})
        values = estimate_density(stack, normalize=False).values
        expected = np.zeros((5, 5))
        expected[1, 3] = -1.0 / (n - 1)
        assert np.array_equal(values, expected)
        assert values.tobytes() == whole_stack_values(stack).tobytes()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "photon-counting"])
    def test_memory_independent_of_frame_count(self, sparse):
        # whole-stack float64 columns alone would take 20000 * 512 * 8 B = 82 MB
        rng = np.random.default_rng(33)
        if sparse:  # 4 counts a frame: every block takes the pair-list kernel
            counts = np.zeros((20000, 1, 1, 512), dtype=np.uint8)
            counts[np.arange(20000)[:, None], 0, 0, rng.integers(0, 512, size=(20000, 4))] = 1
        else:  # half the pixels lit: every block takes the dense kernel
            counts = rng.integers(0, 2, size=(20000, 1, 1, 512), dtype=np.uint8)
        stack = FrameStack(counts, DetectorConfig(3.25, 512), {})
        tracemalloc.start()
        try:
            estimate_density(stack, normalize=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestEventRoute:
    """Sums taken from a stack's events as they are drawn, against the whole-stack formulas."""

    @staticmethod
    def draw(split, det, n_frames):
        if split:
            return frame_events(paper_quad(), dataclasses.replace(det, pixel_pitch=100.0), n_frames)
        return nearfield_events(DGParams(60.0, 40.0), det, n_frames)

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("n_frames", [2, 255, 256, 257, 1025, 2500])
    @pytest.mark.parametrize("split", [True, False], ids=["split", "single-arm"])
    @pytest.mark.parametrize("clip", [True, False], ids=["binary", "counting"])
    @pytest.mark.parametrize("height", [1, 4])
    def test_density_matches_whole_stack(self, n_frames, split, clip, height):
        # dark counts at height 4 put blocks on the dense kernel, height 1 keeps them on the pair list
        det = DetectorConfig(8.0, 24, height, mean_pair_rate=1.5, dark_count_prob=0.02, clip_to_binary=clip, seed=31)
        values = estimate_density(self.draw(split, det, n_frames), normalize=False).values
        assert values.tobytes() == whole_stack_values(self.draw(split, det, n_frames).stack()).tobytes()

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("n_frames", [2, 255, 256, 257, 1025, 2500])
    @pytest.mark.parametrize("clip", [True, False], ids=["binary", "counting"])
    def test_profiles_match_dense_stack(self, monkeypatch, n_frames, clip):
        # the dense stack in blocks of 7 frames (checked against a brute-force
        # histogram above), the events in the drawn blocks of 256
        monkeypatch.setattr(frames, "_BLOCK_FRAMES", 7)
        det = DetectorConfig(8.0, 24, mean_pair_rate=1.5, dark_count_prob=0.02, clip_to_binary=clip, seed=32)
        for profile in (autocorrelation_profile, autoconvolution_profile):
            coords, signal = profile(self.draw(False, det, n_frames))
            dense_coords, dense_signal = profile(self.draw(False, det, n_frames).stack())
            assert coords.tobytes() == dense_coords.tobytes()
            assert signal.tobytes() == dense_signal.tobytes()

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("split", [True, False], ids=["split", "single-arm"])
    @pytest.mark.parametrize("clip", [True, False], ids=["binary", "counting"])
    def test_read_blocks_match_dense_stack(self, monkeypatch, tmp_path, split, clip):
        # the PPF1 reader and the dense stack both cut at frames._BLOCK_FRAMES,
        # here 7: 600 frames are 85 whole blocks and a short last one
        monkeypatch.setattr(frames, "_BLOCK_FRAMES", 7)
        det = DetectorConfig(8.0, 24, mean_pair_rate=1.5, dark_count_prob=0.02, clip_to_binary=clip, seed=34)
        stack = self.draw(split, det, 600).stack()
        write_framestack(stack, tmp_path / "stack.ppf")
        assert [block.shape[0] for block in read_events(tmp_path / "stack.ppf").blocks] == [7] * 85 + [5]
        read = estimate_density(read_events(tmp_path / "stack.ppf")).values
        assert read.tobytes() == estimate_density(stack).values.tobytes()
        for profile in () if split else (autocorrelation_profile, autoconvolution_profile):
            coords, signal = profile(read_events(tmp_path / "stack.ppf"))
            dense_coords, dense_signal = profile(stack)
            assert coords.tobytes() == dense_coords.tobytes()
            assert signal.tobytes() == dense_signal.tobytes()

    @pytest.mark.parametrize("arms", [1, 2])
    def test_pair_across_blocks_only_through_the_carried_frame(self, arms):
        # the only counts sit in frames 255 and 256, the last of the first block
        # and the first of the second: only the carried frame pairs them
        n = 300
        counts = np.zeros((n, arms, 1, 5), dtype=np.uint8)
        counts[255, 0, 0, 1] = 1
        counts[256, arms - 1, 0, 3] = 1
        det = DetectorConfig(10.0, 5)
        blocks = iter([FrameBlock.of(0, counts[:256]), FrameBlock.of(256, counts[256:])])
        values = estimate_density(FrameEvents(det, n, arms, {}, blocks), normalize=False).values
        expected = np.zeros((5, 5))
        expected[1, 3] = -1.0 / (n - 1)
        assert np.array_equal(values, expected)
        assert values.tobytes() == whole_stack_values(FrameStack(counts, det, {})).tobytes()


class TestWidthCalibration:
    def test_near_field_width(self, paper_dg):
        det = DetectorConfig(3.25, 512, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=21)
        stack = synthesize_nearfield(paper_dg, det, 25000)
        est = sigma_minus_of(stack)
        assert est == pytest.approx(paper_dg.sigma_minus, rel=0.10)

    def test_far_field_width(self, paper_dg):
        det = DetectorConfig(16.0, 512, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=22)
        stack = synthesize_farfield(paper_dg, det, 25000, 15e4, WAVELENGTH)
        est = sigma_plus_of(stack)
        assert est == pytest.approx(paper_dg.sigma_plus, rel=0.10)

    def test_symmetric_state_has_equal_widths(self):
        # with sigma_plus = sigma_minus the pair-separation and pair-sum
        # distributions coincide, so both calibrations return the same width
        params = DGParams(60.0, 60.0)
        near_det = DetectorConfig(8.0, 512, mean_pair_rate=0.9, seed=26)
        far_det = DetectorConfig(10.0, 512, mean_pair_rate=2.0, seed=27)
        near = synthesize_nearfield(params, near_det, 12000)
        far = synthesize_farfield(params, far_det, 12000, 15e4, WAVELENGTH)
        sm = sigma_minus_of(near)
        sp = sigma_plus_of(far)
        assert sm == pytest.approx(60.0, rel=0.1)
        assert sp == pytest.approx(sm, rel=0.1)

    def test_frame_order_permutation_stability(self, paper_dg, rng):
        det = DetectorConfig(3.25, 512, mean_pair_rate=2.0, seed=23)
        stack = synthesize_nearfield(paper_dg, det, 12000)
        est = sigma_minus_of(stack)
        perm = rng.permutation(stack.n_frames)
        shuffled = FrameStack(stack.counts[perm], det, dict(stack.metadata))
        est_shuffled = sigma_minus_of(shuffled)
        assert est_shuffled == pytest.approx(est, rel=0.01)

    def test_no_peak_raises(self, paper_dg):
        det = DetectorConfig(3.25, 512, mean_pair_rate=0.0, dark_count_prob=0.01, seed=24)
        stack = synthesize_nearfield(paper_dg, det, 500)
        with pytest.raises(FitError):
            sigma_minus_of(stack)

    def test_requires_single_arm(self):
        stack = synthesize_frames(paper_quad(), DetectorConfig(18.0, 64, seed=1), 10)
        for profile in (autocorrelation_profile, autoconvolution_profile):
            with pytest.raises(DomainError):
                profile(stack)

    def test_far_field_needs_positive_scale(self):
        coords = np.linspace(-100.0, 100.0, 41)
        with pytest.raises(DomainError):
            calibrate_sigma_plus(coords, np.exp(-0.5 * (coords / 20.0) ** 2), 5.0, 0.0)

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_profiles_match_brute_force_pair_histogram(self):
        det = DetectorConfig(8.0, 24, mean_pair_rate=1.5, dark_count_prob=0.02, clip_to_binary=False, seed=28)
        stack = synthesize_nearfield(DGParams(60.0, 40.0), det, 200)
        assert stack_columns(stack)[0].max() > 1  # unclipped counts exercise the self-pair rule
        assert_profiles_match_brute_force(stack)

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("clip", [True, False], ids=["clipped", "unclipped"])
    def test_profiles_match_brute_force_across_blocks(self, monkeypatch, clip):
        # blocks of 7 frames: 0-6 and 14-20 photon-counting, 7-13 all ones
        # (the dense kernel), 21-23 a short last one; frames 6, 13 and 20 hold
        # counts, so every boundary carries a frame into the next block
        monkeypatch.setattr(frames, "_BLOCK_FRAMES", 7)
        det = DetectorConfig(8.0, 24, mean_pair_rate=0.5, dark_count_prob=0.02, clip_to_binary=clip, seed=30)
        stack = synthesize_nearfield(DGParams(60.0, 40.0), det, 24)
        stack.counts[7:14] = 1
        stack.counts[[6, 20], 0, 0, [4, 17]] = 1 if clip else 3
        assert stack_columns(stack)[0].max() == (1 if clip else 3)
        sparse_calls = []
        pair_sum = estimation._pair_sum
        monkeypatch.setattr(estimation, "_pair_sum", lambda *a: sparse_calls.append(a) or pair_sum(*a))
        assert_profiles_match_brute_force(stack)
        # two sums (same frame, next frame) of blocks 0, 2 and 3, for each profile
        assert len(sparse_calls) == 12

    def test_autocorrelation_profile_peak_and_symmetry(self, paper_dg):
        det = DetectorConfig(3.25, 256, mean_pair_rate=2.0, seed=25)
        stack = synthesize_nearfield(paper_dg, det, 4000)
        lags, signal = autocorrelation_profile(stack)
        assert lags[np.argmax(signal + signal[::-1])] == pytest.approx(0.0, abs=det.pixel_pitch)
        # symmetric up to the cross-frame subtraction noise
        assert np.corrcoef(signal, signal[::-1])[0, 1] > 0.95


class TestEstimateFedorov:
    def test_analytic_product_density(self):
        x = (np.arange(128) - 64.0) * 4.0
        prof = np.exp(-0.5 * (x / 90.0) ** 2)
        dens = Density2D(np.outer(prof, prof), x[0], 4.0, x[0], 4.0)
        assert estimate_fedorov(dens) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("widths", [(60.0, 20.0), (120.0, 15.0)])
    def test_censored_diagonal_source_density(self, widths):
        # a binary single-arm camera records no pair on one pixel: the whole
        # diagonal of the noise-free density reads 0
        state = dg_state(DGParams(*widths), WAVELENGTH)
        x = (np.arange(128) - 63.5) * 4.0
        values = np.abs(state.evaluate(x[:, None], x[None, :])) ** 2
        np.fill_diagonal(values, 0.0)
        dens = Density2D(values, x[0], 4.0, x[0], 4.0)
        assert estimate_fedorov(dens) == pytest.approx(fedorov_ratio(state), rel=1e-4)

    def test_pure_phase_plane_stack(self, paper_dg):
        design = PrepDesign(f=10e4, f2=15e4, f3=12.5e4, z_p=phase_plane_distance(paper_dg, WAVELENGTH))
        state = prepare_p3(paper_dg, WAVELENGTH, design)
        det = DetectorConfig(24.0, 128, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=31)
        stack = synthesize_joint(state, det, 30000)
        dens = estimate_density(stack)
        assert estimate_fedorov(dens) == pytest.approx(1.0, abs=0.05)

    def test_source_plane_stack(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        det = DetectorConfig(4.0, 512, mean_pair_rate=2.0, seed=32)
        stack = synthesize_joint(state, det, 50000)
        raw = estimate_density(stack, normalize=False)
        dens = dataclasses.replace(raw, values=np.maximum(raw.values, 0.0)).self_normalized()
        assert estimate_fedorov(dens) == pytest.approx(fedorov_ratio(state), rel=0.15)
