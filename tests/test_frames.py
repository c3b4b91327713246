import hashlib
import math

import numpy as np
import pytest

from purephase.frames import (
    DetectorConfig,
    FrameStack,
    OccupancyWarning,
    frame_rng,
    read_framestack,
    sample_rho_m,
    synthesize_farfield,
    synthesize_frames,
    synthesize_joint,
    synthesize_nearfield,
    write_framestack,
)
from purephase.optics import PrepDesign, measurement_quadratic, tilt_angle
from purephase.states import DGParams, DomainError, dg_state, phase_plane_distance, pure_phase_params
from conftest import WAVELENGTH


def paper_quad(paper_dg, mag=-0.5):
    design = PrepDesign(f=10e4, f2=15e4, f3=12.5e4, z_p=phase_plane_distance(paper_dg, WAVELENGTH))
    scaled = pure_phase_params(paper_dg).rescaled(design.mag_eff)
    return measurement_quadratic(scaled, 15e4, mag, WAVELENGTH)


def quiet_detector(**kwargs) -> DetectorConfig:
    base = dict(
        pixel_pitch=18.0,
        width=256,
        height=1,
        mean_pair_rate=4.0,
        dark_count_prob=0.0,
        clip_to_binary=True,
        seed=99,
    )
    base.update(kwargs)
    return DetectorConfig(**base)


class TestSampleRhoM:
    def test_uncorrelated_when_axis_aligned(self, paper_dg, rng):
        from purephase.states import PurePhaseParams

        quad = measurement_quadratic(PurePhaseParams(1.5e-6, 0.0), 15e4, -0.5, WAVELENGTH)
        n = 200_000
        draws = sample_rho_m(quad, n, rng)
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_covariance_matches(self, paper_dg, rng):
        quad = paper_quad(paper_dg)
        draws = sample_rho_m(quad, 1_000_000, rng)
        sample_cov = np.cov(draws.T)
        assert np.allclose(sample_cov, quad.covariance, rtol=1e-2)

    def test_principal_axis_matches_tilt(self, paper_dg, rng):
        quad = paper_quad(paper_dg)
        draws = sample_rho_m(quad, 1_000_000, rng)
        vals, vecs = np.linalg.eigh(np.cov(draws.T))
        major = vecs[:, int(np.argmax(vals))]
        angle = math.degrees(math.atan2(major[0], major[1]))
        if angle <= -90.0:
            angle += 180.0
        if angle > 90.0:
            angle -= 180.0
        assert angle == pytest.approx(tilt_angle(quad), abs=1.0)


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=0.0, width=64)
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=10.0, width=1)
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=10.0, width=64, mean_pair_rate=-1.0)

    def test_occupancy_warning_and_error(self, paper_dg):
        quad = paper_quad(paper_dg)
        with pytest.warns(OccupancyWarning):
            synthesize_frames(quad, quiet_detector(mean_pair_rate=10.0), 2)
        with pytest.raises(DomainError, match="occupancy"):
            synthesize_frames(quad, quiet_detector(mean_pair_rate=2000.0), 2)

    def test_single_arm_occupancy_counts_both_photons(self):
        # a near-field arm receives both photons of every pair: 0.226, not 0.113
        det = DetectorConfig(8.0, 512, mean_pair_rate=1.5, seed=1)
        with pytest.warns(OccupancyWarning, match="occupancy 0.226"):
            synthesize_nearfield(DGParams(60.0, 60.0), det, 2)

    @pytest.mark.parametrize("kind", ["frames", "joint", "nearfield", "farfield"])
    def test_occupancy_warning_points_at_caller(self, paper_dg, kind):
        params = DGParams(60.0, 60.0)
        near = DetectorConfig(8.0, 512, mean_pair_rate=2.0, seed=1)
        far = DetectorConfig(20.0, 512, mean_pair_rate=4.0, seed=1)
        synthesize = {
            "frames": lambda: synthesize_frames(paper_quad(paper_dg), quiet_detector(mean_pair_rate=10.0), 2),
            "joint": lambda: synthesize_joint(dg_state(params, WAVELENGTH), near, 2),
            "nearfield": lambda: synthesize_nearfield(params, near, 2),
            "farfield": lambda: synthesize_farfield(params, far, 2, 15e4, WAVELENGTH),
        }[kind]
        with pytest.warns(OccupancyWarning) as record:
            synthesize()
        assert record[0].filename == __file__


class TestSynthesizeFrames:
    def test_zero_rate_dark_only(self, paper_dg):
        quad = paper_quad(paper_dg)
        quiet = synthesize_frames(quad, quiet_detector(mean_pair_rate=0.0), 50)
        assert quiet.arm_k.sum() == 0 and quiet.arm_p.sum() == 0
        dark = synthesize_frames(
            quad, quiet_detector(mean_pair_rate=0.0, dark_count_prob=0.05), 50
        )
        total = int(dark.arm_k.sum() + dark.arm_p.sum())
        expected = 0.05 * 50 * 2 * 256
        assert abs(total - expected) < 5.0 * math.sqrt(expected)

    def test_deterministic_and_schedule_independent(self, paper_dg):
        quad = paper_quad(paper_dg)
        det = quiet_detector()
        a = synthesize_frames(quad, det, 40)
        b = synthesize_frames(quad, det, 40)
        assert np.array_equal(a.arm_k, b.arm_k) and np.array_equal(a.arm_p, b.arm_p)
        # frame streams do not depend on how many frames are drawn in total
        prefix = synthesize_frames(quad, det, 12)
        assert np.array_equal(prefix.arm_k, a.arm_k[:12])
        assert np.array_equal(prefix.arm_p, a.arm_p[:12])

    def test_seed_changes_output(self, paper_dg):
        quad = paper_quad(paper_dg)
        a = synthesize_frames(quad, quiet_detector(seed=1), 20)
        b = synthesize_frames(quad, quiet_detector(seed=2), 20)
        assert not np.array_equal(a.arm_k, b.arm_k)

    def test_split_fraction_and_pair_counts(self, paper_dg):
        quad = paper_quad(paper_dg)
        n_frames, rate = 4000, 4.0
        stack = synthesize_frames(quad, quiet_detector(), n_frames)
        n_pairs = stack.metadata["n_pairs_total"]
        n_split = stack.metadata["n_split_total"]
        expected_pairs = rate * n_frames
        assert abs(n_pairs - expected_pairs) < 4.0 * math.sqrt(expected_pairs)
        assert abs(n_split - 0.5 * n_pairs) < 4.0 * math.sqrt(0.25 * n_pairs)

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_discarding_unsplit_keeps_only_coincidences(self, paper_dg):
        quad = paper_quad(paper_dg)
        det = quiet_detector(keep_unsplit=False, clip_to_binary=False, pixel_pitch=40.0)
        stack = synthesize_frames(quad, det, 1500)
        n_split = stack.metadata["n_split_total"]
        # every split pair deposits exactly one photon per arm (minus edge losses)
        assert stack.arm_k.sum() <= n_split
        assert stack.arm_k.sum() > 0.98 * n_split
        assert stack.arm_p.sum() <= n_split

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_mean_occupancy_within_poisson_bounds(self, paper_dg):
        quad = paper_quad(paper_dg)
        det = quiet_detector(clip_to_binary=False, pixel_pitch=40.0)
        n_frames = 3000
        stack = synthesize_frames(quad, det, n_frames)
        # each pair contributes one photon per arm on average when unsplit
        # events are kept; the wide pixels make edge losses negligible
        expected = det.mean_pair_rate * n_frames
        total = int(stack.arm_k.sum())
        assert abs(total - expected) < 4.0 * math.sqrt(expected)

    def test_two_d_mode_shapes(self, paper_dg):
        quad = paper_quad(paper_dg)
        det = quiet_detector(height=32, width=32, pixel_pitch=150.0, mean_pair_rate=1.0)
        stack = synthesize_frames(quad, det, 30)
        assert stack.arm_k.shape == (30, 32, 32)
        ck, cp = stack.columns()
        assert ck.shape == (30, 32)


class TestSingleArmStacks:
    def test_nearfield_metadata_and_scale(self, paper_dg):
        det = quiet_detector(pixel_pitch=3.25, width=512, mean_pair_rate=2.0, seed=7)
        stack = synthesize_nearfield(paper_dg, det, 400)
        assert stack.arm_p is None
        assert stack.metadata["sigma_minus_true"] == paper_dg.sigma_minus
        # marginal beam width ~ sqrt(sp^2+sm^2)/2
        centers = stack.pixel_centers()
        counts = stack.arm_k.sum(axis=(0, 1)).astype(float)
        mean = (centers * counts).sum() / counts.sum()
        std = math.sqrt(((centers - mean) ** 2 * counts).sum() / counts.sum())
        expected = dg_state(paper_dg, WAVELENGTH).marginal_position_std(1)
        assert std == pytest.approx(expected, rel=0.1)

    def test_farfield_records_mapping(self, paper_dg):
        det = quiet_detector(pixel_pitch=16.0, width=512, mean_pair_rate=2.0, seed=8)
        stack = synthesize_farfield(paper_dg, det, 200, 15e4, WAVELENGTH)
        scale = stack.metadata["farfield_scale"]
        assert scale == pytest.approx(WAVELENGTH * 15e4 / (2.0 * math.pi), rel=1e-12)

    def test_joint_uses_state_covariance(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        det = quiet_detector(pixel_pitch=4.0, width=512, mean_pair_rate=2.0, seed=9)
        stack = synthesize_joint(state, det, 100)
        assert stack.metadata["cov_11"] == pytest.approx(state.position_covariance()[0, 0])


class TestFrameRng:
    def test_streams_differ_by_frame(self):
        a = frame_rng(123, 0).random(4)
        b = frame_rng(123, 1).random(4)
        assert not np.array_equal(a, b)
        again = frame_rng(123, 0).random(4)
        assert np.array_equal(a, again)


class TestFileFormat:
    @pytest.mark.parametrize("clip", [True, False])
    def test_round_trip(self, paper_dg, tmp_path, clip):
        quad = paper_quad(paper_dg)
        det = quiet_detector(clip_to_binary=clip, dark_count_prob=0.001)
        stack = synthesize_frames(quad, det, 25)
        stack.metadata["note"] = "round-trip"
        path = tmp_path / "stack.ppf"
        write_framestack(stack, path)
        loaded = read_framestack(path)
        assert np.array_equal(loaded.arm_k, stack.arm_k)
        assert np.array_equal(loaded.arm_p, stack.arm_p)
        assert loaded.detector.pixel_pitch == det.pixel_pitch
        assert loaded.detector.seed == det.seed
        assert loaded.detector.clip_to_binary == clip
        assert loaded.metadata["note"] == "round-trip"
        assert float(loaded.metadata["quad_kk"]) == pytest.approx(quad.kk)

    def test_single_arm_round_trip(self, paper_dg, tmp_path):
        det = quiet_detector(pixel_pitch=3.25, width=128, mean_pair_rate=1.0)
        stack = synthesize_nearfield(paper_dg, det, 10)
        path = tmp_path / "near.ppf"
        write_framestack(stack, path)
        loaded = read_framestack(path)
        assert loaded.arm_p is None
        assert np.array_equal(loaded.arm_k, stack.arm_k)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ppf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DomainError, match="PPF1"):
            read_framestack(path)

    def test_truncated_rejected(self, paper_dg, tmp_path):
        quad = paper_quad(paper_dg)
        stack = synthesize_frames(quad, quiet_detector(), 10)
        path = tmp_path / "stack.ppf"
        write_framestack(stack, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(DomainError, match="truncated"):
            read_framestack(path)


GOLDEN_FRAMES = 200

# stack builders keyed by case name; every case draws GOLDEN_FRAMES frames
GOLDEN_CASES = {
    "1d_darks": lambda dg: synthesize_frames(
        paper_quad(dg), quiet_detector(dark_count_prob=0.002), GOLDEN_FRAMES
    ),
    "discard_unsplit": lambda dg: synthesize_frames(
        paper_quad(dg), quiet_detector(keep_unsplit=False), GOLDEN_FRAMES
    ),
    "unclipped_darks": lambda dg: synthesize_frames(
        paper_quad(dg), quiet_detector(clip_to_binary=False, dark_count_prob=0.01), GOLDEN_FRAMES
    ),
    "2d": lambda dg: synthesize_frames(
        paper_quad(dg),
        quiet_detector(height=16, width=64, pixel_pitch=60.0, dark_count_prob=0.002),
        GOLDEN_FRAMES,
    ),
    "nearfield": lambda dg: synthesize_nearfield(
        dg, quiet_detector(pixel_pitch=3.25, width=512, mean_pair_rate=2.0, seed=7, dark_count_prob=0.002),
        GOLDEN_FRAMES,
    ),
    "farfield": lambda dg: synthesize_farfield(
        dg, quiet_detector(pixel_pitch=16.0, width=512, mean_pair_rate=2.0, seed=8, dark_count_prob=0.002),
        GOLDEN_FRAMES, 15e4, WAVELENGTH,
    ),
}


def stack_digest(stack: FrameStack) -> str:
    digest = hashlib.sha256(stack.arm_k.tobytes())
    if stack.dual_arm:
        digest.update(stack.arm_p.tobytes())
    return digest.hexdigest()


class TestGoldenStreams:
    """Seeded stacks are pinned byte for byte: any change to a frame stream fails here."""

    @pytest.mark.parametrize(
        "case, digest, n_pairs, n_split",
        [
            ("1d_darks", "a5cff21bffbf684c2dacd96098fea0485bfab7d5e5ffe4d049f9144f927515dc", 796, 423),
            ("discard_unsplit", "8a465475fc7a88814bf1c19c33838cbc1312b4aefeb3ee6a1ed70d8f885a78ae", 796, 423),
            ("unclipped_darks", "9c00072262bae3ed17f71eabdae2f37afbc3beef21e4703e3a388d83ab4c0f78", 796, 423),
            ("2d", "1daf2bdce3902d3c77d44010fdb95bb4ac5105c1b76b70b988a325fbfcb90364", 796, 387),
            ("nearfield", "02851f2239a9cd0654465890e8adb17e657fe9317674134b10d67fa1dc523065", None, None),
            ("farfield", "b6135b46a2a78f0b1478db5db95d508e74875e4530842771d3998b013f0c2bb3", None, None),
        ],
    )
    def test_stack_bytes_and_counts(self, paper_dg, case, digest, n_pairs, n_split):
        stack = GOLDEN_CASES[case](paper_dg)
        assert stack.n_frames == GOLDEN_FRAMES
        assert stack_digest(stack) == digest
        assert stack.metadata.get("n_pairs_total") == n_pairs
        assert stack.metadata.get("n_split_total") == n_split
