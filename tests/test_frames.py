import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import purephase.frames as frames
import purephase.pipeline as pl
from purephase.config import RunConfig
from purephase.frames import (
    DetectorConfig,
    FrameStack,
    OccupancyWarning,
    farfield_events,
    frame_events,
    nearfield_events,
    read_events,
    read_framestack,
    synthesize_farfield,
    synthesize_frames,
    synthesize_joint,
    synthesize_nearfield,
    tee_framestack,
    write_framestack,
)
from purephase.states import DGParams, DomainError, dg_state
from conftest import WAVELENGTH, paper_quad, stack_columns


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


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=0.0, width=64)
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=10.0, width=1)
        with pytest.raises(DomainError):
            DetectorConfig(pixel_pitch=10.0, width=64, mean_pair_rate=-1.0)
        # NaN fails every comparison, so each bound must be stated as a pass
        bad_rates = [
            dict(mean_pair_rate=math.nan),
            dict(mean_pair_rate=math.inf),
            dict(dark_count_prob=math.nan),
            dict(dark_count_prob=-1e-4),
            dict(dark_count_prob=1.5),
        ]
        for kwargs in bad_rates:
            with pytest.raises(DomainError, match="mean_pair_rate|dark_count_prob"):
                DetectorConfig(pixel_pitch=10.0, width=64, **kwargs)

    @pytest.mark.parametrize("pitch", [-3.0, math.nan, math.inf])
    def test_pitch_must_be_positive_and_finite(self, pitch):
        with pytest.raises(DomainError, match="pixel_pitch must be positive and finite"):
            DetectorConfig(pixel_pitch=pitch, width=64)

    def test_seed_must_fit_the_ppf1_header(self, tmp_path):
        for seed in (2**63, -(2**63) - 1):
            with pytest.raises(DomainError, match=f"signed 64-bit integer, got {seed}"):
                DetectorConfig(pixel_pitch=18.0, width=64, seed=seed)
        # the ends of the range are written and read back unchanged
        for seed in (-(2**63), 2**63 - 1):
            path = tmp_path / "stack.ppf"
            write_framestack(synthesize_frames(paper_quad(), quiet_detector(seed=seed), 2), path)
            assert read_framestack(path).detector.seed == seed

    def test_stream_is_an_unsigned_64_bit_integer(self, tmp_path):
        for stream in (-1, 2**64):
            with pytest.raises(DomainError, match=f"unsigned 64-bit integer, got {stream}"):
                DetectorConfig(pixel_pitch=18.0, width=64, stream=stream)
        # the sidecar records the stream; a stack without one reads as stream 0
        path = tmp_path / "stack.ppf"
        for stream in (0, 2**64 - 1):
            write_framestack(synthesize_frames(paper_quad(), quiet_detector(stream=stream), 2), path)
            assert read_framestack(path).detector.stream == stream
        (tmp_path / "stack.ppf.meta").unlink()
        assert read_framestack(path).detector.stream == 0

    def test_occupancy_warning_and_error(self):
        quad = paper_quad()
        with pytest.warns(OccupancyWarning):
            synthesize_frames(quad, quiet_detector(mean_pair_rate=10.0), 2)
        with pytest.raises(DomainError, match="occupancy"):
            synthesize_frames(quad, quiet_detector(mean_pair_rate=2000.0), 2)

    def test_single_arm_occupancy_counts_both_photons(self):
        # a near-field arm receives both photons of every pair: 0.226, not 0.113
        det = DetectorConfig(8.0, 512, mean_pair_rate=1.5, seed=1)
        with pytest.warns(OccupancyWarning, match="occupancy 0.226"):
            synthesize_nearfield(DGParams(60.0, 60.0), det, 2)

    @pytest.mark.parametrize("kind", [
        "frames", "joint", "nearfield", "farfield", "frame_events", "nearfield_events", "farfield_events",
    ])
    def test_occupancy_warning_points_at_caller(self, kind):
        # every entry point, dense or events, checks the occupancy before any
        # block is drawn, and the warning names the file that called it
        params = DGParams(60.0, 60.0)
        near = DetectorConfig(8.0, 512, mean_pair_rate=2.0, seed=1)
        far = DetectorConfig(20.0, 512, mean_pair_rate=4.0, seed=1)
        synthesize = {
            "frames": lambda: synthesize_frames(paper_quad(), quiet_detector(mean_pair_rate=10.0), 2),
            "joint": lambda: synthesize_joint(dg_state(params, WAVELENGTH), near, 2),
            "nearfield": lambda: synthesize_nearfield(params, near, 2),
            "farfield": lambda: synthesize_farfield(params, far, 2, 15e4, WAVELENGTH),
            "frame_events": lambda: frame_events(paper_quad(), quiet_detector(mean_pair_rate=10.0), 2),
            "nearfield_events": lambda: nearfield_events(params, near, 2),
            "farfield_events": lambda: farfield_events(params, far, 2, 15e4, WAVELENGTH),
        }[kind]
        with pytest.warns(OccupancyWarning) as record:
            synthesize()  # an event entry point warns before any block is drawn
        assert record[0].filename == __file__


class TestSynthesizeFrames:
    def test_zero_rate_dark_only(self):
        quad = paper_quad()
        quiet = synthesize_frames(quad, quiet_detector(mean_pair_rate=0.0), 50)
        assert quiet.arm_k.sum() == 0 and quiet.arm_p.sum() == 0
        dark = synthesize_frames(
            quad, quiet_detector(mean_pair_rate=0.0, dark_count_prob=0.05), 50
        )
        total = int(dark.arm_k.sum() + dark.arm_p.sum())
        expected = 0.05 * 50 * 2 * 256
        assert abs(total - expected) < 5.0 * math.sqrt(expected)

    def test_deterministic_and_schedule_independent(self):
        quad = paper_quad()
        det = quiet_detector()
        a = synthesize_frames(quad, det, 40)
        b = synthesize_frames(quad, det, 40)
        assert np.array_equal(a.arm_k, b.arm_k) and np.array_equal(a.arm_p, b.arm_p)
        # frame streams do not depend on how many frames are drawn in total
        prefix = synthesize_frames(quad, det, 12)
        assert np.array_equal(prefix.arm_k, a.arm_k[:12])
        assert np.array_equal(prefix.arm_p, a.arm_p[:12])

    def test_seed_changes_output(self):
        quad = paper_quad()
        a = synthesize_frames(quad, quiet_detector(seed=1), 20)
        b = synthesize_frames(quad, quiet_detector(seed=2), 20)
        assert not np.array_equal(a.arm_k, b.arm_k)

    def test_split_fraction_and_pair_counts(self):
        quad = paper_quad()
        n_frames, rate = 4000, 4.0
        stack = synthesize_frames(quad, quiet_detector(), n_frames)
        n_pairs = stack.metadata["n_pairs_total"]
        n_split = stack.metadata["n_split_total"]
        expected_pairs = rate * n_frames
        assert abs(n_pairs - expected_pairs) < 4.0 * math.sqrt(expected_pairs)
        assert abs(n_split - 0.5 * n_pairs) < 4.0 * math.sqrt(0.25 * n_pairs)

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_discarding_unsplit_keeps_only_coincidences(self):
        quad = paper_quad()
        det = quiet_detector(keep_unsplit=False, clip_to_binary=False, pixel_pitch=40.0)
        stack = synthesize_frames(quad, det, 1500)
        n_split = stack.metadata["n_split_total"]
        # every split pair deposits exactly one photon per arm (minus edge losses)
        assert stack.arm_k.sum() <= n_split
        assert stack.arm_k.sum() > 0.98 * n_split
        assert stack.arm_p.sum() <= n_split

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_mean_occupancy_within_poisson_bounds(self):
        quad = paper_quad()
        det = quiet_detector(clip_to_binary=False, pixel_pitch=40.0)
        n_frames = 3000
        stack = synthesize_frames(quad, det, n_frames)
        # each pair contributes one photon per arm on average when unsplit
        # events are kept; the wide pixels make edge losses negligible
        expected = det.mean_pair_rate * n_frames
        total = int(stack.arm_k.sum())
        assert abs(total - expected) < 4.0 * math.sqrt(expected)

    def test_two_d_mode_shapes(self):
        quad = paper_quad()
        det = quiet_detector(height=32, width=32, pixel_pitch=150.0, mean_pair_rate=1.0)
        stack = synthesize_frames(quad, det, 30)
        assert stack.arm_k.shape == (30, 32, 32)
        ck, cp = stack_columns(stack)
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

    def test_farfield_covariance_is_scaled_source_momentum(self, paper_dg, monkeypatch):
        # the source's momentum covariance in closed form: Var(q1 + q2) = 1/sigma_+^2
        # and Var(q1 - q2) = 1/sigma_-^2
        plus, minus = paper_dg.sigma_plus**-2, paper_dg.sigma_minus**-2
        momentum = 0.25 * np.array([[plus + minus, plus - minus], [plus - minus, plus + minus]])
        drawn = []
        synthesize = frames._synthesize
        monkeypatch.setattr(frames, "_synthesize", lambda cov, *rest, **kw: drawn.append(cov) or synthesize(cov, *rest, **kw))
        det = quiet_detector(pixel_pitch=16.0, width=512, mean_pair_rate=2.0, seed=8)
        scale = synthesize_farfield(paper_dg, det, 2, 15e4, WAVELENGTH).metadata["farfield_scale"]
        np.testing.assert_allclose(drawn[0], scale * scale * momentum, rtol=1e-12)

    def test_joint_uses_state_covariance(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        det = quiet_detector(pixel_pitch=4.0, width=512, mean_pair_rate=2.0, seed=9)
        stack = synthesize_joint(state, det, 100)
        assert stack.metadata["cov_11"] == pytest.approx(state.position_covariance()[0, 0])


# builders of the stacks the re-keying is checked on, keyed by case name
REKEY_CASES = {
    "split_1d_darks": lambda dg, seed, n: synthesize_frames(
        paper_quad(), quiet_detector(seed=seed, dark_count_prob=0.002), n
    ),
    "discard_unsplit": lambda dg, seed, n: synthesize_frames(
        paper_quad(), quiet_detector(seed=seed, keep_unsplit=False), n
    ),
    "2d": lambda dg, seed, n: synthesize_frames(
        paper_quad(), quiet_detector(seed=seed, height=8, width=64, pixel_pitch=60.0, dark_count_prob=0.002), n
    ),
    "nearfield": lambda dg, seed, n: synthesize_nearfield(
        dg, quiet_detector(pixel_pitch=3.25, width=512, mean_pair_rate=2.0, seed=seed, dark_count_prob=0.002), n
    ),
}


class TestRekeying:
    """A stack draws whole blocks of frames from one bit generator keyed by (seed, stream)."""

    @pytest.mark.parametrize("short, long", [(300, 600), (1, 256)])
    @pytest.mark.parametrize("case", sorted(REKEY_CASES))
    def test_stack_is_a_prefix_of_a_longer_stack(self, paper_dg, case, short, long):
        build, seed = REKEY_CASES[case], 12345
        prefix, stack = build(paper_dg, seed, short), build(paper_dg, seed, long)
        assert np.array_equal(prefix.counts, stack.counts[:short])

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_block_layout(self):
        # block b draws its pair counts first, from Philox(key=[seed mod 2^64, stream]) at
        # counter [0, 0, b, 0]; the arms span +-10 marginal widths, so no photon is lost
        # and every pair leaves two counts in its frame
        seed, stream, rate = -7, 2**64 - 3, 3.0
        det = quiet_detector(seed=seed, stream=stream, mean_pair_rate=rate, clip_to_binary=False, pixel_pitch=40.0)
        stack = synthesize_frames(paper_quad(), det, 300)
        key = np.array([seed % 2**64, stream], dtype=np.uint64)
        blocks = [
            np.random.Generator(np.random.Philox(key=key, counter=[0, 0, b, 0])).poisson(rate, size=256)
            for b in (0, 1)
        ]
        pairs = np.concatenate(blocks)[:300]
        assert np.array_equal(stack.counts.sum(axis=(1, 2, 3)), 2 * pairs)
        assert stack.metadata["n_pairs_total"] == pairs.sum()

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    def test_neighbouring_seeds_share_no_frame(self):
        # dense frames (about 20 pairs and 5 dark counts each), so equal frames are no chance;
        # a key of seed XOR frame index would give frame j of s to frame j ^ 1 of s ^ 1
        seed = 12345
        det = quiet_detector(mean_pair_rate=20.0, dark_count_prob=0.01)
        seen = {}
        for s in (seed, seed ^ 1, seed + 1):
            stack = synthesize_frames(paper_quad(), dataclasses.replace(det, seed=s), 300)
            frames_of = {frame.tobytes() for frame in stack.counts}
            assert len(frames_of) == stack.n_frames
            for other, earlier in seen.items():
                assert not frames_of & earlier, (s, other)
            seen[s] = frames_of

    def test_one_bit_generator_per_stack(self, paper_dg, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        synthesize_frames(paper_quad(), quiet_detector(), 300)
        assert len(built) <= 1
        built.clear()
        synthesize_nearfield(paper_dg, quiet_detector(pixel_pitch=3.25, width=512, mean_pair_rate=2.0), 300)
        assert len(built) <= 1


class TestBlocks:
    """A dense stack is cut into the blocks its events are drawn in."""

    @pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")
    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 2500])
    @pytest.mark.parametrize("split", [True, False], ids=["split", "single-arm"])
    @pytest.mark.parametrize("clip", [True, False], ids=["binary", "counting"])
    def test_dense_blocks_are_the_drawn_blocks(self, paper_dg, n_frames, split, clip):
        det = quiet_detector(clip_to_binary=clip, dark_count_prob=0.002)
        if split:
            stack, events = synthesize_frames(paper_quad(), det, n_frames), frame_events(paper_quad(), det, n_frames)
        else:
            det = dataclasses.replace(det, pixel_pitch=3.25, width=512, mean_pair_rate=2.0)
            stack, events = synthesize_nearfield(paper_dg, det, n_frames), nearfield_events(paper_dg, det, n_frames)
        blocks = list(zip(stack.blocks, events.blocks, strict=True))
        assert len(blocks) == math.ceil(n_frames / 256)
        for dense, drawn in blocks:
            assert (dense.first, dense.shape) == (drawn.first, drawn.shape)
            for name in ("cells", "counts"):
                ours, theirs = getattr(dense, name), getattr(drawn, name)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), (dense.first, name)


class TestFileFormat:
    @pytest.mark.parametrize("clip", [True, False])
    def test_round_trip(self, tmp_path, clip):
        quad = paper_quad()
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

    @pytest.mark.parametrize("kind", ["split", "2d", "single-arm"])
    @pytest.mark.parametrize("clip", [True, False], ids=["binary", "counting"])
    def test_blockwise_writer_matches_dense_writer(self, paper_dg, tmp_path, kind, clip):
        # 600 frames: two whole drawn blocks and a partial last one
        det = quiet_detector(clip_to_binary=clip, dark_count_prob=0.002)
        draw = {
            "split": lambda: frame_events(paper_quad(), det, 600),
            "2d": lambda: frame_events(paper_quad(), dataclasses.replace(det, height=8, width=64, pixel_pitch=60.0), 600),
            "single-arm": lambda: nearfield_events(
                paper_dg, dataclasses.replace(det, pixel_pitch=3.25, width=512, mean_pair_rate=2.0), 600
            ),
        }[kind]
        stack = draw().stack()
        write_framestack(stack, tmp_path / "dense.ppf")
        events = tee_framestack(draw(), tmp_path / "blocks.ppf")
        assert not (tmp_path / "blocks.ppf").exists()  # nothing is written before a block is drawn
        assert [block.first for block in events.blocks] == [0, 256, 512]
        for suffix in ("", ".meta"):
            assert (tmp_path / f"blocks.ppf{suffix}").read_bytes() == (tmp_path / f"dense.ppf{suffix}").read_bytes()
        read = read_events(tmp_path / "blocks.ppf")
        assert [block.shape[0] for block in read.blocks] == [256, 256, 88]
        assert np.array_equal(read_framestack(tmp_path / "blocks.ppf").counts, stack.counts)

    def test_rewrite_keeps_the_sidecar(self, paper_dg, tmp_path):
        # the detector's sidecar keys are read into the detector alone, not
        # left in the metadata as well, so a rewrite lists each of them once
        det = quiet_detector(pixel_pitch=3.25, width=128, mean_pair_rate=1.0, dark_count_prob=0.001, stream=5)
        write_framestack(synthesize_nearfield(paper_dg, det, 10), tmp_path / "a.ppf")
        loaded = read_framestack(tmp_path / "a.ppf")
        assert loaded.detector == det
        write_framestack(loaded, tmp_path / "b.ppf")
        first = (tmp_path / "a.ppf.meta").read_text()
        assert (tmp_path / "b.ppf.meta").read_text() == first
        keys = [line.partition("=")[0] for line in first.splitlines()]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("clip, bound", [(True, 0.15), (False, 0.05)])
    def test_write_makes_no_stack_copy(self, tmp_path, clip, bound):
        # bit packing allocates an eighth of the stack; writing allocates nothing more
        cfg = RunConfig(clip_binary=int(clip))
        quad = pl.quad_for(cfg, 1.0)
        stack = synthesize_frames(quad, pl._detector_for(cfg, quad, 1), 4000)
        tracemalloc.start()
        try:
            write_framestack(stack, tmp_path / "stack.ppf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * stack.counts.nbytes

    @pytest.mark.parametrize("n_frames, width", [(2, 70000), (2**32, 2)])
    def test_header_limits(self, tmp_path, n_frames, width):
        # height and width are uint16 header fields, the frame count uint32;
        # the frame axis is a broadcast view, so no 2^32-frame array is allocated
        counts = np.broadcast_to(np.zeros((1, 1, 1, width), dtype=np.uint8), (n_frames, 1, 1, width))
        stack = FrameStack(counts, DetectorConfig(10.0, width), {})
        with pytest.raises(DomainError, match=f"got {n_frames} frames of 1 x {width} px"):
            write_framestack(stack, tmp_path / "stack.ppf")
        assert not (tmp_path / "stack.ppf").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ppf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DomainError, match="PPF1"):
            read_framestack(path)

    def test_other_version_rejected(self, tmp_path):
        path = tmp_path / "stack.ppf"
        write_framestack(synthesize_frames(paper_quad(), quiet_detector(), 10), path)
        data = bytearray(path.read_bytes())
        data[4:6] = (2).to_bytes(2, "little")  # the header's uint16 version follows the magic
        path.write_bytes(bytes(data))
        with pytest.raises(DomainError) as refused:
            read_framestack(path)
        assert str(refused.value) == "unsupported PPF1 version 2"

    def test_truncated_rejected(self, tmp_path):
        quad = paper_quad()
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
        paper_quad(), quiet_detector(dark_count_prob=0.002), GOLDEN_FRAMES
    ),
    "discard_unsplit": lambda dg: synthesize_frames(
        paper_quad(), quiet_detector(keep_unsplit=False), GOLDEN_FRAMES
    ),
    "unclipped_darks": lambda dg: synthesize_frames(
        paper_quad(), quiet_detector(clip_to_binary=False, dark_count_prob=0.01), GOLDEN_FRAMES
    ),
    "2d": lambda dg: synthesize_frames(
        paper_quad(),
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

    # stack digest, pair total and split total of each case; tests are named by case alone
    # so that regenerating a digest renames no test
    PINNED = {
        "1d_darks": ("93b6f1246a62ceb23b3a679a023b66dfefe9986dfa96bdca7b403628087ce256", 841, 414),
        "discard_unsplit": ("f400e7de028108f182b470cd0a210bf14f6d889f84a25a9b9edfc1581eeeeb0a", 841, 414),
        "unclipped_darks": ("55bb205c1dca2eb9c06faac71cc84279ba23786edf61a81e82a9846c4061dcd6", 841, 414),
        "2d": ("f81a35d2735e3765812ea97940f4d175fc23f2ec98e3ce8ebf796e578a635f8d", 841, 432),
        "nearfield": ("768a214e750ae27b43d39f33ef8aed72336a7d40732b4e3b9e06f7051e7136f4", None, None),
        "farfield": ("42402b0b5d2a6d49ff47deb6b80e37127ce4904baedc6718fc96b4163602037b", None, None),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_stack_bytes_and_counts(self, paper_dg, case):
        digest, n_pairs, n_split = self.PINNED[case]
        stack = GOLDEN_CASES[case](paper_dg)
        assert stack.n_frames == GOLDEN_FRAMES
        assert stack_digest(stack) == digest
        assert stack.metadata.get("n_pairs_total") == n_pairs
        assert stack.metadata.get("n_split_total") == n_split
