"""Monte-Carlo synthesis of photon-counting camera frames.

Pairs are drawn from the predicted joint density of the split measurement.
Each photon independently takes the transmitted or reflected path, so half the
pairs split (one photon per arm: the coincidence signal) and half land
together in one arm, depositing two marginal-distributed counts (the
accidental background the cleaning stage exists to remove).  Detector physics
is reduced to pixel binning, optional uniform dark counts, and optional
clipping to binary photon-counting frames.

Split and single-arm stacks come from one kernel.  Determinism: frame j
draws everything from its own RNG stream keyed by seed XOR j, so stacks are
bit-identical regardless of evaluation order or stack length.  Draws run
frame by frame; binning, dark counts and clipping run once per chunk of
frames with a single np.bincount.
"""
from __future__ import annotations

import math
import struct
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .optics import MeasurementQuadratic
from .states import DGParams, DomainError, GaussianBiphotonState, dg_state

__all__ = [
    "DetectorConfig",
    "FrameStack",
    "OccupancyWarning",
    "frame_rng",
    "sample_rho_m",
    "synthesize_frames",
    "synthesize_joint",
    "synthesize_nearfield",
    "synthesize_farfield",
    "write_framestack",
    "read_framestack",
]

_MAGIC = b"PPF1"
_FLAG_BINARY = 1
_FLAG_DUAL_ARM = 2


class OccupancyWarning(UserWarning):
    """Mean occupancy exceeds the photon-counting regime."""


@dataclass(frozen=True)
class DetectorConfig:
    """Geometry and counting model of one camera arm pair."""

    pixel_pitch: float  # um
    width: int  # pixels per arm
    height: int = 1  # 1 = row detector (fast default), >1 = 2D mode
    mean_pair_rate: float = 4.0  # expected pairs per frame
    dark_count_prob: float = 0.0  # per pixel per frame
    clip_to_binary: bool = True
    seed: int = 0
    keep_unsplit: bool = True  # keep both-photons-one-arm events

    def __post_init__(self):
        if not (self.pixel_pitch > 0.0):
            raise DomainError(f"pixel_pitch must be positive, got {self.pixel_pitch!r}")
        if self.width < 2 or self.height < 1:
            raise DomainError("detector needs width >= 2 and height >= 1")
        if self.mean_pair_rate < 0.0 or self.dark_count_prob < 0.0:
            raise DomainError("rates must be non-negative")

    @property
    def two_d(self) -> bool:
        return self.height > 1


@dataclass
class FrameStack:
    """Stack of per-frame count images; arm_p is None for single-detector stacks."""

    arm_k: np.ndarray  # (n_frames, height, width) uint8
    arm_p: np.ndarray | None
    detector: DetectorConfig
    metadata: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.arm_k.shape[0]

    @property
    def dual_arm(self) -> bool:
        return self.arm_p is not None

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-frame counts summed over the y axis: (N, width) per arm."""
        ck = self.arm_k.sum(axis=1, dtype=np.int64)
        cp = self.arm_p.sum(axis=1, dtype=np.int64) if self.dual_arm else ck
        return ck, cp

    def pixel_centers(self) -> np.ndarray:
        w = self.detector.width
        return (np.arange(w) - w / 2.0 + 0.5) * self.detector.pixel_pitch


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Independent per-frame stream: Philox keyed by seed XOR frame index.

    Seeds of distinct stacks must differ by more than the largest frame index
    (the pipeline spaces them 2**24 apart), otherwise streams collide.
    """
    key = (int(seed) ^ int(frame_index)) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=key))


def sample_rho_m(quad: MeasurementQuadratic, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws (x_k, x_p) from the measured bivariate Gaussian density."""
    chol = np.linalg.cholesky(quad.covariance)
    return rng.standard_normal((n, 2)) @ chol.T


def _check_occupancy(det: DetectorConfig, sigmas: np.ndarray, split: bool) -> None:
    """Peak expected counts per pixel per frame; warn above 0.15, error above 1.

    A split arm receives one photon per pair on average (half of that without
    the unsplit channel); a single arm receives both photons of every pair and
    peaks where the wider marginal does.
    """
    if split:
        photons_per_arm = det.mean_pair_rate * (1.0 if det.keep_unsplit else 0.5)
    else:
        photons_per_arm = 2.0 * det.mean_pair_rate
        sigmas = sigmas.max(keepdims=True)
    for sigma in sigmas:
        peak_px = det.pixel_pitch / (math.sqrt(2.0 * math.pi) * sigma)
        if det.two_d:
            peak_px *= det.pixel_pitch / (math.sqrt(2.0 * math.pi) * sigma)
        occupancy = photons_per_arm * min(peak_px, 1.0) + det.dark_count_prob
        if occupancy > 1.0:
            raise DomainError(
                f"mean occupancy {occupancy:.3g} counts/pixel/frame exceeds 1; "
                "lower mean_pair_rate or enlarge pixels"
            )
        if occupancy > 0.15:
            warnings.warn(
                f"mean occupancy {occupancy:.3g} above the photon-counting "
                "regime (<= 0.15 counts/pixel/frame)",
                OccupancyWarning,
                stacklevel=_caller_stacklevel(),
            )


def _caller_stacklevel() -> int:
    """Stacklevel at which a warning issued by the calling function leaves this module."""
    level = 1
    while sys._getframe(level).f_code.co_filename == __file__:
        level += 1
    return level


# frames binned per np.bincount call; bounds the int64 count temporaries
_CHUNK_FRAMES = 256


def _synthesize(
    cov: np.ndarray, det: DetectorConfig, n_frames: int, split: bool
) -> tuple[np.ndarray, int, int]:
    """Count images (n_frames, arms, height, width) uint8, pair total, split total.

    Each frame takes Poisson(mean_pair_rate) coordinate pairs drawn from the
    2x2 covariance.  With ``split`` there are two arms: a pair splits when its
    photons take different paths (x_k lands in arm 0, x_p in arm 1),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.  Without ``split`` both coordinates of every
    pair land on the single arm.  Frame j draws, in this order, from
    frame_rng(seed, j): the pair count, x normals, y normals (2d), then for
    split stacks the routes, x and y (2d) marginal normals, then one uniform
    per pixel and arm when dark counts are on.  Binning, darks and clipping
    run once per chunk of frames.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    sigmas = np.sqrt(np.diag(cov))
    _check_occupancy(det, sigmas, split)
    chol = np.linalg.cholesky(cov)
    arms = 2 if split else 1
    dims = 2 if det.two_d else 1
    images = np.empty((n_frames, arms, det.height, det.width), dtype=np.uint8)
    n_pairs_total = 0
    n_split_total = 0
    for start in range(0, n_frames, _CHUNK_FRAMES):
        stop = min(start + _CHUNK_FRAMES, n_frames)
        pairs, joint, routes, marg = [], [], [], []
        if det.dark_count_prob > 0.0:
            uniform = np.empty((stop - start, arms, det.height, det.width))
        for j in range(start, stop):
            rng = frame_rng(det.seed, j)
            n = int(rng.poisson(det.mean_pair_rate))
            pairs.append(n)
            # one product per (n, 2) draw: a batched product rounds 1-pair frames differently
            joint.extend(rng.standard_normal((n, 2)) @ chol.T for _ in range(dims))
            if split:
                routes.append(rng.integers(0, 2, size=(n, 2)))
                marg.append(rng.standard_normal((dims, n, 2)))
            if det.dark_count_prob > 0.0:
                rng.random(out=uniform[j - start])
        pairs = np.array(pairs)
        n_pairs_total += int(pairs.sum())
        coords = np.stack([np.concatenate(joint[d::dims]) for d in range(dims)])  # (dims, pairs, 2)
        arm = np.broadcast_to(np.arange(arms), coords.shape[1:])
        keep = True
        if split:
            routes = np.concatenate(routes)
            together = routes[:, :1] == routes[:, 1:]
            n_split_total += int(pairs.sum() - together.sum())
            arm = np.where(together, routes[:, :1], arm)
            coords = np.where(together, np.concatenate(marg, axis=1) * sigmas[arm], coords)
            keep = ~together | det.keep_unsplit
        frame = np.repeat(np.arange(stop - start), pairs)[:, None]
        ix = np.floor(coords[0] / det.pixel_pitch + det.width / 2.0).astype(np.int64)
        iy = np.floor(coords[1] / det.pixel_pitch + det.height / 2.0).astype(np.int64) if det.two_d else 0
        keep = keep & (ix >= 0) & (ix < det.width) & (iy >= 0) & (iy < det.height)
        pixel = ((frame * arms + arm) * det.height + iy) * det.width + ix
        counts = np.bincount(pixel[keep], minlength=images[start:stop].size)
        counts = counts.reshape(-1, arms, det.height, det.width)
        if det.dark_count_prob > 0.0:
            counts += uniform < det.dark_count_prob
        images[start:stop] = np.minimum(counts, 1 if det.clip_to_binary else 255)
    return images, n_pairs_total, n_split_total


def synthesize_frames(
    quad: MeasurementQuadratic, det: DetectorConfig, n_frames: int
) -> FrameStack:
    """Photon-counting frames of the split measurement for both arms.

    Per frame: Poisson(mean_pair_rate) pairs; each splits with probability 1/2
    (joint draw lands x_k in the Fourier arm, x_p in the imaging arm),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.
    """
    images, n_pairs_total, n_split_total = _synthesize(quad.covariance, det, n_frames, split=True)
    meta = {
        "kind": "split_measurement",
        "n_pairs_total": n_pairs_total,
        "n_split_total": n_split_total,
        "quad_kk": quad.kk,
        "quad_kp": quad.kp,
        "quad_pp": quad.pp,
        "amp_coeff": quad.amp_coeff,
        "cross_coeff": quad.cross_coeff,
    }
    return FrameStack(images[:, 0], images[:, 1], det, meta)


def synthesize_joint(state: GaussianBiphotonState, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-pair frames of |psi(x1, x2)|^2 on a single detector."""
    cov = state.position_covariance()
    images, _, _ = _synthesize(cov, det, n_frames, split=False)
    meta = {"kind": "joint_position", "cov_11": cov[0, 0], "cov_12": cov[0, 1], "cov_22": cov[1, 1]}
    return FrameStack(images[:, 0], None, det, meta)


def synthesize_nearfield(params: DGParams, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Image of the crystal plane: position-correlated pair frames."""
    state = dg_state(params, 1.0)  # wavelength does not enter the position density
    stack = synthesize_joint(state, det, n_frames)
    stack.metadata.update(
        kind="nearfield",
        sigma_plus_true=params.sigma_plus,
        sigma_minus_true=params.sigma_minus,
    )
    return stack


def synthesize_farfield(
    params: DGParams,
    det: DetectorConfig,
    n_frames: int,
    fourier_focal: float = 15e4,
    wavelength: float = 0.81,
) -> FrameStack:
    """2f Fourier image of the crystal: momentum anti-correlated pair frames.

    Camera coordinate is x = wavelength*f*q/(2*pi); the mapping scale is
    recorded in the metadata so the width calibration can invert it.
    """
    sp, sm = params.sigma_plus, params.sigma_minus
    scale = wavelength * fourier_focal / (2.0 * math.pi)
    # momentum-space covariance of the source state, mapped to the camera
    var_sum = 1.0 / (sp * sp)  # Var(q1+q2)
    var_diff = 1.0 / (sm * sm)  # Var(q1-q2)
    v11 = 0.25 * (var_sum + var_diff)
    v12 = 0.25 * (var_sum - var_diff)
    cov = scale * scale * np.array([[v11, v12], [v12, v11]])
    images, _, _ = _synthesize(cov, det, n_frames, split=False)
    meta = {
        "kind": "farfield",
        "sigma_plus_true": sp,
        "sigma_minus_true": sm,
        "farfield_scale": scale,
    }
    return FrameStack(images[:, 0], None, det, meta)


# ---------------------------------------------------------------------------
# PPF1 file format


def write_framestack(stack: FrameStack, path) -> None:
    """Little-endian binary: magic, header, then frames (bit-packed if binary)."""
    det = stack.detector
    flags = 0
    if det.clip_to_binary:
        flags |= _FLAG_BINARY
    if stack.dual_arm:
        flags |= _FLAG_DUAL_ARM
    header = struct.pack(
        "<4sHBBIHHdq",
        _MAGIC,
        1,
        flags,
        0,
        stack.n_frames,
        det.height,
        det.width,
        det.pixel_pitch,
        det.seed,
    )
    arms = [stack.arm_k] + ([stack.arm_p] if stack.dual_arm else [])
    frames = np.stack(arms, axis=1).reshape(stack.n_frames, len(arms), det.height * det.width)
    # each frame of each arm is packed (and padded to whole bytes) on its own
    payload = np.packbits(frames, axis=2) if det.clip_to_binary else frames.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())
    meta_path = str(path) + ".meta"
    keys = sorted(stack.metadata)
    with open(meta_path, "w") as fh:
        for key in keys:
            fh.write(f"{key}={stack.metadata[key]}\n")
        fh.write(f"mean_pair_rate={det.mean_pair_rate}\n")
        fh.write(f"dark_count_prob={det.dark_count_prob}\n")
        fh.write(f"keep_unsplit={int(det.keep_unsplit)}\n")


def read_framestack(path) -> FrameStack:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize("<4sHBBIHHdq"))
        magic, version, flags, _, n_frames, height, width, pitch, seed = struct.unpack(
            "<4sHBBIHHdq", header
        )
        if magic != _MAGIC:
            raise DomainError(f"{path} is not a PPF1 frame stack")
        if version != 1:
            raise DomainError(f"unsupported PPF1 version {version}")
        binary = bool(flags & _FLAG_BINARY)
        dual = bool(flags & _FLAG_DUAL_ARM)
        n_arms = 2 if dual else 1
        px = height * width
        frame_bytes = (px + 7) // 8 if binary else px
        raw = bytearray(n_frames * n_arms * frame_bytes)  # writable, so the arms are too
        if fh.readinto(raw) != len(raw):
            raise DomainError(f"{path} is truncated")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(n_frames, n_arms, frame_bytes)
    if binary:
        frames = np.unpackbits(data, axis=2)[:, :, :px]
    else:
        frames = data
    frames = frames.reshape(n_frames, n_arms, height, width)
    metadata = {}
    meta_path = str(path) + ".meta"
    try:
        with open(meta_path) as fh:
            for line in fh:
                line = line.strip()
                if line and "=" in line:
                    key, _, val = line.partition("=")
                    metadata[key] = val
    except FileNotFoundError:
        pass
    det = DetectorConfig(
        pixel_pitch=pitch,
        width=width,
        height=height,
        mean_pair_rate=float(metadata.get("mean_pair_rate", 0.0)),
        dark_count_prob=float(metadata.get("dark_count_prob", 0.0)),
        clip_to_binary=binary,
        seed=seed,
        keep_unsplit=bool(int(metadata.get("keep_unsplit", 1))),
    )
    return FrameStack(frames[:, 0], frames[:, 1] if dual else None, det, metadata)
