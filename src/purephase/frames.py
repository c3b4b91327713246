"""Monte-Carlo synthesis of photon-counting camera frames.

Pairs are drawn from the predicted joint density of the split measurement.
Each photon independently takes the transmitted or reflected path, so half the
pairs split (one photon per arm: the coincidence signal) and half land
together in one arm, depositing two marginal-distributed counts (the
accidental background the cleaning stage exists to remove).  Detector physics
is reduced to pixel binning, optional uniform dark counts, and optional
clipping to binary photon-counting frames.

A stack is one uint8 count array, (frames, arms, height, width): one arm
for single-detector stacks, two (k, then p) for the split measurement.
Synthesis builds it, the estimator reads both arms from it at once and PPF1
writes it as it lies in memory.  Split and single-arm stacks come from one
kernel.

Determinism: frame j draws everything from its own Philox stream keyed by
seed XOR j, so stacks are bit-identical regardless of evaluation order or
stack length.  Seeds of distinct stacks must therefore differ above the
bits of the largest frame index (the pipeline spaces them 2**24 apart), or
their frames collide.  Draws run frame by frame on one Philox per stack,
re-keyed for each frame; a pair's two routes are two bits of one raw 64-bit
word.  The Cholesky product, binning, dark counts and clipping run once per
chunk of frames, with a single np.bincount.
"""
from __future__ import annotations

import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sidecar import read_key_values, write_key_values
from .states import DGParams, DomainError, GaussianBiphotonState, GaussianForm, dg_state

__all__ = [
    "DetectorConfig",
    "FrameStack",
    "OccupancyWarning",
    "synthesize_frames",
    "synthesize_joint",
    "synthesize_nearfield",
    "synthesize_farfield",
    "write_framestack",
    "read_framestack",
]

_MAGIC = b"PPF1"
_HEADER = struct.Struct("<4sHBBIHHdq")  # magic, version, flags, pad, frames, height, width, pitch, seed
_FLAG_BINARY = 1
_FLAG_DUAL_ARM = 2
# largest height or width (uint16) and largest frame count (uint32) a PPF1 header holds
PPF1_MAX_PX = 0xFFFF
PPF1_MAX_FRAMES = 0xFFFF_FFFF


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
        if not (0.0 < self.pixel_pitch < math.inf):
            raise DomainError(f"pixel_pitch must be positive and finite, got {self.pixel_pitch!r}")
        if not -(2**63) <= self.seed < 2**63:  # the q field of the PPF1 header
            raise DomainError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        if self.width < 2 or self.height < 1:
            raise DomainError("detector needs width >= 2 and height >= 1")
        if self.mean_pair_rate < 0.0 or self.dark_count_prob < 0.0:
            raise DomainError("rates must be non-negative")

    @property
    def two_d(self) -> bool:
        return self.height > 1


@dataclass
class FrameStack:
    """Per-frame count images of one arm, or of arms k and p of the split measurement."""

    counts: np.ndarray  # (n_frames, arms, height, width) uint8
    detector: DetectorConfig
    metadata: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.counts.shape[0]

    @property
    def dual_arm(self) -> bool:
        return self.counts.shape[1] == 2

    @property
    def arm_k(self) -> np.ndarray:
        return self.counts[:, 0]

    @property
    def arm_p(self) -> np.ndarray | None:
        return self.counts[:, 1] if self.dual_arm else None

    def pixel_centers(self) -> np.ndarray:
        w = self.detector.width
        return (np.arange(w) - w / 2.0 + 0.5) * self.detector.pixel_pitch


def _frame_key(seed: int, frame_index: int) -> int:
    """Philox key of frame ``frame_index`` in a stack seeded with ``seed``."""
    return (int(seed) ^ int(frame_index)) & 0xFFFF_FFFF_FFFF_FFFF


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
    Philox(key=seed ^ j): the pair count, x normals, y normals (2d),
    then for split stacks one raw 64-bit word per pair for the routes, x and
    y (2d) marginal normals, then one uniform per pixel and arm when dark
    counts are on.  The stack holds one Philox and re-keys it per frame to
    the state a fresh Philox(key=seed ^ j) starts in.  A pair's two routes
    are bit 31 and bit 63 of its raw word, which is what
    ``integers(0, 2, size=(n, 2))`` returns from the same words.  The
    Cholesky product, binning, darks and clipping run once per chunk of
    frames.
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
    # a new Philox seeds a SeedSequence from OS entropy; resetting one is
    # cheaper and leaves it in the state Philox(key=_frame_key(seed, j)) starts in
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, n_frames, _CHUNK_FRAMES):
        stop = min(start + _CHUNK_FRAMES, n_frames)
        pairs, normals, raw, marg = [], [], [], []
        if det.dark_count_prob > 0.0:
            uniform = np.empty((stop - start, arms, det.height, det.width))
        for j in range(start, stop):
            fresh["state"]["key"][0] = _frame_key(det.seed, j)
            bitgen.state = fresh
            n = int(rng.poisson(det.mean_pair_rate))
            pairs.append(n)
            normals.append(rng.standard_normal((dims, n, 2)))
            if split:
                raw.append(bitgen.random_raw(n))
                marg.append(rng.standard_normal((dims, n, 2)))
            if det.dark_count_prob > 0.0:
                rng.random(out=uniform[j - start])
        pairs = np.array(pairs)
        n_pairs_total += int(pairs.sum())
        coords = np.concatenate(normals, axis=1) @ chol.T  # (dims, pairs, 2)
        arm = np.broadcast_to(np.arange(arms), coords.shape[1:])
        keep = True
        if split:
            raw = np.concatenate(raw)
            # int64 like integers(): uint64 routes would turn the arm index into float64
            routes = np.stack([(raw >> 31) & 1, raw >> 63], axis=1).astype(np.int64)
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


def synthesize_frames(quad: GaussianForm, det: DetectorConfig, n_frames: int) -> FrameStack:
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
    }
    return FrameStack(images, det, meta)


def synthesize_joint(state: GaussianBiphotonState, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-pair frames of |psi(x1, x2)|^2 on a single detector."""
    cov = state.position_covariance()
    images, _, _ = _synthesize(cov, det, n_frames, split=False)
    meta = {"kind": "joint_position", "cov_11": cov[0, 0], "cov_12": cov[0, 1], "cov_22": cov[1, 1]}
    return FrameStack(images, det, meta)


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
    cov = scale * scale * dg_state(params, wavelength).momentum_covariance()
    images, _, _ = _synthesize(cov, det, n_frames, split=False)
    meta = {
        "kind": "farfield",
        "sigma_plus_true": sp,
        "sigma_minus_true": sm,
        "farfield_scale": scale,
    }
    return FrameStack(images, det, meta)


# ---------------------------------------------------------------------------
# PPF1 file format


def write_framestack(stack: FrameStack, path) -> None:
    """Little-endian binary: magic, header, then frames (bit-packed if binary)."""
    det = stack.detector
    if max(det.height, det.width) > PPF1_MAX_PX or stack.n_frames > PPF1_MAX_FRAMES:
        raise DomainError(
            f"PPF1 holds at most {PPF1_MAX_FRAMES} frames of at most {PPF1_MAX_PX} px a side, "
            f"got {stack.n_frames} frames of {det.height} x {det.width} px"
        )
    flags = 0
    if det.clip_to_binary:
        flags |= _FLAG_BINARY
    if stack.dual_arm:
        flags |= _FLAG_DUAL_ARM
    header = _HEADER.pack(
        _MAGIC, 1, flags, 0, stack.n_frames, det.height, det.width, det.pixel_pitch, det.seed
    )
    frames = np.ascontiguousarray(stack.counts, dtype=np.uint8)
    frames = frames.reshape(frames.shape[:2] + (det.height * det.width,))
    # each frame of each arm is packed (and padded to whole bytes) on its own
    payload = np.packbits(frames, axis=2) if det.clip_to_binary else frames
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)  # through the buffer protocol, without a bytes copy
    write_key_values(str(path) + ".meta", [
        *((key, stack.metadata[key]) for key in sorted(stack.metadata)),
        ("mean_pair_rate", det.mean_pair_rate),
        ("dark_count_prob", det.dark_count_prob),
        ("keep_unsplit", int(det.keep_unsplit)),
    ])


def read_framestack(path) -> FrameStack:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DomainError(f"{path} is not a PPF1 frame stack: truncated header")
        magic, version, flags, _, n_frames, height, width, pitch, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DomainError(f"{path} is not a PPF1 frame stack")
        if version != 1:
            raise DomainError(f"unsupported PPF1 version {version}")
        binary = bool(flags & _FLAG_BINARY)
        dual = bool(flags & _FLAG_DUAL_ARM)
        n_arms = 2 if dual else 1
        px = height * width
        frame_bytes = (px + 7) // 8 if binary else px
        size = n_frames * n_arms * frame_bytes
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != size:  # checked before allocating: a corrupt frame count can imply terabytes
            raise DomainError(
                f"{path} is truncated or corrupt: it holds {held} payload bytes, its header implies {size}"
            )
        raw = bytearray(size)  # writable, so the counts are too
        if fh.readinto(raw) != size:
            raise DomainError(f"{path} is truncated")
    frames = np.frombuffer(raw, dtype=np.uint8).reshape(n_frames, n_arms, frame_bytes)
    if binary:
        frames = np.unpackbits(frames, axis=2, count=px)
    frames = frames.reshape(n_frames, n_arms, height, width)
    try:
        metadata = read_key_values(str(path) + ".meta")
    except FileNotFoundError:
        metadata = {}
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
    return FrameStack(frames, det, metadata)
