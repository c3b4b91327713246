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

Determinism: a stack draws from Philox4x64 keyed by (seed mod 2^64,
stream), one block of 256 frames at a time, block b from counter
[0, 0, b, 0], with a few vectorized draws per block; dark counts are a
binomial number of cells sampled without replacement.  Stacks are
bit-identical regardless of evaluation order, and a stack is a prefix of
any longer stack with the same key.  Stacks under distinct keys share no
frame at any length, so the pipeline gives each of its stacks its own
stream and no longer caps stacks at 2^24 frames (the stride its seeds used
to be spaced by): a stack holds as many frames as PPF1 stores.
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
    stream: int = 0  # second word of the Philox key: stacks of one seed differ by stream

    def __post_init__(self):
        if not (0.0 < self.pixel_pitch < math.inf):
            raise DomainError(f"pixel_pitch must be positive and finite, got {self.pixel_pitch!r}")
        if not -(2**63) <= self.seed < 2**63:  # the q field of the PPF1 header
            raise DomainError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        if not 0 <= self.stream < 2**64:
            raise DomainError(f"stream must fit in an unsigned 64-bit integer, got {self.stream}")
        if self.width < 2 or self.height < 1:
            raise DomainError("detector needs width >= 2 and height >= 1")
        if not (0.0 <= self.mean_pair_rate < math.inf):
            raise DomainError(f"mean_pair_rate must be non-negative and finite, got {self.mean_pair_rate!r}")
        if not (0.0 <= self.dark_count_prob <= 1.0):
            raise DomainError(f"dark_count_prob must be a probability in [0, 1], got {self.dark_count_prob!r}")

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


# frames per Philox block: part of the stream format, not a tuning knob, since
# block b's draws come from the counter [0, 0, b, 0] and change with its size
_STREAM_BLOCK_FRAMES = 256


def _synthesize(cov: np.ndarray, det: DetectorConfig, n_frames: int, metadata: dict, split: bool) -> FrameStack:
    """Stack of count images (n_frames, arms, height, width) uint8 carrying ``metadata``.

    Each frame takes Poisson(mean_pair_rate) coordinate pairs drawn from the
    2x2 covariance.  With ``split`` there are two arms: a pair splits when its
    photons take different paths (x_k lands in arm 0, x_p in arm 1),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.  Without ``split`` both coordinates of every
    pair land on the single arm.  Block b (frames 256b..256b+255) draws from
    Philox(key=[seed mod 2^64, stream]) at counter [0, 0, b, 0], in this
    order: the block's 256 pair counts, every pair's x (and y, 2d) normals,
    then for split stacks one raw 64-bit word per pair for the routes (bits
    31 and 63, which is what ``integers(0, 2, size=(n, 2))`` returns from the
    same words) and the marginal normals, then with dark counts a binomial
    number of dark cells and the cells themselves, sampled without
    replacement.  Every block is drawn whole and the last one keeps only the
    frames asked for, so a stack is a prefix of any longer stack with the
    same key.  Split stacks add their pair and split totals over the kept
    frames to the metadata.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    sigmas = np.sqrt(np.diag(cov))
    _check_occupancy(det, sigmas, split)
    chol = np.linalg.cholesky(cov)
    arms = 2 if split else 1
    dims = 2 if det.two_d else 1
    images = np.zeros((n_frames, arms, det.height, det.width), dtype=np.uint8)
    frame_cells = arms * det.height * det.width
    n_pairs_total = 0
    n_split_total = 0
    # a new Philox seeds a SeedSequence from OS entropy; the stack builds one
    # and resets its counter (and empties its buffer) once per block
    bitgen = np.random.Philox(key=np.array([det.seed & 0xFFFF_FFFF_FFFF_FFFF, det.stream], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for block, start in enumerate(range(0, n_frames, _STREAM_BLOCK_FRAMES)):
        kept = min(n_frames - start, _STREAM_BLOCK_FRAMES)
        state["state"]["counter"][2] = block
        bitgen.state = state
        pairs = rng.poisson(det.mean_pair_rate, size=_STREAM_BLOCK_FRAMES)
        n = int(pairs.sum())
        coords = rng.standard_normal((dims, n, 2)) @ chol.T  # (dims, pairs, 2)
        frame = np.repeat(np.arange(_STREAM_BLOCK_FRAMES), pairs)[:, None]
        keep = frame < kept
        n_pairs_total += int(pairs[:kept].sum())
        arm = np.broadcast_to(np.arange(arms), coords.shape[1:])
        if split:
            raw = bitgen.random_raw(n)
            # int64 like integers(): uint64 routes would turn the arm index into float64
            routes = np.stack([(raw >> 31) & 1, raw >> 63], axis=1).astype(np.int64)
            together = routes[:, :1] == routes[:, 1:]
            n_split_total += int(np.count_nonzero(keep & ~together))
            arm = np.where(together, routes[:, :1], arm)
            coords = np.where(together, rng.standard_normal((dims, n, 2)) * sigmas[arm], coords)
            keep = keep & (~together | det.keep_unsplit)
        ix = np.floor(coords[0] / det.pixel_pitch + det.width / 2.0).astype(np.int64)
        iy = np.floor(coords[1] / det.pixel_pitch + det.height / 2.0).astype(np.int64) if det.two_d else 0
        keep = keep & (ix >= 0) & (ix < det.width) & (iy >= 0) & (iy < det.height)
        hits = (((frame * arms + arm) * det.height + iy) * det.width + ix)[keep]  # cells of the block
        if det.dark_count_prob > 0.0:
            cells = _STREAM_BLOCK_FRAMES * frame_cells
            dark = rng.choice(cells, rng.binomial(cells, det.dark_count_prob), replace=False, shuffle=False)
            hits = np.concatenate([hits, dark[dark < kept * frame_cells]])
        # counts are sparse: write only the cells that hold one
        cell, count = np.unique(hits, return_counts=True)
        images.reshape(-1)[start * frame_cells + cell] = np.minimum(count, 1 if det.clip_to_binary else 255)
    if split:
        metadata.update(n_pairs_total=n_pairs_total, n_split_total=n_split_total)
    return FrameStack(images, det, metadata)


def synthesize_frames(quad: GaussianForm, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-counting frames of the split measurement for both arms.

    Per frame: Poisson(mean_pair_rate) pairs; each splits with probability 1/2
    (joint draw lands x_k in the Fourier arm, x_p in the imaging arm),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.
    """
    meta = {"kind": "split_measurement", "quad_kk": quad.kk, "quad_kp": quad.kp, "quad_pp": quad.pp}
    return _synthesize(quad.covariance, det, n_frames, meta, split=True)


def synthesize_joint(state: GaussianBiphotonState, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-pair frames of |psi(x1, x2)|^2 on a single detector."""
    cov = state.position_covariance()
    meta = {"kind": "joint_position", "cov_11": cov[0, 0], "cov_12": cov[0, 1], "cov_22": cov[1, 1]}
    return _synthesize(cov, det, n_frames, meta, split=False)


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


def synthesize_farfield(params: DGParams, det: DetectorConfig, n_frames: int, fourier_focal: float, wavelength: float) -> FrameStack:
    """2f Fourier image of the crystal: momentum anti-correlated pair frames.

    Camera coordinate is x = wavelength*f*q/(2*pi); the mapping scale is
    recorded in the metadata so the width calibration can invert it.
    """
    scale = wavelength * fourier_focal / (2.0 * math.pi)
    # momentum-space covariance of the source state, mapped to the camera
    cov = scale * scale * dg_state(params, wavelength).momentum_covariance()
    meta = {
        "kind": "farfield",
        "sigma_plus_true": params.sigma_plus,
        "sigma_minus_true": params.sigma_minus,
        "farfield_scale": scale,
    }
    return _synthesize(cov, det, n_frames, meta, split=False)


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
        ("stream", det.stream),
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
    meta_path = str(path) + ".meta"
    try:
        metadata = read_key_values(meta_path)
    except FileNotFoundError:  # the header holds the geometry; the sidecar only the counting model
        metadata = {}
    # the counting model's keys go to the detector alone, so a rewrite lists each once
    try:
        det = DetectorConfig(
            pixel_pitch=pitch,
            width=width,
            height=height,
            mean_pair_rate=float(metadata.pop("mean_pair_rate", 0.0)),
            dark_count_prob=float(metadata.pop("dark_count_prob", 0.0)),
            clip_to_binary=binary,
            seed=seed,
            keep_unsplit=bool(int(metadata.pop("keep_unsplit", 1))),
            stream=int(metadata.pop("stream", 0)),
        )
    except ValueError as exc:
        raise DomainError(f"{meta_path}: {exc}") from None
    return FrameStack(frames, det, metadata)
