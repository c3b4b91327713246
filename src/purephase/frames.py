"""Monte-Carlo synthesis of photon-counting camera frames.

Pairs are drawn from the predicted joint density of the split measurement.
Each photon independently takes the transmitted or reflected path, so half the
pairs split (one photon per arm: the coincidence signal) and half land
together in one arm, depositing two marginal-distributed counts (the
accidental background the cleaning stage exists to remove).  Detector physics
is reduced to pixel binning, optional uniform dark counts, and optional
clipping to binary photon-counting frames.

Frames have the layout (frames, arms, height, width): one arm for
single-detector stacks, two (k, then p) for the split measurement.  One
kernel draws split and single-arm stacks, one block of 256 frames at a time,
and hands each block on as its events: the sorted flat indices of its nonzero
cells and their uint8 counts (``FrameBlock``).  A ``FrameEvents`` is a stack
as that one-pass stream of blocks; the estimator sums pairs from it and PPF1
writes it block by block, so neither holds more than a block of frames.  A
``FrameStack`` is the dense uint8 count array, assembled from the same blocks
by the ``synthesize_*`` entry points and by ``read_framestack``.  This module
cuts every stack into blocks: synthesis and the PPF1 reader hand on events
of 256 frames a block, and a dense stack's ``blocks`` cuts its counts alike,
so the estimator reads any stack through ``blocks`` and only sums.

Determinism: a stack draws from Philox4x64 keyed by (seed mod 2^64,
stream), one block of 256 frames at a time, block b from counter
[0, 0, b, 0], with a few vectorized draws per block; dark counts are a
binomial number of cells sampled without replacement.  Stacks are
bit-identical regardless of evaluation order, and a stack is a prefix of
any longer stack with the same key.  Stacks under distinct keys share no
frame at any length, so the pipeline gives each of its stacks its own
stream, and a stack holds as many frames as PPF1 stores.
"""
from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .optics import BOTH, FourierLens, apply_element
from .sidecar import read_key_values, write_key_values
from .states import DGParams, DomainError, GaussianBiphotonState, GaussianForm, _require_positive, dg_state

__all__ = [
    "DetectorConfig",
    "FrameBlock",
    "FrameEvents",
    "FrameStack",
    "OccupancyWarning",
    "synthesize_frames",
    "synthesize_joint",
    "synthesize_nearfield",
    "synthesize_farfield",
    "frame_events",
    "nearfield_events",
    "farfield_events",
    "write_framestack",
    "tee_framestack",
    "read_framestack",
    "read_events",
]

_MAGIC = b"PPF1"
_HEADER = struct.Struct("<4sHBBIHHdq")  # magic, version, flags, pad, frames, height, width, pitch, seed
_FLAG_BINARY = 1
_FLAG_DUAL_ARM = 2
# largest height or width (uint16) and largest frame count (uint32) a PPF1 header holds
PPF1_MAX_PX = 0xFFFF
PPF1_MAX_FRAMES = 0xFFFF_FFFF
# frames per block wherever a stack is cut into events: a dense stack's blocks
# and the PPF1 reader's.  It bounds the estimator's column and pair-list
# temporaries: a photon-counting block's stay at tens of kB, small enough that
# glibc malloc reuses them from block to block, where 1024-frame blocks' came
# back as fresh pages that faulted in on every block.  It equals the stream's
# _STREAM_BLOCK_FRAMES, so every route cuts a stack at the same frames.
_BLOCK_FRAMES = 256


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
        _require_positive("pixel_pitch", self.pixel_pitch)
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


def pixel_centers(width: int, pitch: float) -> np.ndarray:
    """The coordinates of the centres of ``width`` pixels of ``pitch``, centred on the optical axis."""
    return (np.arange(width) - width / 2.0 + 0.5) * pitch


class _Frames:
    """What a dense stack and its events share: the camera's ``detector``, ``arms`` and ``blocks``."""

    @property
    def dual_arm(self) -> bool:
        return self.arms == 2

    def pixel_centers(self) -> np.ndarray:
        return pixel_centers(self.detector.width, self.detector.pixel_pitch)


@dataclass
class FrameStack(_Frames):
    """Per-frame count images of one arm, or of arms k and p of the split measurement."""

    counts: np.ndarray  # (n_frames, arms, height, width) uint8
    detector: DetectorConfig
    metadata: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.counts.shape[0]

    @property
    def arms(self) -> int:
        return self.counts.shape[1]

    @property
    def arm_k(self) -> np.ndarray:
        return self.counts[:, 0]

    @property
    def arm_p(self) -> np.ndarray | None:
        return self.counts[:, 1] if self.dual_arm else None

    @property
    def blocks(self) -> Iterator[FrameBlock]:
        """The stack's events, ``_BLOCK_FRAMES`` frames a block, in frame order."""
        counts = self.counts
        return (FrameBlock.of(first, counts[first : first + _BLOCK_FRAMES]) for first in range(0, self.n_frames, _BLOCK_FRAMES))


class FrameBlock(NamedTuple):
    """The nonzero cells of consecutive frames of a stack, the first of them frame ``first``."""

    first: int
    shape: tuple  # (frames, arms, height, width) of the block
    cells: np.ndarray  # sorted flat indices into that shape, int64
    counts: np.ndarray  # the count of each cell, uint8

    @classmethod
    def of(cls, first: int, counts: np.ndarray) -> FrameBlock:
        """The events of dense count frames (frames, arms, height, width) that start at frame ``first``."""
        flat = counts.reshape(-1)
        cells = np.flatnonzero(flat != 0)  # several times faster over a bool mask than over the counts
        return cls(first, counts.shape, cells, flat[cells])

    def dense(self) -> np.ndarray:
        counts = np.zeros(self.shape, dtype=np.uint8)
        counts.reshape(-1)[self.cells] = self.counts
        return counts


@dataclass
class FrameEvents(_Frames):
    """A stack as its blocks of events in frame order, drawn or read as ``blocks`` is iterated, once."""

    detector: DetectorConfig
    n_frames: int
    arms: int
    metadata: dict  # a synthesized split stack adds its pair and split totals after its last block
    blocks: Iterator[FrameBlock]

    def stack(self) -> FrameStack:
        """The dense stack, assembled block by block."""
        det = self.detector
        counts = np.zeros((self.n_frames, self.arms, det.height, det.width), dtype=np.uint8)
        frame_cells = self.arms * det.height * det.width
        for block in self.blocks:
            counts.reshape(-1)[block.first * frame_cells + block.cells] = block.counts
        return FrameStack(counts, det, self.metadata)


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
                stacklevel=4,  # past _events and the public entry point that called it
            )


# frames per Philox block: part of the stream format, not a tuning knob, since
# block b's draws come from the counter [0, 0, b, 0] and change with its size
_STREAM_BLOCK_FRAMES = 256


def _synthesize(cov: np.ndarray, det: DetectorConfig, n_frames: int, metadata: dict, split: bool) -> Iterator[FrameBlock]:
    """Blocks of count images (n_frames, arms, height, width) uint8, as events.

    Each frame takes Poisson(mean_pair_rate) coordinate pairs drawn from the
    2x2 covariance.  With ``split`` there are two arms: a pair splits when its
    photons take different paths (x_k lands in arm 0, x_p in arm 1),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.  Without ``split`` both coordinates of every
    pair land on the single arm.  Block b (frames 256b..256b+255) draws from
    Philox(key=[seed mod 2^64, stream]) at counter [0, 0, b, 0], in this
    order: the block's 256 pair counts, every pair's x (and y, 2d) normals,
    then for split stacks the routes, ``integers(0, 2, size=(n, 2))``, which
    takes one 64-bit word per pair (bit 31 routes photon k and bit 63 photon
    p), and the marginal normals, then with dark counts a binomial number of
    dark cells and the cells themselves, sampled without replacement.  Every
    block is drawn whole and the last one keeps only the frames asked for, so
    a stack is a prefix of any longer stack with the same key.  Once the last
    block is handed on, split stacks add their pair and split totals over the
    kept frames to the metadata.
    """
    sigmas = np.sqrt(np.diag(cov))
    chol = np.linalg.cholesky(cov)
    arms = 2 if split else 1
    dims = 2 if det.two_d else 1
    frame_cells = arms * det.height * det.width
    cap = 1 if det.clip_to_binary else 255
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
            routes = rng.integers(0, 2, size=(n, 2))
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
        cell, count = np.unique(hits, return_counts=True)
        yield FrameBlock(start, (kept, arms, det.height, det.width), cell, np.minimum(count, cap).astype(np.uint8))
    if split:
        metadata.update(n_pairs_total=n_pairs_total, n_split_total=n_split_total)


def _events(source: tuple[np.ndarray, dict], det: DetectorConfig, n_frames: int, split: bool) -> FrameEvents:
    """The events of a stack drawn from a (covariance, metadata) source.

    Its length and occupancy are checked here, before any block is drawn, so
    each public entry point calls this directly and the occupancy warning
    names that entry point's caller.
    """
    cov, metadata = source
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    _check_occupancy(det, np.sqrt(np.diag(cov)), split)
    return FrameEvents(det, n_frames, 2 if split else 1, metadata, _synthesize(cov, det, n_frames, metadata, split))


def _split_source(quad: GaussianForm) -> tuple[np.ndarray, dict]:
    return quad.covariance, {"kind": "split_measurement", "quad_kk": quad.kk, "quad_kp": quad.kp, "quad_pp": quad.pp}


def _nearfield_source(params: DGParams) -> tuple[np.ndarray, dict]:
    cov = dg_state(params, 1.0).position_covariance()  # wavelength does not enter the position density
    return cov, {
        "kind": "nearfield",
        "cov_11": cov[0, 0],
        "cov_12": cov[0, 1],
        "cov_22": cov[1, 1],
        "sigma_plus_true": params.sigma_plus,
        "sigma_minus_true": params.sigma_minus,
    }


def _farfield_source(params: DGParams, fourier_focal: float, wavelength: float) -> tuple[np.ndarray, dict]:
    cov = apply_element(dg_state(params, wavelength), FourierLens(fourier_focal, BOTH)).position_covariance()
    return cov, {
        "kind": "farfield",
        "sigma_plus_true": params.sigma_plus,
        "sigma_minus_true": params.sigma_minus,
        "farfield_scale": wavelength * fourier_focal / (2.0 * math.pi),
    }


def frame_events(quad: GaussianForm, det: DetectorConfig, n_frames: int) -> FrameEvents:
    """The stack ``synthesize_frames`` returns, as its events."""
    return _events(_split_source(quad), det, n_frames, split=True)


def synthesize_frames(quad: GaussianForm, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-counting frames of the split measurement for both arms.

    Per frame: Poisson(mean_pair_rate) pairs; each splits with probability 1/2
    (joint draw lands x_k in the Fourier arm, x_p in the imaging arm),
    otherwise both photons fall into one arm as two independent
    marginal-distributed counts.
    """
    return _events(_split_source(quad), det, n_frames, split=True).stack()


def synthesize_joint(state: GaussianBiphotonState, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Photon-pair frames of |psi(x1, x2)|^2 on a single detector."""
    cov = state.position_covariance()
    meta = {"kind": "joint_position", "cov_11": cov[0, 0], "cov_12": cov[0, 1], "cov_22": cov[1, 1]}
    return _events((cov, meta), det, n_frames, split=False).stack()


def nearfield_events(params: DGParams, det: DetectorConfig, n_frames: int) -> FrameEvents:
    """The stack ``synthesize_nearfield`` returns, as its events."""
    return _events(_nearfield_source(params), det, n_frames, split=False)


def synthesize_nearfield(params: DGParams, det: DetectorConfig, n_frames: int) -> FrameStack:
    """Image of the crystal plane: position-correlated pair frames."""
    return _events(_nearfield_source(params), det, n_frames, split=False).stack()


def farfield_events(params: DGParams, det: DetectorConfig, n_frames: int, fourier_focal: float, wavelength: float) -> FrameEvents:
    """The stack ``synthesize_farfield`` returns, as its events."""
    return _events(_farfield_source(params, fourier_focal, wavelength), det, n_frames, split=False)


def synthesize_farfield(params: DGParams, det: DetectorConfig, n_frames: int, fourier_focal: float, wavelength: float) -> FrameStack:
    """2f Fourier image of the crystal: momentum anti-correlated pair frames.

    The source state passes FourierLens(fourier_focal) on both photons, so the
    camera coordinate is x = wavelength*f*q/(2*pi); that mapping scale is
    recorded in the metadata so the width calibration can invert it.
    """
    return _events(_farfield_source(params, fourier_focal, wavelength), det, n_frames, split=False).stack()


# ---------------------------------------------------------------------------
# PPF1 file format


def _ppf1_blocks(path, det: DetectorConfig, n_frames: int, arms: int, metadata: dict, blocks, dense) -> Iterator:
    """Write a PPF1 file block by block, handing on each block once its frames are written.

    Little-endian binary: magic, header, then frames, each frame of each arm
    bit-packed if binary and padded to whole bytes on its own, so the bytes do
    not depend on how the frames are cut into blocks.  ``dense`` gives a
    block's (frames, arms, height, width) counts.  The sidecar follows the
    last block, with the metadata as it stands then.
    """
    if max(det.height, det.width) > PPF1_MAX_PX or n_frames > PPF1_MAX_FRAMES:
        raise DomainError(
            f"PPF1 holds at most {PPF1_MAX_FRAMES} frames of at most {PPF1_MAX_PX} px a side, "
            f"got {n_frames} frames of {det.height} x {det.width} px"
        )
    flags = (_FLAG_BINARY if det.clip_to_binary else 0) | (_FLAG_DUAL_ARM if arms == 2 else 0)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, flags, 0, n_frames, det.height, det.width, det.pixel_pitch, det.seed))
        for block in blocks:
            frames = np.ascontiguousarray(dense(block), dtype=np.uint8)
            frames = frames.reshape(frames.shape[:2] + (det.height * det.width,))
            # through the buffer protocol, without a bytes copy
            fh.write(np.packbits(frames, axis=2) if det.clip_to_binary else frames)
            yield block
    write_key_values(str(path) + ".meta", [
        *((key, metadata[key]) for key in sorted(metadata)),
        ("mean_pair_rate", det.mean_pair_rate),
        ("dark_count_prob", det.dark_count_prob),
        ("keep_unsplit", int(det.keep_unsplit)),
        ("stream", det.stream),
    ])


def write_framestack(stack: FrameStack, path) -> None:
    """Write a dense stack as a PPF1 file and its ``.meta`` sidecar, packing the whole stack at once."""
    for _ in _ppf1_blocks(path, stack.detector, stack.n_frames, stack.arms, stack.metadata, [stack.counts], lambda counts: counts):
        pass


def tee_framestack(events: FrameEvents, path) -> FrameEvents:
    """The same events, written to a PPF1 file at ``path`` as they pass; the file is whole once they are drained."""
    written = _ppf1_blocks(path, events.detector, events.n_frames, events.arms, events.metadata, events.blocks, FrameBlock.dense)
    return replace(events, blocks=written)


def read_events(path) -> FrameEvents:
    """A PPF1 stack's events, read ``_BLOCK_FRAMES`` frames at a time as they are iterated.

    The header, the payload's size and the sidecar are checked before any
    frame is read.
    """
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
        try:  # the header's own fields, refused before its frame count sizes anything
            geometry = DetectorConfig(pixel_pitch=pitch, width=width, height=height, clip_to_binary=binary, seed=seed)
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None
        n_arms = 2 if flags & _FLAG_DUAL_ARM else 1
        frame_bytes = (height * width + 7) // 8 if binary else height * width
        size = n_frames * n_arms * frame_bytes
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != size:  # checked before reading: a corrupt frame count can imply terabytes
            raise DomainError(
                f"{path} is truncated or corrupt: it holds {held} payload bytes, its header implies {size}"
            )
    meta_path = str(path) + ".meta"
    try:
        metadata = read_key_values(meta_path)
    except FileNotFoundError:  # the header holds the geometry; the sidecar only the counting model
        metadata = {}
    # the counting model's keys go to the detector alone, so a rewrite lists each once
    try:
        det = replace(
            geometry,
            mean_pair_rate=float(metadata.pop("mean_pair_rate", 0.0)),
            dark_count_prob=float(metadata.pop("dark_count_prob", 0.0)),
            keep_unsplit=bool(int(metadata.pop("keep_unsplit", 1))),
            stream=int(metadata.pop("stream", 0)),
        )
    except ValueError as exc:
        raise DomainError(f"{meta_path}: {exc}") from None
    return FrameEvents(det, n_frames, n_arms, metadata, _read_blocks(path, det, n_frames, n_arms, frame_bytes))


def _read_blocks(path, det: DetectorConfig, n_frames: int, arms: int, frame_bytes: int) -> Iterator[FrameBlock]:
    """The events of a PPF1 payload, ``frame_bytes`` per arm of a frame."""
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for first in range(0, n_frames, _BLOCK_FRAMES):
            frames = min(n_frames - first, _BLOCK_FRAMES)
            raw = fh.read(frames * arms * frame_bytes)
            if len(raw) != frames * arms * frame_bytes:
                raise DomainError(f"{path} is truncated")
            counts = np.frombuffer(raw, dtype=np.uint8).reshape(frames, arms, frame_bytes)
            if det.clip_to_binary:
                counts = np.unpackbits(counts, axis=2, count=det.height * det.width)
            yield FrameBlock.of(first, counts.reshape(frames, arms, det.height, det.width))


def read_framestack(path) -> FrameStack:
    """A PPF1 stack, dense: its events assembled block by block."""
    return read_events(path).stack()
