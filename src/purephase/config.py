"""Run configuration: a flat key=value file with CLI overrides.

Every physical and pipeline parameter lives here; unknown keys are rejected
so typos fail loudly.  Values default to the reference experiment: 286/13 um
source widths, 810 nm photons, 10/15/12.5 cm preparation lenses and a 15 cm
Fourier lens.  All artifacts carry a hash of the effective configuration
(the output directory left out) so re-runs are checkable byte for byte.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from .denoise import CleaningConfig
from .frames import PPF1_MAX_FRAMES, PPF1_MAX_PX
from .states import DomainError

__all__ = ["RunConfig", "mag_tag", "parse_config_file", "config_from_file"]


def mag_tag(mag: float) -> str:
    """Artifact file-name tag of one magnification; RunConfig keeps them distinct."""
    return f"m{mag:+.2f}"


# keys whose values a PPF1 header stores, and the largest value each field holds
_PPF1_LIMITS = {
    "arm_width_px": PPF1_MAX_PX,
    "arm_height_px": PPF1_MAX_PX,
    "calib_width_px": PPF1_MAX_PX,
    "frames": PPF1_MAX_FRAMES,
    "calib_frames": PPF1_MAX_FRAMES,
}


@dataclass(frozen=True)
class RunConfig:
    # source: either direct widths, or crystal/pump parameters when nonzero
    sigma_plus_um: float = 286.0
    sigma_minus_um: float = 13.0
    crystal_length_um: float = 0.0
    pump_wavelength_um: float = 0.405
    pump_index: float = 1.0
    pump_waist_um: float = 0.0
    wavelength_um: float = 0.81
    # preparation and measurement lenses
    f_um: float = 100000.0
    f2_um: float = 150000.0
    f3_um: float = 125000.0
    fm_um: float = 150000.0
    magnifications: tuple = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    # detector and synthesis
    frames: int = 100000
    pixel_pitch_um: float = 0.0  # 0 = choose per magnification from predicted widths
    arm_width_px: int = 256
    arm_height_px: int = 64  # used in 2d mode only
    mean_pair_rate: float = 4.0
    dark_count_prob: float = 0.0001
    clip_binary: int = 1
    keep_unsplit: int = 1
    mode: str = "1d"
    # calibration stacks
    calib_frames: int = 40000
    near_pitch_um: float = 3.25
    far_pitch_um: float = 16.0
    calib_width_px: int = 512
    calib_rate: float = 2.0
    # cleaning
    wavelet_order: int = CleaningConfig.wavelet_order
    decomp_level: int = CleaningConfig.decomp_level
    psd_threshold: float = CleaningConfig.psd_threshold
    lowpass_cutoff: float = CleaningConfig.lowpass_cutoff
    kde_bandwidth_px: float = CleaningConfig.kde_bandwidth
    # run control
    seed: int = 12345
    out_dir: str = "out"

    def __post_init__(self):
        if self.mode not in ("1d", "2d"):
            raise DomainError(f"mode must be 1d or 2d, got {self.mode!r}")
        if self.mode == "2d" and self.arm_height_px < 2:
            raise DomainError("2d mode needs arm_height_px >= 2")
        if not self.magnifications:
            raise DomainError("magnification list must not be empty")
        if not all(m != 0.0 and math.isfinite(m) for m in self.magnifications):
            raise DomainError(f"magnifications must be nonzero and finite, got {self.magnifications}")
        if len({mag_tag(m) for m in self.magnifications}) < len(self.magnifications):
            raise DomainError(f"magnifications {self.magnifications} repeat an artifact tag (2 decimals)")
        if not -(2**63) <= self.seed < 2**63:
            raise DomainError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        if self.frames < 2 or self.calib_frames < 2:
            raise DomainError("frame counts must be at least 2")
        for key, limit in _PPF1_LIMITS.items():
            if getattr(self, key) > limit:
                raise DomainError(f"{key} must be at most {limit}, the PPF1 header's limit, got {getattr(self, key)}")
        if not (0.0 <= self.pixel_pitch_um < math.inf):
            raise DomainError(f"pixel_pitch_um must be 0 (auto) or positive and finite, got {self.pixel_pitch_um!r}")
        # every density is arm_width_px square
        self.cleaning().check_image((self.arm_width_px, self.arm_width_px))

    def cleaning(self) -> CleaningConfig:
        """Settings of the clean stage; CleaningConfig refuses invalid ones."""
        return CleaningConfig(
            wavelet_order=self.wavelet_order,
            decomp_level=self.decomp_level,
            psd_threshold=self.psd_threshold,
            lowpass_cutoff=self.lowpass_cutoff,
            kde_bandwidth=self.kde_bandwidth_px,
        )

    @property
    def sigma_minus(self) -> float:
        if self.crystal_length_um > 0.0:
            from .states import sigma_minus_from_crystal

            return sigma_minus_from_crystal(
                self.crystal_length_um, self.pump_wavelength_um, self.pump_index
            )
        return self.sigma_minus_um

    @property
    def sigma_plus(self) -> float:
        if self.pump_waist_um > 0.0:
            return self.pump_waist_um / 2.0
        return self.sigma_plus_um

    def canonical_items(self) -> list[tuple[str, str]]:
        """Sorted (key, value) strings of every field but out_dir, which moves no result."""
        items = []
        for field in dataclasses.fields(self):
            if field.name == "out_dir":
                continue
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = ",".join(repr(float(v)) for v in value)
            items.append((field.name, str(value)))
        return sorted(items)

    def config_hash(self) -> str:
        payload = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# how each key's raw string becomes its value
_PARSERS = {f.name: {"float": float, "int": int}.get(f.type, str) for f in dataclasses.fields(RunConfig)}
_PARSERS["magnifications"] = lambda raw: tuple(float(p) for p in raw.replace(";", ",").split(",") if p.strip())


def _coerce(key: str, raw: str):
    try:
        return _PARSERS[key](raw)
    except ValueError:
        raise DomainError(f"invalid value for {key!r}: {raw!r}") from None


def parse_config_file(path) -> dict:
    """Read key=value lines; '#' starts a comment; unknown keys are rejected."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
            key, _, raw = body.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise DomainError(f"{path}:{lineno}: unknown configuration key {key!r}")
            try:
                values[key] = _coerce(key, raw.strip())
            except DomainError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from None
    return values


def config_from_file(path=None, overrides: dict | None = None) -> RunConfig:
    values = parse_config_file(path) if path else {}
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            values[key] = _coerce(key, val) if isinstance(val, str) else val
    return RunConfig(**values)
