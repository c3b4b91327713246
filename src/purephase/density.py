"""Estimated joint densities and their file formats.

A Density2D holds a non-negative (or, for raw correlation estimates, signed)
2D array with explicit axis definitions.  Axis 0 is the Fourier-arm camera
coordinate x_k, axis 1 the imaging-arm coordinate x_p, both in um and named
xk and xp in every file.  Files: the exact artifact is <name>.npy, the
float64 grid as np.save writes it, with a <name>.meta key=value sidecar for
the axes, the shape and the caller's items; a 16-bit PGM preview
(deterministic bytes, lossy scaling); and a CSV export with the axes in the
header row/column.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .sidecar import _read_lines, _write_lines, read_key_values, write_key_values
from .states import DomainError

__all__ = ["Density2D", "write_density", "read_density", "write_density_csv", "read_density_csv", "write_density_pgm"]


@dataclass(frozen=True)
class Density2D:
    values: np.ndarray
    k_origin: float
    k_pitch: float
    p_origin: float
    p_pitch: float
    normalized: bool = False

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DomainError("density values must be a 2D array")
        if not (self.k_pitch > 0.0 and self.p_pitch > 0.0):
            raise DomainError("axis pitches must be positive (axes strictly increasing)")

    @property
    def k_axis(self) -> np.ndarray:
        return self.k_origin + np.arange(self.values.shape[0]) * self.k_pitch

    @property
    def p_axis(self) -> np.ndarray:
        return self.p_origin + np.arange(self.values.shape[1]) * self.p_pitch

    def self_normalized(self) -> "Density2D":
        """Scale to unit sum; the estimator can produce signed values, the sum must be positive."""
        total = float(self.values.sum())
        if not total > 0.0:
            raise DomainError("density sum must be positive to self-normalise")
        return replace(self, values=self.values / total, normalized=True)


_AXIS_KEYS = ("k_origin", "k_pitch", "p_origin", "p_pitch")


def _fmt(x: float) -> str:
    return repr(float(x))


def _shape(values: np.ndarray) -> str:
    return "x".join(map(str, values.shape))


def _metadata(density: Density2D, meta: dict | None) -> dict:
    """The key=value items both formats write: the density's own, then the caller's ``meta``."""
    items = {"normalized": int(density.normalized), "k_name": "xk", "p_name": "xp"}
    items.update({key: _fmt(getattr(density, key)) for key in _AXIS_KEYS})
    items["shape"] = _shape(density.values)
    if meta:
        items.update(meta)
    return items


def _from_metadata(values: np.ndarray, meta: dict, path) -> Density2D:
    """The density of ``values`` on the axes ``meta`` records, refused unless its shape agrees."""
    missing = [key for key in _AXIS_KEYS + ("shape",) if key not in meta]
    if missing:
        raise DomainError(f"density file {path} lacks axis metadata: {', '.join(missing)}")
    if meta["shape"] != _shape(values):
        raise DomainError(f"density file {path} holds {_shape(values)} values, its metadata says {meta['shape']}")
    try:
        return Density2D(
            values,
            *(float(meta[key]) for key in _AXIS_KEYS),
            normalized=bool(int(meta.get("normalized", "0"))),
        )
    except ValueError as exc:
        raise DomainError(f"density file {path}: {exc}") from None


def _meta_path(path) -> str:
    """The <name>.meta sidecar of <name>.npy."""
    return os.path.splitext(os.fspath(path))[0] + ".meta"


def write_density(density: Density2D, path, meta: dict | None = None) -> None:
    """Write ``path`` (<name>.npy), the exact float64 grid, and its <name>.meta sidecar.

    The sidecar holds ``normalized``, the axis names (xk, xp), the axis
    origins and pitches (repr, so they read back exactly), the shape, then
    ``meta``.
    """
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(density.values, dtype=np.float64), allow_pickle=False)
    write_key_values(_meta_path(path), _metadata(density, meta).items())


def read_density(path) -> tuple[Density2D, dict]:
    """The density written to ``path`` (<name>.npy) and the items its sidecar holds beyond it.

    Refused with a DomainError: a file that is not a whole float64 .npy grid
    (cut, pickled, or with a header claiming more than the file holds, which
    is caught by mapping the file before anything is allocated), a missing
    sidecar or one whose shape disagrees with the grid, and a non-finite cell.
    """
    try:
        values = np.array(np.lib.format.open_memmap(path, mode="r"))
    except ValueError as exc:
        raise DomainError(f"{path} is not a complete .npy grid: {exc}") from None
    if values.dtype != np.float64:
        raise DomainError(f"{path} holds {values.dtype} values, a density grid holds float64")
    meta_path = _meta_path(path)
    try:
        meta = read_key_values(meta_path)
    except FileNotFoundError:
        raise DomainError(f"density file {path} has no metadata file {meta_path}") from None
    density = _from_metadata(values, meta, path)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"density file {path} holds a non-finite value at row {bad[0][0]}, column {bad[0][1]}")
    own = _metadata(density, None)
    return density, {key: val for key, val in meta.items() if key not in own}


def write_density_csv(density: Density2D, path, meta: dict | None = None) -> None:
    """CSV with axis coordinates in the first row and column.

    Lines starting with '#' carry key=value metadata; the first data row
    lists the x_p coordinates, each following row starts with its x_k
    coordinate.  Floats are written with repr so a read round-trips exactly;
    the axis origins and pitches are metadata too, since a pitch taken as the
    difference of two written coordinates is off by rounding.  The shape
    (rows x columns) is metadata so a read can refuse a file cut at a row
    boundary.
    """
    lines = ["# purephase-density v1"]
    lines += [f"# {key}={value}" for key, value in _metadata(density, meta).items()]
    lines.append(",".join(["xk\\xp"] + [_fmt(v) for v in density.p_axis]))
    for k, row in zip(density.k_axis.tolist(), np.asarray(density.values, dtype=float).tolist()):
        lines.append(",".join(map(repr, [k] + row)))
    _write_lines(path, (line + "\n" for line in lines))


def read_density_csv(path) -> Density2D:
    meta = {}
    rows = []
    header = None
    for lineno, line in enumerate(_read_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells  # the x_p coordinates; the axes are read from the metadata
            continue
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells where the header row has {len(header)}")
            row = [float(c) for c in cells[1:]]
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite density value")
            rows.append(row)
        except ValueError as exc:
            raise DomainError(f"{path}, line {lineno}: {exc}") from None
    if header is None or not rows:
        raise DomainError(f"no density data in {path}")
    return _from_metadata(np.array(rows), meta, path)


def write_density_pgm(density: Density2D, path) -> None:
    """16-bit PGM preview: values min-max scaled to 0..65535, big-endian."""
    vals = density.values
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo
    if span <= 0.0:
        scaled = np.zeros_like(vals, dtype=np.uint16)
    else:
        scaled = np.round((vals - lo) / span * 65535.0).astype(np.uint16)
    h, w = scaled.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(scaled.astype(">u2").tobytes())
