"""Batch pipeline behind the CLI verbs.

Each magnification passes through four stages (simulate, estimate, clean,
fit); each stage writes its PPF1/.npy/PGM/key=value artifacts and returns its
result.  The single-stage verbs compose through files: each reads the
previous stage's artifact from the output directory.  ``sweep`` chains the
same stages in memory, one magnification at a time, and writes the same
artifacts.  Deleting intermediates and re-running regenerates byte-identical
results for a fixed configuration and seed.
"""
from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .config import RunConfig, mag_tag
from .denoise import clean_density
# read_density_csv stays bound here only because the benchmark's tracer wraps it under this name
from .density import Density2D, read_density, read_density_csv, write_density, write_density_csv, write_density_pgm
from .estimation import (
    autoconvolution_profile,
    autocorrelation_profile,
    calibrate_sigma_minus,
    calibrate_sigma_plus,
    estimate_density,
)
from .fitting import _gauss2d, fit_gaussian_2d, fit_magnification_curve
from .frames import DetectorConfig, FrameStack, read_framestack, synthesize_farfield, synthesize_frames, synthesize_nearfield, write_framestack
from .optics import PrepDesign, measurement_quadratic, principal_widths, tilt_angle
from .sidecar import _read_lines, _write_lines, write_key_values
from .states import (
    DGParams,
    DomainError,
    birth_zone_number,
    phase_plane_distance,
    pure_phase_params,
    schmidt_number,
)

__all__ = [
    "source_params",
    "prep_design",
    "scaled_params",
    "quad_for",
    "cmd_calibrate",
    "cmd_predict",
    "cmd_simulate",
    "cmd_estimate",
    "cmd_clean",
    "cmd_fit",
    "cmd_sweep",
    "cmd_report",
]

# Philox streams of the calibration stacks; magnification i takes stream i + 1
_STREAM_NEAR = 2**64 - 1
_STREAM_FAR = 2**64 - 2


def source_params(cfg: RunConfig) -> DGParams:
    return DGParams(cfg.sigma_plus, cfg.sigma_minus)


def prep_design(cfg: RunConfig) -> PrepDesign:
    z_p = phase_plane_distance(source_params(cfg), cfg.wavelength_um)
    return PrepDesign(cfg.f_um, cfg.f2_um, cfg.f3_um, z_p)


def scaled_params(cfg: RunConfig):
    return pure_phase_params(source_params(cfg)).rescaled(prep_design(cfg).mag_eff)


def quad_for(cfg: RunConfig, mag: float):
    return measurement_quadratic(scaled_params(cfg), cfg.fm_um, mag, cfg.wavelength_um)


def _auto_pitch(quad, width: int) -> float:
    sigma = max(quad.marginal_std(0), quad.marginal_std(1))
    return math.ceil(100.0 * 9.0 * sigma / width) / 100.0


def _pitch_for(cfg: RunConfig, quad) -> float:
    """The configured pixel pitch, or the auto pitch of this magnification where it is 0."""
    return cfg.pixel_pitch_um or _auto_pitch(quad, cfg.arm_width_px)


def _camera(cfg: RunConfig, pitch: float, width: int, height: int, rate: float, stream: int) -> DetectorConfig:
    """A camera of this geometry and pair rate, drawing from ``stream``, under the run's counting model."""
    return DetectorConfig(
        pixel_pitch=pitch,
        width=width,
        height=height,
        mean_pair_rate=rate,
        dark_count_prob=cfg.dark_count_prob,
        clip_to_binary=bool(cfg.clip_binary),
        seed=cfg.seed,
        keep_unsplit=bool(cfg.keep_unsplit),
        stream=stream,
    )


def _detector_for(cfg: RunConfig, quad, stream: int) -> DetectorConfig:
    height = cfg.arm_height_px if cfg.mode == "2d" else 1
    return _camera(cfg, _pitch_for(cfg, quad), cfg.arm_width_px, height, cfg.mean_pair_rate, stream)


def _out(cfg: RunConfig, name: str) -> str:
    """The path of an artifact to write, creating the output directory; reads join the path alone."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_report(cfg: RunConfig, name: str, items: dict) -> None:
    write_key_values(_out(cfg, name), {"config_hash": cfg.config_hash(), **items}.items())


def _write_table(cfg: RunConfig, name: str, header: list[str], rows) -> None:
    lines = [f"# config_hash={cfg.config_hash()}", ",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows]
    _write_lines(_out(cfg, name), (line + "\n" for line in lines))


@contextlib.contextmanager
def _naming(mag: float):
    """Prefix ``magnification <mag>: `` to a DomainError raised inside."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"magnification {mag!r}: {exc}") from None


def _write_density(cfg: RunConfig, dens: Density2D, name: str) -> Density2D:
    """Write <name>.npy and <name>.meta (the exact artifact) and the <name>.pgm preview; return dens."""
    write_density(dens, _out(cfg, f"{name}.npy"), {"config_hash": cfg.config_hash()})
    write_density_pgm(dens, _out(cfg, f"{name}.pgm"))
    return dens


# ---------------------------------------------------------------------------
# commands


def cmd_calibrate(cfg: RunConfig) -> dict:
    """Synthesize near/far-field stacks and estimate the source widths."""
    params = source_params(cfg)
    # single-arm synthesis never reads keep_unsplit, and calibrate writes no stack
    near_det = _camera(cfg, cfg.near_pitch_um, cfg.calib_width_px, 1, cfg.calib_rate, _STREAM_NEAR)
    far_det = _camera(cfg, cfg.far_pitch_um, cfg.calib_width_px, 1, cfg.calib_rate, _STREAM_FAR)
    near = synthesize_nearfield(params, near_det, cfg.calib_frames)
    far = synthesize_farfield(params, far_det, cfg.calib_frames, cfg.fm_um, cfg.wavelength_um)

    lags, acorr = autocorrelation_profile(near)
    coords, aconv = autoconvolution_profile(far)
    sm_hat = calibrate_sigma_minus(lags, acorr, near_det.pixel_pitch)
    sp_hat = calibrate_sigma_plus(coords, aconv, far_det.pixel_pitch, far.metadata["farfield_scale"])

    _write_table(cfg, "calibrate_autocorr.csv", ["lag_um", "signal"], zip(lags, acorr))
    _write_table(cfg, "calibrate_autoconv.csv", ["sum_um", "signal"], zip(coords, aconv))

    est = DGParams(sp_hat, sm_hat)
    pp_est = pure_phase_params(est)
    z_p = phase_plane_distance(est, cfg.wavelength_um)
    items = {
        "sigma_minus_est_um": sm_hat,
        "sigma_plus_est_um": sp_hat,
        "sigma_minus_true_um": params.sigma_minus,
        "sigma_plus_true_um": params.sigma_plus,
        "phase_plane_um": z_p,
        "phase_plane_cm": z_p / 1e4,
        "amp_coeff_um-2": pp_est.amp_coeff,
        "cross_coeff_um-2": pp_est.cross_coeff,
        "schmidt_number": schmidt_number(est),
        "birth_zone_number": birth_zone_number(est),
        "frames": cfg.calib_frames,
    }
    _write_report(cfg, "calibrate_report.txt", items)
    return items


def _rasterize(quad, pitch: float, width: int) -> Density2D:
    centers = (np.arange(width) - width / 2.0 + 0.5) * pitch
    vals = _gauss2d((centers[:, None], centers[None, :]), 1.0, 0.0, 0.0, quad.kk, quad.kp, quad.pp, 0.0)
    dens = Density2D(vals, float(centers[0]), pitch, float(centers[0]), pitch)
    return dens.self_normalized()


def cmd_predict(cfg: RunConfig) -> dict:
    """Analytic densities and tilt table for every configured magnification."""
    quad = quad_for(cfg, cfg.magnifications)
    theta = tilt_angle(quad)
    major, minor = principal_widths(quad)
    columns = (cfg.magnifications, theta, abs(theta), np.full_like(theta, quad.kk), quad.kp, quad.pp, major, minor)
    for mag in cfg.magnifications:
        mag_quad = quad_for(cfg, mag)
        with _naming(mag):
            dens = _rasterize(mag_quad, _pitch_for(cfg, mag_quad), cfg.arm_width_px)
        _write_density(cfg, dens, f"predict_rho_{mag_tag(mag)}")
    _write_table(
        cfg,
        "predict_tilt.csv",
        ["magnification", "theta_deg", "abs_theta_deg", "kk", "kp", "pp", "sigma_major_um", "sigma_minor_um"],
        zip(*columns),
    )
    return {}


# ---------------------------------------------------------------------------
# per-magnification stages: each writes its verb's artifacts and returns its result


def _simulate(cfg: RunConfig, index: int, mag: float) -> FrameStack:
    quad = quad_for(cfg, mag)
    det = _detector_for(cfg, quad, index + 1)
    with _naming(mag):
        stack = synthesize_frames(quad, det, cfg.frames)
    scaled = scaled_params(cfg)
    stack.metadata.update(
        amp_coeff=scaled.amp_coeff,
        cross_coeff=scaled.cross_coeff,
        magnification=mag,
        fourier_focal_um=cfg.fm_um,
        wavelength_um=cfg.wavelength_um,
        theta_pred_deg=tilt_angle(quad),
        config_hash=cfg.config_hash(),
    )
    write_framestack(stack, _out(cfg, f"frames_{mag_tag(mag)}.ppf"))
    return stack


def _estimate(cfg: RunConfig, mag: float, stack: FrameStack) -> Density2D:
    return _write_density(cfg, estimate_density(stack), f"density_{mag_tag(mag)}")


def _clean(cfg: RunConfig, mag: float, dens: Density2D) -> Density2D:
    return _write_density(cfg, clean_density(dens, cfg.cleaning()), f"cleaned_{mag_tag(mag)}")


_FIT_COLUMNS = [
    "magnification", "theta_fit_deg", "abs_theta_fit_deg", "theta_pred_deg", "sigma_major_um", "sigma_minor_um", "residual_rms",
]


def _fit(cfg: RunConfig, mag: float, dens: Density2D, source: str) -> list:
    """Fit one density, write fit_<tag>.txt naming its source file, and return the fits.csv row."""
    fit = fit_gaussian_2d(dens)
    major, minor = fit.widths
    items = {
        "magnification": mag,
        "theta_fit_deg": fit.theta_deg,
        "abs_theta_fit_deg": abs(fit.theta_deg),
        "theta_pred_deg": tilt_angle(quad_for(cfg, mag)),
        "sigma_major_um": major,
        "sigma_minor_um": minor,
        "center_k_um": fit.center_k,
        "center_p_um": fit.center_p,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "residual_rms": fit.residual_rms,
        "source": source,
    }
    _write_report(cfg, f"fit_{mag_tag(mag)}.txt", items)
    return [items[key] for key in _FIT_COLUMNS]


def cmd_simulate(cfg: RunConfig) -> dict:
    """Synthesize measurement frame stacks, one PPF1 file per magnification."""
    for i, mag in enumerate(cfg.magnifications):
        _simulate(cfg, i, mag)
    return {}


def cmd_estimate(cfg: RunConfig) -> dict:
    """Cross-frame density estimates from the simulated stacks."""
    for mag in cfg.magnifications:
        _estimate(cfg, mag, read_framestack(os.path.join(cfg.out_dir, f"frames_{mag_tag(mag)}.ppf")))
    return {}


def cmd_clean(cfg: RunConfig) -> dict:
    """Statistical cleaning of every estimated density."""
    for mag in cfg.magnifications:
        _clean(cfg, mag, read_density(os.path.join(cfg.out_dir, f"density_{mag_tag(mag)}.npy"))[0])
    return {}


def cmd_fit(cfg: RunConfig) -> dict:
    """2D Gaussian fits of the cleaned densities, or of the raw ones where none is cleaned."""
    rows = []
    for mag in cfg.magnifications:
        tag = mag_tag(mag)
        path = os.path.join(cfg.out_dir, f"cleaned_{tag}.npy")
        if not os.path.exists(path):
            path = os.path.join(cfg.out_dir, f"density_{tag}.npy")
        rows.append(_fit(cfg, mag, read_density(path)[0], os.path.basename(path)))
    _write_table(cfg, "fits.csv", _FIT_COLUMNS, rows)
    return {}


def _write_sweep_report(cfg: RunConfig, rows: list[list]) -> dict:
    """Fit mag_eff to the fits.csv rows' (magnification, theta_fit_deg) and write sweep_report.txt."""
    design = prep_design(cfg)
    points = [(row[0], row[1]) for row in rows]
    mag_fit, residuals = fit_magnification_curve(
        points, pure_phase_params(source_params(cfg)), cfg.fm_um, cfg.wavelength_um, design.mag_eff
    )
    items = {
        "mag_eff_theory": design.mag_eff,
        "mag_eff_fit": mag_fit,
        "relative_gap": abs(mag_fit - design.mag_eff) / design.mag_eff,
        "points": len(points),
        "residual_rms_deg": float(np.sqrt(np.mean(residuals**2))),
    }
    _write_report(cfg, "sweep_report.txt", items)
    return items


def cmd_sweep(cfg: RunConfig) -> dict:
    """The four stages per magnification in memory, then the magnification fit.

    Writes what simulate -> estimate -> clean -> fit write and reads none of
    it back.  Returns the sweep report's items and the fits.csv rows.
    """
    if len(cfg.magnifications) < 3:
        raise DomainError(f"sweep fits mag_eff to at least 3 magnifications, got {len(cfg.magnifications)}")
    rows = []
    for i, mag in enumerate(cfg.magnifications):
        # nested, so each stack is freed once its density is estimated
        dens = _clean(cfg, mag, _estimate(cfg, mag, _simulate(cfg, i, mag)))
        rows.append(_fit(cfg, mag, dens, f"cleaned_{mag_tag(mag)}.npy"))
    _write_table(cfg, "fits.csv", _FIT_COLUMNS, rows)
    return {**_write_sweep_report(cfg, rows), "rows": rows}


_EXPORTED = ("density_", "cleaned_", "predict_rho_")


def cmd_report(cfg: RunConfig) -> dict:
    """Aggregate the artifacts already present in the output directory.

    Also writes <name>.csv, a CSV copy of every density artifact <name>.npy
    there, with the config hash its sidecar records.
    """
    sections = []
    for name in ("calibrate_report.txt", "sweep_report.txt", "predict_tilt.csv", "fits.csv"):
        path = os.path.join(cfg.out_dir, name)
        if os.path.exists(path):
            sections.append(f"--- {name} ---\n{''.join(_read_lines(path))}")
    exports = [name for name in sorted(os.listdir(cfg.out_dir)) if name.endswith(".npy") and name.startswith(_EXPORTED)]
    for name in exports:
        dens, extras = read_density(os.path.join(cfg.out_dir, name))
        write_density_csv(dens, _out(cfg, os.path.splitext(name)[0] + ".csv"), extras)
    path = _out(cfg, "report.txt")
    _write_lines(path, [f"config_hash={cfg.config_hash()}\n", "\n".join(sections)])
    return {"path": path, "sections": len(sections), "csv_exports": len(exports)}
