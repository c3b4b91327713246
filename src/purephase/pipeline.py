"""Batch pipeline behind the CLI verbs.

Each command reads its inputs from files in the output directory (or from the
configuration alone) and writes CSV/PGM/PPF1/key=value artifacts, so deleting
intermediates and re-running regenerates byte-identical results for a fixed
configuration and seed.
"""
from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .config import RunConfig
from .denoise import CleaningConfig, clean_density
from .density import Density2D, read_density_csv, write_density_csv, write_density_pgm
from .estimation import (
    autoconvolution_profile,
    autocorrelation_profile,
    calibrate_sigma_minus,
    calibrate_sigma_plus,
    estimate_density,
)
from .fitting import _gauss2d, fit_gaussian_2d, fit_magnification_curve
from .frames import DetectorConfig, read_framestack, synthesize_farfield, synthesize_frames, synthesize_nearfield, write_framestack
from .optics import PrepDesign, measurement_quadratic, principal_widths, tilt_angle
from .states import (
    DGParams,
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

_SEED_NEAR = 0xA1 << 32
_SEED_FAR = 0xA2 << 32
_SEED_MAG_STRIDE = 1 << 24


def source_params(cfg: RunConfig) -> DGParams:
    return DGParams(cfg.sigma_plus, cfg.sigma_minus)


def prep_design(cfg: RunConfig) -> PrepDesign:
    z_p = phase_plane_distance(source_params(cfg), cfg.wavelength_um)
    return PrepDesign(cfg.f_um, cfg.f2_um, cfg.f3_um, z_p)


def scaled_params(cfg: RunConfig):
    return pure_phase_params(source_params(cfg)).rescaled(prep_design(cfg).mag_eff)


def quad_for(cfg: RunConfig, mag: float):
    return measurement_quadratic(scaled_params(cfg), cfg.fm_um, mag, cfg.wavelength_um)


def _mag_tag(mag: float) -> str:
    return f"m{mag:+.2f}"


def _auto_pitch(quad, width: int) -> float:
    cov = quad.covariance
    sigma = math.sqrt(max(cov[0, 0], cov[1, 1]))
    return math.ceil(100.0 * 9.0 * sigma / width) / 100.0


def _detector_for(cfg: RunConfig, quad, seed: int) -> DetectorConfig:
    pitch = cfg.pixel_pitch_um if cfg.pixel_pitch_um > 0.0 else _auto_pitch(quad, cfg.arm_width_px)
    height = cfg.arm_height_px if cfg.mode == "2d" else 1
    return DetectorConfig(
        pixel_pitch=pitch,
        width=cfg.arm_width_px,
        height=height,
        mean_pair_rate=cfg.mean_pair_rate,
        dark_count_prob=cfg.dark_count_prob,
        clip_to_binary=bool(cfg.clip_binary),
        seed=seed,
        keep_unsplit=bool(cfg.keep_unsplit),
    )


def _cleaning(cfg: RunConfig) -> CleaningConfig:
    return CleaningConfig(
        wavelet_order=cfg.wavelet_order,
        decomp_level=cfg.decomp_level,
        psd_threshold=cfg.psd_threshold,
        lowpass_cutoff=cfg.lowpass_cutoff,
        kde_bandwidth=cfg.kde_bandwidth_px,
    )


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_report(cfg: RunConfig, name: str, items: dict) -> str:
    path = _out(cfg, name)
    with open(path, "w") as fh:
        fh.write(f"config_hash={cfg.config_hash()}\n")
        for key, value in items.items():
            fh.write(f"{key}={value}\n")
    return path


def _write_table(cfg: RunConfig, name: str, header: list[str], rows: list[list]) -> str:
    path = _out(cfg, name)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash()}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def _density_meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash()}


# ---------------------------------------------------------------------------
# commands


def cmd_calibrate(cfg: RunConfig) -> dict:
    """Synthesize near/far-field stacks and estimate the source widths."""
    params = source_params(cfg)
    near_det = DetectorConfig(
        pixel_pitch=cfg.near_pitch_um,
        width=cfg.calib_width_px,
        height=1,
        mean_pair_rate=cfg.calib_rate,
        dark_count_prob=cfg.dark_count_prob,
        clip_to_binary=bool(cfg.clip_binary),
        seed=cfg.seed ^ _SEED_NEAR,
    )
    far_det = dataclasses.replace(near_det, pixel_pitch=cfg.far_pitch_um, seed=cfg.seed ^ _SEED_FAR)
    near = synthesize_nearfield(params, near_det, cfg.calib_frames)
    far = synthesize_farfield(params, far_det, cfg.calib_frames, cfg.fm_um, cfg.wavelength_um)

    lags, acorr = autocorrelation_profile(near)
    coords, aconv = autoconvolution_profile(far)
    sm_hat = calibrate_sigma_minus(lags, acorr, near_det.pixel_pitch)
    sp_hat = calibrate_sigma_plus(coords, aconv, far_det.pixel_pitch, far.metadata["farfield_scale"])

    _write_table(cfg, "calibrate_autocorr.csv", ["lag_um", "signal"], list(map(list, zip(lags, acorr))))
    _write_table(cfg, "calibrate_autoconv.csv", ["sum_um", "signal"], list(map(list, zip(coords, aconv))))

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
    rows = []
    for mag in cfg.magnifications:
        quad = quad_for(cfg, mag)
        theta = tilt_angle(quad)
        major, minor = principal_widths(quad)
        pitch = cfg.pixel_pitch_um if cfg.pixel_pitch_um > 0.0 else _auto_pitch(quad, cfg.arm_width_px)
        dens = _rasterize(quad, pitch, cfg.arm_width_px)
        tag = _mag_tag(mag)
        write_density_csv(dens, _out(cfg, f"predict_rho_{tag}.csv"), _density_meta(cfg))
        write_density_pgm(dens, _out(cfg, f"predict_rho_{tag}.pgm"))
        rows.append([mag, theta, abs(theta), quad.kk, quad.kp, quad.pp, major, minor])
    _write_table(
        cfg,
        "predict_tilt.csv",
        ["magnification", "theta_deg", "abs_theta_deg", "kk", "kp", "pp", "sigma_major_um", "sigma_minor_um"],
        rows,
    )
    return {"rows": rows}


def cmd_simulate(cfg: RunConfig) -> dict:
    """Synthesize measurement frame stacks, one PPF1 file per magnification."""
    written = []
    for i, mag in enumerate(cfg.magnifications):
        quad = quad_for(cfg, mag)
        det = _detector_for(cfg, quad, cfg.seed ^ ((i + 1) * _SEED_MAG_STRIDE))
        stack = synthesize_frames(quad, det, cfg.frames)
        stack.metadata.update(
            magnification=mag,
            fourier_focal_um=cfg.fm_um,
            wavelength_um=cfg.wavelength_um,
            theta_pred_deg=tilt_angle(quad),
            config_hash=cfg.config_hash(),
        )
        path = _out(cfg, f"frames_{_mag_tag(mag)}.ppf")
        write_framestack(stack, path)
        written.append(path)
    return {"files": written}


def cmd_estimate(cfg: RunConfig) -> dict:
    """Cross-frame density estimates from the simulated stacks."""
    written = []
    for mag in cfg.magnifications:
        tag = _mag_tag(mag)
        stack = read_framestack(_out(cfg, f"frames_{tag}.ppf"))
        dens = estimate_density(stack)
        write_density_csv(dens, _out(cfg, f"density_{tag}.csv"), _density_meta(cfg))
        write_density_pgm(dens, _out(cfg, f"density_{tag}.pgm"))
        written.append(tag)
    return {"tags": written}


def cmd_clean(cfg: RunConfig) -> dict:
    """Statistical cleaning of every estimated density."""
    cleaning = _cleaning(cfg)
    written = []
    for mag in cfg.magnifications:
        tag = _mag_tag(mag)
        dens = read_density_csv(_out(cfg, f"density_{tag}.csv"))
        cleaned = clean_density(dens, cleaning)
        write_density_csv(cleaned, _out(cfg, f"cleaned_{tag}.csv"), _density_meta(cfg))
        write_density_pgm(cleaned, _out(cfg, f"cleaned_{tag}.pgm"))
        written.append(tag)
    return {"tags": written}


def cmd_fit(cfg: RunConfig) -> dict:
    """2D Gaussian fits of the cleaned (or raw) densities."""
    rows = []
    for mag in cfg.magnifications:
        tag = _mag_tag(mag)
        path = _out(cfg, f"cleaned_{tag}.csv")
        if not os.path.exists(path):
            path = _out(cfg, f"density_{tag}.csv")
        dens = read_density_csv(path)
        fit = fit_gaussian_2d(dens)
        theta_pred = tilt_angle(quad_for(cfg, mag))
        major, minor = fit.widths
        rows.append([mag, fit.theta_deg, abs(fit.theta_deg), theta_pred, major, minor, fit.residual_rms])
        _write_report(
            cfg,
            f"fit_{tag}.txt",
            {
                "magnification": mag,
                "theta_fit_deg": fit.theta_deg,
                "abs_theta_fit_deg": abs(fit.theta_deg),
                "theta_pred_deg": theta_pred,
                "sigma_major_um": major,
                "sigma_minor_um": minor,
                "center_k_um": fit.center_k,
                "center_p_um": fit.center_p,
                "amplitude": fit.amplitude,
                "offset": fit.offset,
                "residual_rms": fit.residual_rms,
                "source": os.path.basename(path),
            },
        )
    _write_table(
        cfg,
        "fits.csv",
        ["magnification", "theta_fit_deg", "abs_theta_fit_deg", "theta_pred_deg", "sigma_major_um", "sigma_minor_um", "residual_rms"],
        rows,
    )
    return {"rows": rows}


def cmd_sweep(cfg: RunConfig) -> dict:
    """Full simulate -> estimate -> clean -> fit chain plus the magnification fit."""
    cmd_simulate(cfg)
    cmd_estimate(cfg)
    cmd_clean(cfg)
    fit_info = cmd_fit(cfg)
    design = prep_design(cfg)
    base = pure_phase_params(source_params(cfg))
    points = [(row[0], row[1]) for row in fit_info["rows"]]
    mag_fit, residuals = fit_magnification_curve(
        points,
        base.amp_coeff,
        base.cross_coeff,
        cfg.fm_um,
        cfg.wavelength_um,
        design.mag_eff,
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


def cmd_report(cfg: RunConfig) -> dict:
    """Aggregate the artifacts already present in the output directory."""
    sections = []
    for name in ("calibrate_report.txt", "sweep_report.txt", "predict_tilt.csv", "fits.csv"):
        path = _out(cfg, name)
        if os.path.exists(path):
            with open(path) as fh:
                sections.append(f"--- {name} ---\n{fh.read()}")
    text = f"config_hash={cfg.config_hash()}\n" + "\n".join(sections)
    path = _out(cfg, "report.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return {"path": path, "sections": len(sections)}
