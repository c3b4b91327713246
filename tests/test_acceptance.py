"""Acceptance suite: every certification target of the toolkit, one test per
criterion, each printing a PASS/FAIL line (run with -s to see them inline).

The synthetic Monte-Carlo criteria use fixed seeds; the grid-oracle criteria
run at the reference source widths (286/13 um) and desk-scale variants.
"""
import math
import time

import numpy as np
import pytest

import purephase.pipeline as pl
from purephase.config import RunConfig
from purephase.denoise import CleaningConfig, clean_density, excess_g2
from purephase.estimation import estimate_density, estimate_fedorov
from purephase.fitting import FitError, fit_gaussian_2d, fit_magnification_curve
from purephase.frames import DetectorConfig, synthesize_joint
from purephase.gridsim import auto_grid_spec, discretize, fft_fresnel, grid_pft
from purephase.optics import (
    BOTH,
    PHOTON_1,
    Fresnel,
    PrepDesign,
    apply_element,
    measurement_quadratic,
    partial_fourier,
    prepare_p3,
    principal_angle_deg,
    tilt_angle,
)
from purephase.states import (
    DGParams,
    dg_state,
    fedorov_ratio,
    marginal_momentum_width,
    phase_plane_distance,
    pure_phase_params,
    pure_phase_state,
)
from conftest import SIGMA_MINUS, SIGMA_PLUS, WAVELENGTH, injected_background_density

pytestmark = pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")

PAPER = DGParams(SIGMA_PLUS, SIGMA_MINUS)
LENSES = dict(f=10e4, f2=15e4, f3=12.5e4)
FM = 15e4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_coefficient_reproduction():
    params = pure_phase_params(PAPER)
    z_p = phase_plane_distance(PAPER, WAVELENGTH)
    amp_err = abs(params.amp_coeff - 3e-6) / 3e-6
    cross_err = abs(params.cross_coeff - 128e-6) / 128e-6
    zp_err = abs(z_p / 1e4 - 2.97) / 2.97
    report(
        1,
        amp_err <= 0.05 and cross_err <= 0.10 and zp_err <= 0.05,
        f"A={params.amp_coeff:.3e} (dev {amp_err:.1%} <= 5%), "
        f"B={params.cross_coeff:.3e} (dev {cross_err:.1%} <= 10%), "
        f"z_p={z_p / 1e4:.3f} cm (dev {zp_err:.1%} <= 5%)",
    )


def test_criterion_2_phase_plane_certification():
    t0 = time.time()
    z_p = phase_plane_distance(PAPER, WAVELENGTH)
    state = dg_state(PAPER, WAVELENGTH)
    analytic = abs(fedorov_ratio(apply_element(state, Fresnel(z_p, BOTH))) - 1.0)

    grid = discretize(state, auto_grid_spec(state))
    grid_f = abs(fft_fresnel(grid, z_p, BOTH).fedorov_ratio() - 1.0)

    design = PrepDesign(z_p=z_p, **LENSES)
    prepared = prepare_p3(PAPER, WAVELENGTH, design)
    det = DetectorConfig(24.0, 128, mean_pair_rate=2.0, dark_count_prob=1e-4, seed=2024)
    stack = synthesize_joint(prepared, det, 100_000)
    frames_f = estimate_fedorov(estimate_density(stack))
    elapsed = time.time() - t0
    report(
        2,
        analytic <= 1e-9 and grid_f <= 1e-3 and abs(frames_f - 1.0) <= 0.05,
        f"|F-1| analytic={analytic:.2e} (<=1e-9), grid={grid_f:.2e} (<=1e-3), "
        f"frames F={frames_f:.3f} (1.00 +/- 0.05, brackets 1.005), {elapsed:.0f}s for 1e5 frames",
    )
    assert elapsed < 60.0


def test_criterion_3_preparation():
    quoted = PrepDesign(z_p=2.97e4, **LENSES)
    mag_err = abs(quoted.mag_eff - 1.39) / 1.39
    design = PrepDesign(z_p=phase_plane_distance(PAPER, WAVELENGTH), **LENSES)
    state = prepare_p3(PAPER, WAVELENGTH, design)
    residual = abs(state.m11.imag) / abs(state.m11)
    report(
        3,
        mag_err <= 0.03 and residual <= 1e-10,
        f"mag_eff={quoted.mag_eff:.4f} (dev {mag_err:.2%} <= 3% of 1.39), "
        f"diagonal phase residual={residual:.1e} (<= 1e-10)",
    )


def test_criterion_4_tilt_prediction():
    design = PrepDesign(z_p=2.97e4, **LENSES)
    scaled = pure_phase_params(PAPER).rescaled(design.mag_eff)
    theta = tilt_angle(measurement_quadratic(scaled, FM, -0.5, WAVELENGTH))
    in_band = 66.0 <= abs(theta) <= 74.0

    worst = 0.0
    for mag in np.linspace(-3.0, -0.3, 28):
        quad = measurement_quadratic(scaled, FM, mag, WAVELENGTH)
        cov = quad.covariance
        vals, vecs = np.linalg.eigh(cov)
        major = vecs[:, int(np.argmax(vals))]
        oracle = principal_angle_deg(math.degrees(math.atan2(major[0], major[1])))
        worst = max(worst, abs(tilt_angle(quad) - oracle))
    report(
        4,
        in_band and worst <= 1e-9,
        f"theta(M=-0.5)={theta:.2f} deg, |theta|={abs(theta):.2f} in [66, 74] "
        f"(experiment 70.9); eigenvector mismatch max={worst:.1e} (<= 1e-9)",
    )


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_sweep")
    cfg = RunConfig(out_dir=str(out), frames=100_000, seed=20240811)
    return pl.cmd_sweep(cfg), cfg


def test_criterion_5_end_to_end_monte_carlo(sweep_results):
    sweep, cfg = sweep_results
    errors = {row[0]: abs(row[1] - row[3]) for row in sweep["rows"]}
    worst_mag = max(errors, key=errors.get)
    design = pl.prep_design(cfg)
    mag_gap = abs(sweep["mag_eff_fit"] - design.mag_eff) / design.mag_eff
    report(
        5,
        max(errors.values()) <= 5.0 and mag_gap <= 0.10,
        f"theta errors at 1e5 frames: worst {errors[worst_mag]:.2f} deg at "
        f"M_m={worst_mag} (<= 5 deg across {len(errors)} magnifications); "
        f"mag fit {sweep['mag_eff_fit']:.3f} vs theory {design.mag_eff:.3f} "
        f"(gap {mag_gap:.1%} <= 10%; experiment saw 7%)",
    )


def test_criterion_6_conditional_coherence():
    params = pure_phase_params(PAPER)
    closed = marginal_momentum_width(params) / math.sqrt(params.amp_coeff)
    closed_err = abs(closed - 22.0) / 22.0

    state = pure_phase_state(params, WAVELENGTH)
    g = grid_pft(discretize(state, auto_grid_spec(state)), PHOTON_1)
    grid_ratio = g.marginal_std(1) / g.conditional_std(1)
    grid_err = abs(grid_ratio - 22.0) / 22.0
    report(
        6,
        closed_err <= 0.01 and grid_err <= 0.01,
        f"marginal/conditional momentum width: closed={closed:.4f} "
        f"(dev {closed_err:.2%}), grid={grid_ratio:.4f} (dev {grid_err:.2%}); "
        "both within 1% of sigma_plus/sigma_minus = 22",
    )


def test_criterion_7_oracle_suite():
    lines = []
    ok = True
    for ratio in (1.0, 5.0, 22.0, 30.0):
        params = DGParams(13.0 * ratio, 13.0)
        state = dg_state(params, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        marg_err = abs(g.marginal_std(1) / state.marginal_position_std(1) - 1.0)
        cond_err = abs(g.conditional_std(1) / state.conditional_position_std(1) - 1.0)
        fed_err = abs(g.fedorov_ratio() / fedorov_ratio(state) - 1.0)

        pp = pure_phase_params(params)
        pstate = pure_phase_state(pp, WAVELENGTH)
        gq = grid_pft(discretize(pstate, auto_grid_spec(pstate)), PHOTON_1)
        if pp.cross_coeff != 0.0:
            x2, means, weights = gq.conditional_mean_profile(1)
            sel = weights > 0.05 * weights.max()
            slope = np.polyfit(x2[sel], means[sel], 1, w=weights[sel])[0]
            slope_err = abs(slope / (-pp.cross_coeff) - 1.0)
        else:
            slope_err = 0.0

        mixed = partial_fourier(pstate, PHOTON_1)
        w = mixed.intensity_form
        q1 = gq.x1_axis[:, None]
        x2g = gq.x2_axis[None, :]
        closed = np.exp(-(w[0, 0] * q1**2 + 2 * w[0, 1] * q1 * x2g + w[1, 1] * x2g**2))
        closed /= closed.sum() * gq.dx1 * gq.dx2
        pft_l2 = math.sqrt(float(np.sum((gq.density() - closed) ** 2) / np.sum(closed**2)))

        # measured-density route: map the mixed density onto camera coordinates
        scaled = pp.rescaled(1.4029)
        mstate = pure_phase_state(scaled, WAVELENGTH)
        gm = grid_pft(discretize(mstate, auto_grid_spec(mstate)), PHOTON_1)
        quad = measurement_quadratic(scaled, FM, -0.5, WAVELENGTH)
        cam = WAVELENGTH * FM / (2.0 * math.pi)
        qk = gm.x1_axis[:, None] * cam
        xp = gm.x2_axis[None, :] * -0.5
        rho = np.exp(-(quad.kk * qk**2 + 2.0 * quad.kp * qk * xp + quad.pp * xp**2))
        rho /= rho.sum() * gm.dx1 * gm.dx2
        rho_l2 = math.sqrt(float(np.sum((gm.density() - rho) ** 2) / np.sum(rho**2)))

        ratio_ok = (
            marg_err <= 1e-4
            and cond_err <= 1e-4
            and fed_err <= 1e-4
            and slope_err <= 0.01
            and pft_l2 <= 1e-4
            and rho_l2 <= 1e-4
        )
        ok = ok and ratio_ok
        lines.append(
            f"ratio {ratio:g}: marg={marg_err:.1e} cond={cond_err:.1e} F={fed_err:.1e} "
            f"slope={slope_err:.1e} pftL2={pft_l2:.1e} rhoL2={rho_l2:.1e}"
        )
    report(7, ok, "; ".join(lines))


def test_criterion_8_denoiser_efficacy():
    injected, _, truth = injected_background_density(
        mag=2.5, frames=3000, rate=12.0, dark=0.02, beta=8.0, seed=101
    )
    raw_err = abs(fit_gaussian_2d(injected).theta_deg - truth)
    cleaned = clean_density(injected, CleaningConfig())
    clean_err = abs(fit_gaussian_2d(cleaned).theta_deg - truth)
    try:
        naive_err = abs(fit_gaussian_2d(excess_g2(injected)).theta_deg - truth)
        naive_txt = f"{naive_err:.1f} deg"
    except FitError:
        naive_err = math.inf
        naive_txt = "fit failure"
    report(
        8,
        clean_err <= 2.0 and naive_err > 2.0 and raw_err > 2.0,
        f"raw fit off by {raw_err:.1f} deg; naive excess-correlation route: "
        f"{naive_txt} (> 2 deg); cleaned fit within {clean_err:.2f} deg (<= 2 deg)",
    )
