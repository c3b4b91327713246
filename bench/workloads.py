"""The three benchmark workloads and the checks that decide whether a pass is correct.

Each workload is a batch job driven in a closed loop by one client: the next
pass starts only after the previous one has returned and been checked.  A pass
yields a list of checks ("ops"); an op fails when the program raises (a
FitError or DomainError included), when the CLI exits with a non-zero code, or
when the result misses its acceptance bound.  Everything the program reads is
generated here from the benchmark seed, before timing starts.  A pass times
only the program's calls, on the Stopwatch it is handed; the checks, and the
full-grid reference arrays the oracle compares against, run outside it.

Baseline of the seed code, measured on a 2-core x86_64 VM with
PUREPHASE_THREADS=1, numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (ROADMAP
"Measured baseline" is the reference for the 10^5-frame numbers).  The sweep
figures in this list are for 5000 frames:

* sweep, 8 magnifications x 5000 frames: about 10-12 s per pass (simulate
  about 6 s, estimate 1.5 s, clean 0.8 s, fit 3 s), about 125 MB peak RSS.
  Synthesis runs at about 150 us/frame, the PPF1 write at 15-25 ms per 320 KB
  file, a 2D fit at 0.2-0.7 s per density, and four density-CSV passes per
  magnification cost about 2 s of the pass.
* calibrate, default config (40 000 calibration frames per stack): 8-10 s
  per pass and about 1.06 GB peak RSS; single-arm synthesis on 512 px runs
  at about 60 us/frame.
* oracle, 286/13 um on a 2048 x 2048 grid plus the criterion-7 suite:
  about 1.9 s and 360 MB for the 286/13 um chain alone.

The benchmark's calibrate pass draws 10 000 frames per stack: about 2.3 s
and 330 MB.  At the benchmark's 2500 frames, one traced sweep pass takes about 6.7 s:
simulate 3.2 s (155 us/frame), estimate 0.5 s, clean 1.0 s, fit 1.9 s (0.2 s
per density); density-CSV writes take 1.0 s and reads 0.4 s of the pass.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO

import numpy as np

from purephase import cli, gridsim, optics, pipeline, states
from purephase.config import config_from_file

# Frame count of one sweep pass.  Every per-frame layer scales linearly with
# it, so 2500 frames keeps the same code paths as the 10^5-frame reference
# sweep while a pass stays near 7 s: about five passes fit in one run, and
# their median is steadier than that of the two 11 s passes 5000 frames allow.
# The fitted angles stay within 0.1 deg of the prediction (bound 5 deg).
SWEEP_FRAMES = 2500

# Calibration frames per stack in one calibrate pass (the default config
# draws 40 000).  This host's speed swings by a quarter over tens of seconds,
# and the median of the four 9 s passes a run holds at 40 000 frames followed
# it: the median's spread over ten runs reached 0.27.  At 10 000 frames a pass
# takes about 2.3 s, so a run's median is over about 14 passes.  Synthesis
# and the profiles scale linearly with the count, the peak RSS (about 330 MB)
# is still set by the stacks, and sigma stays within 3% (bound 10%).
CALIB_FRAMES = 10000

# Acceptance bounds the checks apply (tests/test_acceptance.py and
# tests/test_estimation.py hold the originals).
THETA_TOL_DEG = 5.0  # criterion 5, per magnification
MAG_GAP_TOL = 0.10  # criterion 5, fitted vs designed net magnification
SIGMA_TOL = 0.10  # width calibration, relative
GRID_TOL = 1e-4  # criterion 7: widths, Fedorov ratio and L2 density errors
SLOPE_TOL = 0.01  # criterion 7: conditional-mean slope
PHASE_PLANE_TOL = 1e-3  # criterion 2: |F - 1| on the grid at z_p

WAVELENGTH_UM = 0.81
FOURIER_FOCAL_UM = 15e4
ORACLE_SOURCE = (286.0, 13.0)
ORACLE_RATIOS = (1.0, 5.0, 22.0, 30.0)
WIDTH_OPS = ("marginal", "conditional", "fedorov")
CHAIN_OPS = WIDTH_OPS + ("fresnel_F", "fresnel_L2", "pft_L2")
RATIO_OPS = WIDTH_OPS + ("slope", "pft_L2", "rho_L2")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


class Stopwatch:
    """Adds up the wall time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds += time.perf_counter() - self._start
        return False


def program_seed(workload: str, seed: int) -> int:
    """Map a benchmark seed to the program's RNG seed.

    Hashed rather than offset: frame_rng keys frame j by ``seed XOR j``, so
    seeds that differ only in their low bits replay the same frames.
    """
    digest = hashlib.sha256(f"purephase-bench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _read_key_values(path: str) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _relative_error(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


def _bounded(name: str, error: float, tol: float) -> Check:
    return Check(name, bool(error <= tol), f"{error:.3g} (bound {tol:g})")


class CliWorkload:
    """A workload run as one ``purephase <verb> --config <generated file>`` call."""

    name = ""
    verb = ""
    config: dict = {}  # config keys the workload sets beyond the seed and output directory

    def __init__(self, work_dir: str, seed: int, overrides: dict | None = None):
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, f"{self.name}.cfg")
        items = {"seed": program_seed(self.name, seed), "out_dir": self.out_dir}
        items.update(self.config)
        items.update(overrides or {})
        os.makedirs(work_dir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            fh.write(f"# {self.name} workload, benchmark seed {seed}\n")
            fh.writelines(f"{key}={value}\n" for key, value in items.items())
        self.cfg = config_from_file(self.config_path)

    def op_names(self) -> list[str]:
        raise NotImplementedError

    def check(self) -> list[Check]:
        raise NotImplementedError

    def run_pass(self, clock: Stopwatch) -> list[Check]:
        log = StringIO()
        try:
            with clock, redirect_stdout(log), redirect_stderr(log):
                code = cli.main([self.verb, "--config", self.config_path])
            if code != 0:
                raise RuntimeError(f"exit code {code}: {log.getvalue().strip()}")
            return self.check()
        except Exception as exc:  # a failed pass is counted, never fatal
            reason = f"{type(exc).__name__}: {exc}"
            return [Check(name, False, reason) for name in self.op_names()]


class Sweep(CliWorkload):
    """`purephase sweep` at the default config with the frame count reduced.

    Chosen because it is the headline use, from config to a fitted mag_eff:
    frames, PPF1 I/O, the matrix-product estimator, the density CSV, denoise
    and the 2D and magnification fits all do real work.  It bypasses gridsim.
    """

    name = verb = "sweep"
    config = {"frames": SWEEP_FRAMES}

    def __init__(self, work_dir: str, seed: int, overrides: dict | None = None):
        super().__init__(work_dir, seed, overrides)
        self.theta_pred = {
            mag: optics.tilt_angle(pipeline.quad_for(self.cfg, mag)) for mag in self.cfg.magnifications
        }
        self.mag_eff = pipeline.prep_design(self.cfg).mag_eff

    def op_names(self) -> list[str]:
        return [f"theta@{mag:g}" for mag in self.cfg.magnifications] + ["mag_eff"]

    def check(self) -> list[Check]:
        with open(os.path.join(self.out_dir, "fits.csv")) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        theta_fit = {float(row["magnification"]): float(row["theta_fit_deg"]) for row in rows}
        checks = []
        for mag, name in zip(self.cfg.magnifications, self.op_names()):
            if mag not in theta_fit:
                checks.append(Check(name, False, "missing from fits.csv"))
                continue
            error = abs(theta_fit[mag] - self.theta_pred[mag])
            checks.append(_bounded(name, error, THETA_TOL_DEG))
        report = _read_key_values(os.path.join(self.out_dir, "sweep_report.txt"))
        gap = _relative_error(float(report["mag_eff_fit"]), self.mag_eff)
        checks.append(_bounded("mag_eff", gap, MAG_GAP_TOL))
        return checks


class Calibrate(CliWorkload):
    """`purephase calibrate` at the default config with the frame count reduced.

    Chosen because it uses frames and estimation differently from sweep
    (single-arm synthesis on 512 px, FFT autocorrelation/autoconvolution
    profiles, 1D fits) and its memory is set by whole frame stacks held at
    once, which a streaming estimator would change.  It bypasses PPF1 I/O,
    the density CSV, denoise, the 2D fits and gridsim.
    """

    name = verb = "calibrate"
    config = {"calib_frames": CALIB_FRAMES}

    def op_names(self) -> list[str]:
        return ["sigma_minus", "sigma_plus"]

    def check(self) -> list[Check]:
        report = _read_key_values(os.path.join(self.out_dir, "calibrate_report.txt"))
        return [
            _bounded("sigma_minus", _relative_error(float(report["sigma_minus_est_um"]), self.cfg.sigma_minus), SIGMA_TOL),
            _bounded("sigma_plus", _relative_error(float(report["sigma_plus_est_um"]), self.cfg.sigma_plus), SIGMA_TOL),
        ]


class Oracle:
    """Grid-oracle certification at 286/13 um plus the criterion-7 ratio suite.

    Chosen because it is the only workload that exercises gridsim (discretize
    on a 2048 x 2048 grid, FFT Fresnel propagation to z_p, partial Fourier
    transform, quadrature).  It does no Monte-Carlo, so it bypasses frames,
    estimation, density I/O, denoise and fitting, and its inputs do not depend
    on the seed: on it the prediction for any change to those layers is no
    change.  The clock covers the gridsim, optics and states calls; the
    closed-form reference densities and the comparisons are left out of it.
    """

    name = "oracle"

    def __init__(self, work_dir: str, seed: int):
        del work_dir, seed  # deterministic and file-free

    def run_pass(self, clock: Stopwatch) -> list[Check]:
        parts = [("286/13", CHAIN_OPS, self._phase_plane_chain)]
        parts += [(f"ratio{r:g}", RATIO_OPS, functools.partial(self._ratio_suite, r)) for r in ORACLE_RATIOS]
        checks = []
        for tag, op_names, part in parts:
            try:
                checks.extend(part(clock))
            except Exception as exc:  # a failed part is counted, never fatal
                reason = f"{type(exc).__name__}: {exc}"
                checks.extend(Check(f"{tag}.{name}", False, reason) for name in op_names)
        return checks

    @staticmethod
    def _phase_plane_chain(clock: Stopwatch) -> list[Check]:
        with clock:
            params = states.DGParams(*ORACLE_SOURCE)
            state = states.dg_state(params, WAVELENGTH_UM)
            grid = gridsim.discretize(state, gridsim.auto_grid_spec(state))
        checks = _width_checks("286/13", grid, state, clock)
        with clock:
            z_p = states.phase_plane_distance(params, WAVELENGTH_UM)
            propagated = gridsim.fft_fresnel(grid, z_p, optics.BOTH)
            closed = optics.apply_element(state, optics.Fresnel(z_p, optics.BOTH))
            fedorov = propagated.fedorov_ratio()
            density = propagated.density()
        checks += [
            _bounded("286/13.fresnel_F", abs(fedorov - 1.0), PHASE_PLANE_TOL),
            _bounded("286/13.fresnel_L2", _l2_gaussian(density, propagated, closed.intensity_form), GRID_TOL),
        ]
        with clock:
            mixed = gridsim.grid_pft(propagated, optics.PHOTON_1)
            closed_mixed = optics.partial_fourier(closed, optics.PHOTON_1)
            density = mixed.density()
        checks.append(_bounded("286/13.pft_L2", _l2_gaussian(density, mixed, closed_mixed.intensity_form), GRID_TOL))
        return checks

    @staticmethod
    def _ratio_suite(ratio: float, clock: Stopwatch) -> list[Check]:
        """Criterion 7 for sigma_plus = ratio x 13 um."""
        tag = f"ratio{ratio:g}"
        with clock:
            params = states.DGParams(13.0 * ratio, 13.0)
            state = states.dg_state(params, WAVELENGTH_UM)
            grid = gridsim.discretize(state, gridsim.auto_grid_spec(state))
        checks = _width_checks(tag, grid, state, clock)

        with clock:
            pp = states.pure_phase_params(params)
            pstate = states.pure_phase_state(pp, WAVELENGTH_UM)
            gq = gridsim.grid_pft(gridsim.discretize(pstate, gridsim.auto_grid_spec(pstate)), optics.PHOTON_1)
            closed_q = optics.partial_fourier(pstate, optics.PHOTON_1)
            profile = gq.conditional_mean_profile(1) if pp.cross_coeff != 0.0 else None
            density = gq.density()
        if profile is not None:
            x2, means, weights = profile
            sel = weights > 0.05 * weights.max()
            slope = np.polyfit(x2[sel], means[sel], 1, w=weights[sel])[0]
            slope_err = abs(slope / (-pp.cross_coeff) - 1.0)
        else:
            slope_err = 0.0
        checks += [
            _bounded(f"{tag}.slope", slope_err, SLOPE_TOL),
            _bounded(f"{tag}.pft_L2", _l2_gaussian(density, gq, closed_q.intensity_form), GRID_TOL),
        ]

        # the measured-density route: mixed density mapped onto camera coordinates
        with clock:
            scaled = pp.rescaled(1.4029)
            mstate = states.pure_phase_state(scaled, WAVELENGTH_UM)
            gm = gridsim.grid_pft(gridsim.discretize(mstate, gridsim.auto_grid_spec(mstate)), optics.PHOTON_1)
            quad = optics.measurement_quadratic(scaled, FOURIER_FOCAL_UM, -0.5, WAVELENGTH_UM)
            density = gm.density()
        # rho(x1, x2) = exp(-(kk qk^2 + 2 kp qk xp + pp xp^2)) at qk = cam x1, xp = -x2 / 2
        cam = WAVELENGTH_UM * FOURIER_FOCAL_UM / (2.0 * math.pi)
        form = np.array([[quad.kk * cam**2, -0.5 * quad.kp * cam], [-0.5 * quad.kp * cam, 0.25 * quad.pp]])
        checks.append(_bounded(f"{tag}.rho_L2", _l2_gaussian(density, gm, form), GRID_TOL))
        return checks


def _width_checks(tag: str, grid, state, clock: Stopwatch) -> list[Check]:
    """Marginal and conditional widths and the Fedorov ratio against the closed forms."""
    with clock:
        measured = (grid.marginal_std(1), grid.conditional_std(1), grid.fedorov_ratio())
        closed = (state.marginal_position_std(1), state.conditional_position_std(1), states.fedorov_ratio(state))
    return [
        _bounded(f"{tag}.{name}", abs(m / c - 1.0), GRID_TOL) for name, m, c in zip(WIDTH_OPS, measured, closed)
    ]


def _l2_gaussian(estimate: np.ndarray, grid, form: np.ndarray, rows: int = 128) -> float:
    """Relative L2 distance of ``estimate`` from exp(-x^T form x) on ``grid``'s axes.

    The reference is normalised like GridState.density and built in blocks of
    rows, twice (once for its sum, once to compare), so that it adds little to
    the pass's peak memory.
    """
    x1, x2 = grid.x1_axis, grid.x2_axis[None, :]
    starts = range(0, x1.size, rows)

    def block(i: int) -> np.ndarray:
        a = x1[i : i + rows, None]
        return np.exp(-(form[0, 0] * a**2 + 2.0 * form[0, 1] * a * x2 + form[1, 1] * x2**2))

    norm = sum(float(block(i).sum()) for i in starts) * grid.dx1 * grid.dx2
    diff = ref = 0.0
    for i in starts:
        reference = block(i) / norm
        diff += float(np.sum((estimate[i : i + rows] - reference) ** 2))
        ref += float(np.sum(reference**2))
    return math.sqrt(diff / ref)


WORKLOADS = {cls.name: cls for cls in (Sweep, Calibrate, Oracle)}
