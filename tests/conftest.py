import dataclasses
import warnings

import numpy as np
import pytest

from purephase.states import DGParams

# reference experiment parameters used throughout the suite
WAVELENGTH = 0.81  # um
SIGMA_PLUS = 286.0
SIGMA_MINUS = 13.0


def stack_columns(stack) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame counts summed over the y axis, (N, width) int64 per arm.

    The reference input of the whole-stack estimator formulas; a single-arm
    stack returns its one arm twice.
    """
    ck = stack.arm_k.sum(axis=1, dtype=np.int64)
    cp = stack.arm_p.sum(axis=1, dtype=np.int64) if stack.dual_arm else ck
    return ck, cp


def paper_quad(mag=-0.5):
    """The pipeline's split-measurement form of the reference experiment at imaging magnification ``mag``."""
    import purephase.pipeline as pl
    from purephase.config import RunConfig

    return pl.quad_for(RunConfig(), mag)


@pytest.fixture(scope="session")
def paper_dg() -> DGParams:
    return DGParams(SIGMA_PLUS, SIGMA_MINUS)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def injected_background_density(
    mag=2.5, frames=3000, rate=12.0, dark=0.02, beta=8.0, seed=101
):
    """Frame-estimated density with an injected surviving accidental background.

    The background has the shape of the product of the mean beam images (dark
    pedestal included), which is what an imperfect accidental subtraction
    leaves behind.  Returns (density, raw background, true tilt in degrees).
    """
    import purephase.pipeline as pl
    from purephase.config import RunConfig
    from purephase.estimation import estimate_density
    from purephase.frames import DetectorConfig, OccupancyWarning, synthesize_frames
    from purephase.optics import tilt_angle

    cfg = RunConfig()
    quad = pl.quad_for(cfg, mag)
    pitch = pl._auto_pitch(quad, 256)
    det = DetectorConfig(
        pitch, 256, mean_pair_rate=rate, dark_count_prob=dark, clip_to_binary=True, seed=seed
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccupancyWarning)
        stack = synthesize_frames(quad, det, frames)
    dens = estimate_density(stack)
    mean_k = stack.arm_k.sum(axis=1).mean(axis=0).astype(float)
    mean_p = stack.arm_p.sum(axis=1).mean(axis=0).astype(float)
    background = np.outer(mean_k, mean_p)
    background *= beta * dens.values.sum() / background.sum()
    injected = dataclasses.replace(
        dens, values=dens.values + background, normalized=False
    ).self_normalized()
    return injected, background, tilt_angle(quad)


def marginal_cutoffs(density, config=None) -> tuple[list[float], float]:
    """(cutoffs clean_density chose, the cutoff of the marginal image's 2D approximation band).

    Cleaning takes that band from the row and column sums of the density's own
    approximation band; decomposing the marginal image itself must give
    exactly the same cutoff.  ``config`` defaults to ``CleaningConfig()``.
    """
    import purephase.denoise as dn
    from purephase.wavelets import wavedec2

    config = config or dn.CleaningConfig()
    psd_cutoff, chosen = dn.psd_cutoff, []

    def spy(image, fraction):
        chosen.append(psd_cutoff(image, fraction))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dn, "psd_cutoff", spy)
        dn.clean_density(density, config)
    band = wavedec2(dn.marginal_image(density).values, config.wavelet_order, config.decomp_level)[0]
    return chosen, psd_cutoff(band, config.psd_threshold)
