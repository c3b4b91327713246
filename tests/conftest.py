import dataclasses
import warnings

import numpy as np
import pytest

from purephase.states import DGParams

# reference experiment parameters used throughout the suite
WAVELENGTH = 0.81  # um
SIGMA_PLUS = 286.0
SIGMA_MINUS = 13.0


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
