"""Operator algebra on Gaussian biphoton states.

Quadratic phase fronts, coordinate scaling, free-space Fresnel propagation,
single-lens imaging, and Fourier-lens transforms are all closed-form updates
of the state's quadratic form.  The sign conventions used throughout:

* quadratic phase element with curvature c multiplies by exp(+1j*pi*c*x^2/lam),
* the Fresnel kernel is exp(+1j*k*(x-x')^2/(2*z)),
* Fourier transforms (one-photon and Fourier-lens) use the exp(-1j*q*x) kernel.

This is the one internally consistent assignment: the state propagated to the
phase plane carries curvature +1/(2*z_p) per photon, which the virtual-imaging
lens with object distance u = f - 2*z_p cancels exactly, and the measured
density cross coefficient comes out as pi*B'/(lam*f_m*M_m*A').
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DGParams,
    DomainError,
    GaussianBiphotonState,
    GaussianForm,
    PurePhaseParams,
    dg_state,
    phase_plane_distance,
)

__all__ = [
    "PHOTON_1",
    "PHOTON_2",
    "BOTH",
    "QuadraticPhase",
    "Scale",
    "Fresnel",
    "LensImaging",
    "FourierLens",
    "apply_element",
    "apply_chain",
    "PrepDesign",
    "prepare_p3",
    "partial_fourier",
    "measurement_quadratic",
    "tilt_angle",
    "tilt_from_form",
    "principal_widths",
    "principal_angle_deg",
]

PHOTON_1 = "photon1"
PHOTON_2 = "photon2"
BOTH = "both"

_TARGETS = (PHOTON_1, PHOTON_2, BOTH)


def _target_axes(target: str) -> tuple[int, ...]:
    if target == PHOTON_1:
        return (0,)
    if target == PHOTON_2:
        return (1,)
    if target == BOTH:
        return (0, 1)
    raise DomainError(f"target must be one of {_TARGETS}, got {target!r}")


# ---------------------------------------------------------------------------
# optical elements


@dataclass(frozen=True)
class QuadraticPhase:
    """Multiply the targeted coordinate by exp(+1j*pi*curvature*x^2/lam)."""

    curvature: float  # 1/um
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if not math.isfinite(self.curvature):
            raise DomainError(f"curvature must be finite, got {self.curvature!r}")


@dataclass(frozen=True)
class Scale:
    """Coordinate scaling x -> factor*x with sqrt(|factor|) amplitude weight."""

    factor: float
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if self.factor == 0.0 or not math.isfinite(self.factor):
            raise DomainError(f"scale factor must be nonzero and finite, got {self.factor!r}")


@dataclass(frozen=True)
class Fresnel:
    """Free-space propagation of the targeted coordinate over distance (um)."""

    distance: float
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if not math.isfinite(self.distance):
            raise DomainError(f"distance must be finite, got {self.distance!r}")


@dataclass(frozen=True)
class LensImaging:
    """Single thin-lens imaging: Scale(1 - u/f) after QuadraticPhase(1/(u-f))."""

    object_distance: float  # u, um
    focal_length: float  # f, um
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if self.focal_length == 0.0:
            raise DomainError("focal_length must be nonzero")
        if self.object_distance == self.focal_length:
            raise DomainError("object_distance equal to focal_length has no image")


@dataclass(frozen=True)
class FourierLens:
    """2f Fourier transform onto the camera: kernel exp(-2j*pi*x'*x/(lam*f))."""

    focal_length: float  # f_m, um
    target: str = PHOTON_1

    def __post_init__(self):
        _target_axes(self.target)
        if not (self.focal_length > 0.0):
            raise DomainError(f"focal_length must be positive, got {self.focal_length!r}")


OpticalElement = QuadraticPhase | Scale | Fresnel | LensImaging | FourierLens


# ---------------------------------------------------------------------------
# quadratic-form updates (single axis)


def _axis_coeffs(state: GaussianBiphotonState, axis: int) -> tuple[complex, complex, complex]:
    if axis == 0:
        return state.m11, state.m22, state.m12
    return state.m22, state.m11, state.m12


def _with_axis_coeffs(state, axis, m_tt, m_oo, m_to, log_norm) -> GaussianBiphotonState:
    if axis == 0:
        m11, m22 = m_tt, m_oo
    else:
        m11, m22 = m_oo, m_tt
    return GaussianBiphotonState(m11, m22, m_to, log_norm, state.wavelength)


def _quadratic_phase_axis(state, c, axis):
    m_tt, m_oo, m_to = _axis_coeffs(state, axis)
    m_tt = m_tt - 1j * math.pi * c / state.wavelength
    return _with_axis_coeffs(state, axis, m_tt, m_oo, m_to, state.log_norm)


def _scale_axis(state, s, axis):
    m_tt, m_oo, m_to = _axis_coeffs(state, axis)
    return _with_axis_coeffs(
        state,
        axis,
        m_tt * s * s,
        m_oo,
        m_to * s,
        state.log_norm + 0.5 * math.log(abs(s)),
    )


def _fresnel_axis(state, z, axis):
    if z == 0.0:
        return state
    alpha = 1j * math.pi / (state.wavelength * z)
    m_tt, m_oo, m_to = _axis_coeffs(state, axis)
    denom = alpha - m_tt
    new_tt = alpha * m_tt / denom
    new_to = alpha * m_to / denom
    new_oo = m_oo + m_to * m_to / denom
    log_norm = state.log_norm + 0.5 * (math.log(abs(alpha)) - math.log(abs(denom)))
    return _with_axis_coeffs(state, axis, new_tt, new_oo, new_to, log_norm)


def _fourier_axis(state, gamma, axis):
    """Replace the targeted coordinate by its exp(-1j*gamma*y*x) conjugate y."""
    m_tt, m_oo, m_to = _axis_coeffs(state, axis)
    new_tt = gamma * gamma / (4.0 * m_tt)
    new_to = -1j * gamma * m_to / (2.0 * m_tt)
    new_oo = m_oo - m_to * m_to / m_tt
    log_norm = state.log_norm + 0.5 * math.log(gamma / (2.0 * abs(m_tt)))
    return _with_axis_coeffs(state, axis, new_tt, new_oo, new_to, log_norm)


def apply_element(state: GaussianBiphotonState, element: OpticalElement) -> GaussianBiphotonState:
    """Apply one optical element; raises DomainError if the output is not normalizable."""
    axes = _target_axes(element.target)
    out = state
    for axis in axes:
        if isinstance(element, QuadraticPhase):
            out = _quadratic_phase_axis(out, element.curvature, axis)
        elif isinstance(element, Scale):
            out = _scale_axis(out, element.factor, axis)
        elif isinstance(element, Fresnel):
            out = _fresnel_axis(out, element.distance, axis)
        elif isinstance(element, LensImaging):
            u, f = element.object_distance, element.focal_length
            out = _quadratic_phase_axis(out, 1.0 / (u - f), axis)
            out = _scale_axis(out, 1.0 - u / f, axis)
        elif isinstance(element, FourierLens):
            gamma = 2.0 * math.pi / (out.wavelength * element.focal_length)
            out = _fourier_axis(out, gamma, axis)
        else:
            raise DomainError(f"unknown optical element {element!r}")
    return out


def apply_chain(state, elements) -> GaussianBiphotonState:
    for element in elements:
        state = apply_element(state, element)
    return state


def partial_fourier(state: GaussianBiphotonState, target: str = PHOTON_1) -> GaussianBiphotonState:
    """One-photon Fourier transform with the exp(-1j*q*x) kernel.

    The returned object has the targeted axis in spatial frequency (rad/um);
    applying it to both axes in sequence yields the full momentum
    representation.
    """
    axes = _target_axes(target)
    out = state
    for axis in axes:
        out = _fourier_axis(out, 1.0, axis)
    return out


# ---------------------------------------------------------------------------
# three-lens preparation


@dataclass(frozen=True)
class PrepDesign:
    """Lens layout that turns the phase-plane state into a real pure-phase image.

    The first lens of focal length f forms a virtual image with object
    distance u = f - 2*z_p which cancels the per-photon curvature; the f2/f3
    pair relays that virtual plane onto a real one.  All distances in um.
    """

    f: float
    f2: float
    f3: float
    z_p: float

    def __post_init__(self):
        for name in ("f", "f2", "f3", "z_p"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise DomainError(f"{name} must be positive and finite, got {val!r}")
        if self.u >= self.f:
            raise DomainError("not virtual imaging: object distance u must satisfy u < f")
        if self.u <= 0.0:
            raise DomainError(
                "not virtual imaging: u = f - 2*z_p must be positive "
                f"(f={self.f}, z_p={self.z_p})"
            )
        if self.f2 <= abs(self.v):
            raise DomainError(
                "no real image: relay requires f2 > |v| "
                f"(f2={self.f2}, |v|={abs(self.v):.6g})"
            )

    @property
    def u(self) -> float:
        """Object distance of the first lens."""
        return self.f - 2.0 * self.z_p

    @property
    def v(self) -> float:
        """Virtual image distance of the first lens (negative)."""
        return -(self.f - 2.0 * self.z_p) * self.f / (2.0 * self.z_p)

    @property
    def mag_4f(self) -> float:
        """Magnification of the relay pair, f3/f2."""
        return self.f3 / self.f2

    @property
    def mag_eff(self) -> float:
        """Net three-lens magnification f*f3/(2*z_p*f2)."""
        return self.f * self.f3 / (2.0 * self.z_p * self.f2)


def prepare_p3(params: DGParams, wavelength: float, design: PrepDesign) -> GaussianBiphotonState:
    """Run the full preparation chain and return the pure-phase-plane state.

    Propagates the source state to the phase plane, cancels the per-photon
    curvature with virtual imaging, and relays through the f2/f3 pair.  The
    result has m11 = m22 real (diagonal phase gone) and a purely imaginary
    cross term; its Fedorov ratio is 1.
    """
    z_p = phase_plane_distance(params, wavelength)
    if abs(z_p - design.z_p) > 1e-9 * z_p:
        raise DomainError(
            f"design z_p ({design.z_p:.6g} um) does not match the state's phase "
            f"plane ({z_p:.6g} um)"
        )
    state = dg_state(params, wavelength)
    state = apply_element(state, Fresnel(design.z_p, BOTH))
    state = apply_element(state, LensImaging(design.u, design.f, BOTH))
    state = apply_element(state, Scale(-1.0 / design.mag_4f, BOTH))
    if not state.is_exchange_symmetric():
        raise DomainError("preparation broke photon-exchange symmetry")
    return state


# ---------------------------------------------------------------------------
# split measurement model


def measurement_quadratic(
    scaled: PurePhaseParams,
    fourier_focal: float,
    imaging_mag,
    wavelength: float,
) -> GaussianForm:
    """Joint density of the split measurement for given arm settings.

    The density is proportional to exp(-(kk*x_k^2 + 2*kp*x_k*x_p + pp*x_p^2)),
    where x_k is the Fourier-arm and x_p the imaging-arm camera coordinate.
    ``scaled`` holds the pure-phase coefficients at the prepared plane (i.e.
    already divided by the preparation magnification squared).  imaging_mag is
    the signed single-lens magnification of the position arm, a scalar or an
    array of them; a scalar gives float coefficients.  For an array kp and pp
    are arrays over it; kk does not depend on the magnification.
    """
    if not (fourier_focal > 0.0):
        raise DomainError(f"fourier_focal must be positive, got {fourier_focal!r}")
    if np.ndim(imaging_mag):
        imaging_mag = np.asarray(imaging_mag, dtype=float)
    if np.any(imaging_mag == 0.0):
        raise DomainError("imaging_mag must be nonzero")
    a, b = scaled.amp_coeff, scaled.cross_coeff
    lam_f = wavelength * fourier_focal
    kk = 2.0 * math.pi**2 / (lam_f * lam_f * a)
    kp = math.pi * b / (lam_f * imaging_mag * a)
    pp = 2.0 * a / imaging_mag**2 + b * b / (2.0 * imaging_mag**2 * a)
    return GaussianForm(kk, kp, pp)


def _float_if_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def principal_angle_deg(angle):
    """Reduce axis angles in degrees to the interval (-90, 90]."""
    reduced = np.fmod(angle, 180.0)
    reduced = np.where(reduced > 90.0, reduced - 180.0, reduced)
    reduced = np.where(reduced <= -90.0, reduced + 180.0, reduced)
    return _float_if_scalar(reduced)


def tilt_from_form(kk, kp, pp):
    """Tilt of a density's major axis from the position axis, in (-90, 90] deg.

    Uses the two-argument arctangent so the branch always agrees with the
    covariance eigenvector; a single-argument arctan of 2*kp/(kk-pp) is off by
    90 degrees whenever kk < pp.  An isotropic density has no defined tilt and
    yields NaN.  Coefficient arrays give an array of tilts.
    """
    raw = 0.5 * np.degrees(np.arctan2(2.0 * kp, kk - pp))
    isotropic = (kp == 0.0) & (kk == pp)
    return _float_if_scalar(np.where(isotropic, np.nan, principal_angle_deg(-raw)))


def tilt_angle(quad: GaussianForm):
    """Tilt of the measured density's major axis from the position axis."""
    return tilt_from_form(quad.kk, quad.kp, quad.pp)


def principal_widths(form: GaussianForm) -> tuple:
    """(major, minor) standard deviations 1/sqrt(2*eigenvalue) of a density form.

    The 2x2 eigenvalues are closed form; the minor one is det/lambda_max, which
    keeps its relative accuracy where the difference of the two would cancel.
    """
    lam_max = 0.5 * (form.kk + form.pp) + np.hypot(0.5 * (form.kk - form.pp), form.kp)
    lam_min = form.det / lam_max
    major, minor = 1.0 / np.sqrt(2.0 * lam_min), 1.0 / np.sqrt(2.0 * lam_max)
    return _float_if_scalar(major), _float_if_scalar(minor)
