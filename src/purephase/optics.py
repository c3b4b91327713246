"""Operator algebra on Gaussian biphoton states.

Every optical element is a first-order system: it applies ray matrices
(A, B, C, D) with AD - BC = 1 in order, and one closed-form update of the
state's quadratic form (Collins' integral, J. Opt. Soc. Am. 60, 1168 (1970))
applies a matrix to one photon's axis.  The matrices and sign conventions:

* QuadraticPhase(c) = (1, 0, c, 1) multiplies by exp(+1j*pi*c*x^2/lam),
* Scale(s) = (1/s, 0, 0, s) maps x -> s*x with sqrt(|s|) amplitude weight,
* Fresnel(z) = (1, z, 0, 1) has the kernel exp(+1j*k*(x-x')^2/(2*z)),
* LensImaging(u, f) is QuadraticPhase(1/(u-f)) then Scale(1-u/f),
* FourierLens(f) = (0, f, -1/f, 0) and the one-photon transform (the Fourier
  lens of focal length 2*pi/lam) use the exp(-1j*q*x) kernel.

This is the one internally consistent assignment: the state propagated to the
phase plane carries curvature +1/(2*z_p) per photon, which the virtual-imaging
lens with object distance u = f - 2*z_p cancels exactly.  The measured density
of the split measurement is this chain too: FourierLens on photon 1 and
Scale(1/M) on photon 2, applied to the pure phase state.
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
    _require_positive,
    dg_state,
    phase_plane_distance,
    pure_phase_state,
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

_TARGET_AXES = {PHOTON_1: (0,), PHOTON_2: (1,), BOTH: (0, 1)}


def _target_axes(target: str) -> tuple[int, ...]:
    if target not in _TARGET_AXES:
        raise DomainError(f"target must be one of {tuple(_TARGET_AXES)}, got {target!r}")
    return _TARGET_AXES[target]


# ---------------------------------------------------------------------------
# optical elements: each applies its ray matrices (A, B, C, D) in order

Ray = tuple[float, float, float, float]


@dataclass(frozen=True)
class QuadraticPhase:
    """Multiply the targeted coordinate by exp(+1j*pi*curvature*x^2/lam)."""

    curvature: float  # 1/um
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if not math.isfinite(self.curvature):
            raise DomainError(f"curvature must be finite, got {self.curvature!r}")

    @property
    def rays(self) -> tuple[Ray, ...]:
        return ((1.0, 0.0, self.curvature, 1.0),)


@dataclass(frozen=True)
class Scale:
    """Coordinate scaling x -> factor*x with sqrt(|factor|) amplitude weight."""

    factor: float
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if self.factor == 0.0 or not math.isfinite(self.factor):
            raise DomainError(f"scale factor must be nonzero and finite, got {self.factor!r}")

    @property
    def rays(self) -> tuple[Ray, ...]:
        return ((1.0 / self.factor, 0.0, 0.0, self.factor),)


@dataclass(frozen=True)
class Fresnel:
    """Free-space propagation of the targeted coordinate over distance (um)."""

    distance: float
    target: str = BOTH

    def __post_init__(self):
        _target_axes(self.target)
        if not math.isfinite(self.distance):
            raise DomainError(f"distance must be finite, got {self.distance!r}")

    @property
    def rays(self) -> tuple[Ray, ...]:
        return ((1.0, self.distance, 0.0, 1.0),)


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

    @property
    def rays(self) -> tuple[Ray, ...]:
        u, f = self.object_distance, self.focal_length
        return QuadraticPhase(1.0 / (u - f)).rays + Scale(1.0 - u / f).rays


@dataclass(frozen=True)
class FourierLens:
    """2f Fourier transform onto the camera: kernel exp(-2j*pi*x'*x/(lam*f))."""

    focal_length: float  # f_m, um
    target: str = PHOTON_1

    def __post_init__(self):
        _target_axes(self.target)
        if not (self.focal_length > 0.0):
            raise DomainError(f"focal_length must be positive, got {self.focal_length!r}")

    @property
    def rays(self) -> tuple[Ray, ...]:
        return ((0.0, self.focal_length, -1.0 / self.focal_length, 0.0),)


OpticalElement = QuadraticPhase | Scale | Fresnel | LensImaging | FourierLens


# ---------------------------------------------------------------------------
# the one quadratic-form update: Collins' integral of a ray matrix on one axis


def _ray_axis(state: GaussianBiphotonState, ray: Ray, axis: int) -> GaussianBiphotonState:
    """Apply the ray matrix (A, B, C, D) to axis 0 or 1; the identity returns ``state``.

    B = 0 gives sqrt|D| exp(+1j*pi*C*D*x^2/lam) psi(D*x); otherwise Collins'
    kernel exp(+1j*pi*(A*x'^2 - 2*x*x' + D*x^2)/(lam*B)) is integrated over x'.
    """
    if ray == (1.0, 0.0, 0.0, 1.0):
        return state
    a, b, c, d = ray
    lam = state.wavelength
    m_tt, m_oo, m_to = (state.m11, state.m22, state.m12) if axis == 0 else (state.m22, state.m11, state.m12)
    if b == 0.0:
        m_tt, m_to = m_tt * d * d - 1j * math.pi * c * d / lam, m_to * d
        log_norm = state.log_norm + 0.5 * math.log(abs(d))
    else:
        q = 1j * math.pi / (lam * b)
        den = m_tt - a * q
        # AD - BC = 1 folds q*q*(1 - A*D) into the C term, which stays finite as B -> 0
        m_tt = q * (1j * math.pi * c / lam - d * m_tt) / den
        m_oo = m_oo - m_to * m_to / den
        m_to = -q * m_to / den
        log_norm = state.log_norm + 0.5 * (math.log(abs(q)) - math.log(abs(den)))
    m11, m22 = (m_tt, m_oo) if axis == 0 else (m_oo, m_tt)
    return GaussianBiphotonState(m11, m22, m_to, log_norm, lam)


def apply_element(state: GaussianBiphotonState, element: OpticalElement) -> GaussianBiphotonState:
    """Apply one optical element; raises DomainError if the output is not normalizable."""
    for axis in _target_axes(element.target):
        for ray in element.rays:
            state = _ray_axis(state, ray, axis)
    return state


def apply_chain(state, elements) -> GaussianBiphotonState:
    for element in elements:
        state = apply_element(state, element)
    return state


def partial_fourier(state: GaussianBiphotonState, target: str = PHOTON_1) -> GaussianBiphotonState:
    """One-photon Fourier transform with the exp(-1j*q*x) kernel.

    This is the Fourier lens of focal length 2*pi/lam.  The returned object
    has the targeted axis in spatial frequency (rad/um); applying it to both
    axes in sequence yields the full momentum representation.
    """
    return apply_element(state, FourierLens(2.0 * math.pi / state.wavelength, target))


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
            _require_positive(name, getattr(self, name))
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
    chain = [Fresnel(design.z_p, BOTH), LensImaging(design.u, design.f, BOTH), Scale(-1.0 / design.mag_4f, BOTH)]
    state = apply_chain(dg_state(params, wavelength), chain)
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
    are arrays over it; kk does not depend on the magnification.  A
    magnification whose coefficients are not finite (0, or one whose square
    underflows or overflows) is refused.  The model is FourierLens on photon 1
    applied to ``pure_phase_state(scaled)``, then photon 2's Scale(1/M) in
    closed form over the magnifications: kp / M and pp / M^2.
    """
    form = apply_element(pure_phase_state(scaled, wavelength), FourierLens(fourier_focal, PHOTON_1)).position_form
    # numpy, unlike float, gives inf rather than raising; a scalar stays a scalar
    imaging_mag = np.float64(imaging_mag)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kp = form.kp / imaging_mag
        # m * m, not m**2: numpy squares a scalar with pow, an array with a product
        pp = form.pp / (imaging_mag * imaging_mag)
    finite = np.isfinite(kp) & np.isfinite(pp)
    if not finite.all():
        bad = np.extract(~finite, imaging_mag)[0]
        raise DomainError(f"imaging_mag {float(bad)!r} gives non-finite density coefficients")
    return GaussianForm(form.kk, _float_if_scalar(kp), _float_if_scalar(pp))


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
