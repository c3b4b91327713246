"""Exact algebra of Gaussian two-photon states.

A state is stored as the complex quadratic form of its wavefunction,

    psi(x1, x2) = exp(log_norm) * exp(-(m11*x1**2 + m22*x2**2 + 2*m12*x1*x2)),

together with the wavelength of the down-converted photons.  All lengths are
micrometres.  Transverse momenta are expressed as spatial frequencies
q = p/hbar in rad/um, which removes hbar from every formula; the mapping to
the camera coordinate behind a Fourier lens is x_k = wavelength*f_m*q/(2*pi).

Everything here is a pure function on immutable values; propagation and lens
actions live in :mod:`purephase.optics`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DomainError",
    "GaussianForm",
    "DGParams",
    "PurePhaseParams",
    "MomentumParams",
    "GaussianBiphotonState",
    "dg_state",
    "pure_phase_state",
    "sigma_minus_from_crystal",
    "pure_phase_params",
    "momentum_params",
    "phase_plane_distance",
    "schmidt_number",
    "birth_zone_number",
    "fedorov_ratio",
    "conditional_momentum",
    "marginal_momentum_width",
]


class DomainError(ValueError):
    """A physical parameter leaves the requested operation undefined."""


def _require_positive(name: str, value: float) -> float:
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GaussianForm:
    """Real 2x2 form of the Gaussian density exp(-(kk x^2 + 2 kp x y + pp y^2)).

    The one place that checks a form is positive definite and derives its
    determinant, covariance, widths and Fedorov ratio.  kp and pp may be
    arrays of forms sharing kk (one per imaging magnification); ``det``
    takes them elementwise, the other members need scalars.
    """

    kk: float
    kp: float | np.ndarray
    pp: float | np.ndarray

    def __post_init__(self):
        if not (self.kk > 0.0 and np.all(self.pp > 0.0) and np.all(self.det > 0.0)):
            raise DomainError("density quadratic form must be positive definite")

    @property
    def det(self):
        return self.kk * self.pp - self.kp * self.kp

    @property
    def covariance(self) -> np.ndarray:
        """Covariance of the density, (2 form)^-1."""
        return np.array([[self.pp, -self.kp], [-self.kp, self.kk]]) / (2.0 * self.det)

    def marginal_std(self, axis: int) -> float:
        """Width of the density's marginal along axis 0 (x) or 1 (y)."""
        return math.sqrt(self.covariance[axis, axis])

    def conditional_std(self, axis: int) -> float:
        """Width along one axis with the other coordinate fixed."""
        return 1.0 / math.sqrt(2.0 * (self.kk, self.pp)[axis])

    @property
    def fedorov_ratio(self) -> float:
        """Marginal over conditional width: x has marginal variance pp / (2 det)
        and conditional variance 1 / (2 kk), so F = sqrt(kk pp / det), the
        same for y."""
        return math.sqrt(self.kk * self.pp / self.det)


@dataclass(frozen=True)
class DGParams:
    """Widths of the double-Gaussian SPDC state.

    sigma_plus is the sum-coordinate (pump) width, sigma_minus the
    difference-coordinate (pair correlation) width, both in um.
    """

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self):
        _require_positive("sigma_plus", self.sigma_plus)
        _require_positive("sigma_minus", self.sigma_minus)

    @property
    def width_ratio(self) -> float:
        return self.sigma_plus / self.sigma_minus


@dataclass(frozen=True)
class PurePhaseParams:
    """Coefficients of the pure phase entangled form.

    The wavefunction is exp(-amp_coeff*(x1^2+x2^2) - 1j*cross_coeff*x1*x2):
    amp_coeff sets the (uncorrelated) Gaussian envelope, cross_coeff the
    strength of the entangling cross phase.  Units um^-2.
    """

    amp_coeff: float
    cross_coeff: float

    def __post_init__(self):
        _require_positive("amp_coeff", self.amp_coeff)
        if not math.isfinite(self.cross_coeff):
            raise DomainError(f"cross_coeff must be finite, got {self.cross_coeff!r}")

    def rescaled(self, magnification: float) -> "PurePhaseParams":
        """Coefficients after the coordinates are magnified by the given factor.

        Scaling x -> x/m (an image magnified m times) divides both
        coefficients by m**2; the sign of m is irrelevant.
        """
        if magnification == 0.0:
            raise DomainError("magnification must be nonzero")
        m2 = magnification * magnification
        return PurePhaseParams(self.amp_coeff / m2, self.cross_coeff / m2)


@dataclass(frozen=True)
class MomentumParams:
    """Momentum-representation coefficients of the pure phase form, in um^2."""

    amp_coeff: float
    cross_coeff: float


@dataclass(frozen=True)
class GaussianBiphotonState:
    """Complex quadratic form of a two-photon Gaussian wavefunction.

    The normalisation is tracked as a complex log-amplitude so long operator
    chains cannot overflow; the imaginary part (a global phase) carries no
    physics and is kept at zero by the constructors here.
    """

    m11: complex
    m22: complex
    m12: complex
    log_norm: complex
    wavelength: float
    # W = 2 Re(M): |psi|^2 = exp(2 Re log_norm) * exp(-x^T W x)
    position_form: GaussianForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive("wavelength", self.wavelength)
        try:
            form = GaussianForm(2.0 * self.m11.real, 2.0 * self.m12.real, 2.0 * self.m22.real)
        except DomainError:
            raise DomainError(
                "state is not normalizable: Re(M) must be positive definite "
                f"(m11={self.m11!r}, m22={self.m22!r}, m12={self.m12!r})"
            ) from None
        object.__setattr__(self, "position_form", form)

    @classmethod
    def from_quadratic(cls, m11, m22, m12, wavelength) -> "GaussianBiphotonState":
        """Build a normalised state from quadratic-form coefficients."""
        state = cls(complex(m11), complex(m22), complex(m12), 0j, float(wavelength))
        log_norm = 0.25 * math.log(state.position_form.det) - 0.5 * math.log(math.pi)
        return replace(state, log_norm=complex(log_norm))

    # -- structure ---------------------------------------------------------

    @property
    def intensity_form(self) -> np.ndarray:
        """W = 2 Re(M) as a 2x2 array."""
        w = self.position_form
        return np.array([[w.kk, w.kp], [w.kp, w.pp]])

    def is_exchange_symmetric(self, rtol: float = 1e-10) -> bool:
        """Whether m11 == m22 within rtol (photon-exchange symmetry)."""
        scale = max(abs(self.m11), abs(self.m22))
        return abs(self.m11 - self.m22) <= rtol * scale

    # -- normalisation -----------------------------------------------------

    def norm(self) -> float:
        """Closed-form value of the Gaussian integral of |psi|^2."""
        return math.exp(2.0 * self.log_norm.real) * math.pi / math.sqrt(self.position_form.det)

    def evaluate(self, x1, x2) -> np.ndarray:
        """Pointwise complex amplitude; x1, x2 broadcast like numpy arrays."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        # one full-size buffer: the per-axis terms are added in place.  The
        # exponent stays one sum because its terms alone can overflow exp.
        expo = np.empty(np.broadcast_shapes(x1.shape, x2.shape), dtype=complex)
        np.multiply(-2.0 * self.m12 * x1, x2, out=expo)
        expo += self.log_norm - self.m11 * x1 * x1
        expo -= self.m22 * x2 * x2
        return np.exp(expo, out=expo)

    # -- second moments ----------------------------------------------------

    def position_covariance(self) -> np.ndarray:
        """Covariance of (x1, x2) under |psi|^2, i.e. (2 W)^-1."""
        return self.position_form.covariance

    def momentum_covariance(self) -> np.ndarray:
        """Covariance of (q1, q2): Re M + Im M (Re M)^-1 Im M for a pure Gaussian."""
        m_re = np.array([[self.m11.real, self.m12.real], [self.m12.real, self.m22.real]])
        m_im = np.array([[self.m11.imag, self.m12.imag], [self.m12.imag, self.m22.imag]])
        return m_re + m_im @ np.linalg.inv(m_re) @ m_im

    def marginal_position_std(self, photon: int = 1) -> float:
        """Width of one photon's marginal intensity distribution."""
        return self.position_form.marginal_std(_axis(photon))

    def conditional_position_std(self, photon: int = 1) -> float:
        """Width of one photon's distribution with the other photon's position fixed."""
        return self.position_form.conditional_std(_axis(photon))


def _axis(photon: int) -> int:
    if photon not in (1, 2):
        raise DomainError(f"photon index must be 1 or 2, got {photon!r}")
    return photon - 1


# ---------------------------------------------------------------------------
# constructors


def dg_state(params: DGParams, wavelength: float) -> GaussianBiphotonState:
    """Double-Gaussian SPDC state at the crystal plane.

    Expanding the sum/difference form gives real coefficients
    m11 = m22 = 1/(4 sigma_minus^2) + 1/(4 sigma_plus^2) and
    m12 = 1/(4 sigma_plus^2) - 1/(4 sigma_minus^2).
    """
    sp2 = params.sigma_plus * params.sigma_plus
    sm2 = params.sigma_minus * params.sigma_minus
    diag = 0.25 / sm2 + 0.25 / sp2
    cross = 0.25 / sp2 - 0.25 / sm2
    return GaussianBiphotonState.from_quadratic(diag, diag, cross, wavelength)


def pure_phase_state(params: PurePhaseParams, wavelength: float) -> GaussianBiphotonState:
    """State with uncorrelated envelope and purely cross-term phase."""
    return GaussianBiphotonState.from_quadratic(
        params.amp_coeff,
        params.amp_coeff,
        0.5j * params.cross_coeff,
        wavelength,
    )


# ---------------------------------------------------------------------------
# derived scalar quantities


def sigma_minus_from_crystal(length: float, pump_wavelength: float, pump_index: float) -> float:
    """Pair correlation width set by the crystal: sqrt(L*lambda_p/(6*pi*n_p))."""
    if length == 0.0:
        return 0.0
    _require_positive("length", length)
    _require_positive("pump_wavelength", pump_wavelength)
    _require_positive("pump_index", pump_index)
    return math.sqrt(length * pump_wavelength / (6.0 * math.pi * pump_index))


def pure_phase_params(params: DGParams) -> PurePhaseParams:
    """Pure-phase coefficients reached at the phase plane.

    amp_coeff = 1/(4(sp^2+sm^2)),
    cross_coeff = (sp^2-sm^2) / (2 sp sm (sp^2+sm^2)).
    """
    sp2 = params.sigma_plus * params.sigma_plus
    sm2 = params.sigma_minus * params.sigma_minus
    total = sp2 + sm2
    amp = 0.25 / total
    cross = (sp2 - sm2) / (2.0 * params.sigma_plus * params.sigma_minus * total)
    return PurePhaseParams(amp, cross)


def momentum_params(params: PurePhaseParams) -> MomentumParams:
    """Momentum-representation coefficients; the map is an involution."""
    a, b = params.amp_coeff, params.cross_coeff
    denom = 4.0 * a * a + b * b
    return MomentumParams(a / denom, b / denom)


def phase_plane_distance(params: DGParams, wavelength: float) -> float:
    """Propagation distance 2 pi sp sm / lambda where amplitude correlations vanish."""
    _require_positive("wavelength", wavelength)
    return 2.0 * math.pi * params.sigma_plus * params.sigma_minus / wavelength


def schmidt_number(params: DGParams) -> float:
    """Analytic entanglement measure (r + 1/r)^2 / 4 with r = sp/sm."""
    r = params.width_ratio
    s = r + 1.0 / r
    return 0.25 * s * s


def birth_zone_number(params: DGParams) -> float:
    """Number of independent pair-generation zones across the pump spot, sp/sm."""
    return params.width_ratio


def fedorov_ratio(state: GaussianBiphotonState) -> float:
    """Marginal width over conditional width of photon 1.

    Equals 1 exactly when Re(m12) = 0, i.e. when no amplitude correlations
    remain and the entanglement lives purely in the phase.
    """
    return state.position_form.fedorov_ratio


def conditional_momentum(params: PurePhaseParams, x: float) -> tuple[float, float]:
    """Mean and width of one photon's momentum given the other is found at x.

    The mixed representation of the pure phase form is Gaussian in q1 with
    mean -cross_coeff*x and x-independent width sqrt(amp_coeff).
    """
    return (-params.cross_coeff * x, math.sqrt(params.amp_coeff))


def marginal_momentum_width(params: PurePhaseParams) -> float:
    """Unconditioned single-photon momentum width sqrt(a + b^2/(4a))."""
    a, b = params.amp_coeff, params.cross_coeff
    return math.sqrt(a + b * b / (4.0 * a))
