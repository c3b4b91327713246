import math

import numpy as np
import pytest

from purephase.optics import (
    BOTH,
    PHOTON_1,
    PHOTON_2,
    FourierLens,
    Fresnel,
    LensImaging,
    PrepDesign,
    QuadraticPhase,
    Scale,
    apply_chain,
    apply_element,
    measurement_quadratic,
    partial_fourier,
    prepare_p3,
    principal_angle_deg,
    principal_widths,
    tilt_angle,
    tilt_from_form,
)
from purephase.states import (
    DGParams,
    DomainError,
    GaussianForm,
    PurePhaseParams,
    conditional_momentum,
    dg_state,
    fedorov_ratio,
    momentum_params,
    phase_plane_distance,
    pure_phase_params,
    pure_phase_state,
)
from conftest import WAVELENGTH

# measurement settings of the reference experiment
FM = 15e4  # 15 cm Fourier lens
PAPER_LENSES = dict(f=10e4, f2=15e4, f3=12.5e4)


def paper_design(paper_dg):
    z_p = phase_plane_distance(paper_dg, WAVELENGTH)
    return PrepDesign(z_p=z_p, **PAPER_LENSES)


def eigenvector_tilt(kk, kp, pp):
    """Independent oracle: major-axis angle of the covariance eigenvector."""
    cov = 0.5 * np.linalg.inv(np.array([[kk, kp], [kp, pp]]))
    vals, vecs = np.linalg.eigh(cov)
    major = vecs[:, int(np.argmax(vals))]
    return principal_angle_deg(math.degrees(math.atan2(major[0], major[1])))


class TestElementValidation:
    def test_rejects_bad_elements(self):
        with pytest.raises(DomainError):
            Fresnel(math.inf)
        with pytest.raises(DomainError):
            Scale(0.0)
        with pytest.raises(DomainError):
            LensImaging(10e4, 10e4)
        with pytest.raises(DomainError):
            LensImaging(5e4, 0.0)
        with pytest.raises(DomainError):
            FourierLens(-1.0)
        with pytest.raises(DomainError):
            QuadraticPhase(1e-5, target="photon3")


class TestQuadraticPhaseAndScale:
    def test_zero_curvature_is_identity(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        out = apply_element(state, QuadraticPhase(0.0, BOTH))
        assert out.m11 == state.m11 and out.m12 == state.m12

    def test_curvature_shifts_only_imaginary_diagonal(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        c = 2.5e-5
        out = apply_element(state, QuadraticPhase(c, PHOTON_1))
        assert out.m11.real == pytest.approx(state.m11.real, rel=1e-14)
        assert abs(out.m11.imag - state.m11.imag) == pytest.approx(math.pi * c / WAVELENGTH, rel=1e-14)
        assert out.m22 == state.m22

    def test_scale_rescales_widths_and_preserves_norm(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        out = apply_element(state, Scale(-0.5, BOTH))
        # x -> s*x compresses the argument, so the physical image doubles
        assert out.marginal_position_std(1) == pytest.approx(
            2.0 * state.marginal_position_std(1), rel=1e-12
        )
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestFresnel:
    def test_zero_distance_identity(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        assert apply_element(state, Fresnel(0.0, BOTH)) is state

    def test_inverse_round_trip(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        out = apply_chain(state, [Fresnel(7000.0, BOTH), Fresnel(-7000.0, BOTH)])
        assert abs(out.m11 - state.m11) < 1e-12 * abs(state.m11)
        assert abs(out.m12 - state.m12) < 1e-12 * abs(state.m12)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_fedorov_unity_at_phase_plane(self, paper_dg):
        z_p = phase_plane_distance(paper_dg, WAVELENGTH)
        out = apply_element(dg_state(paper_dg, WAVELENGTH), Fresnel(z_p, BOTH))
        assert fedorov_ratio(out) == pytest.approx(1.0, abs=1e-9)

    def test_phase_plane_state_matches_closed_form(self, paper_dg):
        # amplitude 1/(2(sp^2+sm^2)), diagonal curvature k/(4 z_p), cross phase B
        z_p = phase_plane_distance(paper_dg, WAVELENGTH)
        out = apply_element(dg_state(paper_dg, WAVELENGTH), Fresnel(z_p, BOTH))
        total = paper_dg.sigma_plus**2 + paper_dg.sigma_minus**2
        k = 2.0 * math.pi / WAVELENGTH
        assert out.m11.real == pytest.approx(1.0 / (2.0 * total), rel=1e-10)
        assert out.m11.imag == pytest.approx(-k / (4.0 * z_p), rel=1e-10)
        assert 2.0 * out.m12.imag == pytest.approx(
            pure_phase_params(paper_dg).cross_coeff, rel=1e-10
        )
        assert abs(out.m12.real) < 1e-18

    @pytest.mark.parametrize("sigma_ratio", [1.0, 5.0, 22.0])
    def test_positive_definiteness_preserved(self, sigma_ratio):
        params = DGParams(13.0 * sigma_ratio, 13.0)
        state = dg_state(params, WAVELENGTH)
        chain = [
            Fresnel(9000.0, BOTH),
            QuadraticPhase(1e-5, PHOTON_1),
            Scale(-1.2, PHOTON_2),
            Fresnel(4000.0, PHOTON_1),
        ]
        out = apply_chain(state, chain)
        w = out.intensity_form
        assert w[0, 0] > 0 and np.linalg.det(w) > 0
        assert out.norm() == pytest.approx(1.0, abs=1e-10)


class TestLensImaging:
    def test_composition_identity(self, paper_dg):
        # imaging operator is exactly scale-after-quadratic-phase
        state = dg_state(paper_dg, WAVELENGTH)
        u, f = 4e4, 10e4
        lens = apply_element(state, LensImaging(u, f, PHOTON_1))
        manual = apply_chain(
            state,
            [QuadraticPhase(1.0 / (u - f), PHOTON_1), Scale(1.0 - u / f, PHOTON_1)],
        )
        assert lens.m11 == manual.m11
        assert lens.m22 == manual.m22
        assert lens.m12 == manual.m12
        assert lens.log_norm == manual.log_norm


def assert_same_state(out, expected, rel):
    for name in ("m11", "m22", "m12"):
        assert abs(getattr(out, name) - getattr(expected, name)) <= rel * abs(getattr(expected, name)), name
    assert out.norm() == pytest.approx(expected.norm(), rel=rel)


class TestRayConventions:
    """Element identities that fix the signs of the ray matrices."""

    @pytest.mark.parametrize("target", [PHOTON_1, PHOTON_2, BOTH])
    @pytest.mark.parametrize("f", [2e4, 1.5e5])
    def test_fresnel_lens_fresnel_is_fourier_lens(self, paper_dg, f, target):
        state = dg_state(paper_dg, WAVELENGTH)
        chain = apply_chain(state, [Fresnel(f, target), QuadraticPhase(-1.0 / f, target), Fresnel(f, target)])
        assert_same_state(chain, apply_element(state, FourierLens(f, target)), rel=1e-12)

    @pytest.mark.parametrize("target", [PHOTON_1, PHOTON_2, BOTH])
    @pytest.mark.parametrize("z1, z2", [(7000.0, 3000.0), (-2500.0, 9000.0)])
    def test_fresnel_distances_add(self, paper_dg, z1, z2, target):
        state = dg_state(paper_dg, WAVELENGTH)
        chain = apply_chain(state, [Fresnel(z1, target), Fresnel(z2, target)])
        assert_same_state(chain, apply_element(state, Fresnel(z1 + z2, target)), rel=1e-12)


class TestPrepDesign:
    def test_paper_geometry(self, paper_dg):
        design = paper_design(paper_dg)
        assert design.u == pytest.approx(42318.8, rel=1e-4)
        assert abs(design.v) == pytest.approx(73366.7, rel=1e-4)
        assert abs(design.v) < design.f2
        assert design.mag_4f == pytest.approx(12.5 / 15.0, rel=1e-12)
        assert design.mag_eff == pytest.approx(1.4447, rel=1e-4)

    def test_paper_quoted_magnification(self):
        # with the paper's phase-plane distance the net magnification is ~1.39
        design = PrepDesign(z_p=2.97e4, **PAPER_LENSES)
        assert design.mag_eff == pytest.approx(1.39, rel=0.03)

    def test_no_real_image_error(self, paper_dg):
        z_p = phase_plane_distance(paper_dg, WAVELENGTH)
        with pytest.raises(DomainError, match="no real image"):
            PrepDesign(f=10e4, f2=7e4, f3=12.5e4, z_p=z_p)

    def test_not_virtual_error(self):
        # f < 2 z_p puts the object behind the lens
        with pytest.raises(DomainError, match="not virtual imaging"):
            PrepDesign(f=5e4, f2=15e4, f3=12.5e4, z_p=2.9e4)


class TestPrepareP3:
    def test_certification(self, paper_dg):
        design = paper_design(paper_dg)
        state = prepare_p3(paper_dg, WAVELENGTH, design)
        assert abs(state.m11.imag) <= 1e-10 * abs(state.m11)
        assert state.m11 == pytest.approx(state.m22, rel=1e-13)
        assert state.is_exchange_symmetric()
        assert abs(state.m12.real) <= 1e-16
        assert fedorov_ratio(state) == pytest.approx(1.0, abs=1e-12)
        # cross phase is the source value divided by the squared magnification
        expected_cross = pure_phase_params(paper_dg).cross_coeff / design.mag_eff**2
        assert 2.0 * state.m12.imag == pytest.approx(expected_cross, rel=1e-10)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_matches_scaled_pure_phase_form(self, paper_dg):
        # the chain equals a pure coordinate scaling of the phase-plane state
        # (exact amplitude coefficient 1/(2(sp^2+sm^2)), see notes)
        design = paper_design(paper_dg)
        state = prepare_p3(paper_dg, WAVELENGTH, design)
        total = paper_dg.sigma_plus**2 + paper_dg.sigma_minus**2
        assert state.m11.real == pytest.approx(
            1.0 / (2.0 * total) / design.mag_eff**2, rel=1e-10
        )

    def test_mismatched_design_rejected(self, paper_dg):
        with pytest.raises(DomainError, match="phase"):
            prepare_p3(paper_dg, WAVELENGTH, PrepDesign(z_p=2.97e4, **PAPER_LENSES))


class TestPartialFourier:
    def test_no_cross_phase_gives_product(self):
        state = pure_phase_state(PurePhaseParams(3e-6, 0.0), WAVELENGTH)
        mixed = partial_fourier(state, PHOTON_1)
        assert mixed.m12 == 0.0

    def test_conditional_slope_matches_closed_form(self, paper_dg):
        pp = pure_phase_params(paper_dg)
        mixed = partial_fourier(pure_phase_state(pp, WAVELENGTH), PHOTON_1)
        w = mixed.intensity_form
        slope = -w[0, 1] / w[0, 0]
        assert slope == pytest.approx(conditional_momentum(pp, 1.0)[0], rel=1e-12)

    def test_norm_preserved(self, paper_dg):
        mixed = partial_fourier(dg_state(paper_dg, WAVELENGTH), PHOTON_1)
        assert mixed.norm() == pytest.approx(1.0, abs=1e-12)

    def test_double_application_reaches_momentum_form(self, paper_dg):
        pp = pure_phase_params(paper_dg)
        state = pure_phase_state(pp, WAVELENGTH)
        one = partial_fourier(state, PHOTON_1)
        both = partial_fourier(one, PHOTON_2)
        expected = momentum_params(pp)
        assert both.m11.real == pytest.approx(expected.amp_coeff, rel=1e-12)
        assert abs(2.0 * both.m12.imag) == pytest.approx(expected.cross_coeff, rel=1e-12)


class TestMeasurementQuadratic:
    def test_zero_cross_is_axis_aligned(self):
        quad = measurement_quadratic(PurePhaseParams(1.5e-6, 0.0), FM, -0.5, WAVELENGTH)
        assert quad.kp == 0.0

    def test_reference_coefficients(self):
        # paper-scale inputs: A' = 1.53e-6, B' = 65.3e-6, M_m = -0.5
        quad = measurement_quadratic(PurePhaseParams(1.53e-6, 65.3e-6), FM, -0.5, WAVELENGTH)
        assert quad.kk == pytest.approx(8.739e-4, rel=1e-3)
        assert quad.kp == pytest.approx(-2.207e-3, rel=1e-3)
        assert quad.pp == pytest.approx(5.586e-3, rel=1e-3)

    @pytest.mark.parametrize("mag", [-3.0, -1.0, -0.5, -0.3, 0.75, 2.0])
    def test_positive_definite_with_exact_determinant(self, paper_dg, mag):
        scaled = pure_phase_params(paper_dg).rescaled(1.4)
        quad = measurement_quadratic(scaled, FM, mag, WAVELENGTH)
        det = quad.kk * quad.pp - quad.kp**2
        expected = 4.0 * math.pi**2 / (WAVELENGTH**2 * FM**2 * mag**2)
        assert det == pytest.approx(expected, rel=1e-10)

    def test_invalid_inputs(self, paper_dg):
        scaled = pure_phase_params(paper_dg)
        with pytest.raises(DomainError):
            measurement_quadratic(scaled, -1.0, -0.5, WAVELENGTH)
        with pytest.raises(DomainError):
            measurement_quadratic(scaled, FM, 0.0, WAVELENGTH)

    @pytest.mark.parametrize("mag", [1e-300, 1e-160])
    def test_non_finite_coefficients_refused(self, paper_dg, mag):
        # pp grows as 1/mag^2 and overflows; a float once raised ZeroDivisionError here
        scaled = pure_phase_params(paper_dg)
        for imaging_mag in (mag, np.array([-0.5, mag])):
            with pytest.raises(DomainError) as info:
                measurement_quadratic(scaled, FM, imaging_mag, WAVELENGTH)
            assert str(info.value) == f"imaging_mag {mag!r} gives non-finite density coefficients"

    def test_matches_paper_closed_forms(self, paper_dg):
        # the chain's coefficients against the paper's closed forms, over the
        # vectorized model's magnifications
        scaled = paper_scaled(paper_dg)
        a, b = scaled.amp_coeff, scaled.cross_coeff
        mags = TestVectorizedModel.MAGS
        lam_f = WAVELENGTH * FM
        quad = measurement_quadratic(scaled, FM, mags, WAVELENGTH)
        assert quad.kk == pytest.approx(2.0 * math.pi**2 / (lam_f**2 * a), rel=1e-14)
        assert quad.kp == pytest.approx(math.pi * b / (lam_f * mags * a), rel=1e-14)
        assert quad.pp == pytest.approx(2.0 * a / mags**2 + b**2 / (2.0 * a * mags**2), rel=1e-14)


class TestTiltAngle:
    def make_quad(self, paper_dg, mag, z_p=2.97e4):
        design = PrepDesign(z_p=z_p, **PAPER_LENSES)
        scaled = pure_phase_params(paper_dg).rescaled(design.mag_eff)
        return measurement_quadratic(scaled, FM, mag, WAVELENGTH)

    def test_axis_aligned_zero(self):
        assert tilt_from_form(1e-3, 0.0, 5e-3) == pytest.approx(90.0)
        assert tilt_from_form(5e-3, 0.0, 1e-3) == pytest.approx(0.0)

    def test_isotropic_flagged(self):
        assert math.isnan(tilt_from_form(1e-3, 0.0, 1e-3))

    def test_paper_tilt_band(self, paper_dg):
        theta = tilt_angle(self.make_quad(paper_dg, -0.5))
        assert 66.0 <= abs(theta) <= 74.0
        assert theta == pytest.approx(69.23, abs=0.05)

    @pytest.mark.parametrize("mag", np.linspace(-3.0, -0.3, 12).tolist())
    def test_agrees_with_eigenvector_oracle(self, paper_dg, mag):
        quad = self.make_quad(paper_dg, mag)
        assert tilt_angle(quad) == pytest.approx(
            eigenvector_tilt(quad.kk, quad.kp, quad.pp), abs=1e-9
        )

    def test_single_argument_arctan_is_wrong_branch(self, paper_dg):
        # regression guard: the naive single-argument formula lands on the
        # wrong principal axis (off by 90 degrees) whenever kk < pp
        quad = self.make_quad(paper_dg, -0.5)
        assert quad.kk < quad.pp
        naive = 0.5 * math.degrees(math.atan(2.0 * quad.kp / (quad.kk - quad.pp)))
        two_arg = 0.5 * math.degrees(math.atan2(2.0 * quad.kp, quad.kk - quad.pp))
        assert abs(principal_angle_deg(naive - two_arg)) == pytest.approx(90.0, abs=1e-9)
        assert tilt_angle(quad) == pytest.approx(principal_angle_deg(-two_arg), abs=1e-12)

    def test_scale_invariance(self, paper_dg):
        quad = self.make_quad(paper_dg, -0.75)
        scaled = GaussianForm(3.7 * quad.kk, 3.7 * quad.kp, 3.7 * quad.pp)
        assert tilt_angle(scaled) == pytest.approx(tilt_angle(quad), abs=1e-12)

    def test_mirror_symmetry(self, paper_dg):
        plus = self.make_quad(paper_dg, 0.5)
        minus = self.make_quad(paper_dg, -0.5)
        assert plus.kk == minus.kk and plus.pp == minus.pp
        assert plus.kp == -minus.kp
        assert tilt_angle(plus) == pytest.approx(-tilt_angle(minus), abs=1e-12)


class TestPrincipalWidths:
    def test_axis_aligned(self):
        quad = GaussianForm(4e-3, 0.0, 1e-3)
        major, minor = principal_widths(quad)
        assert major == pytest.approx(1.0 / math.sqrt(2e-3), rel=1e-12)
        assert minor == pytest.approx(1.0 / math.sqrt(8e-3), rel=1e-12)

    def test_rotation_diagonalizes(self, paper_dg):
        quad = TestTiltAngle().make_quad(paper_dg, -0.5)
        theta = math.radians(tilt_angle(quad))
        # tilt measures atan2(k component, p component) of the major axis, so
        # the major direction is (sin theta, cos theta) in (x_k, x_p)
        c, s = math.cos(theta), math.sin(theta)
        axes = np.array([[s, c], [c, -s]])
        form = axes.T @ np.array([[quad.kk, quad.kp], [quad.kp, quad.pp]]) @ axes
        assert abs(form[0, 1]) < 1e-9 * max(abs(form[0, 0]), abs(form[1, 1]))
        major, _ = principal_widths(quad)
        assert 1.0 / math.sqrt(2.0 * form[0, 0]) == pytest.approx(major, rel=1e-9)


def paper_scaled(paper_dg):
    """Pure-phase coefficients at the prepared plane of the reference design."""
    return pure_phase_params(paper_dg).rescaled(paper_design(paper_dg).mag_eff)


def paper_curve(paper_dg, mags):
    """Predicted tilts of the prepared state at the given imaging magnifications."""
    return tilt_angle(measurement_quadratic(paper_scaled(paper_dg), FM, mags, WAVELENGTH))


class TestTiltCurve:
    def test_matches_reference_ordering(self, paper_dg):
        theta = paper_curve(paper_dg, [-0.3, -0.75, -2.5])
        assert abs(theta[0]) > abs(theta[1]) > abs(theta[2])

    def test_monotone_on_negative_branch(self, paper_dg):
        thetas = np.abs(paper_curve(paper_dg, np.linspace(-3.0, -0.3, 25)))
        assert np.all(thetas[:-1] <= thetas[1:] + 1e-12)

    def test_large_magnification_asymptote(self, paper_dg):
        (theta,) = paper_curve(paper_dg, [-500.0])
        assert abs(theta) < 1.0

    def test_refit_recovers_magnification(self, paper_dg):
        from purephase.fitting import fit_magnification_curve

        mags = [-0.4, -0.75, -1.2, -2.0, -3.0]
        points = np.column_stack([mags, paper_curve(paper_dg, mags)])
        base = pure_phase_params(paper_dg)
        fitted, _ = fit_magnification_curve(points, base, FM, WAVELENGTH, 1.2)
        assert fitted == pytest.approx(paper_design(paper_dg).mag_eff, rel=1e-2)


class TestVectorizedModel:
    """An array of magnifications gives, element by element, the scalar calls' results."""

    # a grid without M = 0, which has no image, then seeded magnifications in
    # +-[0.3, 3]: pow and a product round about one square in a thousand apart
    MAGS = np.concatenate([
        np.delete(np.linspace(-3.0, 3.0, 61), 30),
        np.random.default_rng(29).uniform(0.3, 3.0, 4000) * np.tile([-1.0, 1.0], 2000),
    ])

    def test_matches_scalar_calls(self, paper_dg):
        scaled = paper_scaled(paper_dg)
        quad = measurement_quadratic(scaled, FM, self.MAGS, WAVELENGTH)
        theta = tilt_angle(quad)
        major, minor = principal_widths(quad)
        assert theta.shape == major.shape == minor.shape == self.MAGS.shape
        # both branches of the two-argument arctangent are exercised
        assert np.any(quad.kk < quad.pp) and np.any(quad.kk > quad.pp)
        for i, mag in enumerate(self.MAGS):
            one = measurement_quadratic(scaled, FM, float(mag), WAVELENGTH)
            # the coefficients take the same arithmetic: bit for bit
            assert (quad.kk, quad.kp[i], quad.pp[i]) == (one.kk, one.kp, one.pp)
            assert theta[i] == pytest.approx(tilt_angle(one), abs=1e-12)
            assert (major[i], minor[i]) == pytest.approx(principal_widths(one), rel=1e-14)

    def test_scalar_gives_python_floats(self, paper_dg):
        quad = measurement_quadratic(paper_scaled(paper_dg), FM, -0.5, WAVELENGTH)
        assert all(type(v) is float for v in (quad.kk, quad.kp, quad.pp, tilt_angle(quad)))
        assert all(type(v) is float for v in principal_widths(quad))
        assert type(principal_angle_deg(200.0)) is float

    def test_isotropic_form_gives_nan_in_array(self):
        theta = tilt_from_form(1e-3, np.array([0.0, 0.0, 0.0]), np.array([1e-3, 5e-3, 2e-4]))
        assert math.isnan(theta[0])
        assert theta[1:] == pytest.approx([90.0, 0.0])

    def test_principal_angle_reduction(self):
        angles = np.array([-270.0, -180.0, -90.0, -89.5, 0.0, 90.0, 90.5, 180.0, 270.0, 450.0])
        expected = [90.0, 0.0, 90.0, -89.5, 0.0, 90.0, -89.5, 0.0, 90.0, 90.0]
        assert principal_angle_deg(angles) == pytest.approx(expected, abs=1e-12)
        assert [principal_angle_deg(float(a)) for a in angles] == pytest.approx(expected, abs=1e-12)

    def test_any_zero_magnification_rejected(self, paper_dg):
        with pytest.raises(DomainError):
            measurement_quadratic(paper_scaled(paper_dg), FM, np.array([-0.5, 0.0, 1.0]), WAVELENGTH)

    def test_minor_eigenvalue_is_stable(self):
        # eigenvalues 1e6 and 1e-6: a difference of nearly equal terms would
        # keep only about four digits of the small one
        major, minor = principal_widths(GaussianForm(1e6, 0.0, 1e-6))
        assert major == pytest.approx(1.0 / math.sqrt(2e-6), rel=1e-14)
        assert minor == pytest.approx(1.0 / math.sqrt(2e6), rel=1e-14)
