import math

import numpy as np
import pytest

from purephase.optics import PHOTON_1, PHOTON_2, partial_fourier
from purephase.states import (
    DGParams,
    DomainError,
    GaussianBiphotonState,
    PurePhaseParams,
    birth_zone_number,
    conditional_momentum,
    dg_state,
    fedorov_ratio,
    marginal_momentum_width,
    momentum_params,
    phase_plane_distance,
    pure_phase_params,
    pure_phase_state,
    schmidt_number,
    sigma_minus_from_crystal,
)
from conftest import SIGMA_MINUS, SIGMA_PLUS, WAVELENGTH

VARIED_PARAMS = [
    DGParams(286.0, 13.0),
    DGParams(100.0, 20.0),
    DGParams(50.0, 50.0),
    DGParams(13.0, 286.0),
    DGParams(390.0, 13.0),
]


class TestDGState:
    def test_equal_widths_are_separable(self):
        state = dg_state(DGParams(40.0, 40.0), WAVELENGTH)
        assert state.m12 == 0.0

    def test_paper_coefficients(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        # oracle: direct evaluation of 1/(4*13^2) + 1/(4*286^2)
        expected = 0.25 / SIGMA_MINUS**2 + 0.25 / SIGMA_PLUS**2
        assert state.m11 == pytest.approx(expected, rel=1e-14)
        assert state.m11 == pytest.approx(1.4824e-3, rel=1e-3)
        assert state.m11 == state.m22
        assert state.m12 == pytest.approx(0.25 / SIGMA_PLUS**2 - 0.25 / SIGMA_MINUS**2, rel=1e-14)

    def test_unit_norm_closed_form(self, paper_dg):
        assert dg_state(paper_dg, WAVELENGTH).norm() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_widths_rejected(self):
        with pytest.raises(DomainError):
            DGParams(-1.0, 13.0)
        with pytest.raises(DomainError):
            DGParams(286.0, 0.0)


class TestCrystalWidth:
    def test_zero_length(self):
        assert sigma_minus_from_crystal(0.0, 0.405, 1.0) == 0.0

    def test_reference_value(self):
        # oracle: sqrt(1000 * 0.405 / (6 pi))
        assert sigma_minus_from_crystal(1000.0, 0.405, 1.0) == pytest.approx(4.63529, rel=1e-5)

    def test_sqrt_scaling_in_length(self):
        one = sigma_minus_from_crystal(5000.0, 0.405, 1.84)
        two = sigma_minus_from_crystal(10000.0, 0.405, 1.84)
        assert two == pytest.approx(math.sqrt(2.0) * one, rel=1e-12)


class TestPurePhaseParams:
    def test_paper_values(self, paper_dg):
        params = pure_phase_params(paper_dg)
        assert params.amp_coeff == pytest.approx(3.05008e-6, rel=1e-5)
        assert params.cross_coeff == pytest.approx(1.3392634e-4, rel=1e-6)

    def test_symmetric_widths_kill_cross_phase(self):
        assert pure_phase_params(DGParams(80.0, 80.0)).cross_coeff == 0.0

    def test_rescaled_divides_by_square(self, paper_dg):
        params = pure_phase_params(paper_dg)
        scaled = params.rescaled(-2.0)
        assert scaled.amp_coeff == pytest.approx(params.amp_coeff / 4.0, rel=1e-14)
        assert scaled.cross_coeff == pytest.approx(params.cross_coeff / 4.0, rel=1e-14)
        with pytest.raises(DomainError):
            params.rescaled(0.0)


class TestMomentumParams:
    def test_zero_cross_phase(self):
        out = momentum_params(PurePhaseParams(2.5e-6, 0.0))
        assert out.amp_coeff == pytest.approx(1.0 / (4.0 * 2.5e-6), rel=1e-14)
        assert out.cross_coeff == 0.0

    def test_paper_value(self, paper_dg):
        out = momentum_params(pure_phase_params(paper_dg))
        assert out.amp_coeff == pytest.approx(169.699, rel=1e-4)

    @pytest.mark.parametrize("params", VARIED_PARAMS)
    def test_round_trip_is_involution(self, params):
        base = pure_phase_params(params)
        once = momentum_params(base)
        back = momentum_params(PurePhaseParams(once.amp_coeff, once.cross_coeff))
        assert back.amp_coeff == pytest.approx(base.amp_coeff, rel=1e-12)
        assert back.cross_coeff == pytest.approx(base.cross_coeff, rel=1e-12)


class TestPhasePlane:
    def test_paper_distance(self, paper_dg):
        z_p = phase_plane_distance(paper_dg, WAVELENGTH)
        assert z_p == pytest.approx(28840.596, rel=1e-6)

    def test_vanishes_with_correlation_width(self):
        assert phase_plane_distance(DGParams(286.0, 1e-9), WAVELENGTH) < 1e-3

    def test_linear_in_sigma_plus(self):
        one = phase_plane_distance(DGParams(100.0, 13.0), WAVELENGTH)
        two = phase_plane_distance(DGParams(200.0, 13.0), WAVELENGTH)
        assert two == pytest.approx(2.0 * one, rel=1e-14)


class TestSchmidtNumber:
    def test_unentangled(self):
        assert schmidt_number(DGParams(30.0, 30.0)) == pytest.approx(1.0)

    def test_paper_value(self, paper_dg):
        # oracle: (22 + 1/22)^2 / 4
        assert schmidt_number(paper_dg) == pytest.approx(121.5005, rel=1e-6)

    @pytest.mark.parametrize("params", VARIED_PARAMS)
    def test_swap_invariance_and_floor(self, params):
        swapped = DGParams(params.sigma_minus, params.sigma_plus)
        assert schmidt_number(params) == pytest.approx(schmidt_number(swapped), rel=1e-12)
        assert schmidt_number(params) >= 1.0


class TestFedorovRatio:
    def test_product_state_exact_unity(self):
        state = GaussianBiphotonState.from_quadratic(1e-4, 2e-4, 0.0, WAVELENGTH)
        assert fedorov_ratio(state) == 1.0

    def test_pure_phase_state_unity(self, paper_dg):
        state = pure_phase_state(pure_phase_params(paper_dg), WAVELENGTH)
        assert fedorov_ratio(state) == pytest.approx(1.0, abs=1e-12)

    def test_source_plane_value(self, paper_dg):
        # closed form for the double-Gaussian source: (r + 1/r)/2
        state = dg_state(paper_dg, WAVELENGTH)
        assert fedorov_ratio(state) == pytest.approx(11.0227, rel=1e-5)

    def test_equals_sqrt_schmidt(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        assert fedorov_ratio(state) ** 2 == pytest.approx(schmidt_number(paper_dg), rel=1e-9)


class TestMomentumStatistics:
    def test_conditional_mean_zero_at_origin(self, paper_dg):
        mean, _ = conditional_momentum(pure_phase_params(paper_dg), 0.0)
        assert mean == 0.0

    def test_conditional_mean_paper_value(self, paper_dg):
        mean, std = conditional_momentum(pure_phase_params(paper_dg), 100.0)
        assert mean == pytest.approx(-1.3392634e-2, rel=1e-6)
        assert std == pytest.approx(math.sqrt(3.05008e-6), rel=1e-5)

    def test_conditional_width_independent_of_position(self, paper_dg):
        params = pure_phase_params(paper_dg)
        stds = {conditional_momentum(params, x)[1] for x in (-500.0, 0.0, 123.4)}
        assert len(stds) == 1

    def test_marginal_width_no_cross_phase(self):
        params = PurePhaseParams(4e-6, 0.0)
        assert marginal_momentum_width(params) == pytest.approx(math.sqrt(4e-6), rel=1e-14)

    def test_marginal_width_paper_value(self, paper_dg):
        width = marginal_momentum_width(pure_phase_params(paper_dg))
        assert width == pytest.approx(3.83822e-2, rel=1e-5)

    @pytest.mark.parametrize("params", VARIED_PARAMS)
    def test_marginal_at_least_conditional(self, params):
        pp = pure_phase_params(params)
        assert marginal_momentum_width(pp) >= math.sqrt(pp.amp_coeff)

    def test_momentum_covariance_matches_closed_form(self, paper_dg):
        # the one-photon transform on both photons puts the state in (q1, q2)
        pp = pure_phase_params(paper_dg)
        momentum = partial_fourier(partial_fourier(pure_phase_state(pp, WAVELENGTH), PHOTON_1), PHOTON_2)
        assert momentum.marginal_position_std(1) == pytest.approx(marginal_momentum_width(pp), rel=1e-12)


class TestBirthZones:
    def test_paper_value(self, paper_dg):
        assert birth_zone_number(paper_dg) == pytest.approx(22.0, rel=1e-12)

    def test_equal_widths(self):
        assert birth_zone_number(DGParams(5.0, 5.0)) == 1.0

    def test_asymptotic_coherence_ratio(self):
        # momentum marginal over conditional width approaches sigma_+/sigma_-
        params = DGParams(1300.0, 13.0)  # ratio 100
        pp = pure_phase_params(params)
        ratio = marginal_momentum_width(pp) / math.sqrt(pp.amp_coeff)
        assert ratio == pytest.approx(100.0, rel=1e-2)


class TestStateStructure:
    def test_rejects_non_normalizable(self):
        with pytest.raises(DomainError):
            GaussianBiphotonState.from_quadratic(-1e-4, 1e-4, 0.0, WAVELENGTH)
        with pytest.raises(DomainError):
            GaussianBiphotonState.from_quadratic(1e-4, 1e-4, 2e-4, WAVELENGTH)

    def test_exchange_symmetry_flag(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        assert state.is_exchange_symmetric()
        skew = GaussianBiphotonState.from_quadratic(1e-4, 2e-4, 0.0, WAVELENGTH)
        assert not skew.is_exchange_symmetric()

    def test_photon_index_validated(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        with pytest.raises(DomainError):
            state.marginal_position_std(3)

    def test_evaluate_matches_quadratic_form(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        x1, x2 = 35.0, -80.0
        expected = np.exp(
            state.log_norm - (state.m11 * x1**2 + state.m22 * x2**2 + 2 * state.m12 * x1 * x2)
        )
        assert state.evaluate(x1, x2) == pytest.approx(expected)


class TestFourierAlgebraInvariant:
    @pytest.mark.parametrize("params", VARIED_PARAMS)
    def test_double_transform_gives_momentum_coefficients(self, params):
        # Fourier transforming both photons must reproduce the momentum-form
        # coefficients; the cross-phase sign flips with the exp(-iqx) kernel.
        from purephase.optics import BOTH, partial_fourier

        pp = pure_phase_params(params)
        state = pure_phase_state(pp, WAVELENGTH)
        transformed = partial_fourier(state, BOTH)
        expected = momentum_params(pp)
        assert transformed.m11.real == pytest.approx(expected.amp_coeff, rel=1e-12)
        assert transformed.m11.imag == pytest.approx(0.0, abs=1e-12 * expected.amp_coeff)
        assert abs(2.0 * transformed.m12.imag) == pytest.approx(
            abs(expected.cross_coeff), rel=1e-12
        )
        assert transformed.m12.real == pytest.approx(0.0, abs=1e-12 * (1 + abs(expected.cross_coeff)))
