import dataclasses
import math

import numpy as np
import pytest

from purephase.gridsim import GridSpec, auto_grid_spec, discretize, fft_fresnel, grid_pft
from purephase.optics import (
    BOTH,
    PHOTON_1,
    PHOTON_2,
    Fresnel,
    QuadraticPhase,
    Scale,
    apply_chain,
    apply_element,
    partial_fourier,
)
from purephase.states import (
    DGParams,
    DomainError,
    GaussianBiphotonState,
    conditional_momentum,
    dg_state,
    fedorov_ratio,
    marginal_momentum_width,
    phase_plane_distance,
    pure_phase_params,
    pure_phase_state,
)
from conftest import WAVELENGTH


def l2_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(np.sum((a - b) ** 2) / np.sum(b**2)))


def closed_form_density(state, g):
    w = state.intensity_form
    x1 = g.x1_axis[:, None]
    x2 = g.x2_axis[None, :]
    vals = np.exp(-(w[0, 0] * x1**2 + 2.0 * w[0, 1] * x1 * x2 + w[1, 1] * x2**2))
    return vals / (vals.sum() * g.dx1 * g.dx2)


class TestGridSpec:
    def test_requires_power_of_two(self):
        with pytest.raises(DomainError):
            GridSpec(100, 128, 1.0, 1.0)
        with pytest.raises(DomainError):
            GridSpec(128, 128, -1.0, 1.0)

    def test_axis_is_centred(self):
        spec = GridSpec(8, 8, 2.0, 2.0)
        assert spec.axis(1)[4] == 0.0
        assert spec.axis(1)[0] == -8.0


class TestDiscretize:
    def test_norm_and_marginals(self):
        params = DGParams(100.0, 20.0)
        state = dg_state(params, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        assert g.norm() == pytest.approx(1.0, abs=1e-8)
        assert g.marginal_std(1) == pytest.approx(state.marginal_position_std(1), rel=1e-3)
        assert g.conditional_std(1) == pytest.approx(state.conditional_position_std(1), rel=1e-3)

    def test_pointwise_ratio_constant(self):
        state = dg_state(DGParams(60.0, 15.0), WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        x1 = g.x1_axis[:, None]
        x2 = g.x2_axis[None, :]
        analytic = state.evaluate(x1, x2)
        sigma = state.marginal_position_std(1)
        box = (np.abs(x1) < 2 * sigma) & (np.abs(x2) < 2 * sigma)
        ratio = g.amplitudes[box] / analytic[box]
        assert np.abs(ratio / ratio.flat[0] - 1.0).max() < 1e-10

    def test_inadequate_sampling_rejected(self):
        state = dg_state(DGParams(100.0, 20.0), WAVELENGTH)
        with pytest.raises(DomainError, match="extent"):
            discretize(state, GridSpec(64, 64, 2.0, 2.0))
        with pytest.raises(DomainError, match="pitch"):
            discretize(state, GridSpec(1024, 1024, 10.0, 10.0))


class TestFresnelOracle:
    def test_zero_distance_identity(self):
        state = dg_state(DGParams(60.0, 15.0), WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        assert fft_fresnel(g, 0.0, BOTH) is g

    def test_round_trip(self):
        state = dg_state(DGParams(60.0, 15.0), WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        back = fft_fresnel(fft_fresnel(g, 2000.0, BOTH), -2000.0, BOTH)
        err = math.sqrt(float(np.sum(np.abs(back.amplitudes - g.amplitudes) ** 2) * g.dx1 * g.dx2))
        assert err < 1e-9

    def test_phase_plane_fedorov_and_widths(self):
        # desk-scale ratio keeps the grid small; the paper ratio runs in the
        # acceptance suite
        params = DGParams(75.0, 15.0)
        state = dg_state(params, WAVELENGTH)
        z_p = phase_plane_distance(params, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state, extent_sigmas=16.0))
        propagated = fft_fresnel(g, z_p, BOTH)
        assert propagated.fedorov_ratio() == pytest.approx(1.0, abs=1e-3)
        analytic = apply_element(state, Fresnel(z_p, BOTH))
        assert propagated.marginal_std(1) == pytest.approx(
            analytic.marginal_position_std(1), rel=1e-4
        )
        assert propagated.norm() == pytest.approx(1.0, abs=1e-9)

    def test_support_violation_raises(self):
        state = dg_state(DGParams(60.0, 15.0), WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        with pytest.raises(DomainError, match="grid extent"):
            fft_fresnel(g, 5e6, BOTH)

    @pytest.mark.parametrize("target", [PHOTON_1, PHOTON_2])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_single_photon_target(self, seed, target):
        rng = np.random.default_rng(seed)
        params = DGParams(rng.uniform(30.0, 70.0), rng.uniform(8.0, 20.0))
        state = dg_state(params, WAVELENGTH)
        z = phase_plane_distance(params, WAVELENGTH) * rng.uniform(0.5, 1.5)
        g = discretize(state, auto_grid_spec(state, extent_sigmas=16.0, max_n=512))
        propagated = fft_fresnel(g, z, target)
        analytic = apply_element(state, Fresnel(z, target))
        for photon in (1, 2):
            assert propagated.marginal_std(photon) == pytest.approx(
                analytic.marginal_position_std(photon), rel=1e-4
            )
        assert l2_mismatch(propagated.density(), closed_form_density(analytic, propagated)) < 1e-4

    def test_support_checked_per_axis(self):
        # axis 1 is four times wider than needed, axis 2 overflows at this z
        params = DGParams(60.0, 15.0)
        state = dg_state(params, WAVELENGTH)
        spec = auto_grid_spec(state)
        g = discretize(state, GridSpec(4 * spec.n1, spec.n2, spec.dx1, spec.dx2))
        z = 6.0 * phase_plane_distance(params, WAVELENGTH)
        for target in (PHOTON_2, BOTH):
            with pytest.raises(DomainError, match="grows axis 2"):
                fft_fresnel(g, z, target)
        assert fft_fresnel(g, z, PHOTON_1).norm() == pytest.approx(1.0, abs=1e-9)

    def test_convergence_under_refinement(self):
        params = DGParams(75.0, 15.0)
        state = dg_state(params, WAVELENGTH)
        z_p = phase_plane_distance(params, WAVELENGTH)
        coarse = discretize(state, auto_grid_spec(state, extent_sigmas=16.0, points_per_sigma=8.0))
        fine = discretize(state, auto_grid_spec(state, extent_sigmas=16.0, points_per_sigma=16.0))
        f_coarse = fft_fresnel(coarse, z_p, BOTH).fedorov_ratio()
        f_fine = fft_fresnel(fine, z_p, BOTH).fedorov_ratio()
        assert abs(f_fine - f_coarse) < 10.0 * 1e-3


class TestPartialFourierOracle:
    def test_no_cross_phase_separable(self):
        from purephase.states import PurePhaseParams

        state = pure_phase_state(PurePhaseParams(1e-4, 0.0), WAVELENGTH)
        g = grid_pft(discretize(state, auto_grid_spec(state)), PHOTON_1)
        dens = g.density()
        outer = np.outer(dens.sum(axis=1), dens.sum(axis=0))
        outer *= dens.sum() / outer.sum()
        assert l2_mismatch(dens, outer) < 1e-9

    def test_parseval(self, paper_dg):
        state = pure_phase_state(pure_phase_params(paper_dg), WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        assert grid_pft(g, PHOTON_1).norm() == pytest.approx(1.0, abs=1e-9)

    def test_conditional_slope(self, paper_dg):
        pp = pure_phase_params(paper_dg)
        state = pure_phase_state(pp, WAVELENGTH)
        g = grid_pft(discretize(state, auto_grid_spec(state)), PHOTON_1)
        x2, means, weights = g.conditional_mean_profile(1)
        sel = weights > 0.05 * weights.max()
        slope = np.polyfit(x2[sel], means[sel], 1, w=weights[sel])[0]
        assert slope == pytest.approx(conditional_momentum(pp, 1.0)[0], rel=1e-2)

    def test_density_matches_mixed_representation(self, paper_dg):
        pp = pure_phase_params(paper_dg)
        state = pure_phase_state(pp, WAVELENGTH)
        g = grid_pft(discretize(state, auto_grid_spec(state)), PHOTON_1)
        mixed = partial_fourier(state, PHOTON_1)
        assert l2_mismatch(g.density(), closed_form_density(mixed, g)) < 1e-4

    def test_momentum_widths(self, paper_dg):
        pp = pure_phase_params(paper_dg)
        state = pure_phase_state(pp, WAVELENGTH)
        g = grid_pft(discretize(state, auto_grid_spec(state)), PHOTON_1)
        assert g.conditional_std(1) == pytest.approx(math.sqrt(pp.amp_coeff), rel=1e-3)
        assert g.marginal_std(1) == pytest.approx(marginal_momentum_width(pp), rel=1e-3)


class TestGridFedorov:
    def test_product_state(self):
        from purephase.states import GaussianBiphotonState

        state = GaussianBiphotonState.from_quadratic(1e-4, 1e-4, 0.0, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state))
        assert g.fedorov_ratio() == pytest.approx(1.0, abs=1e-6)

    def test_source_plane_ratio(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state, extent_sigmas=9.0))
        assert g.fedorov_ratio() == pytest.approx(fedorov_ratio(state), rel=1e-2)

    def test_marginal_normalised(self, paper_dg):
        state = dg_state(paper_dg, WAVELENGTH)
        g = discretize(state, auto_grid_spec(state, extent_sigmas=9.0))
        x, prof = g.marginal(1)
        assert prof.sum() * g.dx1 == pytest.approx(1.0, abs=1e-9)


def reference_density(g):
    d = np.abs(g.amplitudes) ** 2
    return d / (d.sum() * g.dx1 * g.dx2)


def reference_std(x, p):
    mean = (x * p).sum() / p.sum()
    return math.sqrt(((x - mean) ** 2 * p).sum() / p.sum())


class TestQuadratureAnisotropic:
    """Cached |psi|^2 sums against a reference built from the amplitudes."""

    @pytest.fixture(scope="class")
    def grid(self):
        state = GaussianBiphotonState.from_quadratic(1e-3, 4e-3, -0.5e-3 + 0.3e-3j, WAVELENGTH)
        return discretize(state, GridSpec(256, 128, 1.25, 0.9))

    @pytest.mark.parametrize("which", [1, 2])
    def test_marginal_and_conditional(self, grid, which):
        d = reference_density(grid)
        axis, other = (grid.x1_axis, grid.x2_axis) if which == 1 else (grid.x2_axis, grid.x1_axis)
        pitch = grid.dx2 if which == 1 else grid.dx1
        marginal = d.sum(axis=2 - which) * pitch
        x, p = grid.marginal(which)
        assert np.array_equal(x, axis)
        np.testing.assert_allclose(p, marginal, rtol=1e-12, atol=1e-12 * marginal.max())
        assert grid.marginal_std(which) == pytest.approx(reference_std(axis, marginal), rel=1e-12)

        at = 0.3 * other[-1]
        idx = int(np.argmin(np.abs(other - at)))
        assert idx != other.size // 2
        conditional = d[:, idx] if which == 1 else d[idx, :]
        x, p = grid.conditional_slice(which, at)
        assert np.array_equal(x, axis)
        np.testing.assert_allclose(p, conditional, rtol=1e-12, atol=1e-12 * conditional.max())
        assert grid.conditional_std(which, at) == pytest.approx(reference_std(axis, conditional), rel=1e-12)

    def test_fedorov_and_norm(self, grid):
        d = reference_density(grid)
        marginal = reference_std(grid.x1_axis, d.sum(axis=1))
        conditional = reference_std(grid.x1_axis, d[:, grid.x2_axis.size // 2])
        assert grid.fedorov_ratio() == pytest.approx(marginal / conditional, rel=1e-12)
        norm = float(np.sum(np.abs(grid.amplitudes) ** 2) * grid.dx1 * grid.dx2)
        assert grid.norm() == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("transform", ["fresnel", "pft"])
    def test_transform_does_not_reuse_cached_sums(self, grid, transform):
        before = grid.marginal_std(1)
        out = fft_fresnel(grid, 3000.0, PHOTON_1) if transform == "fresnel" else grid_pft(grid, PHOTON_1)
        after = out.marginal_std(1)
        assert after != pytest.approx(before, rel=1e-3)
        assert after == pytest.approx(reference_std(out.x1_axis, reference_density(out).sum(axis=1)), rel=1e-12)


# ---------------------------------------------------------------------------
# seeded element chains: every closed-form update against the grid

_AXES = {PHOTON_1: (0,), PHOTON_2: (1,), BOTH: (0, 1)}


def _along_axis(vector, axis):
    return vector.reshape((-1, 1) if axis == 0 else (1, -1))


def grid_quadratic_phase(g, curvature, axis):
    """Multiply the axis by exp(+1j*pi*curvature*x^2/lam)."""
    x = g.x1_axis if axis == 0 else g.x2_axis
    phase = np.exp(1j * math.pi * curvature * x * x / g.wavelength)
    return dataclasses.replace(g, amplitudes=g.amplitudes * _along_axis(phase, axis))


def grid_scale(g, factor, axis):
    """x -> factor*x with sqrt(|factor|) weight: the samples stay, the axis is relabelled.

    Sample j at x_j carries the new amplitude at x_j/factor, so the pitch becomes
    dx/|factor| and a negative factor reverses the axis.
    """
    n = g.amplitudes.shape[axis]
    dx, origin = (g.dx1, g.x1_0) if axis == 0 else (g.dx2, g.x2_0)
    amp = g.amplitudes * math.sqrt(abs(factor))
    if factor < 0.0:
        amp = np.flip(amp, axis=axis)
        origin += (n - 1) * dx
    fields = ("dx1", "x1_0") if axis == 0 else ("dx2", "x2_0")
    return dataclasses.replace(g, amplitudes=amp, **dict(zip(fields, (dx / abs(factor), origin / factor))))


def apply_on_grid(g, element):
    if isinstance(element, Fresnel):
        return fft_fresnel(g, element.distance, element.target)
    for axis in _AXES[element.target]:
        if isinstance(element, QuadraticPhase):
            g = grid_quadratic_phase(g, element.curvature, axis)
        else:
            g = grid_scale(g, element.factor, axis)
    return g


def draw_chain(rng, z_p):
    """3-4 seeded elements on random targets.

    Distances up to z_p/2 and curvatures up to 1/z_p keep every chain inside a
    16-sigma grid of its source state.
    """
    chain = []
    for _ in range(rng.integers(3, 5)):
        target = (PHOTON_1, PHOTON_2, BOTH)[rng.integers(3)]
        kind = rng.integers(3)
        if kind == 0:
            chain.append(Fresnel(z_p * rng.uniform(-0.5, 0.5), target))
        elif kind == 1:
            chain.append(QuadraticPhase(rng.uniform(-1.0, 1.0) / z_p, target))
        else:
            chain.append(Scale(rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.4), target))
    return chain, (None, PHOTON_1, PHOTON_2)[rng.integers(3)]


class TestChainOracle:
    """Seeded apply_chain sequences, optionally ending in a partial Fourier
    transform, reproduced on the grid by fft_fresnel, grid_pft and exact
    grid versions of the quadratic phase and the scale."""

    @pytest.mark.parametrize("seed", range(12))
    def test_widths_match_grid(self, seed):
        rng = np.random.default_rng(seed)
        params = DGParams(rng.uniform(30.0, 70.0), rng.uniform(8.0, 20.0))
        state = dg_state(params, WAVELENGTH)
        chain, fourier = draw_chain(rng, phase_plane_distance(params, WAVELENGTH))
        g = discretize(state, auto_grid_spec(state, extent_sigmas=16.0, max_n=512))
        closed = apply_chain(state, chain)
        for element in chain:
            g = apply_on_grid(g, element)
        if fourier is not None:
            closed = partial_fourier(closed, fourier)
            g = grid_pft(g, fourier)
        assert g.norm() == pytest.approx(1.0, abs=1e-9)
        for photon in (1, 2):
            assert g.marginal_std(photon) == pytest.approx(closed.marginal_position_std(photon), rel=1e-4)
            assert g.conditional_std(photon) == pytest.approx(closed.conditional_position_std(photon), rel=1e-3)
        # widths cannot see a mirrored axis; the sign of the correlation can
        assert l2_mismatch(g.density(), closed_form_density(closed, g)) < 1e-4

    def test_grid_that_holds_the_result_is_accepted(self):
        # the sum bound sigma_x + |z| sigma_q / k put axis 2 at 71.4 um here and
        # refused the 545 um grid, but the propagated width is 65.3 um (8 sigma fits)
        rng = np.random.default_rng(5)
        state = dg_state(DGParams(rng.uniform(30.0, 70.0), rng.uniform(8.0, 20.0)), WAVELENGTH)
        chain = [QuadraticPhase(-1.045e-4, PHOTON_2), Fresnel(-1563.0, PHOTON_1), Fresnel(-7705.0, PHOTON_2)]
        g = discretize(state, auto_grid_spec(state, extent_sigmas=16.0, max_n=512))
        closed = apply_chain(state, chain)
        for element in chain:
            g = apply_on_grid(g, element)
        for photon in (1, 2):
            assert g.marginal_std(photon) == pytest.approx(closed.marginal_position_std(photon), rel=1e-4)
