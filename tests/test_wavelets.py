import numpy as np
import pytest

from purephase.states import DomainError
from purephase.wavelets import _level, daubechies_filters, wavedec2, waverec2

ORDERS = [1, 2, 4, 10]
# (rows, cols, level): the 16-row case at order 10 wraps the 20 taps past the end
SHAPES = [(32, 48, 1), (32, 48, 2), (64, 40, 3), (16, 24, 1)]


def filter_defect(order: int) -> float:
    """max_k |sum_t h[t] h[t + 2k] - delta_k|: how far the filter itself is from orthonormal.

    The spectral factorization leaves order 4 at 2.2e-15 but order 10 at
    1.1e-12, and no transform can be more exact than its filter.
    """
    h, _ = daubechies_filters(order)
    return max(abs(float(h[2 * k:] @ h[: h.size - 2 * k]) - (k == 0)) for k in range(order))


@pytest.mark.parametrize("order", range(1, 11))
def test_every_accepted_order_is_orthonormal(order):
    assert filter_defect(order) < 2e-12


@pytest.mark.parametrize("order", [0, 11, 20])
def test_orders_outside_1_to_10_refused(order):
    with pytest.raises(DomainError, match=rf"wavelet order must be in 1\.\.10, got {order}"):
        daubechies_filters(order)


def coefficient_energy(coeffs) -> float:
    return float((coeffs[0] ** 2).sum() + sum((band ** 2).sum() for details in coeffs[1:] for band in details))


def periodized_lowpass(x: np.ndarray, h: np.ndarray, axis: int) -> np.ndarray:
    """Filter-and-downsample by an explicit periodized convolution."""
    return sum(h[t] * np.take(np.roll(x, -t, axis), np.arange(0, x.shape[axis], 2), axis) for t in range(h.size))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("rows, cols, level", SHAPES)
class TestTransform:
    def test_round_trip(self, order, rows, cols, level):
        x = np.random.default_rng(order * 100 + level).standard_normal((rows, cols))
        error = np.abs(waverec2(wavedec2(x, order, level), order) - x).max()
        assert error < max(1e-13, 20.0 * filter_defect(order))

    def test_parseval(self, order, rows, cols, level):
        x = np.random.default_rng(order * 100 + level + 1).standard_normal((rows, cols))
        coeffs = wavedec2(x, order, level)
        assert coeffs[0].shape == (rows >> level, cols >> level)
        rel = max(1e-13, 2.0 * filter_defect(order))
        assert coefficient_energy(coeffs) == pytest.approx(float((x * x).sum()), rel=rel)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("shape", [(32, 48), (16, 24)])
def test_first_level_approximation_is_periodized_convolution(order, shape):
    x = np.random.default_rng(order).standard_normal(shape)
    h, _ = daubechies_filters(order)
    expected = periodized_lowpass(periodized_lowpass(x, h, 0), h, 1)
    assert np.abs(wavedec2(x, order, 1)[0] - expected).max() < 1e-13


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [2, 4, 16, 48, 256])
def test_level_is_orthogonal_and_read_only(order, n):
    m = _level(n, order)
    assert m.shape == (n, n)
    assert np.abs(m @ m.T - np.eye(n)).max() < max(1e-14, 2.0 * filter_defect(order))
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


@pytest.mark.parametrize("order", [1, 4, 10])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_band_sums_give_the_marginal_image_band(order, level):
    # every column of a periodized lowpass half sums to 1/sqrt(2), so the outer
    # product of a band's row and column sums is 2^-level sum(x) times the band
    # of the marginal image; clean_density takes its cutoff from it.  The 16-row
    # image wraps order 10's 20 taps.
    rng = np.random.default_rng(level)
    for shape in [(64, 40), (16, 40)]:
        x = rng.random(shape)
        a = wavedec2(x, order, level)[0]
        marginal_image = np.outer(x.sum(axis=1), x.sum(axis=0)) / x.sum()
        expected = 2.0 ** -level * x.sum() * wavedec2(marginal_image, order, level)[0]
        error = np.abs(np.outer(a.sum(axis=1), a.sum(axis=0)) - expected).max()
        assert error < max(1e-13, 2.0 * filter_defect(order)) * np.abs(expected).max()
