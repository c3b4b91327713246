import numpy as np
import pytest

from purephase.wavelets import _level, approximation_1d, daubechies_filters, wavedec2, waverec2

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
def test_separable_image_band_is_outer_product_of_1d_bands(order, level):
    rng = np.random.default_rng(level)
    a, b = rng.random(64), rng.random(40)
    band = np.outer(approximation_1d(a, order, level), approximation_1d(b, order, level))
    expected = wavedec2(np.outer(a, b), order, level)[0]
    assert np.abs(band - expected).max() < 1e-13 * np.abs(expected).max()
