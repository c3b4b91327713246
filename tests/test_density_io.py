import numpy as np
import pytest

from purephase.density import (
    Density2D,
    read_density,
    read_density_csv,
    write_density,
    write_density_csv,
    write_density_pgm,
)
from purephase.states import DomainError


def sample_density(rng) -> Density2D:
    vals = rng.random((24, 40))
    return Density2D(vals, -120.0, 10.0, -300.0, 15.0, normalized=False)


class TestDensity2D:
    def test_axes(self, rng):
        dens = sample_density(rng)
        assert dens.k_axis[0] == -120.0
        assert dens.k_axis[1] - dens.k_axis[0] == 10.0
        assert dens.p_axis.size == 40

    def test_self_normalized(self, rng):
        dens = sample_density(rng).self_normalized()
        assert dens.values.sum() == pytest.approx(1.0, rel=1e-12)
        assert dens.normalized

    def test_normalisation_needs_positive_mass(self):
        dens = Density2D(np.zeros((4, 4)), 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            dens.self_normalized()

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            Density2D(rng.random(5), 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            Density2D(rng.random((4, 4)), 0.0, -1.0, 0.0, 1.0)


def sweep_pitch_density(rng) -> Density2D:
    """The sweep's 18.07 um pitch at 256 px: axis[1] - axis[0] is not the pitch."""
    pitch = 18.07
    return Density2D(rng.random((256, 256)), -127.5 * pitch, pitch, -127.5 * pitch, pitch)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("make", [sample_density, sweep_pitch_density], ids=["sample", "sweep_pitch"])
    def test_exact_round_trip(self, make, rng, tmp_path):
        dens = make(rng).self_normalized()
        path = tmp_path / "density.csv"
        write_density_csv(dens, path, {"config_hash": "abc123"})
        loaded = read_density_csv(path)
        assert np.array_equal(loaded.values, dens.values)
        assert loaded.k_origin == dens.k_origin
        assert loaded.k_pitch == dens.k_pitch
        assert loaded.p_origin == dens.p_origin
        assert loaded.p_pitch == dens.p_pitch
        assert np.array_equal(loaded.k_axis, dens.k_axis)
        assert np.array_equal(loaded.p_axis, dens.p_axis)
        assert loaded.normalized

    def test_deterministic_bytes(self, rng, tmp_path):
        dens = sample_density(rng)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_density_csv(dens, a)
        write_density_csv(dens, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_axis_metadata_rejected(self, rng, tmp_path):
        path = tmp_path / "density.csv"
        write_density_csv(sample_density(rng), path)
        lines = path.read_text().splitlines(keepends=True)
        for key in ("p_pitch", "shape"):
            path.write_text("".join(line for line in lines if not line.startswith(f"# {key}=")))
            with pytest.raises(DomainError, match=key):
                read_density_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# purephase-density v1\n")
        with pytest.raises(DomainError):
            read_density_csv(path)


class TestNpyRoundTrip:
    @pytest.mark.parametrize("make", [sample_density, sweep_pitch_density], ids=["sample", "sweep_pitch"])
    def test_exact_round_trip(self, make, rng, tmp_path):
        dens = make(rng).self_normalized()
        path = tmp_path / "density.npy"
        write_density(dens, path, {"config_hash": "abc123"})
        loaded, extras = read_density(path)
        assert loaded.values.tobytes() == dens.values.tobytes()
        axes = ("k_origin", "k_pitch", "p_origin", "p_pitch", "normalized", "k_name", "p_name")
        assert [getattr(loaded, key) for key in axes] == [getattr(dens, key) for key in axes]
        assert extras == {"config_hash": "abc123"}
        rows, cols = dens.values.shape
        assert (tmp_path / "density.meta").read_text().endswith(f"shape={rows}x{cols}\nconfig_hash=abc123\n")


class TestPgm:
    def test_header_and_size(self, rng, tmp_path):
        dens = sample_density(rng)
        path = tmp_path / "density.pgm"
        write_density_pgm(dens, path)
        data = path.read_bytes()
        header = data.split(b"\n", 3)
        assert header[0] == b"P5"
        assert header[1] == b"40 24"
        assert header[2] == b"65535"
        assert len(header[3]) == 24 * 40 * 2

    def test_scaling_covers_full_range(self, rng, tmp_path):
        dens = sample_density(rng)
        path = tmp_path / "density.pgm"
        write_density_pgm(dens, path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert pixels.min() == 0
        assert pixels.max() == 65535

    def test_flat_image_is_zero(self, tmp_path):
        dens = Density2D(np.full((8, 8), 3.0), 0.0, 1.0, 0.0, 1.0)
        path = tmp_path / "flat.pgm"
        write_density_pgm(dens, path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert pixels.max() == 0
