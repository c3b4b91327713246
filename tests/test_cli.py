import dataclasses
import gzip
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import purephase.pipeline as pl
from purephase import cli
from purephase.config import RunConfig, config_from_file, parse_config_file
from purephase.density import Density2D, read_density, read_density_csv, write_density, write_density_csv
from purephase.fitting import fit_gaussian_2d
from purephase.frames import _HEADER, read_framestack, write_framestack
from purephase.states import DomainError
from conftest import assert_exp_floor_moves_no_fit, marginal_cutoffs

pytestmark = pytest.mark.filterwarnings("ignore::purephase.frames.OccupancyWarning")

SMOKE = dict(
    frames=1500,
    calib_frames=1500,
    magnifications=(0.5, 1.0, 2.0),
    calib_width_px=256,
    mean_pair_rate=4.0,
)


# (key, bad value, the one line that refuses it when the config loads)
SOURCE_REFUSALS = [
    ("crystal_length_um", math.nan, "crystal_length_um must be 0 (not given) or positive and finite, got nan"),
    ("crystal_length_um", -1000.0, "crystal_length_um must be 0 (not given) or positive and finite, got -1000.0"),
    ("pump_waist_um", -900.0, "pump_waist_um must be 0 (not given) or positive and finite, got -900.0"),
    ("pump_waist_um", math.inf, "pump_waist_um must be 0 (not given) or positive and finite, got inf"),
    ("pump_wavelength_um", 0.0, "pump_wavelength_um must be positive and finite, got 0.0"),
    ("pump_index", math.nan, "pump_index must be positive and finite, got nan"),
    ("sigma_plus_um", math.nan, "sigma_plus must be positive and finite, got nan"),
    ("sigma_minus_um", -13.0, "sigma_minus must be positive and finite, got -13.0"),
]
SOURCE_IDS = [f"{key}={value}" for key, value, _ in SOURCE_REFUSALS]

# (key, bad value, the one line that refuses it when the config loads): rates, lengths, the calibration width and the 0/1 flags
SETTING_REFUSALS = [
    ("mean_pair_rate", math.nan, "mean_pair_rate must be non-negative and finite, got nan"),
    ("mean_pair_rate", -1.0, "mean_pair_rate must be non-negative and finite, got -1.0"),
    ("calib_rate", math.nan, "calib_rate must be non-negative and finite, got nan"),
    ("calib_rate", math.inf, "calib_rate must be non-negative and finite, got inf"),
    ("calib_rate", -1.0, "calib_rate must be non-negative and finite, got -1.0"),
    ("dark_count_prob", 2.0, "dark_count_prob must be a probability in [0, 1], got 2.0"),
    ("dark_count_prob", -1e-4, "dark_count_prob must be a probability in [0, 1], got -0.0001"),
    ("calib_width_px", 1, "calib_width_px must be at least 2, got 1"),
    ("near_pitch_um", -3.0, "near_pitch_um must be positive and finite, got -3.0"),
    ("far_pitch_um", 0.0, "far_pitch_um must be positive and finite, got 0.0"),
    ("f_um", -5.0, "f_um must be positive and finite, got -5.0"),
    ("f2_um", math.nan, "f2_um must be positive and finite, got nan"),
    ("f3_um", math.inf, "f3_um must be positive and finite, got inf"),
    ("fm_um", 0.0, "fm_um must be positive and finite, got 0.0"),
    ("wavelength_um", -0.81, "wavelength_um must be positive and finite, got -0.81"),
    # any other flag value once wrote the default run's PPF1 bytes under another config hash
    ("clip_binary", 7, "clip_binary must be 0 or 1, got 7"),
    ("clip_binary", -1, "clip_binary must be 0 or 1, got -1"),
    ("keep_unsplit", -3, "keep_unsplit must be 0 or 1, got -3"),
    ("keep_unsplit", 2, "keep_unsplit must be 0 or 1, got 2"),
]
SETTING_IDS = [f"{key}={value}" for key, value, _ in SETTING_REFUSALS]


class TestConfig:
    def test_defaults_match_reference_experiment(self):
        cfg = RunConfig()
        assert cfg.sigma_plus == 286.0
        assert cfg.sigma_minus == 13.0
        assert cfg.wavelength_um == 0.81
        assert cfg.f_um == 10e4 and cfg.f2_um == 15e4 and cfg.f3_um == 12.5e4
        assert cfg.fm_um == 15e4

    def test_crystal_route(self):
        cfg = RunConfig(crystal_length_um=1000.0, pump_wavelength_um=0.405, pump_index=1.0)
        assert cfg.sigma_minus == pytest.approx(4.63529, rel=1e-5)
        assert RunConfig(pump_waist_um=900.0).sigma_plus == 450.0

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "sigma_plus_um = 300\n"
            "magnifications = 0.5, -1.5\n"
            "seed=7\n"
        )
        values = parse_config_file(path)
        assert values == {"sigma_plus_um": 300.0, "magnifications": (0.5, -1.5), "seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma_plu_um=300\n")
        with pytest.raises(DomainError, match="unknown configuration key"):
            parse_config_file(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=7\nout_dir=filedir\n")
        cfg = config_from_file(path, {"seed": 99, "out_dir": None})
        assert cfg.seed == 99
        assert cfg.out_dir == "filedir"

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(magnifications=())
        with pytest.raises(DomainError):
            RunConfig(magnifications=(0.0,))
        with pytest.raises(DomainError):
            RunConfig(mode="3d")

    @pytest.mark.parametrize("key, value, message", SOURCE_REFUSALS, ids=SOURCE_IDS)
    def test_source_values_checked(self, key, value, message):
        # nan > 0 is False, so a nan crystal length once fell back to sigma_minus_um unseen
        with pytest.raises(DomainError) as info:
            RunConfig(**{key: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("key, value, message", SETTING_REFUSALS, ids=SETTING_IDS)
    def test_settings_checked(self, key, value, message):
        with pytest.raises(DomainError) as info:
            RunConfig(**{key: value})
        assert str(info.value) == message

    def test_flag_values_keep_their_hash(self):
        # each of the flags' four settings hashes as it always has
        hashes = {
            (1, 1): "b6cbcea9fce9",
            (0, 1): "3dcba5fae3c2",
            (1, 0): "9a85c2dc9a30",
            (0, 0): "747e83e1c6cb",
        }
        for (clip, keep), digest in hashes.items():
            assert RunConfig(clip_binary=clip, keep_unsplit=keep).config_hash() == digest

    def test_2d_mode_needs_two_rows(self):
        with pytest.raises(DomainError) as info:
            RunConfig(mode="2d", arm_height_px=1)
        assert str(info.value) == "2d mode needs arm_height_px >= 2"
        assert RunConfig(mode="1d", arm_height_px=1).arm_height_px == 1

    def test_frame_counts_at_least_two(self):
        for key in ("frames", "calib_frames"):
            with pytest.raises(DomainError) as info:
                RunConfig(**{key: 1})
            assert str(info.value) == "frame counts must be at least 2"

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=7\nframes 300\n")
        with pytest.raises(DomainError) as info:
            parse_config_file(path)
        assert str(info.value) == f"{path}:2: expected key=value, got 'frames 300'"

    def test_hash_tracks_content(self):
        a = RunConfig()
        b = RunConfig(seed=99)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == RunConfig().config_hash()

    def test_hash_ignores_out_dir(self):
        assert RunConfig(out_dir="a").config_hash() == RunConfig(out_dir="b").config_hash()

    def test_hash_ignores_spelling(self):
        # a bool flag, an int width and the unread 1d height all name the default run
        default = RunConfig().config_hash()
        for spelling in ({"clip_binary": True}, {"sigma_plus_um": 286}, {"arm_height_px": 8}):
            assert RunConfig(**spelling).config_hash() == default
        assert RunConfig(mode="2d", arm_height_px=8).config_hash() != RunConfig(mode="2d").config_hash()

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"])
    @pytest.mark.parametrize("value", [2500.7, 2.0, "2"])
    def test_int_fields_refuse_non_integers(self, key, value):
        # frames=2500.7 once loaded, hashed like frames=2500, and then failed in synthesis
        with pytest.raises(DomainError) as info:
            RunConfig(**{key: value})
        assert str(info.value) == f"{key} must be an integer, got {value!r}"

    def test_numpy_integers_keep_their_hash(self):
        spelled = RunConfig(frames=np.int64(100000), seed=np.uint32(12345), keep_unsplit=np.int8(1))
        assert spelled.config_hash() == RunConfig().config_hash()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_out")
    cfg_path = out / "run.cfg"
    lines = [f"out_dir={out}"]
    for key, value in SMOKE.items():
        if key == "magnifications":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    cfg_path.write_text("\n".join(lines) + "\n")
    return out, cfg_path


class TestCliEndToEnd:
    def test_full_chain(self, workdir):
        out, cfg_path = workdir
        for command in ("calibrate", "predict", "simulate", "estimate", "clean", "fit", "sweep", "report"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        expected = [
            "calibrate_report.txt",
            "predict_tilt.csv",
            "frames_m+0.50.ppf",
            "frames_m+0.50.ppf.meta",
            "density_m+0.50.npy",
            "density_m+0.50.meta",
            "density_m+0.50.pgm",
            "cleaned_m+0.50.npy",
            "density_m+0.50.csv",  # the CSV copies report exports
            "cleaned_m+0.50.csv",
            "fit_m+0.50.txt",
            "fits.csv",
            "sweep_report.txt",
            "report.txt",
        ]
        for name in expected:
            assert (out / name).exists(), name
        report = (out / "report.txt").read_text()
        assert report.startswith("config_hash=")

    def test_pipeline_is_deterministic(self, workdir):
        out, cfg_path = workdir
        names = ("frames_m+1.00.ppf", "density_m+1.00.npy", "density_m+1.00.meta")
        before = [(out / name).read_bytes() for name in names]
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main(["estimate", "--config", str(cfg_path)]) == 0
        assert [(out / name).read_bytes() for name in names] == before

    def test_seed_changes_artifacts(self, workdir, tmp_path):
        out, cfg_path = workdir
        other = tmp_path / "seeded"
        assert (
            cli.main(
                ["simulate", "--config", str(cfg_path), "--seed", "777", "--out", str(other), "--mag", "0.5"]
            )
            == 0
        )
        assert (other / "frames_m+0.50.ppf").read_bytes() != (out / "frames_m+0.50.ppf").read_bytes()

    def test_tilt_table_matches_prediction(self, workdir):
        out, _ = workdir
        rows = [
            line.split(",")
            for line in (out / "fits.csv").read_text().splitlines()
            if line and not line.startswith(("#", "magnification"))
        ]
        for row in rows:
            theta_fit, theta_pred = float(row[1]), float(row[3])
            assert abs(theta_fit - theta_pred) <= 5.0

    def test_predicted_curve_monotone_on_branch(self, workdir):
        out, _ = workdir
        rows = [
            line.split(",")
            for line in (out / "predict_tilt.csv").read_text().splitlines()
            if line and not line.startswith(("#", "magnification"))
        ]
        by_mag = sorted((float(r[0]), float(r[2])) for r in rows)
        abs_thetas = [t for _, t in by_mag]
        assert all(a >= b for a, b in zip(abs_thetas, abs_thetas[1:]))

    def test_predict_reference_panels(self, tmp_path):
        # the three theory panels of the reference figure
        out = tmp_path / "panels"
        assert cli.main(["predict", "--out", str(out), "--mag=-0.3,-0.75,-2.5"]) == 0
        for tag in ("m-0.30", "m-0.75", "m-2.50"):
            assert (out / f"predict_rho_{tag}.npy").exists()
            assert (out / f"predict_rho_{tag}.pgm").exists()


class TestSweepStages:
    def test_sweep_matches_verb_chain_without_read_back(self, tmp_path, monkeypatch):
        chain = RunConfig(out_dir=str(tmp_path / "chain"), **SMOKE)
        for command in (pl.cmd_simulate, pl.cmd_estimate, pl.cmd_clean, pl.cmd_fit):
            command(chain)
        with open(tmp_path / "chain" / "fits.csv") as fh:
            rows = [[float(v) for v in line.split(",")] for line in fh if not line.startswith(("#", "magnification"))]
        pl._write_sweep_report(chain, rows)

        def no_read_back(path):
            raise AssertionError(f"sweep read back {path}")

        monkeypatch.setattr(pl, "read_framestack", no_read_back)
        monkeypatch.setattr(pl, "read_density", no_read_back)
        sweep = pl.cmd_sweep(RunConfig(out_dir=str(tmp_path / "sweep"), **SMOKE))
        assert len(sweep["rows"]) == len(SMOKE["magnifications"])
        names = sorted(os.listdir(tmp_path / "chain"))
        assert names == sorted(os.listdir(tmp_path / "sweep"))
        assert len(names) == 9 * len(SMOKE["magnifications"]) + 2  # 9 per magnification, fits.csv, sweep report
        for name in names:
            assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "chain" / name).read_bytes(), name

    def test_fit_without_clean_fits_raw_density(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path), frames=1500, magnifications=(1.0,))
        pl.cmd_simulate(cfg)
        pl.cmd_estimate(cfg)
        pl.cmd_fit(cfg)
        report = dict(line.split("=", 1) for line in (tmp_path / "fit_m+1.00.txt").read_text().splitlines())
        assert report["source"] == "density_m+1.00.npy"
        fit = fit_gaussian_2d(read_density(tmp_path / "density_m+1.00.npy")[0])
        assert report["theta_fit_deg"] == str(fit.theta_deg)
        assert not (tmp_path / "cleaned_m+1.00.npy").exists()


SMALL_SWEEP = ["sweep", "--frames", "600", "--mag=0.5,1.0,2.0", "--seed", "11"]


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    """A small seeded sweep, the densities _write_density was handed, then a report."""
    out = tmp_path_factory.mktemp("small_sweep")
    written = {}
    write = pl._write_density

    def spy(cfg, dens, name):
        written[name] = dens.values.copy()
        return write(cfg, dens, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "_write_density", spy)
        assert cli.main([*SMALL_SWEEP, "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    return out, written


# the PPF1 stacks SMALL_SWEEP wrote under the frame layout that keyed frame j by
# seed ^ ((i + 1) << 24) ^ j, gzipped; their sidecars record no stream
ARCHIVED_STACKS = Path(__file__).parent / "data" / "sweep_seed11"


@pytest.fixture(scope="module")
def archived_sweep(tmp_path_factory):
    """estimate, clean and report run on the archived stacks of SMALL_SWEEP."""
    out = tmp_path_factory.mktemp("archived_sweep")
    for packed in ARCHIVED_STACKS.glob("*.ppf.gz"):
        (out / packed.stem).write_bytes(gzip.decompress(packed.read_bytes()))
    for meta in ARCHIVED_STACKS.glob("*.ppf.meta"):
        (out / meta.name).write_bytes(meta.read_bytes())
    for verb in ("estimate", "clean"):
        assert cli.main([verb, *SMALL_SWEEP[1:], "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    return out


# what the sweep itself writes, by artifact name: any change to the frame streams re-rolls these
SWEEP_DIGESTS = {
    # report's CSV exports of the sweep's raw and cleaned densities
    "density_m+1.00.csv": "856c96d7ca0f92b512f1427fcc6465e3585ecdfd7ee7a74ef3874e28539d4832",
    "cleaned_m+1.00.csv": "acb973bec3b47029a9b8c38c37cd0a534fb7fa3bafd03d927cb4907fc41ea3b1",
    # the sweep's PPF1 sidecar, written through the shared key=value helper
    "frames_m+1.00.ppf.meta": "10914a3e057b557eef4a82d3650ba6cffd9a16182cc4cee671bb744d0ba84096",
}

# report's CSV exports of the densities estimated and cleaned from the archived stacks, by
# artifact name: they pin estimation, cleaning and export whatever the frame streams become
ARCHIVED_DIGESTS = {
    "density_m+1.00.csv": "4faeda7c51ab3f4461869f2647c6a14ed22041b051ceee98d3f1b2463a68ccbf",
    "cleaned_m+1.00.csv": "8e92f14ad12901d1df9033a784e4055b6d3cef126a7d91900c5fa41d796d512e",
}


class TestDensityArtifacts:
    def test_npy_grids_are_the_sweep_densities_bitwise(self, small_sweep):
        out, written = small_sweep
        tags = ("0.50", "1.00", "2.00")
        assert sorted(written) == [f"{stage}_m+{tag}" for stage in ("cleaned", "density") for tag in tags]
        for name, values in written.items():
            loaded = np.load(out / f"{name}.npy", allow_pickle=False)
            assert loaded.dtype == values.dtype == np.float64
            assert loaded.shape == values.shape and loaded.tobytes() == values.tobytes(), name
            assert read_density(out / f"{name}.npy")[0].values.tobytes() == values.tobytes(), name

    @pytest.mark.parametrize("name", sorted(ARCHIVED_DIGESTS))
    def test_pinned_artifact_bytes(self, archived_sweep, name):
        assert hashlib.sha256((archived_sweep / name).read_bytes()).hexdigest() == ARCHIVED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
    def test_sweep_artifact_bytes(self, small_sweep, name):
        out, _ = small_sweep
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == SWEEP_DIGESTS[name]

    @pytest.mark.parametrize("tag", ["0.50", "1.00", "2.00"])
    def test_exp_floor_moves_no_raw_fit(self, small_sweep, tag):
        out, _ = small_sweep
        assert_exp_floor_moves_no_fit(read_density(out / f"density_m+{tag}.npy")[0])

    @pytest.mark.parametrize("tag", ["0.50", "1.00", "2.00"])
    def test_cleaning_cutoff_matches_2d_route(self, small_sweep, tag):
        out, _ = small_sweep
        chosen, two_d = marginal_cutoffs(read_density(out / f"density_m+{tag}.npy")[0])
        assert chosen == [two_d]


def test_artifacts_do_not_depend_on_thread_count(tmp_path):
    # a reduction that BLAS splits across threads sums in a different order; on a
    # single-core machine both runs use one thread and this cannot fail
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
        env.update(PYTHONPATH=src, PUREPHASE_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        code = f"import sys; from purephase import cli; sys.exit(cli.main({[*SMALL_SWEEP, '--out', str(out)]!r}))"
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "fits.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_every_stack_has_its_own_key(tmp_path, monkeypatch):
    # one sweep and one calibrate at one seed: the PPF1 header and sidecar of each stack
    # record a (seed, stream) key that no other stack shares
    made = []

    def spy(synthesize):
        def wrapped(*args, **kwargs):
            made.append(synthesize(*args, **kwargs))
            return made[-1]
        return wrapped

    for name in ("synthesize_frames", "synthesize_nearfield", "synthesize_farfield"):
        monkeypatch.setattr(pl, name, spy(getattr(pl, name)))
    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text(f"out_dir={out}\nframes=300\ncalib_frames=2000\nmagnifications=0.5,1.0,2.0\nseed=11\n")
    for verb in ("sweep", "calibrate"):
        assert cli.main([verb, "--config", str(cfg)]) == 0
    keys = []
    for i, stack in enumerate(made):  # calibrate writes no stack: write each one here
        write_framestack(stack, tmp_path / f"stack{i}.ppf")
        det = read_framestack(tmp_path / f"stack{i}.ppf").detector
        keys.append((det.seed, det.stream))
    assert len(made) == 5 and len(set(keys)) == 5
    written = [read_framestack(path).detector for path in sorted(out.glob("frames_*.ppf"))]
    assert [(det.seed, det.stream) for det in written] == keys[:3]


class TestCliErrors:
    def test_malformed_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=3\nframes=abc\n")
        assert cli.main(["predict", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"{cfg}:2:" in err and "'frames'" in err

    def test_malformed_mag_override(self, tmp_path, capsys):
        assert cli.main(["predict", "--out", str(tmp_path), "--mag=0.5,x"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "'magnifications'" in err

    def test_empty_magnifications_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("magnifications=\n")
        assert cli.main(["predict", "--config", str(cfg)]) == 2

    def test_missing_frames_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir={tmp_path}\n")
        assert cli.main(["estimate", "--config", str(cfg)]) == 2

    @staticmethod
    def one_mag_config(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir={tmp_path}\nmagnifications=1.0\n")
        return cfg

    @staticmethod
    def refused_before_output(tmp_path, capsys, argv, line):
        """Run argv with one more config line; expect one error line and an empty output directory."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(f"out_dir={out}\nmagnifications=1.0\nframes=300\n{line}\n")
        out.mkdir()
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert not list(out.iterdir())
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("cut", [
        lambda text: text[: text.rindex(",") + 1],  # mid-row, right after a comma: an empty cell
        lambda text: text[: text.rindex(",")],  # mid-row at a comma: a short row
        lambda text: text[: text.rindex(",") + 1] + "abc\n",  # a non-numeric cell
        lambda text: text[: text.rindex(",") + 1] + "nan\n",  # non-finite cells
        lambda text: text[: text.rindex(",") + 1] + "-inf\n",
    ], ids=["empty-cell", "short-row", "non-numeric", "nan-cell", "inf-cell"])
    def test_malformed_density_row(self, tmp_path, cut):
        # no verb reads a CSV now; the parser of report's CSV export refuses in one line
        path = tmp_path / "density_m+1.00.csv"
        write_density_csv(Density2D(np.arange(48.0).reshape(6, 8) / 7.0, -3.0, 1.5, -4.0, 1.25), path)
        path.write_text(cut(path.read_text()))
        with pytest.raises(DomainError) as refused:
            read_density_csv(path)
        assert len(str(refused.value).splitlines()) == 1
        assert f"{path}, line " in str(refused.value)

    def test_density_cut_at_a_row_boundary(self, tmp_path, capsys):
        cfg = self.one_mag_config(tmp_path)
        for verb in ("simulate", "estimate", "report"):
            assert cli.main([verb, "--config", str(cfg), "--frames", "300"]) == 0
        path = tmp_path / "density_m+1.00.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-100]))
        with pytest.raises(DomainError) as refused:
            read_density_csv(path)
        assert str(refused.value).endswith(f"{path} holds 156x256 values, its metadata says 256x256")

    @staticmethod
    def header_beyond_file(path):
        # a header claiming 1.28e14 bytes of float64 over a 100-byte payload
        with open(path, "wb") as fh:
            header = {"descr": "<f8", "fortran_order": False, "shape": (4_000_000, 4_000_000)}
            np.lib.format.write_array_header_1_0(fh, header)
            fh.write(bytes(100))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda npy, meta: npy.write_bytes(npy.read_bytes()[:300]),
         "density_m+1.00.npy is not a complete .npy grid: mmap length is greater than file size"),
        (lambda npy, meta: np.save(npy, np.array([{"cell": 1.0}]), allow_pickle=True),
         "density_m+1.00.npy is not a complete .npy grid: Array can't be memory-mapped: Python objects in dtype."),
        (lambda npy, meta: TestCliErrors.header_beyond_file(npy),
         "density_m+1.00.npy is not a complete .npy grid: mmap length is greater than file size"),
        (lambda npy, meta: np.save(npy, np.ones((6, 8), dtype=np.int64)),
         "density_m+1.00.npy holds int64 values, a density grid holds float64"),
        (lambda npy, meta: meta.unlink(),
         "density_m+1.00.npy has no metadata file"),
        (lambda npy, meta: meta.write_text(meta.read_text().replace("shape=6x8", "shape=8x6")),
         "density_m+1.00.npy holds 6x8 values, its metadata says 8x6"),
        (lambda npy, meta: meta.write_text(meta.read_text().replace("k_pitch=1.5", "k_pitch=abc")),
         "density_m+1.00.npy: could not convert string to float: 'abc'"),
        (lambda npy, meta: np.save(npy, np.where(np.arange(48.0).reshape(6, 8) == 19.0, np.nan, 1.0)),
         "density_m+1.00.npy holds a non-finite value at row 2, column 3"),
    ], ids=["cut-npy", "pickled", "header-beyond-file", "int-grid", "missing-meta", "shape-mismatch", "bad-axis-value",
            "nan-cell"])
    @pytest.mark.parametrize("verb", ["clean", "fit"])
    def test_malformed_density_grid(self, tmp_path, capsys, verb, corrupt, message):
        cfg = self.one_mag_config(tmp_path)
        npy = tmp_path / "density_m+1.00.npy"
        write_density(Density2D(np.arange(48.0).reshape(6, 8) / 7.0, -3.0, 1.5, -4.0, 1.25), npy, {"config_hash": "0"})
        corrupt(npy, tmp_path / "density_m+1.00.meta")
        assert cli.main([verb, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert message in err

    def test_short_ppf1_file(self, tmp_path, capsys):
        cfg = self.one_mag_config(tmp_path)
        (tmp_path / "frames_m+1.00.ppf").write_bytes(b"PPF1")
        assert cli.main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.endswith("truncated header")

    def test_ppf1_frame_count_beyond_the_file(self, tmp_path, capsys):
        # the header claims 4e9 binary frames of 65535 px: refused before allocating about 33 TB
        cfg = self.one_mag_config(tmp_path)
        path = tmp_path / "frames_m+1.00.ppf"
        path.write_bytes(_HEADER.pack(b"PPF1", 1, 1, 0, 4_000_000_000, 1, 65535, 1.0, 0) + bytes(100))
        assert cli.main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.endswith(f"{path} is truncated or corrupt: it holds 100 payload bytes, its header implies 32768000000000")

    def test_colliding_magnification_tags(self, tmp_path, capsys):
        # 1.004 and 1.0 would both write frames_m+1.00.ppf and the rest of that set
        assert cli.main(["sweep", "--out", str(tmp_path), "--frames", "300", "--mag=1.0,1.004,2.0"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "repeat an artifact tag" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("mag", ["nan", "inf"])
    def test_non_finite_magnification(self, tmp_path, capsys, mag):
        # refused at load, before the finite magnifications ahead of it are swept
        err = self.refused_before_output(tmp_path, capsys, ["sweep"], f"magnifications=1.0,{mag}")
        assert err.endswith(f"magnifications must be nonzero and finite, got (1.0, {float(mag)!r})")

    @pytest.mark.parametrize("verb", ["simulate", "sweep", "predict"])
    @pytest.mark.parametrize("mag, message", [
        ("1e-300", "magnifications must have a nonzero, finite square, got (1e-300, 1.0, 2.0)"),
        ("1e-160", "imaging_mag 1e-160 gives non-finite density coefficients"),
        ("1e200", "magnifications must have a nonzero, finite square, got (1e+200, 1.0, 2.0)"),
    ])
    def test_extreme_magnification(self, tmp_path, capsys, verb, mag, message):
        # once a ZeroDivisionError or OverflowError traceback, or RuntimeWarnings ahead of the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.refused_before_output(tmp_path, capsys, [verb], f"magnifications={mag},1.0,2.0")
        assert err == f"purephase {verb}: error: {message}"

    @pytest.mark.parametrize("verb, message", [
        ("simulate", "mean occupancy 4 counts/pixel/frame exceeds 1; lower mean_pair_rate or enlarge pixels"),
        ("sweep", "mean occupancy 4 counts/pixel/frame exceeds 1; lower mean_pair_rate or enlarge pixels"),
        ("predict", "density sum must be positive to self-normalise"),
    ])
    @pytest.mark.parametrize("mag", ["1e-100", "1e100"])
    def test_far_magnification_named(self, tmp_path, capsys, verb, message, mag):
        # a square that passes the load checks, refused downstream under the magnification's own name
        err = self.refused_before_output(tmp_path, capsys, [verb], f"magnifications={mag},1.0,2.0")
        assert err == f"purephase {verb}: error: magnification {float(mag)!r}: {message}"

    def test_sweep_needs_three_magnifications(self, tmp_path, capsys):
        # refused before any stage runs, not by the magnification fit after every stage wrote
        err = self.refused_before_output(tmp_path, capsys, ["sweep"], "magnifications=1.0,2.0")
        assert err.endswith("sweep fits mag_eff to at least 3 magnifications, got 2")

    @pytest.mark.parametrize("verb, line, message", [
        ("simulate", "mean_pair_rate=nan", "mean_pair_rate must be non-negative and finite, got nan"),
        ("simulate", "dark_count_prob=nan", "dark_count_prob must be a probability in [0, 1], got nan"),
    ])
    def test_non_finite_rates(self, tmp_path, capsys, verb, line, message):
        assert self.refused_before_output(tmp_path, capsys, [verb], line).endswith(message)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_outside_int64(self, tmp_path, capsys, seed):
        argv = ["simulate", "--out", str(tmp_path), "--frames", "300", "--mag=1.0"]
        assert cli.main([*argv, f"--seed={seed}"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.endswith(f"seed must fit in a signed 64-bit integer, got {seed}")
        # the ends of the range, the negative one included, still run
        for edge in (-(2**63), 2**63 - 1):
            assert cli.main([*argv, f"--seed={edge}"]) == 0

    @pytest.mark.parametrize("key, value", [
        ("arm_width_px", 70000),
        ("arm_height_px", 65536),
        ("calib_width_px", 65536),
        ("frames", 2**32),
        ("calib_frames", 2**32),
    ])
    def test_ppf1_header_limits(self, tmp_path, capsys, key, value):
        # PPF1 stores height and width as uint16 and the frame count as uint32:
        # refused when the config loads, not in the writer after synthesis
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(f"out_dir={out}\nmagnifications=1.0\nframes=20\n{key}={value}\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        limit = 2**16 - 1 if key.endswith("_px") else 2**32 - 1
        assert err.endswith(f"{key} must be at most {limit}, the PPF1 header's limit, got {value}")

    def test_frames_beyond_the_seed_stride(self, tmp_path):
        # magnification seeds were once 2**24 apart, which capped frames at 2**24; each stack
        # now has its own Philox stream, so only the PPF1 header's limit bounds the frame
        # count. predict loads the configuration without synthesizing

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir={tmp_path}\nmagnifications=1.0\nframes={2**24 + 1}\n")
        assert cli.main(["predict", "--config", str(cfg)]) == 0
        assert (tmp_path / "predict_tilt.csv").exists()

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a stack beyond memory fails in numpy's allocator (a MemoryError subclass);
        # the stand-in raises its message without allocating anything
        message = "Unable to allocate 8.00 GiB for an array with shape (16777216, 2, 1, 256) and data type uint8"

        def oversized(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(pl, "synthesize_frames", oversized)
        err = self.refused_before_output(tmp_path, capsys, ["simulate"], "")
        assert err == f"purephase simulate: error: {message}"

    def test_malformed_ppf1_sidecar(self, tmp_path, capsys):
        cfg = self.one_mag_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg), "--frames", "300"]) == 0
        meta = tmp_path / "frames_m+1.00.ppf.meta"
        meta.write_text(meta.read_text().replace("mean_pair_rate=4.0", "mean_pair_rate=abc"))
        assert cli.main(["estimate", "--config", str(cfg), "--frames", "300"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.endswith(f"{meta}: could not convert string to float: 'abc'")

    @pytest.mark.parametrize("verb", ["sweep", "simulate", "predict"])
    @pytest.mark.parametrize("pitch", ["-3", "nan", "inf"])
    def test_bad_pixel_pitch(self, tmp_path, capsys, verb, pitch):
        err = self.refused_before_output(tmp_path, capsys, [verb], f"pixel_pitch_um={pitch}")
        assert err.endswith(f"pixel_pitch_um must be 0 (auto) or positive and finite, got {float(pitch)!r}")

    @pytest.mark.parametrize("verb", ["predict", "calibrate"])
    @pytest.mark.parametrize("key, value, message", SOURCE_REFUSALS, ids=SOURCE_IDS)
    def test_source_values_checked_when_config_loads(self, tmp_path, capsys, verb, key, value, message):
        err = self.refused_before_output(tmp_path, capsys, [verb], f"{key}={value}")
        assert err == f"purephase {verb}: error: {message}"

    @pytest.mark.parametrize("verb", ["predict", "calibrate", "simulate"])
    @pytest.mark.parametrize("key, value, message", SETTING_REFUSALS, ids=SETTING_IDS)
    def test_settings_checked_when_config_loads(self, tmp_path, capsys, verb, key, value, message):
        # predict draws no frames, calibrate builds no preparation layout and simulate
        # reads no calibration setting, yet each refuses every key at load
        err = self.refused_before_output(tmp_path, capsys, [verb], f"{key}={value}")
        assert err == f"purephase {verb}: error: {message}"

    @pytest.mark.parametrize("verb", ["sweep", "simulate"])
    @pytest.mark.parametrize("key, message", [
        ("psd_threshold=1.5", "psd_threshold must lie strictly between 0 and 1"),
        ("decomp_level=7", "image (256, 256) too small for decomp_level=7 (maximum 6)"),
        ("arm_width_px=130", "image dimension 130 is not divisible by 2^2; reduce the decomposition level or pad the image"),
        ("wavelet_order=11", "wavelet order must be in 1..10, got 11"),
    ])
    def test_cleaning_keys_checked_when_config_loads(self, tmp_path, capsys, verb, key, message):
        # refused before the first stage writes anything, even by verbs that do not clean
        assert self.refused_before_output(tmp_path, capsys, [verb], key).endswith(message)

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PUREPHASE_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cli._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "1"


def test_runtime_imports_leave_scipy_unloaded():
    # scipy is a test-only dependency: the command line must start without it;
    # and the cli module alone loads no numpy, so PUREPHASE_THREADS caps its threads
    code = (
        "import sys, purephase.cli; print('numpy' in sys.modules); import purephase.pipeline; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "[]"]
