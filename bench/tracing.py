"""Spans and counters recorded around calls into purephase's modules.

Nothing inside the program changes: while a traced pass runs, the public
functions are replaced by timing wrappers where their callers bind them (a
module attribute, or a method on a class) and put back afterwards.  Each span
records a name, start, end, parent and pass id in memory; the per-layer
metrics are derived from them once the pass ends.  A span is named after the
module that defines the wrapped function, which is the layer it belongs to.
"""
from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from purephase import cli, denoise, estimation, fitting, gridsim, optics, pipeline, states

# Where each wrapped function is bound by its caller.  The same function bound
# in two modules is wrapped in both, so calls through either name are timed.
TRACED = {
    cli: ("main",),
    pipeline: (
        "cmd_calibrate", "cmd_simulate", "cmd_estimate", "cmd_clean", "cmd_fit", "cmd_sweep",
        "synthesize_frames", "synthesize_nearfield", "synthesize_farfield",
        "write_framestack", "read_framestack",
        "estimate_density", "autocorrelation_profile", "autoconvolution_profile",
        "calibrate_sigma_minus", "calibrate_sigma_plus",
        "write_density_csv", "read_density_csv", "write_density_pgm",
        "clean_density", "fit_gaussian_2d", "fit_magnification_curve",
        "measurement_quadratic", "tilt_angle", "principal_widths",
        "pure_phase_params", "phase_plane_distance", "schmidt_number", "birth_zone_number",
    ),
    denoise: ("wavedec2", "waverec2"),
    estimation: ("fit_gaussian_1d", "autocorrelation_profile", "autoconvolution_profile"),
    fitting: ("measurement_quadratic", "tilt_angle", "tilt_from_form"),
    gridsim: ("auto_grid_spec", "discretize", "fft_fresnel", "grid_pft"),
    gridsim.GridState: ("density", "marginal", "marginal_std", "conditional_slice", "conditional_std",
                        "fedorov_ratio", "conditional_mean_profile"),
    states: ("dg_state", "pure_phase_params", "pure_phase_state", "phase_plane_distance", "fedorov_ratio"),
    optics: ("apply_element", "partial_fourier", "measurement_quadratic"),
}

# Counted, not spanned: the model function fit_gaussian_2d hands to SciPy.
COUNTED = {fitting: ("_gauss2d",)}


def span_name(fn) -> str:
    """Layer (defining module) and qualified name of a wrapped function."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


# 1D FFT passes over the whole array per transformed axis: fft_fresnel takes
# one for the spectral width check and two for the transfer function.
_FFT_PASSES = {"fft_fresnel": 3, "grid_pft": 1}
_TARGET_AXES = {"photon1": 1, "photon2": 1, "both": 2}


def _size(path) -> int:
    return os.path.getsize(path)


def _synth_split(c, a, stack):
    c["frames.split_frames"] += stack.n_frames
    c["frames.pairs"] += int(stack.metadata["n_pairs_total"])
    c["frames.split_pairs"] += int(stack.metadata["n_split_total"])
    c["frames.counts"] += int(stack.arm_k.sum(dtype=int)) + int(stack.arm_p.sum(dtype=int))


def _synth_single(c, a, stack):
    c["frames.single_arm_frames"] += stack.n_frames
    c["frames.counts"] += int(stack.arm_k.sum(dtype=int))


def _estimate(c, a, density):
    n, width = a["stack"].n_frames, a["stack"].detector.width
    c["estimation.density_frames"] += n
    c["estimation.density_flop"] += 4 * n * width * width  # two (W x N)(N x W) products


def _fft(c, a, passes):
    if a.get("z", 1.0) != 0.0:  # fft_fresnel returns its input unchanged at z = 0
        c["gridsim.fft_bytes"] += 2 * a["g"].amplitudes.nbytes * passes * _TARGET_AXES[a["target"]]


# Counters derived from a call's arguments and result, once it has returned.
HOOKS = {
    "synthesize_frames": _synth_split,
    "synthesize_nearfield": _synth_single,
    "synthesize_farfield": _synth_single,
    "write_framestack": lambda c, a, r: c.update({"frames.ppf_bytes": _size(a["path"])}),
    "read_framestack": lambda c, a, r: c.update({"frames.ppf_read_bytes": _size(a["path"])}),
    "estimate_density": _estimate,
    "write_density_csv": lambda c, a, r: c.update({"density.csv_bytes": _size(a["path"])}),
    "read_density_csv": lambda c, a, r: c.update({"density.csv_read_bytes": _size(a["path"])}),
    "discretize": lambda c, a, r: c.update({"gridsim.points": a["spec"].n1 * a["spec"].n2}),
    "fft_fresnel": lambda c, a, r: _fft(c, a, _FFT_PASSES["fft_fresnel"]),
    "grid_pft": lambda c, a, r: _fft(c, a, _FFT_PASSES["grid_pft"]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    pass_id: int


class Tracer:
    """Collects spans and counters for the passes run inside :meth:`tracing`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._pass_id = -1

    def _span_wrapper(self, fn, name, hook):
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts[self._pass_id], bound.arguments, result)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[self._pass_id][name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def tracing(self, pass_id: int):
        """Wrap every traced function for the duration of one pass."""
        self._pass_id = pass_id
        self.counts[pass_id] = Counter()
        saved = []
        try:
            for owner, names in TRACED.items():
                for attr in names:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._span_wrapper(fn, span_name(fn), HOOKS.get(attr)))
            for owner, names in COUNTED.items():
                for attr in names:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._count_wrapper(fn, "fitting.fit2d_model_evals"))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def pass_spans(self, pass_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]


def _group_time(spans: list[Span], indexed, group) -> tuple[float, int]:
    """Total time and call count of the spans named in ``group``.

    A span nested inside another span of the same group is already covered
    by its ancestor and is not added twice.
    """
    total, calls = 0.0, 0
    for _, span in indexed:
        if span.name not in group:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in group:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
            calls += 1
    return total, calls


def _self_time(spans: list[Span], indexed, group) -> float:
    """Time inside spans of ``group`` not covered by any of their child spans."""
    children = Counter()
    for _, span in indexed:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    return sum(s.end - s.start - children[i] for i, s in indexed if s.name in group)


def _per(total: float, n: float, scale: float = 1.0) -> float:
    """scale * total / n, or 0 where the pass did none of that work."""
    return scale * total / n if n else 0.0


GROUPS = {
    "frames.synth": ("frames.synthesize_frames",),
    "frames.single_arm": ("frames.synthesize_nearfield", "frames.synthesize_farfield"),
    "frames.ppf_write": ("frames.write_framestack",),
    "frames.ppf_read": ("frames.read_framestack",),
    "estimation.density": ("estimation.estimate_density",),
    "estimation.profile": ("estimation.autocorrelation_profile", "estimation.autoconvolution_profile"),
    "estimation.calibrate_sigma": ("estimation.calibrate_sigma_minus", "estimation.calibrate_sigma_plus"),
    "density.csv_write": ("density.write_density_csv",),
    "density.csv_read": ("density.read_density_csv",),
    "density.pgm_write": ("density.write_density_pgm",),
    "denoise.clean": ("denoise.clean_density",),
    "wavelets.wavedec2": ("wavelets.wavedec2",),
    "wavelets.waverec2": ("wavelets.waverec2",),
    "fitting.fit2d": ("fitting.fit_gaussian_2d",),
    "fitting.magcurve": ("fitting.fit_magnification_curve",),
    "fitting.fit1d": ("fitting.fit_gaussian_1d",),
    "gridsim.discretize": ("gridsim.discretize",),
    "gridsim.fresnel": ("gridsim.fft_fresnel",),
    "gridsim.pft": ("gridsim.grid_pft",),
    "gridsim.quadrature": tuple(f"gridsim.GridState.{m}" for m in TRACED[gridsim.GridState]),
    # the closed forms of optics and states, wherever they are bound
    "optics": tuple({
        span_name(fn)
        for owner, names in TRACED.items()
        for fn in (getattr(owner, a) for a in names)
        if fn.__module__ in (optics.__name__, states.__name__)
    }),
    "cli": ("cli.main",),
}
STAGES = ("sweep", "simulate", "estimate", "clean", "fit", "calibrate")
GROUPS.update({f"pipeline.{s}": (f"pipeline.cmd_{s}",) for s in STAGES})

# Counts that must repeat exactly across traced passes of one seed.
EXACT_COUNTS = (
    "frames.pairs", "frames.counts", "frames.ppf_bytes", "density.csv_bytes",
    "estimation.profile_calls", "fitting.fit2d_model_evals", "gridsim.points",
)
# Derived from array shapes, not measured.
COMPUTED = ("estimation.density_gflop", "gridsim.fft_bytes")


def pass_metrics(tracer: Tracer, pass_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` end to end."""
    spans = tracer.spans
    indexed = tracer.pass_spans(pass_id)
    c = tracer.counts[pass_id]
    t = {name: _group_time(spans, indexed, group) for name, group in GROUPS.items()}
    sec = {name: v[0] for name, v in t.items()}
    calls = {name: v[1] for name, v in t.items()}
    density_gflop = c["estimation.density_flop"] / 1e9
    roots = sum(s.end - s.start for _, s in indexed if s.parent < 0)
    stage_names = tuple(n for s in STAGES for n in GROUPS[f"pipeline.{s}"])
    return {
        "frames.synth_us_per_frame": _per(sec["frames.synth"], c["frames.split_frames"], 1e6),
        "frames.single_arm_us_per_frame": _per(sec["frames.single_arm"], c["frames.single_arm_frames"], 1e6),
        "frames.frames": c["frames.split_frames"] + c["frames.single_arm_frames"],
        "frames.pairs": c["frames.pairs"],
        "frames.counts": c["frames.counts"],
        "frames.split_ratio": _per(c["frames.split_pairs"], c["frames.pairs"]),
        "frames.ppf_write_s": sec["frames.ppf_write"],
        "frames.ppf_read_s": sec["frames.ppf_read"],
        "frames.ppf_write_mb_per_s": _per(c["frames.ppf_bytes"], sec["frames.ppf_write"], 1e-6),
        "frames.ppf_read_mb_per_s": _per(c["frames.ppf_read_bytes"], sec["frames.ppf_read"], 1e-6),
        "frames.ppf_bytes": c["frames.ppf_bytes"],
        "estimation.density_s": sec["estimation.density"],
        "estimation.density_us_per_frame": _per(sec["estimation.density"], c["estimation.density_frames"], 1e6),
        "estimation.density_gflop": density_gflop,
        "estimation.density_gflop_per_s": _per(density_gflop, sec["estimation.density"]),
        "estimation.profile_s": sec["estimation.profile"],
        "estimation.profile_calls": calls["estimation.profile"],
        "estimation.calibrate_sigma_s": sec["estimation.calibrate_sigma"],
        "density.csv_write_s": sec["density.csv_write"],
        "density.csv_read_s": sec["density.csv_read"],
        "density.csv_bytes": c["density.csv_bytes"],
        "density.pgm_write_s": sec["density.pgm_write"],
        "denoise.clean_ms_per_density": _per(sec["denoise.clean"], calls["denoise.clean"], 1e3),
        "wavelets.wavedec2_s": sec["wavelets.wavedec2"],
        "wavelets.waverec2_s": sec["wavelets.waverec2"],
        "fitting.fit2d_ms_per_density": _per(sec["fitting.fit2d"], calls["fitting.fit2d"], 1e3),
        "fitting.fit2d_model_evals": c["fitting.fit2d_model_evals"],
        "fitting.magcurve_s": sec["fitting.magcurve"],
        "fitting.fit1d_s": sec["fitting.fit1d"],
        "gridsim.discretize_s": sec["gridsim.discretize"],
        "gridsim.fresnel_s": sec["gridsim.fresnel"],
        "gridsim.pft_s": sec["gridsim.pft"],
        "gridsim.quadrature_s": sec["gridsim.quadrature"],
        "gridsim.points": c["gridsim.points"],
        "gridsim.fft_bytes": c["gridsim.fft_bytes"],
        "optics.calls": calls["optics"],
        "optics.s": sec["optics"],
        **{f"pipeline.{s}_s": sec[f"pipeline.{s}"] for s in STAGES},
        "pipeline.self_s": _self_time(spans, indexed, stage_names),
        "cli.self_s": _self_time(spans, indexed, GROUPS["cli"]),
        "trace.uncovered_share": max(wall_s - roots, 0.0) / wall_s,
    }


def combine(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of every metric over the traced passes, and the exact counts that did not repeat."""
    combined = {
        k: statistics.median(p[k] for p in per_pass) if isinstance(v, float) else v  # counts repeat
        for k, v in per_pass[0].items()
    }
    unstable = [k for k in EXACT_COUNTS if len({p[k] for p in per_pass}) > 1]
    return combined, unstable
