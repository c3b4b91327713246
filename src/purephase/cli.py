"""Command line front end: calibrate, predict, simulate, estimate, clean,
fit, sweep, report.

Every command is deterministic for a fixed (config, seed).  The stage verbs
compose through files in the output directory; sweep chains the same stages
in memory.  PUREPHASE_THREADS caps the BLAS/FFT thread pools; it must be
honoured before numpy loads, which is why the heavy imports happen in main().
"""
from __future__ import annotations

import argparse
import os
import sys

_COMMANDS = ("calibrate", "predict", "simulate", "estimate", "clean", "fit", "sweep", "report")


def _apply_thread_cap() -> None:
    cap = os.environ.get("PUREPHASE_THREADS")
    if cap:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purephase",
        description="Simulate, prepare and certify pure phase entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("--config", metavar="PATH", help="key=value configuration file")
        cmd.add_argument("--seed", type=int, help="override the RNG seed")
        cmd.add_argument("--out", metavar="DIR", help="override the output directory")
        cmd.add_argument("--frames", type=int, help="override the frame count")
        cmd.add_argument(
            "--mag",
            metavar="LIST",
            help="comma-separated magnifications (use --mag=-0.5,... for negative values)",
        )
        cmd.add_argument("--mode", choices=("1d", "2d"), help="detector mode")
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)

    from . import pipeline
    from .config import config_from_file
    from .states import DomainError

    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "frames": args.frames,
        "magnifications": args.mag,
        "mode": args.mode,
    }
    try:
        cfg = config_from_file(args.config, overrides)
        handler = getattr(pipeline, f"cmd_{args.command}")
        result = handler(cfg)
    except (DomainError, OSError, MemoryError) as exc:
        print(f"purephase {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(f"purephase {args.command}: done (config {cfg.config_hash()}, out {cfg.out_dir})")
    for key, value in result.items():
        if isinstance(value, (int, float, str)):
            print(f"  {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
