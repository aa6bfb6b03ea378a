"""Command-line entry point: ``python -m repro.bench <experiment> [--scale s]``.

``python -m repro.bench all`` runs every experiment in paper order.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the BioDynaMo paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--scale", default="small",
                        choices=["small", "medium"], help="size preset")
    parser.add_argument(
        "--profile", nargs="?", const="profiles", default=None,
        metavar="DIR",
        help="run each experiment under cProfile and write the top "
             "cumulative-time functions to DIR/<experiment>.prof.txt "
             "(default DIR: profiles)")
    args = parser.parse_args(argv)

    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        mod = ALL_EXPERIMENTS[name]
        t0 = time.perf_counter()
        if args.profile is not None:
            report = _profiled_run(name, mod, args)
        else:
            report = mod.run(scale=args.scale)
        elapsed = time.perf_counter() - t0
        print(report.render())
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


#: Functions kept in the ``--profile`` dump (sorted by cumulative time).
PROFILE_TOP_N = 40


def _profiled_run(name, mod, args):
    """Run one experiment under cProfile; dump top functions to a file."""
    import cProfile
    import io
    import pstats
    from pathlib import Path

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = mod.run(scale=args.scale)
    finally:
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    out_dir = Path(args.profile)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.prof.txt"
    path.write_text(buf.getvalue())
    print(f"[profile: top {PROFILE_TOP_N} cumulative functions -> {path}]")
    return report


if __name__ == "__main__":
    sys.exit(main())
