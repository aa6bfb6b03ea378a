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
                        choices=["small", "medium", "large"],
                        help="size preset (`large`: `neighbor_cache` only)")
    wall_opts = parser.add_argument_group(
        "wall-clock", "options for the `scaling`, `neighbor_cache`, "
                      "`event_scheduling` and `kernels` experiments")
    wall_opts.add_argument("--agents", type=int, default=None)
    wall_opts.add_argument("--iterations", type=int, default=None)
    wall_opts.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="process-pool worker counts for `scaling` "
             "(default: 1 2 cpu_count)")
    wall_opts.add_argument(
        "--backend", default=None, choices=["process", "distributed"],
        help="`scaling` execution-backend leg: the default serial/"
             "process/auto comparison, or `distributed` (serial vs the "
             "spatially-sharded halo-exchange backend, merged into the "
             "artifact under the 'distributed' key)")
    wall_opts.add_argument(
        "--shards", type=int, nargs="+", default=None,
        help="shard counts for `scaling --backend distributed` "
             "(default: 2)")
    wall_opts.add_argument(
        "--backends", nargs="+", default=None, metavar="NAME",
        help="kernel backends for `kernels` (e.g. numpy c; default: "
             "numpy plus every available compiled backend)")
    wall_opts.add_argument(
        "--out", default=None,
        help="artifact path (defaults to BENCH_<experiment>.json)")
    serve_opts = parser.add_argument_group(
        "serve", "options for the `serve` experiment")
    serve_opts.add_argument(
        "--tenants", type=int, default=None,
        help="concurrent socket tenants for `serve` (default: scale preset)")
    serve_opts.add_argument(
        "--steps", type=int, default=None,
        help="steps per tenant for `serve` (default: scale preset)")
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
        if args.scale not in getattr(mod, "SCALES", (args.scale,)):
            parser.error(f"`{name}` has no `{args.scale}` scale "
                         f"(available: {', '.join(mod.SCALES)})")
        kwargs = {}
        if name == "scaling":
            kwargs = dict(agents=args.agents, iterations=args.iterations,
                          workers=args.workers, backend=args.backend,
                          shards=args.shards,
                          out=args.out or "BENCH_scaling.json")
        elif name == "neighbor_cache":
            kwargs = dict(agents=args.agents, iterations=args.iterations,
                          out=args.out or "BENCH_neighbor_cache.json")
        elif name == "event_scheduling":
            kwargs = dict(agents=args.agents, iterations=args.iterations,
                          out=args.out or "BENCH_events.json")
        elif name == "kernels":
            kwargs = dict(agents=args.agents, iterations=args.iterations,
                          backends=args.backends,
                          out=args.out or "BENCH_kernels.json")
        elif name == "serve":
            kwargs = dict(tenants=args.tenants, steps=args.steps,
                          agents=args.agents,
                          out=args.out or "BENCH_serve.json")
        t0 = time.perf_counter()
        if args.profile is not None:
            report = _profiled_run(name, mod, args, kwargs)
        else:
            report = mod.run(scale=args.scale, **kwargs)
        elapsed = time.perf_counter() - t0
        print(report.render())
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


#: Functions kept in the ``--profile`` dump (sorted by cumulative time).
PROFILE_TOP_N = 40


def _profiled_run(name, mod, args, kwargs):
    """Run one experiment under cProfile; dump top functions to a file."""
    import cProfile
    import io
    import pstats
    from pathlib import Path

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = mod.run(scale=args.scale, **kwargs)
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
