"""Command-line interface.

::

    python -m repro list
    python -m repro run oncology --agents 2000 --iterations 100
    python -m repro run epidemiology --agents 5000 --iterations 200 \\
        --series sir.csv --export out --export-every 20
    python -m repro run cell_sorting --machine A --threads 72 --agents 3000
    python -m repro run oncology --param bdm.toml --param agent_sort_frequency=0
    python -m repro bench fig09 --scale small
    python -m repro verify --fuzz 200
    python -m repro trace oncology --out trace.json
    python -m repro serve --port 7464 --workers 2

Subcommands are rows in one declarative registry (:data:`SUBCOMMANDS`):
each entry names its shared flag groups (``model``, ``seed``, ``param``)
and its own extras, so flags stay consistent across commands instead of
drifting per copy-pasted parser block.  ``--param`` everywhere accepts
either a TOML/JSON parameter file or a repeatable ``key=value`` override
(coerced to the :class:`~repro.core.param.Param` field's type); a file
and overrides compose, overrides winning.

``serve`` starts the multi-tenant session server (see ``docs/serve.md``;
``perf/run.py --workload serve_sessions`` measures it).  ``trace`` runs a
model with tracing enabled and writes a Chrome trace-event JSON (load it
at https://ui.perfetto.dev).  ``verify`` runs the correctness suite
(:mod:`repro.verify`), including the served-session equivalence check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

__all__ = ["main", "build_parser", "SUBCOMMANDS", "build_param"]


# --------------------------------------------------------------------- #
# Declarative subcommand registry
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class Arg:
    """One argparse argument: ``add_argument(*flags, **options)``."""

    flags: tuple
    options: dict


def arg(*flags, **options) -> Arg:
    return Arg(flags, options)


#: Flag groups shared across subcommands — defined once, referenced by
#: name from :data:`SUBCOMMANDS` rows.
SHARED_GROUPS: dict[str, tuple] = {
    "model": (
        arg("model", help="registry model name (see `list`)"),
        arg("--agents", type=int, default=1000,
            help="initial population / population cap"),
    ),
    "seed": (
        arg("--seed", type=int, default=0, help="simulation seed"),
    ),
    "param": (
        arg("--param", action="append", default=None,
            metavar="FILE|key=value",
            help="TOML/JSON parameter file, or a key=value override "
                 "(repeatable; overrides win over the file)"),
    ),
}


@dataclasses.dataclass(frozen=True)
class Subcommand:
    """One CLI subcommand: shared flag groups + own args + runner."""

    name: str
    help: str
    run: object
    shared: tuple = ()
    args: tuple = ()
    #: Optional imperative hook for parsers owned by other modules
    #: (``verify`` keeps its flags next to the verify implementation).
    configure: object = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BioDynaMo PPoPP'23 reproduction: run models, "
                    "regenerate paper figures, serve sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for sc in SUBCOMMANDS:
        if sc.configure is not None:
            p = sc.configure(sub)
        else:
            p = sub.add_parser(sc.name, help=sc.help)
        for group in sc.shared:
            for a in SHARED_GROUPS[group]:
                p.add_argument(*a.flags, **a.options)
        for a in sc.args:
            p.add_argument(*a.flags, **a.options)
        p.set_defaults(_run=sc.run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args._run(args)


# --------------------------------------------------------------------- #
# Shared --param handling
# --------------------------------------------------------------------- #

def _coerce_param_value(field_type: str, raw: str):
    """``key=value`` strings → the Param field's declared type."""
    if field_type == "bool":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if field_type == "int":
        return int(raw)
    if field_type == "float":
        return float(raw)
    if field_type == "str":
        return raw
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def build_param(values, default_factory=None):
    """Resolve the shared ``--param`` flag into a Param (or None).

    ``values`` is the appended list: at most one file path, any number
    of ``key=value`` overrides.  Overrides apply on top of the file (or,
    absent a file, on ``default_factory()``).  Returns None when nothing
    was given, so callers fall back to their own default.
    """
    from repro.core.param import Param

    if not values:
        return None
    files = [v for v in values if "=" not in v]
    pairs = [v for v in values if "=" in v]
    if len(files) > 1:
        raise ValueError(f"at most one --param file, got {files}")
    param = (Param.from_file(files[0]) if files
             else (default_factory() if default_factory else Param()))
    if not pairs:
        return param
    field_types = {f.name: f.type for f in dataclasses.fields(Param)}
    overrides = {}
    for item in pairs:
        key, _, raw = item.partition("=")
        if key not in field_types:
            raise ValueError(f"unknown Param field {key!r} in --param {item!r}")
        overrides[key] = _coerce_param_value(field_types[key], raw)
    return param.with_(**overrides)


# --------------------------------------------------------------------- #
# Runners
# --------------------------------------------------------------------- #

def _cmd_list(args) -> int:
    from repro.simulations import all_simulations

    print("available models:")
    for bench in all_simulations(include_cell_sorting=True):
        c = bench.characteristics
        flags = []
        if c.creates_agents:
            flags.append("creates")
        if c.deletes_agents:
            flags.append("deletes")
        if c.uses_diffusion:
            flags.append("diffusion")
        if c.has_static_regions:
            flags.append("static-regions")
        print(f"  {bench.name:20s} paper: {c.paper_agents_millions}M agents, "
              f"{c.paper_iterations} iterations"
              + (f"  [{', '.join(flags)}]" if flags else ""))
    return 0


def _cmd_validate(args) -> int:
    from repro.parallel.validation import validate_model

    report = validate_model()
    print(report.render())
    return 0 if report.kendall_tau >= 0.8 else 1


def _cmd_run(args) -> int:
    from repro import (
        ExportOperation,
        Machine,
        SYSTEM_A,
        SYSTEM_B,
        SYSTEM_C,
        TimeSeriesOperation,
    )
    from repro.core.timeseries import common_collectors
    from repro.simulations import get_simulation

    bench = get_simulation(args.model)
    param = build_param(args.param, bench.default_param)
    machine = None
    if args.machine:
        spec = {"A": SYSTEM_A, "B": SYSTEM_B, "C": SYSTEM_C}[args.machine]
        machine = Machine(spec, num_threads=args.threads)
    sim = bench.build(args.agents, param=param, machine=machine, seed=args.seed)

    ts = None
    if args.series:
        ts = common_collectors(TimeSeriesOperation(frequency=args.series_every))
        sim.add_operation(ts)
    if args.export:
        sim.add_operation(
            ExportOperation(args.export, fmt=args.export_format,
                            frequency=args.export_every)
        )

    print(f"running {args.model}: {sim.num_agents} initial agents, "
          f"{args.iterations} iterations"
          + (f", virtual {machine.spec.name} x{machine.num_threads} threads"
             if machine else ""))
    t0 = time.perf_counter()
    sim.simulate(args.iterations)
    wall = time.perf_counter() - t0

    print(f"finished: {sim.num_agents} agents, wall {wall:.2f}s "
          f"({wall / args.iterations * 1e3:.2f} ms/iteration), "
          f"simulated memory {sim.memory_bytes() / 1e6:.1f} MB")
    if machine is not None:
        print(f"virtual time {sim.virtual_seconds() * 1e3:.3f} ms "
              f"({machine.memory_bound_fraction:.0%} memory-bound)")
        for op, sec in sorted(sim.runtime_breakdown().items(),
                              key=lambda kv: -kv[1]):
            print(f"  {op:20s} {sec * 1e3:10.3f} ms")
    if ts is not None:
        out = ts.to_csv(args.series)
        print(f"time series ({len(ts)} samples) -> {out}")
    return 0


def _cmd_trace(args) -> int:
    from repro import write_chrome_trace, write_metrics
    from repro.simulations import get_simulation

    bench = get_simulation(args.model)
    param = build_param(args.param, bench.default_param)
    if param is None:
        param = bench.default_param()
    overrides = {"tracing": True}
    if args.backend:
        overrides["execution_backend"] = args.backend
    if args.workers:
        overrides["backend_workers"] = args.workers
    param = param.with_(**overrides)

    with bench.build(args.agents, param=param, seed=args.seed) as sim:
        print(f"tracing {args.model}: {sim.num_agents} initial agents, "
              f"{args.iterations} iterations, "
              f"backend {sim.param.execution_backend}")
        sim.simulate(args.iterations)
        events = sim.obs.tracer.events
        path = write_chrome_trace(args.out, sim.obs.tracer)
        stages = sorted({e.name for e in events if e.cat == "stage"})
        workers = sorted({e.tid for e in events if e.tid > 0})
        print(f"trace: {len(events)} events -> {path}")
        print(f"  stages: {', '.join(stages)}")
        reg = sim.obs.registry
        kb, build = sim.kernels, reg.snapshot().get("kernel:build")
        print(f"  kernels: {kb.name}, {kb.threads} thread"
              f"{'' if kb.threads == 1 else 's'}"
              + (f" ({build})" if build else "")
              + f", {kb.search_calls} grid searches"
              + f", {kb.grid_builds} grid builds"
              + f", {kb.sort_calls} sorts"
              + f", {kb.field_calls} field calls"
              + (f", {kb.stencil_isa} stencil" if kb.stencil_isa else "")
              + f", {kb.search_overflows} search overflows")
        print("  environment: "
              f"{int(reg.counter('scheduler:env_rebuilds').value)} builds, "
              f"{int(reg.counter('scheduler:env_rebuild_skips').value)} "
              "skipped (unchanged), "
              f"{int(reg.counter('scheduler:env_builds_deferred').value)} "
              "deferred (no reader), "
              f"{int(reg.counter('neighbor_cache:overlapped_searches').value)}"
              " overlapped (waited "
              f"{reg.counter('neighbor_cache:search_wait_s').value * 1e3:.2f}"
              " ms, "
              f"{int(reg.counter('neighbor_cache:search_chunks_joined').value)}"
              " chunks joined)")
        if sim.diffusion_grids:
            print(f"  diffusion: {len(sim.diffusion_grids)} grids, "
                  f"{int(reg.counter('diffusion:steps').value)} stencil steps, "
                  f"{int(reg.counter('diffusion:voxels').value)} voxels")
        print("  neighbor cache: "
              f"{int(reg.counter('neighbor_cache:hits').value)} hits, "
              f"{int(reg.counter('neighbor_cache:misses').value)} misses, "
              f"{int(reg.counter('neighbor_cache:refilters').value)} "
              "refilters, "
              f"{int(reg.counter('neighbor_cache:relabels').value)} "
              "relabels")
        print("  agent ops: "
              f"{int(reg.counter('commit:fast_appends').value)} "
              "fast appends, "
              f"{int(reg.counter('commit:staged_rows').value)} staged rows, "
              f"{int(reg.counter('agent_ops:mask_cache_hits').value)} "
              "mask-cache hits, "
              f"{int(reg.counter('agent_ops:whole_population_dispatches').value)}"
              " whole-population dispatches")
        soa = sim.rm.soa
        print(f"  arena: {soa.nbytes} bytes, "
              f"{soa.reallocations} reallocations, "
              f"{soa.adopts} adopts, "
              f"attach {soa.attach_seconds * 1e3:.2f} ms")
        if reg.gauge("events:enabled").value:
            blocked = reg.counters_with_prefix("events:blocked:")
            top = max(blocked, key=blocked.get, default=None)
            print("  events: "
                  f"{int(reg.counter('events:jumps').value)} jumps, "
                  f"{int(reg.counter('events:skipped_steps').value)} "
                  "skipped steps, "
                  f"{int(reg.counter('events:deferred_dispatches').value)} "
                  "deferred dispatches, "
                  f"max jump {int(reg.gauge('events:max_jump').value)}, "
                  f"{int(reg.counter('events:horizon_recomputes').value)} "
                  "horizon recomputes, "
                  f"{int(reg.counter('events:sampler_replays').value)} "
                  "sampler replays, top blocker "
                  + (f"{top} ({int(blocked[top])})" if top else "none"))
        if workers:
            print(f"  worker threads: {len(workers)}")
        if args.metrics:
            mpath = write_metrics(args.metrics, sim)
            print(f"metrics -> {mpath}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    forwarded = [args.experiment, "--scale", args.scale]
    if args.profile is not None:
        forwarded += ["--profile", args.profile]
    return bench_main(forwarded)


def _cmd_verify(args) -> int:
    from repro.verify.cli import run_verify

    return run_verify(args)


def _cmd_serve(args) -> int:
    from repro.serve import serve_forever

    serve_forever(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_resident=args.max_resident,
        spool_dir=args.spool,
    )
    return 0


def _verify_configure(sub):
    from repro.verify.cli import add_verify_parser

    return add_verify_parser(sub)


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #

SUBCOMMANDS: tuple[Subcommand, ...] = (
    Subcommand("list", "list available models", _cmd_list),
    Subcommand(
        "validate",
        "check the fast memory cost model against the exact LRU cache "
        "simulator",
        _cmd_validate,
    ),
    Subcommand(
        "run", "run a benchmark model", _cmd_run,
        shared=("model", "seed", "param"),
        args=(
            arg("--iterations", type=int, default=50),
            arg("--machine", choices=["A", "B", "C"],
                help="attach a virtual machine (Table 2 system)"),
            arg("--threads", type=int, help="virtual thread count"),
            arg("--series", help="write a time-series CSV to this path"),
            arg("--series-every", type=int, default=1),
            arg("--export", help="write simulation snapshots to this dir"),
            arg("--export-format", choices=["vtk", "csv"], default="vtk"),
            arg("--export-every", type=int, default=10),
        ),
    ),
    Subcommand(
        "trace",
        "run a model with tracing enabled and write a Chrome trace "
        "(Perfetto)",
        _cmd_trace,
        shared=("model", "seed", "param"),
        args=(
            arg("--iterations", type=int, default=20),
            arg("--backend", choices=["serial", "process"],
                help="override the execution backend (process-pool runs "
                     "add per-worker phase spans and steal markers)"),
            arg("--workers", type=int,
                help="worker count for --backend process"),
            arg("--out", default="trace.json",
                help="Chrome trace JSON output path (default trace.json)"),
            arg("--metrics",
                help="also write the metrics-registry snapshot as JSON"),
        ),
    ),
    Subcommand(
        "bench",
        "regenerate a paper figure (see `python -m repro.bench -h`)",
        _cmd_bench,
        args=(
            arg("experiment"),
            arg("--scale", default="small", choices=["small", "medium"]),
            arg("--profile", nargs="?", const="profiles", metavar="DIR",
                help="run under cProfile; write top cumulative "
                     "functions to DIR/<experiment>.prof.txt"),
        ),
    ),
    Subcommand(
        "verify",
        "run the correctness suite",
        _cmd_verify,
        configure=_verify_configure,
    ),
    Subcommand(
        "serve",
        "start the multi-tenant session server (ndjson over TCP)",
        _cmd_serve,
        args=(
            arg("--host", default="127.0.0.1"),
            arg("--port", type=int, default=7464,
                help="TCP port (0 picks an ephemeral port)"),
            arg("--workers", type=int, default=2,
                help="warm pool worker processes"),
            arg("--max-resident", type=int, default=8,
                help="sessions kept in memory before LRU eviction "
                     "checkpoints the coldest to disk"),
            arg("--spool", default=None,
                help="eviction checkpoint directory (default: a "
                     "temporary directory removed on exit)"),
        ),
    ),
)


if __name__ == "__main__":
    sys.exit(main())
