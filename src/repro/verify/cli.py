"""``python -m repro verify`` — the correctness gate.

Runs, in order and as selected by flags:

- **invariants**: two registry models stepped with
  ``check_invariants_frequency=1`` (the scheduler-integrated self-check);
- **oracle**: the differential environment cross-check over randomized
  adversarial configurations;
- **fuzz**: randomized add/remove/sort/query interleavings with shrinking;
- **replay**: the determinism harness (same seed → byte-identical state,
  different seed → different trajectory), then the equivalence legs that
  share its model: ``tracing`` (``Param(tracing=True)`` is inert),
  ``neighbor_cache`` (Verlet-skin CSR reuse vs rebuilding every step, on
  the serial and the process backend, and on the C kernels with proof
  that the superset was relabelled through two sorts) and ``process``
  (the shared-memory worker pool vs serial under population-churning
  models, with proof that pool phases ran and commits fast-appended into
  the shm arena);
- **kernels**: the ``kernels`` leg (the NumPy kernels under the process
  pool and ``auto``, and the C kernels in the parent and in pool
  workers, all bitwise, with proof that kernels ran in both places and
  that the grid build, search and sort order ran in C);
- **events**: deferred dispatch and horizon jumps vs tick-by-tick
  stepping, on both backends, with proof that a multi-step jump happened
  and a dispatch was deferred;
- **serve**: served sessions — including a forced checkpoint
  evict/resume cycle — vs direct runs.

Every equivalence section is one :func:`repro.verify.replay.equivalence`
call on a row of :data:`~repro.verify.replay.LEGS`; each prints its
per-cell anti-vacuity evidence and fails when it is missing.

With no flags everything runs at smoke-test sizes.  ``--fuzz N``,
``--oracle``, ``--replay MODEL``, ``--kernels``, ``--events`` and
``--serve`` select individual sections (and scale them), which is what
CI uses::

    python -m repro verify --fuzz 200
    python -m repro verify --oracle --configs 100
    python -m repro verify --replay oncology --steps 10
    python -m repro verify --kernels
    python -m repro verify --events
    python -m repro verify --serve

Exit status is 0 only when every selected check passes.
"""

from __future__ import annotations

import argparse
import time

__all__ = ["add_verify_parser", "run_verify"]

#: Registry models the invariant smoke check steps (one grows+moves, one
#: also deletes agents — together they hit every structural path).
INVARIANT_SMOKE_MODELS = ("cell_clustering", "oncology")


def _positive_int(text: str) -> int:
    # A zero/negative budget would render "0 cases — all pass": a vacuous
    # green that defeats the point of a correctness gate.  Reject it.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def add_verify_parser(sub):
    """Register the ``verify`` subcommand on an argparse subparsers obj."""
    p = sub.add_parser(
        "verify",
        help="run the correctness suite: differential oracle, engine "
             "invariants, determinism replay, structure fuzzing",
    )
    p.add_argument("--fuzz", type=_positive_int, metavar="N", default=None,
                   help="fuzz N randomized op interleavings (selects the "
                        "fuzz section)")
    p.add_argument("--oracle", action="store_true",
                   help="run the differential environment oracle")
    p.add_argument("--replay", metavar="SIM", default=None,
                   help="replay a registry model twice and diff state "
                        "checksums per step")
    p.add_argument("--kernels", action="store_true",
                   help="run the kernel-backend equivalence section "
                        "(numpy vs process / auto / c, bitwise)")
    p.add_argument("--serve", action="store_true",
                   help="run the session-server equivalence section "
                        "(served sessions, incl. a forced evict/resume "
                        "cycle, bitwise vs direct runs)")
    p.add_argument("--events", action="store_true",
                   help="run the event-scheduling equivalence section "
                        "(deferred dispatch + horizon jumps, bitwise vs "
                        "tick-by-tick stepping, anti-vacuous jump proof)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=_positive_int, default=50,
                   help="oracle configurations (default 50)")
    p.add_argument("--steps", type=_positive_int, default=10,
                   help="replay/invariant iterations (default 10)")
    p.add_argument("--agents", type=_positive_int, default=300,
                   help="replay/invariant population (default 300)")
    return p


def _section(title: str):
    print(f"== {title} ==")


def _run_invariants(args) -> bool:
    from repro.simulations import get_simulation

    ok = True
    for name in INVARIANT_SMOKE_MODELS:
        bench = get_simulation(name)
        param = bench.default_param().with_(check_invariants_frequency=1)
        sim = bench.build(args.agents, param=param, seed=args.seed + 1)
        t0 = time.perf_counter()
        try:
            sim.simulate(args.steps)
        except Exception as exc:
            ok = False
            print(f"invariants {name}: FAIL after "
                  f"{sim.scheduler.iteration} iterations — {exc}")
            continue
        dt = time.perf_counter() - t0
        print(f"invariants {name}: {args.steps} iterations, checks every "
              f"step, {sim.num_agents} agents — OK ({dt:.1f}s)")
    return ok


def _run_oracle(args) -> bool:
    from repro.verify.oracle import run_oracle

    report = run_oracle(num_configs=args.configs, seed=args.seed)
    print(report.render())
    return report.ok


def _run_fuzz(args, num_cases: int) -> bool:
    from repro.verify.fuzz import run_fuzz

    t0 = time.perf_counter()
    report = run_fuzz(num_cases=num_cases, seed=args.seed)
    dt = time.perf_counter() - t0
    print(report.render() + f" ({dt:.1f}s)")
    return report.ok


def _run_leg(leg, *args, **kwargs) -> bool:
    """Run one equivalence leg, print its report, return its verdict."""
    from repro.verify.replay import equivalence

    t0 = time.perf_counter()
    report = equivalence(leg, *args, **kwargs)
    dt = time.perf_counter() - t0
    print(report.render() + f" ({dt:.1f}s)")
    return report.ok


def _run_replay(args, model: str) -> bool:
    from repro.verify.replay import LEGS, replay_model

    seed = 4357 + args.seed
    report = replay_model(model, num_agents=args.agents, steps=args.steps,
                          seed=seed)
    print(report.render())
    sizes = dict(num_agents=args.agents, steps=args.steps)
    ok = report.ok
    ok &= _run_leg("tracing", (model,), (seed,), **sizes)
    # At least the leg's own steps: its relabel proof needs two sorts.
    ok &= _run_leg("neighbor_cache", (model,), num_agents=args.agents,
                   steps=max(args.steps, LEGS["neighbor_cache"].steps))
    ok &= _run_leg("process")
    return ok


def run_verify(args) -> int:
    """Execute the selected (or, with no flags, all) verification sections."""
    selected = ((args.fuzz is not None) or args.oracle
                or (args.replay is not None) or args.kernels
                or args.serve or args.events)
    ok = True
    if not selected or args.oracle:
        _section("differential oracle")
        ok &= _run_oracle(args)
    if not selected:
        _section("engine invariants")
        ok &= _run_invariants(args)
    if not selected or args.fuzz is not None:
        _section("structure fuzzing")
        ok &= _run_fuzz(args, args.fuzz if args.fuzz is not None else 50)
    if not selected or args.replay is not None:
        _section("determinism replay")
        ok &= _run_replay(args, args.replay or "cell_clustering")
    if not selected or args.kernels:
        _section("kernel equivalence")
        ok &= _run_leg("kernels")
    if not selected or args.events:
        _section("event-scheduling equivalence")
        ok &= _run_leg("events")
    if not selected or args.serve:
        from repro.verify.replay import LEGS

        _section("served-session equivalence")
        # At least the leg's own steps: it evicts after the tick-10 sort.
        ok &= _run_leg("serve",
                       steps=max(args.steps, LEGS["serve"].steps))
    print("verify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1
