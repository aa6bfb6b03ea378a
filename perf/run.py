"""The repo benchmark: ``python3 perf/run.py``.

Two ways to call it:

``--workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this process.  Prints every metric by name with its
    unit and, as the last line of standard output, the JSON object
    BENCHMARK.json's contract asks for.  ``--trace 0`` gives the
    end-to-end metrics, ``--trace 1`` the per-layer metrics.

no ``--workload`` (or several, or ``--repeat`` / ``--traced``)
    Every named workload, each run in a **fresh subprocess** through the
    form above, ``--repeat`` times with seeds ``seed, seed+1, ...``;
    writes one JSON record (``--out``) that ``perf/compare.py`` reads.

See perf/README.md for the workloads, the metrics and how layers map to
end-to-end numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import as ``perf.<module>`` from the checkout root, never from perf/
# itself: a top-level module called ``trace`` would shadow the stdlib's.
if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "perf":
    del sys.path[0]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

SPEC_PATH = ROOT / "BENCHMARK.json"
CHECKSUMS_PATH = ROOT / "perf" / "checksums.json"
#: Scratch space (serve spool, checkpoint timing); inside the checkout.
WORK_ROOT = ROOT / ".perf_work"

#: Measured seconds of one episode on the 2-vCPU reference box; the sizes in
#: ``workloads.SCALES["full"]`` are chosen to land here.
NOMINAL_EPISODE_S = 2.4
MIN_EPISODES = 2


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def episode_count(seconds: float) -> int:
    """Episodes whose measured regions add up to about ``seconds``.

    Fixed up front rather than "until the time is up": every run then
    measures the same ops, however fast the box or the code under test is.
    """
    return max(MIN_EPISODES, round(seconds / NOMINAL_EPISODE_S))


def pin_allocator() -> bool:
    """Make freed memory stay in the process: no mmap for large blocks, no
    heap trimming, no huge-page advice from numpy.  Returns whether the
    glibc knobs were found.

    The engine allocates and frees 100 MB-scale temporaries every tick.
    Under the allocator's defaults each one is a fresh mapping whose pages
    must be faulted in again, and on the virtual machines this benchmark
    runs on the cost of those faults swings by 2x and more from one
    minute to the next (identical episodes took 2.7 to 8.6 s).  Recycling
    the heap removes that term — runs repeat within a few percent — and
    also makes everything ~20 % faster than under the defaults, so these
    numbers compare only with numbers taken the same way.  Must run
    before numpy is imported and before worker processes fork.
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_top_pad, m_mmap_max = -1, -2, -4  # <malloc.h>
    return bool(mallopt(m_mmap_max, 0)
                and mallopt(m_trim_threshold, 2**31 - 1)
                and mallopt(m_top_pad, 256 << 20))


def _child_pids() -> list:
    """Live direct children of this process (Linux /proc; [] elsewhere)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, ppid = fh.read().rpartition(")")[2].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def adopt_orphans() -> bool:
    """Make this process the reaper of every descendant (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent has exited —
    a pool worker's own resource tracker — becomes a child of this
    process instead of init's, so ``reap_children`` can wait for it."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    pr_set_child_subreaper = 36  # <linux/prctl.h>
    return prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0


def _collect_exited() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def reap_children(grace_s: float = 5.0) -> list:
    """Leave no process behind.  Returns the pids that had to be killed
    (there should be none).

    The engine's shared-memory arenas start multiprocessing's resource
    tracker, a helper process that exits only once it sees the other end
    of a pipe close — in the host at interpreter exit, in a pool worker
    when the worker is gone — so it outlives its owner by a moment.  The
    host's tracker is stopped and waited for here; the workers' trackers
    (adopted, see ``adopt_orphans``) get ``grace_s`` to end on their own;
    anything still alive after that is killed and reported.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass

    def wait_until_childless(seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while _child_pids() and time.monotonic() < deadline:
            _collect_exited()
            time.sleep(0.005)

    wait_until_childless(grace_s)
    stray = _child_pids()
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    wait_until_childless(grace_s)
    _collect_exited()
    return stray


# --------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------- #

def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (worker pools must be shut down first), in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end_metrics(episodes: list) -> dict:
    """Throughput and the latency percentiles are taken per episode; the
    median episode is reported, as is the median set-up."""
    import numpy as np

    timed = [e for e in episodes if e.latencies_ms]
    if not timed:
        return {}
    median = statistics.median
    return {
        "agent_steps_per_s": median(e.agent_steps_per_s for e in timed),
        "op_p50_ms": median(
            float(np.percentile(e.latencies_ms, 50)) for e in timed),
        "op_p95_ms": median(
            float(np.percentile(e.latencies_ms, 95)) for e in timed),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(e.setup_s for e in episodes),
    }


def check_outputs(name: str, seed: int, scale: str, run, shm_before: set,
                  shm_after: set) -> list:
    """Every correctness failure of a finished run, human readable."""
    import numpy

    errors = [err for e in run.episodes for err in e.errors] + run.errors
    checksums = [e.checksums for e in run.episodes if not e.failed]
    if any(c != checksums[0] for c in checksums[1:]):
        errors.append(f"episodes of one seed ended at different states: "
                      f"{checksums}")
    leaked = sorted(shm_after - shm_before)
    if leaked:
        errors.append(f"/dev/shm entries survived the run: {leaked}")
    if checksums and CHECKSUMS_PATH.exists():
        with open(CHECKSUMS_PATH) as fh:
            stored = json.load(fh)
        expected = stored.get("checksums", {}).get(name)
        if (seed == stored.get("seed") and scale == stored.get("scale")
                and numpy.__version__ == stored.get("numpy")
                and expected is not None and checksums[0] != expected):
            errors.append(
                f"seed {seed} ended at {checksums[0]}, BENCHMARK baseline "
                f"(perf/checksums.json, numpy {stored['numpy']}) has "
                f"{expected}")
    return errors


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str) -> dict:
    """Measure one workload; returns its full record."""
    from perf import workloads

    workload = workloads.WORKLOADS[name]
    size = workloads.SCALES[scale][name]
    count = episode_count(seconds)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    # Anything the engine spools "to a temp dir" stays in the checkout too.
    tempfile.tempdir = str(workdir)
    shm_before = workloads.shm_entries()
    started = time.perf_counter()
    try:
        if traced:
            run = workload.traced(seed, size, count, workdir)
        else:
            run = workloads.run_untraced(workload, seed, size, count, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    errors = check_outputs(name, seed, scale, run, shm_before,
                           workloads.shm_entries())
    episodes = run.episodes
    metrics = run.per_layer if traced else end_to_end_metrics(episodes)
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "size": size,
        "traced": traced,
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": 1.0 if errors else failed / max(attempted, 1),
        "errors": errors,
        "metrics": metrics or {},
        "episodes": len(episodes),
        "ops_timed": sum(len(e.latencies_ms) for e in episodes),
        "measured_s": sum(e.wall_s for e in episodes),
        "run_wall_s": time.perf_counter() - started,
        "setup_samples_s": [e.setup_s for e in episodes],
        "episode_wall_s": [e.wall_s for e in episodes],
        "checksums": next((e.checksums for e in episodes if e.checksums), []),
        "kernel_backend": next(
            (e.kernel_backend for e in episodes if e.kernel_backend), ""),
        "trace_missing": run.trace_missing,
        "spans": run.spans,
    }


def contract_line(record: dict, spec: dict) -> str:
    """The one JSON object the benchmark contract wants on the last line."""
    kind = "per_layer" if record["traced"] else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        metrics[metric["name"]] = {
            "value": record["metrics"].get(metric["name"]),
            "unit": metric["unit"],
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    })


def print_metrics(record: dict, spec: dict) -> None:
    kind = "per_layer" if record["traced"] else "end_to_end"
    print(f"# {record['workload']} seed={record['seed']} "
          f"scale={record['scale']} {kind}: {record['episodes']} episodes, "
          f"{record['ops_timed']} ops timed over {record['measured_s']:.2f} s")
    for metric in spec[kind]:
        value = record["metrics"].get(metric["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{metric['name']:<32} {shown:>14} {metric['unit']}")
    for name in record["trace_missing"]:
        print(f"warning: wrap target {name!r} not found; its metrics are "
              "null", file=sys.stderr)
    for error in record["errors"]:
        print(f"FAILED CHECK: {error}", file=sys.stderr)


def main_single(args, spec: dict) -> int:
    pinned = pin_allocator()
    try:
        import repro  # noqa: F401 - fail before measuring, not mid-run
        from repro.kernels import KernelBackendWarning
    except ImportError as exc:
        print(f"perf/run.py: the engine under src/ is not importable "
              f"({exc})", file=sys.stderr)
        return 2
    # Expected on a box without numba/cupy; the resolved backend is part
    # of the record instead.
    warnings.simplefilter("ignore", KernelBackendWarning)
    record = run_workload(args.workload[0], args.seed, args.seconds,
                          bool(args.trace), args.scale)
    stray = reap_children()
    if stray:
        record["errors"].append(
            f"{len(stray)} child process(es) outlived the workload")
        record["correct"], record["failed_share"] = False, 1.0
    record["allocator_pinned"] = pinned
    spans = record.pop("spans")
    if args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print_metrics(record, spec)
    print(contract_line(record, spec))
    return 0


# --------------------------------------------------------------------- #
# All workloads, one subprocess each
# --------------------------------------------------------------------- #

def fingerprint() -> dict:
    """Where the numbers were taken; runs on different fingerprints (above
    all a different ``kernel_backend``) are not comparable."""
    import numpy
    import scipy

    from repro.kernels import available_backends

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "available_backends": available_backends(),
        "load1_at_start": load1,
        "noisy": load1 > 0.5 * nproc,
    }


def _spawn(name, seed, seconds, traced, scale, out_path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--scale", scale, "--out", str(out_path),
    ]
    # Its own process group: a run that hangs is killed with its workers.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stderr = proc.communicate(timeout=900)[1]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stderr = proc.communicate()[1]
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not out_path.exists():
        return {"workload": name, "seed": seed, "traced": traced,
                "correct": False, "attempted": 1, "failed": 1,
                "failed_share": 1.0, "metrics": {},
                "errors": [f"exit code {proc.returncode}"]}
    with open(out_path) as fh:
        return json.load(fh)


def summarize(runs: list, spec: dict) -> dict:
    """Per workload: every run's value and the median, per metric."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    out: dict = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {
            "metrics": {}, "failed_share": 0.0, "correct": True,
            "seeds": [], "checksums": {}, "kernel_backend": "",
            "trace_missing": []})
        entry["correct"] = entry["correct"] and run["correct"]
        entry["failed_share"] = max(entry["failed_share"],
                                    run["failed_share"])
        entry["kernel_backend"] = run.get("kernel_backend", "")
        entry["trace_missing"] = sorted(
            set(entry["trace_missing"]) | set(run.get("trace_missing", [])))
        if not run["traced"]:
            entry["seeds"].append(run["seed"])
            entry["checksums"][str(run["seed"])] = run.get("checksums", [])
        for name, value in run["metrics"].items():
            metric = entry["metrics"].setdefault(
                name, {"unit": units.get(name, ""), "values": []})
            metric["values"].append(value)
    for entry in out.values():
        for metric in entry["metrics"].values():
            values = [v for v in metric["values"] if v is not None]
            metric["median"] = statistics.median(values) if values else None
    return out


def main_all(args, spec: dict) -> int:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"fingerprint": fingerprint(), "seed": args.seed,
              "repeat": args.repeat, "seconds": args.seconds,
              "scale": args.scale, "runs": []}
    if record["fingerprint"]["noisy"]:
        print("warning: load average above nproc/2 at start; this record "
              "is flagged noisy", file=sys.stderr)
    passes = [False, True] if args.traced else [False]
    if args.update_checksums:
        # The runs below must not be held against the checksums they are
        # about to replace.
        CHECKSUMS_PATH.unlink(missing_ok=True)
    WORK_ROOT.mkdir(exist_ok=True)
    records = Path(tempfile.mkdtemp(prefix="records-", dir=WORK_ROOT))
    out_path = records / "run.json"
    try:
        # Workloads interleave inside each repeat, so slow drift of the box
        # spreads over all of them instead of landing on the last one.
        for repeat in range(args.repeat):
            for traced in passes:
                for name in names:
                    out_path.unlink(missing_ok=True)
                    run = _spawn(name, args.seed + repeat, args.seconds,
                                 traced, args.scale, out_path)
                    record["runs"].append(run)
                    status = "ok" if run["correct"] else "FAILED"
                    print(f"[{repeat + 1}/{args.repeat}] {name} "
                          f"trace={int(traced)} seed={args.seed + repeat} "
                          f"{status} ({run.get('run_wall_s', 0):.1f} s)",
                          file=sys.stderr)
    finally:
        shutil.rmtree(records, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    record["fingerprint"]["allocator_pinned"] = all(
        run.get("allocator_pinned", False) for run in record["runs"])
    record["workloads"] = summarize(record["runs"], spec)
    for name, entry in record["workloads"].items():
        print(f"# {name} (failed_share {entry['failed_share']:g}, "
              f"{len(entry['seeds'])} run(s))")
        for metric, data in entry["metrics"].items():
            shown = ("null" if data["median"] is None
                     else f"{data['median']:.6g}")
            print(f"{metric:<32} {shown:>14} {data['unit']}")
    ok = all(entry["correct"] for entry in record["workloads"].values())
    if args.update_checksums and ok:
        import numpy

        with open(CHECKSUMS_PATH, "w") as fh:
            json.dump({
                "numpy": numpy.__version__, "seed": args.seed,
                "scale": args.scale,
                "checksums": {
                    name: entry["checksums"][str(args.seed)]
                    for name, entry in record["workloads"].items()},
            }, fh, indent=1)
            fh.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run: sets the number of "
                             "episodes (seconds / 2.4)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single workload: 1 = per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the JSON record here")
    parser.add_argument("--spans-out",
                        help="single traced workload: dump the spans here")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add a traced pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: runs per workload, seeds "
                             "seed..seed+repeat-1")
    parser.add_argument("--update-checksums", action="store_true",
                        help="all workloads: store this run's final "
                             "checksums in perf/checksums.json")
    args = parser.parse_args(argv)
    single = (len(args.workload or ()) == 1 and args.repeat == 1
              and not args.traced and not args.update_checksums)
    adopt_orphans()
    try:
        if single:
            return main_single(args, spec)
        return main_all(args, spec)
    finally:
        reap_children()  # on every path out, a failed run's too


if __name__ == "__main__":
    sys.exit(main())
