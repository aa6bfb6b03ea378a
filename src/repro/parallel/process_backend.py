"""Process-pool execution backend: real multicore parallelism (§4.1).

A pool of persistent daemon workers maps the simulation's shared-memory
arena (:mod:`repro.parallel.shm`) once and then executes *phases*: the
host partitions the agent range into domain-major chunks, loads them into
the two-level stealing queues (:mod:`repro.parallel.steal`), broadcasts a
tiny phase message (arena layout + array shapes + kernel name + pickled
scalar args — never agent data) down each worker's pipe
(:mod:`repro.parallel.workers`), and waits for one acknowledgment per
worker.  Workers drain their own queue front-to-back, then steal — same
NUMA domain first, then cross-domain (paper Fig. 2 steps 4–5).

Determinism.  The mechanics stage runs as two globally barriered phases —
``mech_force`` (all reads of ``position`` happen here) then
``mech_displace`` (all writes) — preserving the serial read-all-then-
write-all semantics.  Within ``mech_force``, each chunk accumulates its
rows' CSR pairs with a local ``np.bincount``; pairs of one row are summed
in the same sequential order as the serial full-array bincount, and rows
are written to disjoint slices, so the merged net force is *bitwise
identical* to :meth:`InteractionForce.compute` no matter which worker ran
which chunk or in what order.  The per-chunk pair counts are summed on
the host in fixed chunk order.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

from repro.core.force import ForceResult
from repro.kernels.dispatch import worker_kernels
from repro.parallel.backend import ExecutionBackend
from repro.parallel.shm import COLUMN_PREFIX, SOA_BLOCK, WorkerArena
from repro.parallel.steal import DEFAULT_CAPACITY, StealQueues
from repro.parallel.workers import CONTEXT, WorkerLost, WorkerTeam

__all__ = ["ProcessBackend", "BackendError"]


class BackendError(RuntimeError):
    """A worker failed, died or hung; the pool stays dead after it."""


# --------------------------------------------------------------------- #
# Kernels — run inside workers, over shared-memory views.
# --------------------------------------------------------------------- #

def k_force(views, cid, lo, hi, args):
    """Net force + nonzero-force counts for rows [lo, hi).

    Dispatches to the worker's kernel backend (``args["_kb"]``, resolved
    by :func:`worker_main` from the parent's ``kernel_backend``): shm
    column views feed the kernel zero-copy and rows land in disjoint
    ``net``/``nz`` slices, so the NumPy backend remains bitwise identical
    to the serial full-array call (see the module docstring).
    """
    net = views["mech:net_force"]
    nz = views["mech:nonzero"]
    pairs = views["mech:chunk_pairs"]
    active = None
    if args["detect"]:
        # Negate once per phase (args is per-phase, per-worker).
        active = args.get("_active")
        if active is None:
            active = args["_active"] = ~views[COLUMN_PREFIX + "static"]
    pairs[cid] = args["_kb"].force_rows(
        args["force"],
        views[COLUMN_PREFIX + "position"],
        views[COLUMN_PREFIX + "diameter"],
        views["csr:indptr"],
        views["csr:indices"],
        active, net, nz, lo, hi,
    )


def k_displace(views, cid, lo, hi, args):
    """Clamped Euler displacement for rows [lo, hi) (row-elementwise)."""
    args["_kb"].displace_rows(
        views[COLUMN_PREFIX + "position"],
        views[COLUMN_PREFIX + "moved"],
        views["mech:net_force"],
        args["dt"],
        args["max_displacement"],
        lo, hi,
    )


def k_agent_op(views, cid, lo, hi, args):
    """Run a vectorizable AgentOperation's kernel on rows [lo, hi)."""
    columns = {
        name[len(COLUMN_PREFIX):]: arr
        for name, arr in views.items()
        if name.startswith(COLUMN_PREFIX)
    }
    args["op"].kernel(columns, lo, hi)


KERNELS = {
    "mech_force": k_force,
    "mech_displace": k_displace,
    "agent_op": k_agent_op,
}


def worker_main(worker_id, conn, queues):
    """Worker loop: wait for a phase, drain/steal chunks, acknowledge.

    When the phase message carries ``trace=True``, the worker records
    local trace-event tuples ``(ph, name, cat, ts_ns, dur_ns, args)`` —
    one span per phase plus one instant per steal — and returns them in
    the acknowledgment; the host adopts them onto this worker's trace
    thread (``perf_counter_ns`` is CLOCK_MONOTONIC on Linux, so the
    timestamps share the host tracer's timebase)."""
    arena = WorkerArena()
    queues.attach()
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            break
        _, layout, shapes, kernel, args, trace = msg
        done = same_steals = cross_steals = 0
        error = None
        events = [] if trace else None
        kb = None
        try:
            if kernel in ("mech_force", "mech_displace"):
                # Worker-side dispatch table: resolved once per process
                # from the parent's already-resolved backend name and
                # cached at module level (one JIT compile per worker).
                kb = worker_kernels(args.get("kernel_backend", "numpy"))
                args["_kb"] = kb
                kb_calls_before = kb.calls
            arena.sync(layout)
            # A spec is (shape, dtype) for a whole block, or (shape,
            # dtype, block, offset) for a column region inside the
            # consolidated SoA block: one mmap serves every agent column.
            views = {
                name: (arena.view(name, spec[0], spec[1])
                       if len(spec) == 2
                       else arena.view(spec[2], spec[0], spec[1],
                                       offset=spec[3]))
                for name, spec in shapes.items()
            }
            chunks = views["mech:chunks"]
            fn = KERNELS[kernel]
            t_phase = time.perf_counter_ns() if trace else 0
            while True:
                got = queues.take(worker_id)
                if got is None:
                    break
                cid, level = got
                fn(views, cid, int(chunks[cid, 0]), int(chunks[cid, 1]), args)
                done += 1
                if level == 1:
                    same_steals += 1
                    if trace:
                        events.append(("i", "steal_same_domain", "steal",
                                       time.perf_counter_ns(), 0,
                                       {"chunk": cid}))
                elif level == 2:
                    cross_steals += 1
                    if trace:
                        events.append(("i", "steal_cross_domain", "steal",
                                       time.perf_counter_ns(), 0,
                                       {"chunk": cid}))
            if trace:
                end = time.perf_counter_ns()
                events.append(("X", kernel, "worker", t_phase,
                               end - t_phase, {"chunks": done}))
        except BaseException:
            error = traceback.format_exc()
        # Drop view references so the next sync() can close replaced blocks.
        views = chunks = None
        # (backend name, kernel calls this phase, its threads) — lets the
        # host assert workers resolved the same backend as the parent, on
        # one thread each, and keep the kernel:worker_calls counter honest
        # (anti-vacuous equivalence).
        kinfo = ((kb.name, kb.calls - kb_calls_before, kb.threads)
                 if kb is not None else None)
        conn.send((worker_id, done, same_steals, cross_steals, error, events,
                   kinfo))
    arena.close()


# --------------------------------------------------------------------- #
# Host side
# --------------------------------------------------------------------- #

class ProcessBackend(ExecutionBackend):
    """Host orchestrator of the shared-memory worker pool."""

    name = "process"

    def __init__(self, sim):
        from repro.parallel.shm import SharedMemoryResourceManager

        if not isinstance(sim.rm, SharedMemoryResourceManager):
            raise TypeError(
                "process backend requires shared-memory columns; construct "
                "the Simulation with execution_backend='process' so it "
                "builds a SharedMemoryResourceManager"
            )
        p = sim.param
        self.sim = sim
        self.num_workers = int(p.backend_workers) or (os.cpu_count() or 1)
        self.chunk_size = int(p.backend_chunk_size)
        self.num_domains = sim.rm.num_domains
        #: Worker w serves simulated NUMA domain w % D — one worker group
        #: per domain, mirroring Machine.thread_domains.
        self.worker_domains = [w % self.num_domains
                               for w in range(self.num_workers)]
        self._team = None
        self._queues = None
        self._dead = False
        #: (id(indptr), id(indices), arena.layout_version) of the CSR copy
        #: currently in the arena; lets repeat steps over an unchanged CSR
        #: skip the copy.  The strong refs keep the ids stable.
        self._csr_state = None
        self._csr_refs = None
        reg = sim.obs.registry
        self._phases = reg.counter("backend:phases")
        self._chunks = reg.counter("backend:chunks")
        self._csr_copies = reg.counter("backend:csr_copies")
        self._steals_same = reg.counter("backend:steals_same_domain")
        self._steals_cross = reg.counter("backend:steals_cross_domain")
        self._worker_kernel_calls = reg.counter("kernel:worker_calls")
        #: Kernel backend name each worker reported in its last mechanics
        #: acknowledgment ({worker_id: name}); the regression tests assert
        #: this matches the parent's resolved ``sim.kernels.name``.
        self.worker_kernel_backends: dict[int, str] = {}
        #: The threads each worker's kernels ran on ({worker_id: 1}).
        self.worker_kernel_threads: dict[int, int] = {}

    # -- pool lifecycle ------------------------------------------------- #

    def _start(self) -> None:
        if self._queues is None:
            self._queues = StealQueues(CONTEXT, self.worker_domains)
        self._team = WorkerTeam(worker_main, self.num_workers,
                                "repro-shm-worker", args=(self._queues,))

    def shutdown(self) -> None:
        if self._team is not None:
            self._team.close()
            self._team = None
        if self._queues is not None:
            self._queues.destroy()
            self._queues = None

    def _fail(self, message: str):
        """Mark the pool dead, shut it down and raise ``message``."""
        self._dead = True
        self.shutdown()
        raise BackendError(message)

    def stats(self) -> dict:
        """Pool tallies (a view over the ``backend:*`` counters)."""
        return {
            "phases": int(self._phases.value),
            "chunks": int(self._chunks.value),
            "steals_same_domain": int(self._steals_same.value),
            "steals_cross_domain": int(self._steals_cross.value),
        }

    # -- partitioning --------------------------------------------------- #

    def _partition(self) -> np.ndarray:
        """Domain-major ``(C, 3)`` chunk table of (lo, hi, domain) rows."""
        rm = self.sim.rm
        rows = []
        for d in range(rm.num_domains):
            lo = int(rm.domain_starts[d])
            hi = int(rm.domain_starts[d + 1])
            seg = hi - lo
            if seg == 0:
                continue
            workers_here = max(1, self.worker_domains.count(d))
            # Respect queue capacity even for enormous populations.
            step = max(
                self.chunk_size,
                -(-seg // (workers_here * (DEFAULT_CAPACITY - 1))),
            )
            for s in range(lo, hi, step):
                rows.append((s, min(s + step, hi), d))
        return np.asarray(rows, dtype=np.int64).reshape(-1, 3)

    def _distribute(self, chunks: np.ndarray) -> list[list[int]]:
        """Round-robin each domain's chunks over that domain's workers."""
        per_worker: list[list[int]] = [[] for _ in range(self.num_workers)]
        domains = np.asarray(self.worker_domains)
        for d in np.unique(chunks[:, 2]):
            workers = np.flatnonzero(domains == d)
            if len(workers) == 0:
                workers = np.arange(self.num_workers)
            for j, cid in enumerate(np.flatnonzero(chunks[:, 2] == d)):
                per_worker[workers[j % len(workers)]].append(int(cid))
        return per_worker

    # -- phase execution ------------------------------------------------ #

    def _column_shapes(self) -> dict:
        """Worker view specs: every column is a region of the SoA block."""
        rm = self.sim.rm
        return {
            COLUMN_PREFIX + name: (
                arr.shape, arr.dtype.str, SOA_BLOCK,
                int(rm.soa.offsets[name]),
            )
            for name, arr in rm.data.items()
        }

    def _run_phase(self, kernel, args, shapes, num_chunks, per_worker) -> None:
        if self._dead:
            raise BackendError("process backend is dead after an earlier "
                               "failure; rebuild the simulation")
        if self._team is None:
            self._start()
        self._queues.fill(per_worker)
        tracer = self.sim.obs.tracer
        trace = tracer.enabled
        message = ("phase", self.sim.rm.arena.layout(), shapes, kernel, args,
                   trace)
        legs = [(w, message) for w in range(self.num_workers)]
        with tracer.span(f"phase:{kernel}", cat="backend", chunks=num_chunks):
            done = 0
            errors = []
            for _i, ack in self._team.exchange(legs):
                if isinstance(ack, WorkerLost):
                    # Survivors may wait on a lock it held: stop now.
                    self._fail(f"{ack}; rebuild the simulation")
                wid, d, same, cross, error, events, kinfo = ack
                done += d
                self._steals_same.inc(same)
                self._steals_cross.inc(cross)
                if kinfo is not None:
                    self.worker_kernel_backends[wid] = kinfo[0]
                    self.worker_kernel_threads[wid] = kinfo[2]
                    self._worker_kernel_calls.inc(kinfo[1])
                if events:
                    # Worker trace events ride the existing ack channel;
                    # adopt them onto this worker's trace thread.
                    tracer.ingest(events, tid=wid + 1)
                if error is not None:
                    errors.append(f"worker {wid}:\n{error}")
        if errors:
            self._fail("kernel failed in worker(s):\n" + "\n".join(errors))
        if done != num_chunks:
            self._fail(f"phase executed {done} of {num_chunks} chunks")
        self._phases.inc()
        self._chunks.inc(num_chunks)

    # -- stage entry points --------------------------------------------- #

    def force_and_displace(self, sim, indptr, indices, detect):
        rm = sim.rm
        p = sim.param
        n = rm.n
        if n == 0 or len(indices) == 0:
            # Same early-out (and same result arrays) as the serial path.
            return ForceResult(np.zeros((n, 3)), np.zeros(n, np.int64), 0)
        arena = rm.arena

        ip = arena.ensure("csr:indptr", indptr.shape, np.int64)
        ix = arena.ensure("csr:indices", indices.shape, np.int64)
        net = arena.ensure("mech:net_force", (n, 3), np.float64)
        nz = arena.ensure("mech:nonzero", (n,), np.int64)
        chunks = self._partition()
        ch = arena.ensure("mech:chunks", chunks.shape, np.int64)
        ch[...] = chunks
        pair_counts = arena.ensure("mech:chunk_pairs", (len(chunks),),
                                   np.int64)
        # Copy the CSR unless this exact CSR already sits in the arena
        # (repeat steps with a skipped environment rebuild, see the
        # scheduler) and no block was replaced since.  Under the
        # displacement-bounded neighbor cache, re-filtered steps hand over
        # *fresh* exact-CSR arrays every iteration — those must (and do)
        # recopy, since the ids differ; only full-skip steps reuse the
        # arena copy.  The refilter itself runs in the parent: workers
        # always receive the exact CSR, bitwise identical to a fresh
        # build, so the kernel needs no cache awareness.
        state = (id(indptr), id(indices), arena.layout_version)
        if self._csr_state != state:
            ip[...] = indptr
            ix[...] = indices
            self._csr_refs = (indptr, indices)
            self._csr_state = (id(indptr), id(indices), arena.layout_version)
            self._csr_copies.inc()

        shapes = self._column_shapes()
        shapes.update({
            "csr:indptr": (indptr.shape, np.dtype(np.int64).str),
            "csr:indices": (indices.shape, np.dtype(np.int64).str),
            "mech:net_force": ((n, 3), np.dtype(np.float64).str),
            "mech:nonzero": ((n,), np.dtype(np.int64).str),
            "mech:chunks": (chunks.shape, np.dtype(np.int64).str),
            "mech:chunk_pairs": ((len(chunks),), np.dtype(np.int64).str),
        })
        per_worker = self._distribute(chunks)
        kb_name = sim.kernels.name
        self._run_phase(
            "mech_force",
            {"detect": detect, "force": sim.force,
             "kernel_backend": kb_name},
            shapes, len(chunks), per_worker,
        )
        self._run_phase(
            "mech_displace",
            {"dt": p.simulation_time_step,
             "max_displacement": p.simulation_max_displacement,
             "kernel_backend": kb_name},
            shapes, len(chunks), per_worker,
        )
        # Fixed chunk order: sum of int64 pair counts is order-insensitive,
        # but keep the canonical order anyway for auditability.
        return ForceResult(net, nz, int(pair_counts.sum()))

    def run_agent_operation(self, sim, op) -> None:
        if not getattr(op, "vectorizable", False) or sim.rm.n == 0:
            op.run(sim)
            return
        arena = sim.rm.arena
        chunks = self._partition()
        ch = arena.ensure("mech:chunks", chunks.shape, np.int64)
        ch[...] = chunks
        shapes = self._column_shapes()
        shapes["mech:chunks"] = (chunks.shape, np.dtype(np.int64).str)
        per_worker = self._distribute(chunks)
        self._run_phase("agent_op", {"op": op}, shapes, len(chunks),
                        per_worker)
