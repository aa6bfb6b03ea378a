"""Distributed execution backend: spatially sharded halo-exchange engine.

Promotes :mod:`repro.distributed` from the virtual cluster sketch
(:mod:`repro.distributed.engine`) to a real
``Param.execution_backend="distributed"``, following *TeraAgent:
Simulating Half a Trillion Agents* (PAPERS.md): the simulation domain is
partitioned across OS-process shards along a space-filling curve
(:class:`repro.distributed.partition.SpatialPartition`), each shard owns
a contiguous key span plus a **halo ring** of ghost agents at boundary
width ``interaction_radius + skin``, and every step runs the same
two-phase barriered protocol as the process backend's mechanics
dispatch:

1. **force** — the host synchronizes each shard's ``owned ∪ halo``
   replica (delta-encoded against the last exchanged epoch, see
   :mod:`repro.distributed.delta`), the shard builds a *shard-local*
   uniform grid + CSR over its replica and computes net forces for its
   owned rows; the host gathers every shard's contribution (the
   reduction barrier).
2. **displace** — each shard applies the clamped Euler displacement to
   its owned rows and acks the new positions, moved flags, and a
   per-shard digest; the host scatters results, rolls the shard digests
   into a global digest, verifies it against its own authoritative
   columns, and counts ownership migrations (agents whose cell crossed
   a partition cut).

**Bitwise identity to serial** (gated by
``verify.replay.distributed_equivalence``) follows from three facts:
the uniform grid emits canonically ordered CSR rows that are a pure
function of ``(positions, radius)``, so a shard-local build over the
halo-superset replica reproduces each owned row's neighbor list exactly
(content *and* order) under the monotone local→global index mapping;
per-row force accumulation (``np.bincount`` in CSR order) and the
degenerate-pair tie-break (``qi < qj``) are preserved under that
monotone mapping; and displacement is row-elementwise.  Shards run the
NumPy reference kernels (the bitwise branch of ``repro.kernels``).

Known limits (see ``docs/distributed.md``): agent operations fall back
to host-serial execution; behaviors that mutate positions directly
between the environment build and mechanics are outside the bitwise
contract (they are equally outside the neighbor cache's contract).
"""

from __future__ import annotations

import hashlib
import pickle
import time

import multiprocessing as mp

import numpy as np

from repro.core.arena import SoAArena
from repro.core.force import ForceResult
from repro.distributed.delta import apply_delta, dirty_rows, encode_delta
from repro.distributed.partition import SpatialPartition
from repro.distributed.transport import (
    TransportError,
    make_transport,
)
from repro.kernels import numpy_ref
from repro.parallel.backend import ExecutionBackend
from repro.parallel.process_backend import BackendError

__all__ = ["DistributedBackend", "shard_main", "SYNC_COLUMNS"]

#: Columns every shard replica carries (in arena packing order).  The
#: force phase reads all three; ``static`` gates the active mask when
#: §5 static-agent detection is on.
SYNC_COLUMNS = ("position", "diameter", "static")

#: Fallback halo skin as a fraction of the interaction radius when
#: ``Param.neighbor_skin`` is auto (0) — matches the upper clamp of the
#: scheduler's auto-tuned Verlet skin.
HALO_SKIN_FRACTION = 0.1


def _column_dict(rm, rows: np.ndarray) -> dict:
    """Host-side gather of the sync columns for ``rows``."""
    return {name: np.ascontiguousarray(rm.data[name][rows])
            for name in SYNC_COLUMNS}


def _shard_digest(ids_owned: np.ndarray, positions_owned: np.ndarray) -> str:
    """Digest of one shard's owned state (ids + position bytes)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ids_owned).tobytes())
    h.update(np.ascontiguousarray(positions_owned).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# Shard worker process
# --------------------------------------------------------------------- #


class _ShardState:
    """A shard's replica: membership ids + columns in a local SoA arena."""

    def __init__(self):
        self.arena = SoAArena()
        self.arena.add_column("position", np.float64, (3,))
        self.arena.add_column("diameter", np.float64, ())
        self.arena.add_column("static", np.bool_, ())
        self.ids = np.empty(0, dtype=np.int64)
        self.owned = np.empty(0, dtype=bool)
        self.net = np.zeros((0, 3))

    @property
    def k(self) -> int:
        """Replica rows (owned + halo)."""
        return len(self.ids)

    def columns(self) -> dict:
        """Zero-copy views of the live replica columns."""
        return {name: self.arena.view(name, self.k) for name in SYNC_COLUMNS}

    def apply_sync(self, mode: str, ids: np.ndarray, blob: bytes) -> None:
        """Install a sync payload as the new replica."""
        if mode == "pack":
            self.arena.reserve(len(ids), 0)
            self.ids = ids
            self.arena.unpack_rows(
                SYNC_COLUMNS, np.arange(len(ids), dtype=np.int64), blob,
                len(ids),
            )
        else:
            new_ids, new_cols = apply_delta(blob, self.ids, self.columns())
            self.arena.reserve(len(new_ids), 0)
            self.ids = new_ids
            for name in SYNC_COLUMNS:
                self.arena.view(name, len(new_ids))[...] = new_cols[name]


def shard_main(shard_id: int, endpoint, box_length_factor: float) -> None:
    """Shard worker loop: sync replica, force, displace, repeat.

    Runs in a forked child.  Every phase message is answered with
    exactly one ack; errors are reported back as an ``("error", ...)``
    header so the host can fail loudly instead of hanging.
    """
    from repro.env.uniform_grid import UniformGridEnvironment

    state = _ShardState()
    env = UniformGridEnvironment(box_length_factor=box_length_factor)
    try:
        while True:
            try:
                header, payload = endpoint.recv()
            except TransportError:
                break
            kind = header[0]
            if kind == "stop":
                break
            try:
                if kind == "force":
                    (_, epoch, mode, ids_bytes, owned_bytes, radius,
                     detect, grid_fix, force_blob) = header
                    ids = np.frombuffer(ids_bytes, dtype=np.int64)
                    state.apply_sync(mode, ids.copy(), payload)
                    state.owned = np.frombuffer(
                        owned_bytes, dtype=np.bool_).copy()
                    force_model = pickle.loads(force_blob)
                    cols = state.columns()
                    k = state.k
                    t0 = time.perf_counter()
                    net = np.zeros((k, 3))
                    nz = np.zeros(k, dtype=np.int64)
                    pairs = 0
                    if k:
                        # The neighbor CSR is defined by the positions the
                        # host's environment build saw; behaviors may have
                        # moved agents since (grid_fix carries the
                        # affected rows' build-time coordinates).  Forces
                        # then use the *current* positions, exactly like
                        # the serial path.
                        grid_pos = cols["position"]
                        if grid_fix is not None:
                            idx_b, pos_b = grid_fix
                            grid_pos = grid_pos.copy()
                            fix_idx = np.frombuffer(idx_b, dtype=np.int64)
                            grid_pos[fix_idx] = np.frombuffer(
                                pos_b, dtype=np.float64
                            ).reshape(len(fix_idx), 3)
                        env.update(grid_pos, radius)
                        indptr, indices = env.neighbor_csr()
                        active = state.owned & ~cols["static"] if detect \
                            else state.owned
                        pairs = numpy_ref.force_rows(
                            cols["position"], cols["diameter"], indptr,
                            indices, active, net, nz, 0, k,
                            force_model=force_model,
                        )
                    state.net = net
                    compute_s = time.perf_counter() - t0
                    own = np.flatnonzero(state.owned)
                    ack_payload = (
                        np.ascontiguousarray(net[own]).tobytes()
                        + np.ascontiguousarray(nz[own]).tobytes()
                    )
                    endpoint.send(
                        ("force_ack", epoch, len(own), int(pairs),
                         compute_s),
                        ack_payload,
                    )
                elif kind == "displace":
                    _, epoch, dt, max_disp = header
                    t0 = time.perf_counter()
                    own = np.flatnonzero(state.owned)
                    cols = state.columns()
                    pos_own = cols["position"][own].copy()
                    moved = np.zeros(len(own), dtype=bool)
                    numpy_ref.displace(
                        pos_own, moved, state.net[own], dt, max_disp
                    )
                    # Keep the replica's owned rows current: the host's
                    # delta baseline assumes the shard holds exactly the
                    # values it acked.
                    cols["position"][own] = pos_own
                    pos_blob = state.arena.pack_rows(
                        ["position"], own, state.k
                    )
                    digest = _shard_digest(state.ids[own], pos_own)
                    compute_s = time.perf_counter() - t0
                    endpoint.send(
                        ("displace_ack", epoch, len(own), digest,
                         compute_s),
                        pos_blob.tobytes() + moved.tobytes(),
                    )
                else:
                    endpoint.send(
                        ("error", f"shard {shard_id}: unknown phase "
                         f"{kind!r}"),
                    )
            except Exception as exc:  # surface, don't hang the host
                import traceback

                endpoint.send(
                    ("error",
                     f"shard {shard_id}: {exc}\n{traceback.format_exc()}"),
                )
    finally:
        endpoint.close()


# --------------------------------------------------------------------- #
# Host backend
# --------------------------------------------------------------------- #


class DistributedBackend(ExecutionBackend):
    """Spatially sharded execution backend (``execution_backend=
    "distributed"``).

    The host process stays authoritative for the full agent state
    (``sim.rm``); shards hold delta-synchronized ``owned ∪ halo``
    replicas and execute the mechanics phases.  See the module docstring
    for the protocol and the bitwise-identity argument; counters surface
    under the ``dist:`` prefix in ``sim.obs``.
    """

    name = "distributed"

    def __init__(self, sim, shards: int | None = None,
                 transport: str | None = None):
        p = sim.param
        self.sim = sim
        self.num_shards = int(shards or p.backend_shards or 2)
        if self.num_shards < 1:
            raise ValueError("distributed backend needs >= 1 shard")
        self.transport_kind = transport or p.distributed_transport
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._procs: list = []
        self._endpoints: list = []
        self._started = False
        self._dead = False
        self._epoch = 0
        # Partition + per-shard sync baselines (host bookkeeping).
        self._partition: SpatialPartition | None = None
        self._partition_struct: int | None = None
        self._ids: list = [None] * self.num_shards
        self._baseline: list = [None] * self.num_shards
        #: Positions the current CSR was materialized from (set by the
        #: scheduler via :meth:`stash_csr_positions`, consumed once).
        self._csr_positions: np.ndarray | None = None
        # --- instrumentation (dist:* metrics) --------------------------- #
        reg = sim.obs.registry
        reg.gauge("dist:shards").set(self.num_shards)
        self._halo_agents = reg.counter("dist:halo_agents")
        self._halo_bytes = reg.counter("dist:halo_bytes")
        self._migrations = reg.counter("dist:migrations")
        self._sync_full = reg.counter("dist:sync_full")
        self._sync_delta = reg.counter("dist:sync_delta")
        self.exchange_seconds = 0.0
        self.compute_seconds = 0.0
        reg.register_callback(
            "dist:exchange_seconds", lambda: self.exchange_seconds)
        self.steps = 0
        self.digest_checks = 0
        self.last_global_digest: str | None = None

    # -- pool lifecycle ------------------------------------------------- #

    def _shard_endpoint(self, shard: int) -> str:
        """Bind address for one shard's socket transport link.

        ``Param.distributed_endpoint`` names the base ``host:port``;
        each shard listens one port higher than the last so the links
        stay distinguishable (port 0 stays 0 — the OS hands every shard
        its own ephemeral port).  Empty endpoint or a non-socket
        transport → empty string (the socketpair stub / ignored).
        """
        endpoint = self.sim.param.distributed_endpoint
        if not endpoint or self.transport_kind != "socket":
            return ""
        host, _, port_text = endpoint.rpartition(":")
        port = int(port_text)
        return f"{host}:{port + shard if port else 0}"

    def _start(self) -> None:
        if mp.current_process().daemon:
            raise BackendError(
                "distributed backend cannot start inside a daemonic "
                "process (e.g. a serve-pool worker); use "
                "execution_backend='serial'"
            )
        if self.transport_kind == "shm":
            # Start the shared-memory resource tracker *before* forking:
            # parent and shards then share one tracker, so a segment
            # registered by its creator and again by an attacher is a
            # single deduplicated entry that the creator's unlink clears
            # (a tracker forked per shard would "clean up" the host's
            # segments at shard exit).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        box_factor = getattr(self.sim.env, "box_length_factor", 1.0)
        for s in range(self.num_shards):
            host_end, shard_end = make_transport(
                self.transport_kind, self._shard_endpoint(s)
            )
            proc = self._ctx.Process(
                target=shard_main,
                args=(s, shard_end, box_factor),
                daemon=True,
                name=f"repro-shard-{s}",
            )
            proc.start()
            self._procs.append(proc)
            self._endpoints.append(host_end)
        self._started = True

    def shutdown(self) -> None:
        """Stop shard processes and release transports; idempotent."""
        if self._started:
            for ep in self._endpoints:
                try:
                    ep.send(("stop",))
                except TransportError:
                    pass
            for proc in self._procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=1)
            for ep in self._endpoints:
                ep.close()
            self._procs = []
            self._endpoints = []
            self._started = False

    def _recv_ack(self, shard: int, expected: str, epoch: int):
        try:
            header, payload = self._endpoints[shard].recv()
        except TransportError as exc:
            self._dead = True
            self.shutdown()
            raise BackendError(
                f"shard {shard} transport failed: {exc}"
            ) from exc
        if header[0] == "error":
            self._dead = True
            self.shutdown()
            raise BackendError(header[1])
        if header[0] != expected or header[1] != epoch:
            self._dead = True
            self.shutdown()
            raise BackendError(
                f"shard {shard} answered {header[0]!r}/{header[1]} to "
                f"{expected!r}/{epoch} (protocol desync)"
            )
        return header, payload

    def stash_csr_positions(self, rm) -> None:
        """Snapshot the positions the freshly materialized CSR is defined
        by (behaviors may move agents before mechanics runs)."""
        self._csr_positions = rm.positions.copy()

    # -- partition / sync ------------------------------------------------ #

    def _ensure_partition(self, rm, radius: float) -> SpatialPartition:
        if (self._partition is None
                or self._partition_struct != rm.structure_version):
            self._partition = SpatialPartition(
                rm.positions, radius, self.num_shards,
                curve=self.sim.param.space_filling_curve,
            )
            self._partition_struct = rm.structure_version
            # Membership indices are storage indices: any structural
            # change invalidates every shard baseline → full resync.
            self._ids = [None] * self.num_shards
            self._baseline = [None] * self.num_shards
        return self._partition

    def _encode_sync(self, rm, shard: int, members: np.ndarray) -> tuple:
        """Delta (or full) payload bringing ``shard`` to ``members``."""
        if self._ids[shard] is None:
            # Full resync straight off the host's SoA arena block: one
            # contiguous packed slice instead of per-column copies.
            mode, blob = "pack", rm.soa.pack_rows(
                SYNC_COLUMNS, members, rm.n).tobytes()
            self._sync_full.inc()
        else:
            mode, blob = "delta", encode_delta(
                members, _column_dict(rm, members),
                self._ids[shard], self._baseline[shard],
            )
            self._sync_delta.inc()
        self._ids[shard] = members
        self._baseline[shard] = _column_dict(rm, members)
        return mode, blob

    # -- the two-phase step ---------------------------------------------- #

    def force_and_displace(self, sim, indptr, indices, detect):
        """Run one sharded mechanics step (see the module docstring).

        ``indptr``/``indices`` — the host-built global CSR — are left to
        the scheduler's static-detection pass; force rows come from each
        shard's local grid, built at the exact radius of the host's
        current environment build so both derivations of every neighbor
        row agree bitwise.
        """
        rm = sim.rm
        p = sim.param
        n = rm.n
        if self._dead:
            raise BackendError("distributed backend is dead after an "
                               "earlier failure; rebuild the simulation")
        if n == 0:
            return ForceResult(np.zeros((0, 3)), np.zeros(0, np.int64), 0)
        if not self._started:
            self._start()
        self._epoch += 1
        epoch = self._epoch
        # The radius of the CSR build this iteration's mechanics uses
        # (may predate behavior-driven diameter growth this step).
        env_key = getattr(sim.scheduler, "_env_key", None)
        radius = float(env_key[0]) if env_key else sim.interaction_radius()
        part = self._ensure_partition(rm, radius)
        skin = p.neighbor_skin if p.neighbor_skin > 0 \
            else HALO_SKIN_FRACTION * radius
        # Pairs are defined by the positions the CSR was materialized
        # from (pre-behavior snapshot, when the scheduler provided one):
        # ownership, halo membership, and the shard grid builds all use
        # the snapshot; force math and displacement use current rows.
        snap = self._csr_positions
        if snap is None or len(snap) != n:
            snap = rm.positions
        owner_before = part.owner_of(snap)
        owned_masks, ghost_masks = part.members(
            snap, halo_width=radius + skin)
        moved_since_build = dirty_rows(rm.positions, snap)
        force_blob = pickle.dumps(sim.force)

        send_s = 0.0
        owned_idx = []
        for s in range(self.num_shards):
            members = np.flatnonzero(owned_masks[s] | ghost_masks[s])
            owned_idx.append(np.flatnonzero(owned_masks[s][members]))
            self._halo_agents.inc(int(ghost_masks[s].sum()))
            mode, blob = self._encode_sync(rm, s, members)
            self._halo_bytes.inc(len(blob))
            grid_fix = None
            fixed = np.flatnonzero(moved_since_build[members])
            if len(fixed):
                grid_fix = (
                    fixed.tobytes(),
                    np.ascontiguousarray(snap[members[fixed]]).tobytes(),
                )
            header = ("force", epoch, mode, members.tobytes(),
                      np.ascontiguousarray(
                          owned_masks[s][members]).tobytes(),
                      radius, bool(detect), grid_fix, force_blob)
            t0 = time.perf_counter()
            try:
                self._endpoints[s].send(header, blob)
            except TransportError as exc:
                self._dead = True
                self.shutdown()
                raise BackendError(
                    f"shard {s} send failed: {exc}") from exc
            send_s += time.perf_counter() - t0

        # Phase 1 barrier: gather every shard's force reduction.
        net = np.zeros((n, 3))
        nz = np.zeros(n, dtype=np.int64)
        pairs = 0
        t_recv = time.perf_counter()
        max_compute = 0.0
        for s in range(self.num_shards):
            header, payload = self._recv_ack(s, "force_ack", epoch)
            _, _, k_own, pairs_s, compute_s = header
            pairs += pairs_s
            max_compute = max(max_compute, compute_s)
            ids_own = self._ids[s][owned_idx[s]]
            net_bytes = 24 * k_own
            net[ids_own] = np.frombuffer(
                payload, dtype=np.float64, count=3 * k_own
            ).reshape(k_own, 3)
            nz[ids_own] = np.frombuffer(
                payload, dtype=np.int64, count=k_own, offset=net_bytes)
        force_wall = time.perf_counter() - t_recv

        # Phase 2: displacement + ownership migration.
        t0 = time.perf_counter()
        for s in range(self.num_shards):
            self._endpoints[s].send(
                ("displace", epoch, p.simulation_time_step,
                 p.simulation_max_displacement))
        send_s += time.perf_counter() - t0
        t_recv = time.perf_counter()
        shard_digests = []
        displace_compute = 0.0
        for s in range(self.num_shards):
            header, payload = self._recv_ack(s, "displace_ack", epoch)
            _, _, k_own, digest, compute_s = header
            displace_compute = max(displace_compute, compute_s)
            ids_own = self._ids[s][owned_idx[s]]
            pos_bytes = 24 * k_own
            pos_own = np.frombuffer(
                payload, dtype=np.float64, count=3 * k_own
            ).reshape(k_own, 3)
            moved = np.frombuffer(
                payload, dtype=np.bool_, count=k_own, offset=pos_bytes)
            rm.positions[ids_own] = pos_own
            rm.data["moved"][ids_own] |= moved
            # The baseline must mirror what the shard holds *after* the
            # step, or the next delta would re-ship every displaced row.
            self._baseline[s]["position"][owned_idx[s]] = pos_own
            shard_digests.append(digest)
            # Replica-consistency gate: the digest of what the shard
            # acked must match a re-derivation from the authoritative
            # columns it was just scattered into.
            if digest != _shard_digest(ids_own, rm.positions[ids_own]):
                self._dead = True
                self.shutdown()
                raise BackendError(
                    f"shard {s} digest mismatch at epoch {epoch}: "
                    "replica diverged from authoritative state"
                )
            self.digest_checks += 1
        displace_wall = time.perf_counter() - t_recv

        roll = hashlib.sha256()
        for digest in shard_digests:
            roll.update(digest.encode("ascii"))
        self.last_global_digest = roll.hexdigest()

        owner_after = part.owner_of(rm.positions)
        self._migrations.inc(int((owner_after != owner_before).sum()))
        self.compute_seconds += max_compute + displace_compute
        self.exchange_seconds += send_s + max(
            0.0, force_wall - max_compute
        ) + max(0.0, displace_wall - displace_compute)
        self.steps += 1
        self._csr_positions = None  # one snapshot per materialized CSR
        return ForceResult(net, nz, int(pairs))

    # -- reporting -------------------------------------------------------- #

    def member_ids(self) -> list:
        """Per-shard membership (sorted global indices) of the last sync,
        ``None`` for shards that never synced — consumed by the
        halo-ownership invariant check."""
        return list(self._ids)

    def owned_masks(self):
        """Per-shard owned masks over the full population at the current
        positions (pure partition query; ``None`` before the first
        step)."""
        if self._partition is None:
            return None
        rm = self.sim.rm
        owner = self._partition.owner_of(rm.positions)
        return [owner == s for s in range(self.num_shards)]

    def stats(self) -> dict:
        """Counters for ``trace``/bench reporting (dist:* mirror)."""
        reg = self.sim.obs.registry
        return {
            "shards": self.num_shards,
            "transport": self.transport_kind,
            "steps": self.steps,
            "halo_agents": int(self._halo_agents.value),
            "halo_bytes": int(self._halo_bytes.value),
            "migrations": int(self._migrations.value),
            "sync_full": int(self._sync_full.value),
            "sync_delta": int(self._sync_delta.value),
            "exchange_seconds": self.exchange_seconds,
            "compute_seconds": self.compute_seconds,
            "digest_checks": self.digest_checks,
            "last_global_digest": self.last_global_digest,
        }
