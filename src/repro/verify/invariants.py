"""Executable engine invariants (the self-check behind
``Param.check_invariants_frequency``).

Each of the paper's fast paths preserves a structural property that its
naive counterpart guarantees by construction.  This module states those
properties as code:

- **ResourceManager** (§3.2): after any commit the agent vectors are
  dense (no holes), domain segments partition the storage, uids are
  unique, and payload addresses are not double-assigned.
- **Uniform grid** (§3.1): the timestamped boxes and array-based linked
  lists are acyclic and *complete* — every agent appears in exactly one
  live box, and that box is the one its coordinates map to.
- **Morton order** (§4.2): the gap-traversal run structure is a bijection
  between compact ranks and in-grid boxes
  (:meth:`~repro.sfc.gap_traversal.MortonRuns.validate`), and any sort
  result is a true permutation.
- **Static-agent detection** (§5): no agent flagged static would move if
  its force were computed after all — recomputing the full force on
  static agents must yield sub-epsilon displacements.

:func:`check_simulation_invariants` runs everything applicable to a live
simulation; the scheduler calls it every
``param.check_invariants_frequency`` iterations and raises
:class:`InvariantViolation` on the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.env.uniform_grid import UniformGridEnvironment
from repro.sfc.gap_traversal import morton_runs_3d

__all__ = [
    "InvariantViolation",
    "Violation",
    "check_resource_manager",
    "check_uniform_grid",
    "check_morton_runs",
    "check_static_agents",
    "check_permutation",
    "check_simulation_invariants",
    "InvariantCheckOperation",
]

#: Skip the O(#boxes) Morton-run validation above this box count; the
#: run structure is shape-only, so small grids exercise it fully.
MORTON_VALIDATE_MAX_BOXES = 1 << 18


class InvariantViolation(AssertionError):
    """An engine invariant does not hold; carries all violations found."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(
            "; ".join(f"[{v.name}] {v.message}" for v in violations)
        )


@dataclass
class Violation:
    """One failed invariant: which checker, and what it saw."""

    name: str
    message: str


# --------------------------------------------------------------------- #
# ResourceManager
# --------------------------------------------------------------------- #

def check_resource_manager(rm) -> list[Violation]:
    """Dense storage, consistent segments, unique uids/addresses."""
    out: list[Violation] = []

    def bad(msg):
        out.append(Violation("resource_manager", msg))

    for name, arr in rm.data.items():
        if len(arr) != rm.n:
            bad(f"column {name!r} has {len(arr)} rows, expected {rm.n}")

    starts = rm.domain_starts
    if len(starts) != rm.num_domains + 1:
        bad(f"domain_starts has {len(starts)} entries for "
            f"{rm.num_domains} domains")
    else:
        if starts[0] != 0 or starts[-1] != rm.n:
            bad(f"domain_starts {starts.tolist()} does not span [0, {rm.n}]")
        if np.any(np.diff(starts) < 0):
            bad(f"domain_starts {starts.tolist()} is not monotone")

    uids = rm.data["uid"][: rm.n]
    if rm.n:
        if np.any(uids < 0):
            # The uid fill value is -1: a negative uid is a hole that the
            # five-step removal left behind (or an insert never filled).
            bad(f"{int(np.sum(uids < 0))} agents have negative uids (holes)")
        unique = np.unique(uids)
        if len(unique) != rm.n:
            bad(f"uids are not unique: {rm.n} agents, "
                f"{len(unique)} distinct uids")
        if len(unique) and unique[-1] >= rm._next_uid:
            bad(f"uid {int(unique[-1])} >= next_uid {rm._next_uid}")
        if rm.allocator is not None:
            addrs = rm.data["addr"][: rm.n]
            if len(np.unique(addrs)) != rm.n:
                bad("payload addresses are double-assigned "
                    f"({rm.n - len(np.unique(addrs))} collisions)")

    # Staging arenas (batched agent-ops pipeline): every staged row must
    # be accounted for by exactly one (start, count) entry, the arenas
    # must be large enough to hold the staged rows, and entries may only
    # reference rows that were actually staged.
    staged = getattr(rm, "_staged", 0)
    entries = getattr(rm, "_staged_entries", {})
    entry_rows = sum(c for ranges in entries.values() for _, c, _ in ranges)
    if entry_rows != staged:
        bad(f"staging entries cover {entry_rows} rows but {staged} "
            "rows are staged")
    for thread, ranges in entries.items():
        for start, count, _dom in ranges:
            if start < 0 or count <= 0 or start + count > staged:
                bad(f"staging entry ({start}, {count}) of thread {thread} "
                    f"is outside the staged range [0, {staged})")
    for name, buf in getattr(rm, "_staging", {}).items():
        if name not in rm.data:
            bad(f"staging buffer {name!r} has no registered column")
        if len(buf) < staged:
            bad(f"staging buffer {name!r} holds {len(buf)} rows but "
                f"{staged} are staged")
    return out


# --------------------------------------------------------------------- #
# Uniform grid linked lists
# --------------------------------------------------------------------- #

def check_uniform_grid(env: UniformGridEnvironment) -> list[Violation]:
    """Timestamped boxes + linked lists are acyclic and complete."""
    out: list[Violation] = []

    def bad(msg):
        out.append(Violation("uniform_grid", msg))

    if env._incremental:
        # Chains are consolidated lazily; checking mid-insertion would
        # consolidate and change behavior.  Verified after neighbor_csr().
        return out
    state = env.linked_list_state()
    positions = state["positions"]
    n = len(positions)
    if n == 0:
        return out
    order = state["order"]
    box = state["box_of_agent"]
    stamp, ts = state["box_stamp"], state["timestamp"]
    start, count = state["box_start"], state["box_count"]

    if not np.array_equal(np.sort(order), np.arange(n)):
        bad("box order array is not a permutation of all agents")
        return out  # everything below would cascade

    # Geometry: each agent's stored box is the one its coordinates map to.
    dims = state["dims"]
    coords = ((positions - state["mins"]) / state["box_length"]).astype(np.int64)
    coords = np.minimum(coords, dims - 1)
    expect = (coords[:, 2] * dims[1] + coords[:, 1]) * dims[0] + coords[:, 0]
    if not np.array_equal(expect, box):
        wrong = int(np.sum(expect != box))
        bad(f"{wrong} agents stored in a box their coordinates do not map to")

    # Timestamps: every occupied box must be live this iteration.
    if np.any(stamp[box] != ts):
        bad("an agent sits in a stale (timestamp-mismatched) box")

    # Completeness: per live box, the [start, start+count) segment holds
    # exactly that box's agents, and the segments partition [0, n).
    # Stale boxes are effectively empty under the grid's timestamp
    # discipline — their start/count entries are dead memory and must not
    # be dereferenced (the arrays are reused across builds).
    boxes = np.unique(box)
    segs = []
    covered = 0
    for b in boxes:
        s, c = (int(start[b]), int(count[b])) if stamp[b] == ts else (0, 0)
        if c != int(np.sum(box == b)):
            bad(f"box {int(b)} count {c} != {int(np.sum(box == b))} agents")
            continue
        seg = order[s : s + c]
        if np.any(box[seg] != b):
            bad(f"box {int(b)} segment contains foreign agents")
        segs.append((s, c))
        covered += c
    if covered != n:
        bad(f"box segments cover {covered} of {n} agents")
    segs.sort()
    cursor = 0
    for s, c in segs:
        if s != cursor:
            bad(f"box segments overlap or leave a gap at offset {s}")
            break
        cursor += c

    # Linked lists: walking each box's successor chain must visit exactly
    # its segment, with no cycle (bounded walk).
    succ = state["successor"]
    for b in boxes:
        s, c = (int(start[b]), int(count[b])) if stamp[b] == ts else (0, 0)
        seg = set(order[s : s + c].tolist())
        cur = int(order[s]) if c else -1
        seen = set()
        while cur != -1 and len(seen) <= n:
            if cur in seen:
                bad(f"box {int(b)} linked list is cyclic at agent {cur}")
                break
            seen.add(cur)
            cur = int(succ[cur])
        if seen != seg:
            bad(f"box {int(b)} linked list visits {len(seen)} agents, "
                f"segment has {len(seg)}")
    return out


def check_morton_runs(env: UniformGridEnvironment) -> list[Violation]:
    """The gap-traversal run structure for the grid's shape is bijective."""
    if env._incremental or env.num_boxes == 0:
        return []
    if env.num_boxes > MORTON_VALIDATE_MAX_BOXES:
        return []
    dims = env.dims
    try:
        morton_runs_3d(int(dims[0]), int(dims[1]), int(dims[2])).validate()
    except ValueError as exc:
        return [Violation("morton_runs", str(exc))]
    return []


# --------------------------------------------------------------------- #
# Sorting
# --------------------------------------------------------------------- #

def check_permutation(n: int, new_order: np.ndarray,
                      name: str = "agent_sorting") -> list[Violation]:
    """A reorder must be a permutation — no agent duplicated or dropped."""
    if len(new_order) != n or not np.array_equal(
        np.sort(np.asarray(new_order)), np.arange(n)
    ):
        return [Violation(
            name,
            f"new_order (len {len(new_order)}) is not a permutation "
            f"of {n} agents",
        )]
    return []


# --------------------------------------------------------------------- #
# Static-agent detection
# --------------------------------------------------------------------- #

def check_static_agents(sim, csr=None) -> list[Violation]:
    """No static-flagged agent would move if its force were computed.

    At detection time a static agent had not moved (net displacement below
    ``MOVE_EPSILON``) and its neighborhood provably cannot have changed the
    force since — so recomputing the *full* force now must still produce a
    sub-epsilon displacement.  Agents whose current neighborhood contains a
    freshly committed agent (``moved`` flag set) are excluded: their static
    flag is cleared by the next detection pass before it is ever used to
    skip work on a changed neighborhood.
    """
    from repro.kernels.api import MOVE_EPSILON
    from repro.core.static_detection import neighbor_or

    rm = sim.rm
    static = rm.data["static"][: rm.n]
    if rm.n == 0 or not np.any(static) or not sim.mechanics_enabled:
        return []
    if csr is None:
        env = UniformGridEnvironment()
        env.update(rm.positions.copy(), sim.interaction_radius())
        csr = env.neighbor_csr()
    indptr, indices = csr
    fresh_neighbor = neighbor_or(rm.data["moved"][: rm.n], indptr, indices)
    checkable = static & ~fresh_neighbor & ~rm.data["moved"][: rm.n]
    if not np.any(checkable):
        return []
    res = sim.force.compute(
        rm.positions, rm.data["diameter"], indptr, indices, active=None
    )
    disp = np.linalg.norm(res.net_force, axis=1) * sim.param.simulation_time_step
    # Small slack over the engine's own epsilon for float noise.
    offenders = np.flatnonzero(checkable & (disp > MOVE_EPSILON * 4))
    if len(offenders):
        worst = int(offenders[np.argmax(disp[offenders])])
        return [Violation(
            "static_detection",
            f"{len(offenders)} static agents would move; worst agent "
            f"{worst} (uid {int(rm.data['uid'][worst])}) by {disp[worst]:.3e}",
        )]
    return []


# --------------------------------------------------------------------- #
# Whole-simulation driver
# --------------------------------------------------------------------- #

def check_simulation_invariants(sim, raise_on_violation: bool = False
                                ) -> list[Violation]:
    """Run every invariant applicable to ``sim``'s current state.

    The simulation's own environment is *stale* between iterations (agents
    moved, were committed, or were reordered after the build), so the grid
    invariants are checked on a fresh build over a copy of the current
    positions — this also means the build path itself is re-exercised on
    every check.
    """
    violations = check_resource_manager(sim.rm)
    if sim.rm.n:
        env = UniformGridEnvironment()
        env.update(sim.rm.positions.copy(), sim.interaction_radius())
        violations += check_uniform_grid(env)
        violations += check_morton_runs(env)
        if sim.param.detect_static_agents:
            violations += check_static_agents(sim, csr=env.neighbor_csr())
    if raise_on_violation and violations:
        raise InvariantViolation(violations)
    return violations


class InvariantCheckOperation:
    """Standalone operation form of the checker, for manual wiring.

    Equivalent to setting ``param.check_invariants_frequency``, but
    composable with other operations::

        sim.add_operation(InvariantCheckOperation(frequency=10))
    """

    name = "invariant_checks"
    parallelizable = False
    compute_ops = 1000.0

    def __init__(self, frequency: int = 1):
        from repro.core.operation import OpKind

        if frequency < 1:
            raise ValueError("frequency must be >= 1")
        self.frequency = frequency
        self.kind = OpKind.POST

    def due(self, iteration: int) -> bool:
        """Run every ``frequency``-th iteration, like any Operation."""
        return (iteration + 1) % self.frequency == 0

    def num_items(self, sim) -> int:
        """Charged as one serial item."""
        return 1

    def run(self, sim) -> None:
        """Raise :class:`InvariantViolation` if any invariant fails."""
        check_simulation_invariants(sim, raise_on_violation=True)
