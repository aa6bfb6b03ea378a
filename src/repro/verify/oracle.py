"""Differential oracle over neighbor-search environments (§6.9 analog).

The engine's clever fast paths — the timestamped uniform grid, the
batched kd-tree/octree traversals — must all answer identical queries
identically.  BioDynaMo validates this by cross-checking environments;
this module makes that check executable and automatic:

- :func:`compare_environments` runs one :class:`QuerySnapshot` through
  every implementation and reports per-agent disagreements against the
  brute-force reference.
- :func:`random_snapshots` generates adversarial configurations: varying
  densities and radii, duplicated points, and agents placed *exactly on
  box boundaries* (multiples of the interaction radius — the classic
  off-by-epsilon failure mode of grid binning).
- :func:`minimize_snapshot` shrinks a failing configuration to a (near)
  minimal set of agents that still disagrees, delta-debugging style, and
  emits a self-contained reproducer.
- :func:`run_oracle` ties it together for the CLI and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.verify.snapshot import ORACLE_ENVIRONMENTS, QuerySnapshot

__all__ = [
    "Disagreement",
    "OracleReport",
    "compare_environments",
    "compare_point_queries",
    "random_snapshots",
    "minimize_snapshot",
    "run_oracle",
]

#: Reference implementation; everything else is checked against it.
REFERENCE_ENV = "brute_force"


@dataclass
class Disagreement:
    """One environment answering one agent's query differently."""

    env: str
    agent: int
    missing: np.ndarray   # neighbors the reference found, env did not
    extra: np.ndarray     # neighbors env invented

    def describe(self) -> str:
        """One-line human summary: env, agent, missing/extra neighbors."""
        parts = []
        if len(self.missing):
            parts.append(f"missing {self.missing.tolist()}")
        if len(self.extra):
            parts.append(f"extra {self.extra.tolist()}")
        return f"{self.env}: agent {self.agent} {', '.join(parts)}"


@dataclass
class OracleFailure:
    """A snapshot on which at least one environment disagreed."""

    snapshot: QuerySnapshot
    disagreements: list[Disagreement]
    minimized: QuerySnapshot | None = None
    minimized_disagreements: list[Disagreement] = field(default_factory=list)

    def reproducer(self) -> str:
        """Self-contained code reproducing the (minimized) failure."""
        snap = self.minimized if self.minimized is not None else self.snapshot
        return snap.to_reproducer() + (
            "from repro.verify.oracle import compare_environments\n"
            "print(compare_environments(snapshot))\n"
        )


@dataclass
class OracleReport:
    """Outcome of one oracle sweep."""

    configs_checked: int
    failures: list[OracleFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable report; failures include minimized reproducers."""
        if self.ok:
            return (
                f"oracle: {self.configs_checked} configurations, "
                f"{len(ORACLE_ENVIRONMENTS)} environments — all agree"
            )
        lines = [
            f"oracle: {len(self.failures)} of {self.configs_checked} "
            "configurations DISAGREE"
        ]
        for f in self.failures:
            lines.append(f"  {f.snapshot.describe()}")
            for d in f.disagreements[:5]:
                lines.append(f"    {d.describe()}")
            if len(f.disagreements) > 5:
                lines.append(f"    ... {len(f.disagreements) - 5} more")
            if f.minimized is not None:
                lines.append(f"  minimized to {f.minimized.describe()}")
                lines.append("  reproducer:")
                for rl in f.reproducer().splitlines():
                    lines.append(f"    {rl}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------- #

def compare_environments(
    snapshot: QuerySnapshot,
    environments: tuple[str, ...] = ORACLE_ENVIRONMENTS,
) -> list[Disagreement]:
    """Run ``snapshot`` through every environment; list all disagreements
    with the brute-force reference (empty list = full agreement)."""
    reference = snapshot.run(REFERENCE_ENV)
    out: list[Disagreement] = []
    for name in environments:
        if name == REFERENCE_ENV:
            continue
        answer = snapshot.run(name)
        for agent, (ref, got) in enumerate(zip(reference, answer)):
            if len(ref) == len(got) and np.array_equal(ref, got):
                continue
            out.append(
                Disagreement(
                    env=name,
                    agent=agent,
                    missing=np.setdiff1d(ref, got),
                    extra=np.setdiff1d(got, ref),
                )
            )
    return out


def compare_point_queries(
    snapshot: QuerySnapshot,
    environments: tuple[str, ...] = ORACLE_ENVIRONMENTS,
) -> list[Disagreement]:
    """Differential check of every environment's vectorized point query.

    For each environment, builds it on the snapshot and compares
    :meth:`~repro.env.environment.Environment.query` (the batched path)
    against :meth:`query_scalar` (the per-point reference loop) on an
    adversarial deterministic point set: the agent positions themselves,
    midpoints between consecutive agents, and points outside the
    populated extent.  The two paths must return *identical* index
    arrays, in identical order.
    """
    from repro.env import make_environment

    pos = snapshot.positions
    shifted = np.roll(pos, 1, axis=0)
    points = np.concatenate([
        pos,
        (pos + shifted) / 2.0,
        pos.min(axis=0, keepdims=True) - snapshot.radius,
        pos.max(axis=0, keepdims=True) + snapshot.radius,
    ])
    out: list[Disagreement] = []
    for name in environments:
        env = make_environment(name)
        env.update(snapshot.positions, snapshot.radius)
        fast = env.query(points)
        slow = env.query_scalar(points)
        for i, (got, ref) in enumerate(zip(fast, slow)):
            if len(got) == len(ref) and np.array_equal(got, ref):
                continue
            out.append(
                Disagreement(
                    env=f"{name}.query",
                    agent=i,
                    missing=np.setdiff1d(ref, got),
                    extra=np.setdiff1d(got, ref),
                )
            )
    return out


# --------------------------------------------------------------------- #
# Configuration generation
# --------------------------------------------------------------------- #

def random_snapshots(num: int, seed: int = 0):
    """Yield ``num`` adversarial query configurations.

    Sweeps density (box side vs radius), cluster structure, duplicated
    points, and — in every configuration — a share of agents whose
    coordinates are snapped to exact multiples of the radius so they sit
    on grid-box boundaries.
    """
    for i in range(num):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(i,)))
        n = int(rng.integers(2, 64))
        radius = float(rng.uniform(0.5, 15.0))
        # Box side from sub-radius (everything neighbors) to ~12 radii
        # (sparse, many empty boxes).
        side = radius * float(rng.uniform(0.5, 12.0))
        positions = rng.uniform(0.0, side, size=(n, 3))
        if rng.random() < 0.5 and n >= 8:
            # Add tight clusters well below the radius.
            centers = rng.uniform(0.0, side, size=(3, 3))
            which = rng.integers(0, 3, size=n // 2)
            positions[: n // 2] = centers[which] + rng.normal(
                scale=radius * 0.05, size=(n // 2, 3)
            )
        # Boundary-coincident agents: snap ~25% of coordinates to exact
        # multiples of the radius (grid box edges when mins land on 0).
        snap = rng.random(size=(n, 3)) < 0.25
        positions[snap] = np.round(positions[snap] / radius) * radius
        # Exact duplicates (coincident centers).
        if n >= 4 and rng.random() < 0.3:
            positions[n - 1] = positions[0]
        # A pair at distance exactly == radius (the <= boundary itself).
        if n >= 6 and rng.random() < 0.5:
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            positions[n - 2] = positions[1] + direction * radius
        yield QuerySnapshot(positions, radius, seed=seed,
                            label=f"config {i}/{num}")


# --------------------------------------------------------------------- #
# Minimization
# --------------------------------------------------------------------- #

def minimize_snapshot(
    snapshot: QuerySnapshot,
    environments: tuple[str, ...] = ORACLE_ENVIRONMENTS,
    max_rounds: int = 32,
) -> tuple[QuerySnapshot, list[Disagreement]]:
    """Shrink a disagreeing snapshot to a (near) minimal one.

    Greedy delta debugging over the agent set: repeatedly try dropping
    chunks (halves, then quarters, ... then single agents); a drop is kept
    when the reduced configuration still disagrees.  The result is
    1-minimal: removing any single remaining agent makes all environments
    agree.
    """
    current = snapshot
    disagreements = compare_environments(current, environments)
    if not disagreements:
        raise ValueError("snapshot does not disagree; nothing to minimize")

    for _ in range(max_rounds):
        n = current.n
        if n <= 2:
            break
        chunk = n // 2
        shrunk = False
        while chunk >= 1:
            start = 0
            while start < current.n and current.n > 2:
                keep = np.ones(current.n, dtype=bool)
                keep[start : start + chunk] = False
                if keep.sum() < 2:
                    start += chunk
                    continue
                candidate = current.subset(
                    np.flatnonzero(keep),
                    label=f"minimized from {snapshot.n} agents",
                )
                cand_dis = compare_environments(candidate, environments)
                if cand_dis:
                    current = candidate
                    disagreements = cand_dis
                    shrunk = True
                    # Retry same window (contents shifted into it).
                else:
                    start += chunk
            chunk //= 2
        if not shrunk:
            break
    return current, disagreements


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #

def run_oracle(
    num_configs: int = 50,
    seed: int = 0,
    environments: tuple[str, ...] = ORACLE_ENVIRONMENTS,
    snapshots=None,
    minimize: bool = True,
) -> OracleReport:
    """Cross-check all environments over generated (or given) snapshots."""
    if snapshots is None:
        snapshots = random_snapshots(num_configs, seed=seed)
    failures: list[OracleFailure] = []
    checked = 0
    for snap in snapshots:
        checked += 1
        disagreements = compare_environments(snap, environments)
        if "uniform_grid" in environments:
            disagreements += compare_point_queries(snap)
        if not disagreements:
            continue
        failure = OracleFailure(snap, disagreements)
        # Minimization replays compare_environments only, so it applies
        # just when the neighbor-list check itself disagreed (dotted env
        # names — "<env>.query" — come from the point-query helper).
        if minimize and any(
            not (isinstance(d.env, str) and "." in d.env)
            for d in disagreements
        ):
            failure.minimized, failure.minimized_disagreements = (
                minimize_snapshot(snap, environments)
            )
        failures.append(failure)
    return OracleReport(configs_checked=checked, failures=failures)
